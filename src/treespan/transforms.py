"""Constructive transformations between compatible plane spanning trees.

Three routes: cylindrical (through the uncrossed cycle paths), the spine
route for monotone and strongly c-monotone drawings, and the star family
(flip schedules along the crossing relation).  The spine route takes each
tree to the spine path in at most n - 1 rounds of one loop, each round a
step dropping twiggly edges (those crossing the spine): a maximal one
through the vertices above it, or all of them by corridor paths.  A
strongly c-monotone drawing with a non-spine cycle edge is first cut to a
monotone drawing with the same crossing matrix.  Both steps read one strip
table per drawing (``_strip``): for each gap between consecutive vertices
the edges spanning it from lowest to highest, and for each edge the
vertices and the non-crossing edges above it.  Building the table is the
only curve evaluation on the route; a round and its certificates work on
masks.
Each public call turns its input trees into edge masks once, works on masks
throughout (nested steps are private cores returning mask lists), and
certifies its own output exactly once, in ``_certified``.  The returned
``TransformSequence`` keeps those masks and builds its edge tuples,
``trees``, the first time something reads them.
Whatever a route reads that depends only on the drawing is built once per
drawing: the classifications and the cut (``drawing``), the strip table,
each spine's masks, each ordered centre pair's relation order, the
cylindrical path and side masks, and each tree's conflict mask (its
certificate).  The checks inside each round still run on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .drawing import (
    CylRoles,
    Drawing,
    Edge,
    SpineStructure,
    bits,
    classify_c_monotone,
    classify_monotone,
    cut_to_monotone,
    edge,
)
from .errors import (
    IncompatibleStepError,
    InternalInvariantViolated,
    NoSideEdgeError,
    NotCylindricalError,
    NotDoubleStarError,
    NotMonotoneError,
    NotSpecialTreeError,
    NotStronglyCMonotoneError,
    NotTwinStarError,
    RelationCyclicError,
)
from .geometry import curve_eval
from .trees import (
    Tree,
    _UnionFind,
    _double_star_paths,
    _incidence,
    _input_masks,
    _plane_spanning,
    _star_centers,
    _twin_star_paths,
    check_mask,
    conflict_mask,
    mask_tree,
    tree_mask,
    twin_star_paths,
)


@dataclass(frozen=True)
class TransformSequence:
    edges: Tuple[Edge, ...]        # the drawing's edges: bit i is edges[i]
    masks: Tuple[int, ...]
    method: str
    certified: ClassVar[bool] = True  # only _certified builds sequences

    @cached_property
    def trees(self) -> Tuple[Tree, ...]:
        return tuple(mask_tree(self, mask) for mask in self.masks)

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def flips(self) -> int:
        return len(self.masks) - 1


def certify_sequence(d: Drawing, trees: Sequence[Iterable[Edge]],
                     method: str = "manual") -> TransformSequence:
    """Verify every tree is plane spanning and every consecutive pair is
    compatible; raises BadTreeError / IncompatibleStepError otherwise."""
    if not trees:
        raise ValueError("empty sequence")
    return _certified(d, [tree_mask(d, t) for t in trees], method)


def _certified(d: Drawing, masks: List[int], method: str) -> TransformSequence:
    """certify_sequence on masks: the one certification of each call."""
    for i, mask in enumerate(masks):
        _plane_spanning(d, mask, i)
    for i in range(len(masks) - 1):
        if masks[i] & check_mask(d, masks[i + 1]).conflict:
            raise IncompatibleStepError(i)
    return TransformSequence(edges=d.edges, masks=tuple(masks), method=method)


def _dedupe(trees: list) -> list:
    return [t for i, t in enumerate(trees) if i == 0 or t != trees[i - 1]]


def _retree(d: Drawing, groups: Sequence[int]) -> int:
    """Spanning tree built greedily from the edge-mask groups in
    keep-priority order (earlier groups are preferentially kept, ids
    ascending within one)."""
    edges = d.edges
    uf = _UnionFind(d.n)
    out = 0
    for group in groups:
        for i in bits(group):  # a repeated edge fails its second union
            if uf.union(*edges[i]):
                out |= 1 << i
    if out.bit_count() != d.n - 1:
        raise InternalInvariantViolated("edge pool does not connect the graph")
    return out


# ---------------------------------------------------------------------------
# cylindrical
# ---------------------------------------------------------------------------

def transform_cylindrical(d: Drawing, roles: Optional[CylRoles],
                          t1: Iterable[Edge], t2: Iterable[Edge]) -> TransformSequence:
    """At most five trees: t1, the cycle-path tree with a side edge of t1,
    (optionally a bridge over an uncrossable side-edge pair), the analogous
    tree for t2, and t2."""
    if roles is None:
        raise NotCylindricalError("drawing is not cylindrical")
    t1, t2 = _input_masks(d, [t1, t2])
    if t1 == t2:
        return _certified(d, [t1], "cylindrical")
    if not t1 & check_mask(d, t2).conflict:
        return _certified(d, [t1, t2], "cylindrical")

    paths = roles.paths_mask
    if not roles.inner_vertices or not roles.outer_vertices:
        return _certified(d, _dedupe([t1, paths, t2]), "cylindrical")

    sides1, sides2 = t1 & roles.sides_mask, t2 & roles.sides_mask
    if not sides1 or not sides2:
        raise NoSideEdgeError("spanning tree without a side edge")
    e1, e2 = sides1 & -sides1, sides2 & -sides2  # lowest bit: the least edge
    seq = [t1, paths | e1]
    if e1 & conflict_mask(d, e2):
        inner = set(roles.inner_vertices)
        (a1, b1), (a2, b2) = mask_tree(d, e1) + mask_tree(d, e2)
        s1, r1 = (a1, b1) if a1 in inner else (b1, a1)
        s2, r2 = (a2, b2) if a2 in inner else (b2, a2)
        bridge = tree_mask(d, [min(edge(s1, r2), edge(s2, r1))])
        if bridge & conflict_mask(d, e1 | e2):
            raise InternalInvariantViolated(
                "replacement side edge crosses the originals")
        seq.append(paths | bridge)
    seq += [paths | e2, t2]
    return _certified(d, _dedupe(seq), "cylindrical")


# ---------------------------------------------------------------------------
# spine route: monotone and strongly c-monotone
# ---------------------------------------------------------------------------

def monotone_to_spine(d: Drawing, spine: Optional[SpineStructure],
                      t: Iterable[Edge]) -> TransformSequence:
    """Repeatedly resolve a maximal twiggly edge through the path over the
    vertices above it, ending at the spine path.  The twiggly count strictly
    decreases each round; violations raise InternalInvariantViolated."""
    if spine is None or spine.kind != "monotone":
        raise NotMonotoneError("drawing is not monotone")
    return _spine_route(d, spine, [t])


def cmonotone_to_spine(d: Drawing, t: Iterable[Edge]) -> TransformSequence:
    """Strongly c-monotone transformation to a spine path.

    With a non-spine cycle edge present the drawing is unrolled to a
    monotone one (identical edges and crossing matrix, so identical masks)
    and resolved there; otherwise each round adds every corridor path,
    drops all twiggly edges, and the twiggly depth of every ray decreases
    where it was positive."""
    c_mono, strongly, spine = classify_c_monotone(d)
    if not (c_mono and strongly):
        raise NotStronglyCMonotoneError("drawing is not strongly c-monotone")
    return _spine_route(d, spine, [t])


def _spine_route(d: Drawing, spine: SpineStructure,
                 trees: Sequence[Iterable[Edge]]) -> TransformSequence:
    """The first tree down to the spine path and back up to the second, if
    given, certified once with ``spine.kind`` as the method.  A drawing
    with a non-spine cycle edge is cut once and routed on its flat spine."""
    masks = _input_masks(d, trees)
    flat, flat_spine = d, spine
    if spine.all_cycle_edges_spine is False:
        flat = cut_to_monotone(d)
        flat_spine = classify_monotone(flat)
    step = _monotone_step if flat_spine.kind == "monotone" else _corridor_step
    seq: List[int] = []
    for t, way in zip(masks, (1, -1)):  # the second tree's rounds reversed
        seq += _rounds(flat, flat_spine, t, step)[::way]
    return _certified(d, _dedupe(seq), spine.kind)


def _rounds(d: Drawing, spine: SpineStructure, t: int, step) -> List[int]:
    """Masks from t to the spine path: one ``step`` per round, at most
    n - 1 rounds, while t keeps a twiggly edge (one crossing the spine)."""
    spine_mask, twiggly, path = d._derive(_spine_masks, spine)
    seq = [t]
    while t & twiggly:
        if len(seq) > d.n - 1:
            raise InternalInvariantViolated("too many spine rounds")
        t = step(d, spine_mask, twiggly, t)
        seq.append(t)
    return seq + [path]


def _spine_masks(d: Drawing, spine: SpineStructure) -> Tuple[int, int, int]:
    """The spine's edge mask, the twiggly mask (every edge crossing the
    spine) and the spine path's mask."""
    spine_mask = tree_mask(d, spine.spine_edges)
    path = tree_mask(d, spine.spine_edges[:d.n - 1])  # sorted: drop the last
    return spine_mask, conflict_mask(d, spine_mask), path


class _Strip(NamedTuple):
    """A monotone or strongly c-monotone drawing read in its gaps: the
    open intervals between consecutive vertices in x order, or in angle
    order wrapping round the circle.  Gap g lies between ``order[g]`` and
    the next vertex.  Edges are ids and vertices bits."""
    order: Tuple[int, ...]             # vertices by x, or by angle
    rank: Tuple[Tuple[int, ...], ...]  # per gap: the edges spanning it, lowest first
    stab: Tuple[int, ...]              # per gap: its rank as a mask
    above: Tuple[int, ...]             # per edge: the vertices inside its span above it
    over: Tuple[int, ...]              # per edge: the edges not crossing it and above it


def _strip(d: Drawing) -> _Strip:
    """The strip table of d, which the steps read through ``d._derive``: the
    one place on the spine route that evaluates a curve, each at a gap's
    midpoint or a vertex.  Two edges that do not cross keep their vertical order wherever
    both span, so a gap's rank orders every plane edge set spanning it."""
    polar = d.backend == "polar"
    at = [p[0] % 1 if polar else p[0] for p in d.vertex_points]
    order = tuple(sorted(range(d.n), key=at.__getitem__))
    ends = [at[v] for v in order]
    if polar:
        ends.append(ends[0] + 1)
    curves = [d.curves[e] for e in d.edges]
    rank = []
    for a, b in zip(ends, ends[1:]):
        mid = (a + b) / 2
        ys = [(curve_eval(c, mid), i) for i, c in enumerate(curves)]
        rank.append(tuple(i for y, i in sorted(p for p in ys if p[0] is not None)))
    above = []
    for e, c in zip(d.edges, curves):
        ys = [(v, curve_eval(c, at[v])) for v in range(d.n) if v not in e]
        above.append(sum(1 << v for v, y in ys
                         if y is not None and d.vertex_points[v][1] > y))
    rows, over = d.cross_mask, [0] * len(curves)
    for r in rank:
        higher = 0
        for i in reversed(r):
            over[i] |= higher & ~rows[i]
            higher |= 1 << i
    return _Strip(order, tuple(rank), tuple(sum(1 << i for i in r) for r in rank),
                  tuple(above), tuple(over))


def _monotone_step(d: Drawing, spine_mask: int, twiggly: int, t: int) -> int:
    """Resolve a maximal twiggly edge of t, the least one with no twiggly
    edge of t above it, through the path over the vertices above it."""
    order, _, _, above, over = d._derive(_strip)
    twig = t & twiggly
    i = next((i for i in bits(twig) if not over[i] & twig), None)
    if i is None:
        raise InternalInvariantViolated("vertical-above relation has no maximum")
    if not above[i]:
        raise InternalInvariantViolated("maximal twiggly edge with no "
                                        "vertex above it")
    u, w = d.edges[i]
    stops = [v for v in order if (above[i] | 1 << u | 1 << w) >> v & 1]
    ids = d.edge_id
    path = sum(1 << ids[edge(a, b)] for a, b in zip(stops, stops[1:]))
    hit = conflict_mask(d, path) & t
    if hit:  # i is in t, so this also covers crossing the resolved edge
        raise InternalInvariantViolated(
            f"detour path crosses tree: {mask_tree(d, hit)}")
    rest = t & ~(1 << i)
    new_t = _retree(d, [path, rest & spine_mask,
                        rest & ~spine_mask & ~twig, rest & twig])
    if (new_t & twiggly).bit_count() >= twig.bit_count():
        raise InternalInvariantViolated("twiggly count did not decrease")
    return new_t


def _corridor_step(d: Drawing, spine_mask: int, twiggly: int, t: int) -> int:
    """Add every corridor path of t's twiggly edges and drop them all; the
    twiggly depth of every ray drops where it was positive.

    A gap's chain is its rank cut down to t's twiggly edges, from the
    centre (None) out to infinity (None).  A corridor is a maximal run of
    gaps whose chains hold one (lower, upper) pair of consecutive entries;
    its path runs from the run's first vertex through the interior vertices
    that lie between the bounds to its last."""
    strip = d._derive(_strip)
    order, rank, _, above, _ = strip
    twig = t & twiggly
    m = len(rank)
    pairs = []
    for r in rank:
        chain = [None] + [i for i in r if twig >> i & 1] + [None]
        pairs.append(list(zip(chain, chain[1:])))
    paths = rim = 0  # rim: the paths of inner and outer corridors
    for j in range(m):
        for lower, upper in pairs[j]:
            if (lower, upper) in pairs[j - 1]:
                continue  # the run began at an earlier gap
            k = j + 1
            while (lower, upper) in pairs[k % m]:
                k += 1
            stops = [j] + [g for g in range(j + 1, k)
                           if (lower is None or above[lower] >> order[g % m] & 1)
                           and (upper is None or not above[upper] >> order[g % m] & 1)]
            path = _run_path(d, strip, lower, upper, stops + [k])
            paths |= path
            if lower is None or upper is None:
                rim |= path
    hit = conflict_mask(d, paths) & t
    if hit:
        raise InternalInvariantViolated(
            f"corridor path crosses tree: {mask_tree(d, hit)}")
    if rim & twiggly:
        raise InternalInvariantViolated("inner/outer corridor path uses "
                                        f"twiggly edges: {mask_tree(d, rim & twiggly)}")
    if paths & conflict_mask(d, paths):
        raise InternalInvariantViolated("corridor paths cross each other")
    rest = t & ~twig
    new_t = _retree(d, [paths, rest & spine_mask, rest & ~spine_mask])
    for stab in strip.stab:
        old, new = ((mask & twiggly & stab).bit_count() for mask in (t, new_t))
        if new > max(old - 1, 0):
            raise InternalInvariantViolated("twiggly depth did not drop")
    return new_t


def _run_path(d: Drawing, strip: _Strip, lower: Optional[int],
              upper: Optional[int], stops: List[int]) -> int:
    """The mask of a corridor's path through the vertices that start the
    given gaps (mod the gap count), certified to span every gap of each hop
    and, at every gap of the run, to rank strictly between the bounds.  A
    bound that is itself a path edge lies on the corridor's closed
    boundary."""
    order, rank, stab, _, _ = strip
    m, ids = len(rank), d.edge_id
    hops = [1 << ids[edge(order[a % m], order[b % m])] for a, b in zip(stops, stops[1:])]
    path = sum(hops)
    bounds = sum(1 << i for i in (lower, upper) if i is not None)
    for hop, a, b in zip(hops, stops, stops[1:]):
        for g in range(a, b):
            r = rank[g % m]
            lo = -1 if lower is None else r.index(lower)
            hi = len(r) if upper is None else r.index(upper)
            if not stab[g % m] & hop:
                raise InternalInvariantViolated("path hop skips its own arc")
            if path & stab[g % m] & ~bounds & ~sum(1 << i for i in r[lo + 1:hi]):
                raise InternalInvariantViolated("path leaves its corridor")
    return path


# ---------------------------------------------------------------------------
# star family
# ---------------------------------------------------------------------------

def _gr_order(d: Drawing, g: int, r: int) -> Tuple[int, ...]:
    """Vertices of V - {g, r} in an order compatible with the crossing
    relation: u before w whenever edge(u, r) crosses edge(w, g).  Built
    once per drawing and ordered pair."""
    return d._derive(_relation_order, g, r)


def _relation_order(d: Drawing, g: int, r: int) -> Tuple[int, ...]:
    for c in (g, r):  # the stars at g and r hold every edge looked up below
        tree_mask(d, [edge(c, v) for v in range(d.n) if v != c])
    rows, ids = d.cross_mask, d.edge_id
    others = [v for v in range(d.n) if v not in (g, r)]
    succ: Dict[int, List[int]] = {v: [] for v in others}
    indeg = {v: 0 for v in others}
    for u in others:
        for w in others:
            if u != w and rows[ids[edge(u, r)]] >> ids[edge(w, g)] & 1:
                succ[u].append(w)
                indeg[w] += 1
    order = []
    ready = sorted(v for v in others if indeg[v] == 0)
    while ready:
        v = ready.pop(0)
        order.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
        ready.sort()
    if len(order) != len(others):
        raise RelationCyclicError("crossing relation has a cycle")
    return tuple(order)


def star_to_star(d: Drawing, g: int, r: int) -> TransformSequence:
    """Exactly n-2 flips from the star at g to the star at r; every
    intermediate is a plane double star with fixed path g, r."""
    if g == r:
        raise ValueError("need two distinct centers")
    return _certified(d, _star_to_star(d, g, r), "special")


def _star_to_star(d: Drawing, g: int, r: int) -> List[int]:
    if not (0 <= g < d.n and 0 <= r < d.n):
        raise ValueError(f"star centers {g} and {r} must be vertices 0..{d.n - 1}")
    star = tree_mask(d, [edge(g, v) for v in range(d.n) if v != g])
    return _collapse_double(d, star, g, r)


def _collapse_double(d: Drawing, t: int, g: int, r: int) -> List[int]:
    """Flip every g-leaf of the double star (or of the star at g) onto r,
    in relation order."""
    ids = d.edge_id
    out = [t]
    for v in reversed(_gr_order(d, g, r)):
        gv = 1 << ids[edge(g, v)]
        if t & gv:
            t = t & ~gv | 1 << ids[edge(r, v)]
            out.append(t)
    return out


def double_star_to_star(d: Drawing, t: Iterable[Edge],
                        target_center: int) -> TransformSequence:
    """Collapse one hub of the double star onto the other, then walk the
    star to the target center.  Plain stars are accepted as the degenerate
    case with one empty side."""
    (t,) = _input_masks(d, [t])
    return _certified(d, _double_star_to_star(d, t, target_center), "special")


def _double_star_to_star(d: Drawing, t: int, target: int) -> List[int]:
    inc, _ = _incidence(d.edges, t)
    centers = _star_centers(inc, t)
    if centers:
        c = target if target in centers else centers[0]
        return [t] if c == target else _star_to_star(d, c, target)
    reps = _double_star_paths(d.edges, inc, t)
    if not reps:
        raise NotDoubleStarError("tree admits no double-star path")
    with_target = [p for p in reps if p[1] == target]
    g, r = with_target[0] if with_target else reps[0]
    trees = _collapse_double(d, t, g, r)
    if r != target:
        trees += _star_to_star(d, r, target)[1:]
    return _dedupe(trees)


def twin_star_to_star(d: Drawing, t: Iterable[Edge],
                      target_center: int) -> TransformSequence:
    """Close the hub pair with the edge gr (never crossing the tree, since
    every tree edge touches g or r), drop rs, then proceed as a double
    star."""
    (t,) = _input_masks(d, [t])
    reps = twin_star_paths(d.edges, t)
    if not reps:
        raise NotTwinStarError("tree admits no twin-star path")
    return _certified(d, _twin_star_to_star(d, t, reps[0], target_center),
                      "special")


def _twin_star_to_star(d: Drawing, t: int, twin: Tuple[int, int, int],
                       target: int) -> List[int]:
    g, s, r = twin
    gr = tree_mask(d, [edge(g, r)])
    if gr & conflict_mask(d, t):
        raise InternalInvariantViolated("closing edge crosses the twin star")
    second = (t | gr) & ~(1 << d.edge_id[edge(r, s)])
    return _dedupe([t] + _double_star_to_star(d, second, target))


def _reduce_to_star(d: Drawing, t: int) -> Tuple[List[int], int]:
    inc, _ = _incidence(d.edges, t)
    centers = _star_centers(inc, t)
    if centers:
        return [t], centers[0]
    reps = _double_star_paths(d.edges, inc, t)
    if reps:
        g, r = reps[0]
        return _collapse_double(d, t, g, r), r
    twins = _twin_star_paths(d.edges, inc, t)
    if twins:
        r = twins[0][2]
        return _twin_star_to_star(d, t, twins[0], r), r
    raise NotSpecialTreeError("tree is not a star, double star or twin star")


def transform_special(d: Drawing, t1: Iterable[Edge],
                      t2: Iterable[Edge]) -> TransformSequence:
    """Reduce both endpoints to stars, bridge the stars, and glue; at most
    2(2(n-2)+1) + (n-2) flips overall."""
    t1, t2 = _input_masks(d, [t1, t2])
    trees, c1 = _reduce_to_star(d, t1)
    seq_b, c2 = _reduce_to_star(d, t2)
    if t1 == t2:  # after the reductions, which reject a non-special tree
        return _certified(d, [t1], "special")
    if c1 != c2:
        trees += _star_to_star(d, c1, c2)
    trees += reversed(seq_b)
    return _certified(d, _dedupe(trees), "special")
