"""Constructive transformations between compatible plane spanning trees.

Three routes: cylindrical (through the uncrossed cycle paths), the spine
route for monotone and strongly c-monotone drawings, and the star family
(flip schedules along the crossing relation).  The spine route takes each
tree to the spine path in at most n - 1 rounds of one loop, each round a
step dropping twiggly edges (those crossing the spine): a maximal one
through the vertices above it, or all of them by corridor paths.  A
strongly c-monotone drawing with a non-spine cycle edge is first cut to a
monotone drawing with the same crossing matrix.
Each public call turns its input trees into edge masks once, works on masks
throughout (nested steps are private cores returning mask lists), and
certifies its own output exactly once, in ``_certified``.  The returned
``TransformSequence`` keeps those masks and builds its edge tuples,
``trees``, the first time something reads them.
Whatever a route reads that depends only on the drawing is built once per
drawing: the classifications and the cut (``drawing``), each spine's
masks, each ordered centre pair's relation order, the cylindrical path
and side masks, and each tree's conflict mask (its certificate).  The
checks inside each round still run on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Dict, Iterable, List, Optional, Sequence, Tuple

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
    edge_span,
    span_contains,
    succ_maximal,
    vertex_angles,
    vertices_above,
)
from .errors import (
    FullCircleCorridorError,
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
from .geometry import curve_eval, lift_angle
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

CENTER = "center"
INFINITY = "infinity"


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


def _monotone_step(d: Drawing, spine_mask: int, twiggly: int, t: int) -> int:
    """Resolve a maximal twiggly edge of t through the path over the
    vertices above it."""
    xs = [p.x for p in d.vertex_points]
    twig = t & twiggly
    e = succ_maximal(d, mask_tree(d, twig))
    vi, vj = sorted(e, key=xs.__getitem__)
    above = sorted(vertices_above(d, e), key=xs.__getitem__)
    if not above:
        raise InternalInvariantViolated("maximal twiggly edge with no "
                                        "vertex above it")
    stops = [vi] + above + [vj]
    path = tree_mask(d, [edge(stops[k], stops[k + 1])
                         for k in range(len(stops) - 1)])
    hit = conflict_mask(d, path) & t
    if hit:  # e is in t, so this also covers crossing the resolved edge
        raise InternalInvariantViolated(
            f"detour path crosses tree: {mask_tree(d, hit)}")
    rest = t & ~(1 << d.edge_id[e])
    new_t = _retree(d, [path, rest & spine_mask,
                        rest & ~spine_mask & ~twig, rest & twig])
    if (new_t & twiggly).bit_count() >= twig.bit_count():
        raise InternalInvariantViolated("twiggly count did not decrease")
    return new_t


# ---------------------------------------------------------------------------
# corridors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Corridor:
    interval: Tuple  # (theta1, theta2) with theta1 in [0,1), theta2 > theta1
    lower: object    # Edge or CENTER
    upper: object    # Edge or INFINITY
    start_vertex: Optional[int]
    end_vertex: Optional[int]


def corridors(d: Drawing, twigglies: Iterable[Edge]) -> List[Corridor]:
    """Corridors of the arrangement of the given pairwise non-crossing
    edges plus the dummy boundaries at the circle center and at infinity.
    Along any ray crossing k of the edges, exactly k+1 corridors are hit."""
    twigglies = sorted(set(twigglies))
    if not twigglies:
        return [Corridor(interval=(0, 1), lower=CENTER, upper=INFINITY,
                         start_vertex=None, end_vertex=None)]
    angles = vertex_angles(d)
    at_angle = {angles[v]: v for v in range(d.n)}
    spans = {e: edge_span(d, e) for e in twigglies}
    events = sorted({angles[v] for e in twigglies for v in e})
    m = len(events)
    per_gap: List[List[Tuple[object, object]]] = []
    for a, b in _gaps(events):
        mid = (a + b) / 2
        stabbed = [e for e in twigglies if span_contains(spans[e], mid)]
        stabbed.sort(key=lambda e: curve_eval(d.curves[e], mid))
        chain = [CENTER] + stabbed + [INFINITY]
        per_gap.append([(chain[k], chain[k + 1]) for k in range(len(chain) - 1)])

    out: List[Corridor] = []
    for j in range(m):
        for pair in per_gap[j]:
            if pair in per_gap[j - 1]:  # m >= 2: an edge's ends differ in angle
                continue  # continues an earlier gap; emitted there
            run = 0
            while run < m and pair in per_gap[(j + run) % m]:
                run += 1
            if run == m:
                raise InternalInvariantViolated("corridor wraps the circle")
            start = events[j]
            end_idx = (j + run) % m
            end = events[end_idx] + (1 if j + run >= m else 0)
            out.append(Corridor(interval=(start, end), lower=pair[0],
                                upper=pair[1],
                                start_vertex=at_angle[start],
                                end_vertex=at_angle[end % 1]))
    return sorted(out, key=lambda c: (c.interval[0], str(c.lower), str(c.upper)))


def _gaps(angles: list) -> list:
    """(a, next a) for each of the sorted angles, the last wrapping round
    to the first plus one turn."""
    return list(zip(angles, angles[1:] + [angles[0] + 1]))


def _inside(d: Drawing, c: Corridor, theta, r) -> bool:
    """Whether radius r at angle theta lies strictly between the
    corridor's lower and upper bounds."""
    low = 0 if c.lower == CENTER else curve_eval(d.curves[c.lower], theta)
    high = None if c.upper == INFINITY else curve_eval(d.curves[c.upper], theta)
    return low < r and (high is None or r < high)


def corridor_path(d: Drawing, t: Iterable[Edge], c: Corridor,
                  twigglies: Iterable[Edge]) -> List[Edge]:
    """Greedy consecutive-vertex path from the corridor's start to its end
    vertex, in walk order, certified to stay radially inside the corridor,
    to avoid the tree and, in an inner/outer corridor, the twiggly edges."""
    if c.start_vertex is None or c.end_vertex is None:
        raise FullCircleCorridorError("corridor has no endpoints")
    return _corridor_path(d, tree_mask(d, t), c, tree_mask(d, twigglies))


def _corridor_path(d: Drawing, t_mask: int, c: Corridor,
                   twiggly: int) -> List[Edge]:
    angles = vertex_angles(d)
    lo, hi = c.interval
    inside: List[Tuple[object, int]] = []
    for v in range(d.n):
        lifted = lift_angle(angles[v], lo)
        if not lo < lifted < hi:
            continue
        if _inside(d, c, lifted, d.vertex_points[v][1]):
            inside.append((lifted, v))
    stops = [c.start_vertex] + [v for _, v in sorted(inside)] + [c.end_vertex]
    path = [edge(stops[k], stops[k + 1]) for k in range(len(stops) - 1)]

    # certification: radial containment at the midpoint of every hop,
    # no crossing with the tree, no twiggly edges in inner/outer corridors
    stop_angles = [lo] + [a for a, _ in sorted(inside)] + [hi]
    for k, g in enumerate(path):
        mid = (stop_angles[k] + stop_angles[k + 1]) / 2
        for h in path:
            if h == c.lower or h == c.upper:
                continue  # a forced bounding edge lies on the closed boundary
            r = curve_eval(d.curves[h], mid)
            if r is not None and not _inside(d, c, mid, r):
                raise InternalInvariantViolated("path leaves its corridor")
        if curve_eval(d.curves[g], mid) is None:
            raise InternalInvariantViolated("path hop skips its own arc")
    path_mask = tree_mask(d, path)
    hit = conflict_mask(d, path_mask) & t_mask
    if hit:
        raise InternalInvariantViolated(
            f"corridor path crosses tree: {mask_tree(d, hit)}")
    bad = path_mask & twiggly
    if bad and (c.lower == CENTER or c.upper == INFINITY):
        raise InternalInvariantViolated("inner/outer corridor path uses "
                                        f"twiggly edges: {mask_tree(d, bad)}")
    return path


def twiggly_depth(d: Drawing, twigglies: Iterable[Edge], theta) -> int:
    return sum(1 for e in twigglies if span_contains(edge_span(d, e), theta))


def _corridor_step(d: Drawing, spine_mask: int, twiggly: int, t: int) -> int:
    """Add every corridor path of t's twiggly edges and drop them all; the
    twiggly depth of every ray drops where it was positive."""
    twig = t & twiggly
    paths = 0
    for c in corridors(d, mask_tree(d, twig)):
        paths |= tree_mask(d, _corridor_path(d, t, c, twiggly))
    if paths & conflict_mask(d, paths):
        raise InternalInvariantViolated("corridor paths cross each other")
    rest = t & ~twig
    new_t = _retree(d, [paths, rest & spine_mask, rest & ~spine_mask])
    samples = [(a + b) / 2 for a, b in _gaps(sorted(vertex_angles(d)))]
    old, new = ([twiggly_depth(d, mask_tree(d, m & twiggly), s) for s in samples]
                for m in (t, new_t))
    if any(k > max(j - 1, 0) for j, k in zip(old, new)):
        raise InternalInvariantViolated("twiggly depth did not drop")
    return new_t


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
