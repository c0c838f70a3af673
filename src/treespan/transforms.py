"""Constructive transformations between compatible plane spanning trees.

Three routes: cylindrical (through the uncrossed cycle paths), the spine
route for monotone and strongly c-monotone drawings, and the star family
(flip schedules along the crossing relation); ``transform`` takes the one
asked for, or the first of ``METHODS`` that applies.  The spine route
takes each tree to the spine path in at most n - 1 rounds, each round a
step dropping twiggly edges (those crossing the spine): a maximal one
through the vertices above it, or all of them by corridor paths.  A
strongly c-monotone drawing with a non-spine cycle edge takes the first
step: read from the gap no edge spans, it is monotone.  Building the strip
table (``_strip``) is the only curve evaluation on the route.
Certification and the star family read a ``Relation`` alone; the
cylindrical and spine routes, a ``Drawing``.

Each public call, ``transform`` too, reads each input tree once into an
edge mask, works on masks throughout (nested steps are private cores
returning mask lists), and certifies its own output exactly once, in
``_certified``, which drops a tree equal to the one before it: a failure
there is the route's (InternalInvariantViolated), where one in
``certify_sequence``, of a caller's trees, is bad input.  Masks become
edge tuples only in ``TransformSequence.trees`` and error messages.
Whatever a route reads that depends only on the drawing is built once per
drawing through ``Relation._derive``: the classifications, the strip
table, each spine's masks, each ordered centre pair's flip pairs and the
vertex rows.  Nothing is kept per input tree, and the checks inside each
round still run on every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .drawing import (
    CylRoles,
    Drawing,
    Edge,
    Relation,
    SpineStructure,
    bits,
    classify_c_monotone,
    classify_monotone,
    validate_simple,
)
from .errors import (
    BadTreeError,
    IncompatibleStepError,
    InternalInvariantViolated,
    MethodInapplicable,
    NoSideEdgeError,
    NotCylindricalError,
    NotMonotoneError,
    NotSpecialTreeError,
    NotStronglyCMonotoneError,
    RelationCyclicError,
)
from .geometry import curve_eval
from .trees import (
    Tree,
    TreeCert,
    _input_certs,
    _retree,
    _special_paths,
    _tree_incidence,
    _vertex_rows,
    check_mask,
    conflict_mask,
    mask_trees,
    tree_mask,
)


@dataclass(frozen=True, init=False)
class TransformSequence:
    edges: Tuple[Edge, ...]        # the relation's edges: bit i is edges[i]
    masks: Tuple[int, ...]
    method: str
    certified: ClassVar[bool] = True  # only certify_sequence and _certified build one

    def __init__(self, edges: Tuple[Edge, ...], masks: Tuple[int, ...],
                 method: str):
        # written to the instance dict, past the frozen __setattr__
        fields = self.__dict__
        fields["edges"], fields["masks"], fields["method"] = edges, masks, method

    @cached_property
    def trees(self) -> Tuple[Tree, ...]:
        return tuple(mask_trees(self.edges, self.masks))

    def __len__(self) -> int:
        return len(self.masks)

    @property
    def flips(self) -> int:
        return len(self.masks) - 1


def certify_sequence(d: Relation, trees: Sequence[Iterable[Edge]],
                     method: str = "manual") -> TransformSequence:
    """Verify every tree is plane spanning and every consecutive pair is
    compatible; raises BadTreeError / IncompatibleStepError otherwise.
    Each tree is checked in full, its edges read and certified, before the
    next one is read, and every tree before any step."""
    if not trees:
        raise ValueError("empty sequence")
    certs = _input_certs(d, trees)
    for i, (a, b) in enumerate(zip(certs, certs[1:])):
        if a.mask & b.conflict:
            raise IncompatibleStepError(i)
    return TransformSequence(d.edges, tuple(c.mask for c in certs), method)


def _certified(d: Relation, masks: List[int], method: str) -> TransformSequence:
    """A route's output certified, a repeat of the tree before it dropped:
    one cache read per tree (``check_mask`` on a miss), failures the route's."""
    cache, out = d._cert_cache, []
    for mask in masks:
        if out and mask == out[-1]:
            continue
        cert = cache.get(mask) or check_mask(d, mask)
        if not cert.is_plane_spanning_tree:
            raise InternalInvariantViolated(f"{method} route: {BadTreeError(len(out), cert)}")
        if out and out[-1] & cert.conflict:
            raise InternalInvariantViolated(
                f"{method} route: {IncompatibleStepError(len(out) - 1)}")
        out.append(mask)
    return TransformSequence(d.edges, tuple(out), method)


METHODS = ("auto", "cylindrical", "monotone", "cmonotone", "special")  # auto: the rest in turn


def transform(d: Drawing, t1: Iterable[Edge], t2: Iterable[Edge],
              method: str = "auto") -> TransformSequence:
    """A certified sequence from t1 to t2 by ``method``, one of ``METHODS``;
    only the route tried reads the trees.  A bad tree is invalid input
    whatever the method; MethodInapplicable if no method asked for applies."""
    report = validate_simple(d)
    if method in ("auto", "cylindrical") and report.is_cylindrical is not None:
        return transform_cylindrical(d, report.is_cylindrical, t1, t2)
    if method in ("auto", "monotone") and report.is_monotone:
        return _spine_route(d, classify_monotone(d), [t1, t2])
    if method in ("auto", "cmonotone") and report.is_strongly_c_monotone:
        return _spine_route(d, classify_c_monotone(d)[2], [t1, t2])
    if method in ("auto", "special") and d.graph[0] == "complete":
        try:
            return transform_special(d, t1, t2)
        except NotSpecialTreeError:
            if method == "special":
                raise
    else:
        _input_certs(d, [t1, t2])
    raise MethodInapplicable(f"no applicable method (asked for {method!r})")


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
    c1, c2 = _input_certs(d, [t1, t2])
    t1, t2 = c1.mask, c2.mask
    if not t1 & c2.conflict:
        return _certified(d, [t1, t2], "cylindrical")

    paths = roles.paths_mask
    if not roles.inner_vertices or not roles.outer_vertices:
        return _certified(d, [t1, paths, t2], "cylindrical")

    sides1, sides2 = t1 & roles.sides_mask, t2 & roles.sides_mask
    if not sides1 or not sides2:
        raise NoSideEdgeError("spanning tree without a side edge")
    e1, e2 = sides1 & -sides1, sides2 & -sides2  # lowest bit: the least edge
    seq = [t1, paths | e1]
    if e1 & d.cross_mask[e2.bit_length() - 1]:  # e2's crossing row
        inner = set(roles.inner_vertices)
        (a1, b1), (a2, b2) = d.edges[e1.bit_length() - 1], d.edges[e2.bit_length() - 1]
        s1, r1 = (a1, b1) if a1 in inner else (b1, a1)
        s2, r2 = (a2, b2) if a2 in inner else (b2, a2)
        bridge = min(d._edge_bit[s1, r2], d._edge_bit[s2, r1])  # the lower id
        if bridge & conflict_mask(d, e1 | e2):
            raise InternalInvariantViolated(
                "replacement side edge crosses the originals")
        seq.append(paths | bridge)
    seq += [paths | e2, t2]
    return _certified(d, seq, "cylindrical")


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

    With a non-spine cycle edge present the drawing is resolved as the
    monotone drawing it is when read from the empty gap of that edge on;
    otherwise each round adds every corridor path,
    drops all twiggly edges, and the twiggly depth of every ray decreases
    where it was positive."""
    c_mono, strongly, spine = classify_c_monotone(d)
    if not (c_mono and strongly):
        raise NotStronglyCMonotoneError("drawing is not strongly c-monotone")
    return _spine_route(d, spine, [t])


def _spine_route(d: Drawing, spine: SpineStructure,
                 trees: Sequence[Iterable[Edge]]) -> TransformSequence:
    """The first tree down to the spine path and back up to the second, if
    given, certified once with ``spine.kind`` as the method; two equal
    trees T give (T,), as every route does.  A strongly c-monotone drawing
    with a non-spine cycle edge takes monotone rounds."""
    inputs = _input_certs(d, trees)
    if spine.all_cycle_edges_spine is False and d._derive(_strip).stab[-1]:
        raise InternalInvariantViolated("cut wedge is not empty")
    if len(inputs) == 2 and inputs[0].mask == inputs[1].mask:
        return _certified(d, [inputs[0].mask], spine.kind)
    step = _corridor_step if spine.all_cycle_edges_spine else _monotone_step
    seq: List[int] = []
    for cert, way in zip(inputs, (1, -1)):  # the second tree's rounds reversed
        seq += _rounds(d, spine, cert.mask, step)[::way]
    return _certified(d, seq, spine.kind)


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
    the next vertex; a gap that no edge spans, if there is one, is the last.
    Edges are ids and vertices bits."""
    order: Tuple[int, ...]             # vertices by x, or by angle
    rank: Tuple[Tuple[int, ...], ...]  # per gap: the edges spanning it, lowest first
    stab: Tuple[int, ...]              # per gap: its rank as a mask
    above: Tuple[int, ...]             # per edge: the vertices inside its span above it
    over: Tuple[int, ...]              # per edge: the edges not crossing it and above it


def _strip(d: Drawing) -> _Strip:
    """The strip table of d, which the steps read through ``d._derive``: the
    one place on the spine route that evaluates a curve, each at a gap's
    midpoint or a vertex.  Two edges that do not cross keep their vertical order wherever
    both span, so a gap's rank orders every plane edge set spanning it.
    The table starts after the first gap that no edge spans.  A monotone
    drawing has none; a strongly c-monotone one has one exactly when some
    cycle edge is not a spine edge, and read from there it is monotone."""
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
    g = next((g + 1 for g, r in enumerate(rank) if not r), 0)
    order, rank = order[g:] + order[:g], rank[g:] + rank[:g]
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
    bit = d._edge_bit
    path = sum(bit[a, b] for a, b in zip(stops, stops[1:]))
    hit = conflict_mask(d, path) & t
    if hit:  # i is in t, so this also covers crossing the resolved edge
        raise InternalInvariantViolated(
            f"detour path crosses tree: {mask_trees(d.edges, [hit])[0]}")
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
            f"corridor path crosses tree: {mask_trees(d.edges, [hit])[0]}")
    if rim & twiggly:
        bad = mask_trees(d.edges, [rim & twiggly])[0]
        raise InternalInvariantViolated(f"inner/outer corridor path uses twiggly edges: {bad}")
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
    m, bit = len(rank), d._edge_bit
    hops = [bit[order[a % m], order[b % m]] for a, b in zip(stops, stops[1:])]
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

def _star(d: Relation, c: int) -> int:
    """The mask of the star at c: its vertex row, when the row holds an
    edge to every other vertex; else tree_mask names the missing edge."""
    row = d._derive(_vertex_rows)[c]
    if row.bit_count() == d.n - 1:
        return row
    return tree_mask(d, [(c, v) for v in range(d.n) if v != c])


def _flip_pairs(d: Relation, g: int, r: int) -> Tuple[Tuple[int, int], ...]:
    """(gv bit, rv bit) for each v of V - {g, r}, in the order in which
    ``_collapse_double`` moves g's leaves onto r: the least order, by
    Kahn's method, with u before w whenever edge(u, r) crosses edge(w, g),
    read last first.  Read through ``d._derive``, so built once per drawing
    and ordered pair."""
    for c in (g, r):  # the stars at g and r hold every edge looked up below
        _star(d, c)
    rows, bit = d.cross_mask, d._edge_bit
    others = [v for v in range(d.n) if v != g and v != r]
    # before[w]: the vertices u whose edge ur crosses wg
    before = {w: sum(1 << u for u in others
                     if u != w and rows[bit[u, r].bit_length() - 1] & bit[w, g])
              for w in others}
    placed, pairs = 0, []
    while others:  # the least vertex whose predecessors are all placed
        v = next((v for v in others if not before[v] & ~placed), None)
        if v is None:
            raise RelationCyclicError("crossing relation has a cycle")
        others.remove(v)
        placed |= 1 << v
        pairs.append((bit[g, v], bit[r, v]))
    return tuple(reversed(pairs))


def star_to_star(d: Relation, g: int, r: int) -> TransformSequence:
    """Exactly n-2 flips from the star at g to the star at r; every
    intermediate is a plane double star with fixed path g, r."""
    if g == r:
        raise ValueError("need two distinct centers")
    if not (0 <= g < d.n and 0 <= r < d.n):
        raise ValueError(f"star centers {g} and {r} must be vertices 0..{d.n - 1}")
    return _certified(d, _collapse_double(d, _star(d, g), g, r), "special")


def _collapse_double(d: Relation, t: int, g: int, r: int) -> List[int]:
    """Flip every g-leaf of the double star (or of the star at g) onto r,
    in relation order."""
    out = [t]
    for gv, rv in d._derive(_flip_pairs, g, r):
        if t & gv:
            t = t ^ gv | rv
            out.append(t)
    return out


def _reduce_to_star(d: Relation, t: TreeCert) -> Tuple[List[int], int]:
    """The flips from t to a star, at most n - 2, and the star's centre.
    A double star moves one hub's leaves onto the other.  A twin star with
    path g-s-r first becomes t + gr - rs: gr crosses no edge of t, each of
    which touches g or r.  A twin star here is no double star, so its hub r
    has a leaf besides s: t + gr - rs is no star, and (g, r) is its one
    double-star path ending at r."""
    centre, double, twin = _special_paths(
        d.edges, _tree_incidence(d, t.mask), t.mask)
    if centre is not None:
        return [t.mask], centre
    if double:
        g, r = double
        return _collapse_double(d, t.mask, g, r), r
    if twin:
        g, s, r = twin
        gr = tree_mask(d, [(g, r)])
        if gr & t.conflict:
            raise InternalInvariantViolated("closing edge crosses the twin star")
        closed = (t.mask | gr) & ~d._edge_bit[r, s]
        return [t.mask] + _collapse_double(d, closed, g, r), r
    raise NotSpecialTreeError("tree is not a star, double star or twin star")


def transform_special(d: Relation, t1: Iterable[Edge],
                      t2: Iterable[Edge]) -> TransformSequence:
    """Reduce both endpoints to stars, bridge the stars, and glue: a
    reduction takes at most n-2 flips and the bridge n-2, so at most 3(n-2)
    between two special trees and 2(n-2) from a special tree to a star."""
    c1, c2 = _input_certs(d, [t1, t2])
    trees, s1 = _reduce_to_star(d, c1)
    seq_b, s2 = _reduce_to_star(d, c2)
    if c1.mask == c2.mask:  # after the reductions, which reject a non-special tree
        return _certified(d, [c1.mask], "special")
    if s1 != s2:
        trees += _collapse_double(d, _star(d, s1), s1, s2)
    trees += reversed(seq_b)
    return _certified(d, trees, "special")
