"""The spine route's round steps on edge tuples and ``Fraction`` curves.

This is the code the strip table (``treespan.transforms._strip``) replaced:
the twiggly set, the vertical-above relation between edges and the
vertices above an edge of a monotone drawing, and the corridors of a
strongly c-monotone drawing with their paths and the twiggly depth of a
ray.  Every decision evaluates a curve with ``curve_eval`` at a rational
abscissa or angle.  ``monotone_step`` and ``corridor_step`` are the two
round steps built on it; the tests compare them with the package's steps
round by round, and the criterion audits read the twiggly sets and depths
from here.

``cut_to_monotone`` is the cut the spine route once took on a strongly
c-monotone drawing with a non-spine cycle edge: it unrolls every curve into
a monotone drawing with the same crossings.  The route now reads the polar
drawing's own strip table from the gap no edge spans, and the tests compare
that table and its rounds with the cut drawing's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, List, Optional, Tuple

from treespan.drawing import (
    Drawing,
    Edge,
    SpineStructure,
    classify_c_monotone,
    edge,
)
from treespan.errors import InternalInvariantViolated, MethodInapplicable, TreespanError
from treespan.geometry import Point, Rat, curve_eval, lift_angle, normalize_polar
from treespan.trees import _retree, conflict_mask, mask_trees, tree_mask

from conftest import edge_ids
from reference_drawing import edge_span, span_contains, vertex_angles


class EmptySetError(TreespanError):
    pass


class FullCircleCorridorError(MethodInapplicable):
    pass


# ---------------------------------------------------------------------------
# monotone drawings
# ---------------------------------------------------------------------------

def twiggly_set(d: Drawing, spine: SpineStructure, edges_in) -> FrozenSet[Edge]:
    """Subset of ``edges_in`` properly crossing at least one spine edge."""
    rows, ids = d.cross_mask, edge_ids(d)
    spine_mask = sum(1 << ids[s] for s in spine.spine_edges)
    return frozenset(e for e in edges_in if rows[ids[e]] & spine_mask)


def _open_x_range(d: Drawing, e: Edge):
    xa = d.vertex_points[e[0]].x
    xb = d.vertex_points[e[1]].x
    return (xa, xb) if xa < xb else (xb, xa)


def succ_above(d: Drawing, e: Edge, f: Edge) -> Optional[bool]:
    """True if e runs above f over their common open x-range, False if below,
    None if the open ranges do not overlap.  Only valid for non-crossing
    pairs, whose vertical order is constant on the overlap."""
    return _succ_above(d, e, f)


def _succ_above(d: Drawing, e: Edge, f: Edge) -> Optional[bool]:
    lo1, hi1 = _open_x_range(d, e)
    lo2, hi2 = _open_x_range(d, f)
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    if lo >= hi:
        return None
    xm = (lo + hi) / 2
    ye = curve_eval(d.curves[e], xm)
    yf = curve_eval(d.curves[f], xm)
    if ye == yf:
        raise InternalInvariantViolated(f"edges {e}, {f} meet at x={xm}")
    return ye > yf


def succ_maximal(d: Drawing, twigglies) -> Edge:
    """An edge with no other twiggly above it (ties broken by smallest id)."""
    twigglies = sorted(twigglies)
    if not twigglies:
        raise EmptySetError("no twiggly edges")
    for e in twigglies:
        if not any(succ_above(d, f, e) for f in twigglies if f != e):
            return e
    raise InternalInvariantViolated("vertical-above relation has no maximum")


def vertices_above(d: Drawing, e: Edge) -> List[int]:
    """Vertices strictly between e's endpoints in x and strictly above e;
    each call returns a fresh list."""
    return list(_vertices_above(d, e))


def _vertices_above(d: Drawing, e: Edge) -> Tuple[int, ...]:
    lo, hi = _open_x_range(d, e)
    out = []
    for v in range(d.n):
        p = d.vertex_points[v]
        if lo < p.x < hi:
            ye = curve_eval(d.curves[e], p.x)
            if ye is None:
                raise InternalInvariantViolated("edge does not span vertex column")
            if p.y > ye:
                out.append(v)
    return tuple(out)


def monotone_step(d: Drawing, spine_mask: int, twiggly: int, t: int) -> int:
    """Resolve a maximal twiggly edge of t through the path over the
    vertices above it."""
    xs = [p.x for p in d.vertex_points]
    twig = t & twiggly
    e = succ_maximal(d, mask_trees(d.edges, [twig])[0])
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
            f"detour path crosses tree: {mask_trees(d.edges, [hit])[0]}")
    rest = t & ~(1 << edge_ids(d)[e])
    new_t = _retree(d, [path, rest & spine_mask,
                        rest & ~spine_mask & ~twig, rest & twig])
    if (new_t & twiggly).bit_count() >= twig.bit_count():
        raise InternalInvariantViolated("twiggly count did not decrease")
    return new_t


# ---------------------------------------------------------------------------
# corridors
# ---------------------------------------------------------------------------

CENTER = "center"
INFINITY = "infinity"


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
            f"corridor path crosses tree: {mask_trees(d.edges, [hit])[0]}")
    bad = path_mask & twiggly
    if bad and (c.lower == CENTER or c.upper == INFINITY):
        raise InternalInvariantViolated("inner/outer corridor path uses "
                                        f"twiggly edges: {mask_trees(d.edges, [bad])[0]}")
    return path


def twiggly_depth(d: Drawing, twigglies: Iterable[Edge], theta) -> int:
    return sum(1 for e in twigglies if span_contains(edge_span(d, e), theta))


def corridor_step(d: Drawing, spine_mask: int, twiggly: int, t: int) -> int:
    """Add every corridor path of t's twiggly edges and drop them all; the
    twiggly depth of every ray drops where it was positive."""
    twig = t & twiggly
    paths = 0
    for c in corridors(d, mask_trees(d.edges, [twig])[0]):
        paths |= tree_mask(d, _corridor_path(d, t, c, twiggly))
    if paths & conflict_mask(d, paths):
        raise InternalInvariantViolated("corridor paths cross each other")
    rest = t & ~twig
    new_t = _retree(d, [paths, rest & spine_mask, rest & ~spine_mask])
    samples = [(a + b) / 2 for a, b in _gaps(sorted(vertex_angles(d)))]
    old, new = ([twiggly_depth(d, mask_trees(d.edges, [m & twiggly])[0], s) for s in samples]
                for m in (t, new_t))
    if any(k > max(j - 1, 0) for j, k in zip(old, new)):
        raise InternalInvariantViolated("twiggly depth did not drop")
    return new_t


# ---------------------------------------------------------------------------
# cut to monotone
# ---------------------------------------------------------------------------

def cut_to_monotone(d: Drawing) -> Optional[Drawing]:
    """If some cycle edge of a strongly c-monotone drawing is not a spine
    edge, the wedge between its endpoints is empty of edges; cutting there
    and unrolling (x = turns past the cut ray, y = radius) yields a monotone
    drawing with an identical crossing matrix.  Returns that flat drawing
    (its vertex order is ``classify_monotone(flat).order``), or None when
    all cycle edges are spine edges.  Each call builds a new flat
    drawing."""
    return _cut_to_monotone(d)


def _cut_to_monotone(d: Drawing) -> Optional[Drawing]:
    c_mono, strongly, spine = classify_c_monotone(d)
    if not (c_mono and strongly):
        return None
    if spine.all_cycle_edges_spine:
        return None

    angles = vertex_angles(d)
    order = spine.order
    spine_set = set(spine.spine_edges)
    gap = None
    for i in range(d.n):
        a, b = order[i], order[(i + 1) % d.n]
        if edge(a, b) not in spine_set:
            lo = angles[a]
            hi = angles[b] if angles[b] > angles[a] else angles[b] + 1
            gap = (lo, hi)
            break
    if gap is None:
        raise InternalInvariantViolated("missing non-spine cycle edge")
    for e in d.edges:
        span = edge_span(d, e)
        for t in (gap[0], gap[1], (gap[0] + gap[1]) / 2):
            if span_contains(span, t):
                raise InternalInvariantViolated("cut wedge is not empty")
    cut = (gap[0] + gap[1]) / 2

    def unroll(theta: Rat) -> Rat:
        base = theta % 1
        shifted = base - cut
        return shifted % 1  # in (0, 1) since nothing sits on the cut ray

    points = tuple(Point(unroll(t), r) for t, r in d.vertex_points)
    curves = {}
    for e, curve in d.curves.items():
        c = normalize_polar(curve)
        x0 = unroll(c[0].theta)
        curves[e] = tuple(Point(w.theta - c[0].theta + x0, w.r) for w in c)
    out = Drawing(n=d.n, backend="cartesian", vertex_points=points,
                  curves=curves, graph=d.graph)
    if out.cross_mask != d.cross_mask:
        raise InternalInvariantViolated("cut changed the crossing matrix")
    return out
