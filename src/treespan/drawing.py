"""Drawing data model, simple-drawing validation and class recognition.

A Drawing holds one explicit curve per edge of a complete (or complete
bipartite) graph and derives an exact crossing matrix from them.  The
class recognition the transformation algorithms rely on (spine paths,
cylindrical roles, the cut to a monotone drawing) lives here; what a round
of the spine route reads of the curves, ``transforms`` builds itself.

A Drawing is immutable; its edge tuple, edge ids, crossing matrix (whose
construction is the simple-drawing check) and class report are computed on
first use and kept.  The crossing matrix is one int per edge: edge ids are
positions in the sorted edge list, and bit j of ``cross_mask[i]`` is set
when edges i and j cross.  ``crossings`` and ``crossing_pairs()`` are views.

A straight-line drawing (every curve the segment between its two vertex
points) with no three vertices on a line is validated from its order type,
the orientation of each vertex triple: it is always simple, and two
disjoint edges cross iff the ends of each lie on opposite sides of the
other.  A bent curve or a collinear triple sends the drawing through the
generic pairwise curve-contact loop instead, which finds every fault.  A
polar drawing runs the same loop in its angle-radius strip, where each
curve is a polyline normalized to start within the first turn and the
second curve of a pair is moved by each whole turn under which the two
angle ranges meet; a vertex is lifted into a curve's frame before it is
tested against that curve.

The structures the transformations read are derived once per drawing too,
through ``Drawing._derive``: the monotone and c-monotone classifications
and the cut to a monotone drawing (whose flat drawing keeps its own derived
structures).  Each is an immutable value; the private builders
``_classify_monotone``, ``_classify_c_monotone`` and ``_cut_to_monotone``
compute it uncached.  A cylindrical classification carries the masks of
its cycle paths and side edges.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterator, List, Mapping, NamedTuple, Optional, Tuple

from .errors import (
    InternalInvariantViolated,
    InvalidRadiiError,
    NotSimpleError,
)
from .geometry import (
    CartesianCurve,
    Point,
    Proper,
    Rat,
    _cartesian_record,
    _normalized,
    _polyline_contacts,
    _self_contacts,
    _strip_contacts,
    curve_circle_crossing,
    is_x_monotone,
    lift_angle,
    normalize_polar,
    orient,
)

Edge = Tuple[int, int]


def edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError("loop edge")
    return (u, v) if u < v else (v, u)


def bits(mask: int) -> Iterator[int]:
    """Positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def complete_edges(n: int) -> List[Edge]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def bipartite_edges(a: int, b: int) -> List[Edge]:
    return [(u, v) for u in range(a) for v in range(a, a + b)]


@dataclass(frozen=True)
class Drawing:
    """n vertices plus one curve per edge.  ``graph`` is ("complete",) or
    ("bipartite", a, b); ``backend`` is "cartesian" or "polar".  For the
    polar backend vertex points are (theta, r) pairs in rational turns and
    curve waypoints have strictly increasing theta spanning < 1 turn.
    Immutable: ``curves`` is a read-only copy of the mapping passed in, so
    everything derived from the drawing is computed on first use and kept."""

    n: int
    backend: str
    vertex_points: tuple
    curves: Mapping[Edge, tuple]
    graph: tuple = ("complete",)
    circles: Optional[Tuple[Rat, Rat]] = None  # (r_in^2, r_out^2) hint

    def __post_init__(self):
        object.__setattr__(self, "curves", MappingProxyType(dict(self.curves)))

    @functools.cached_property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(sorted(self.curves))

    def expected_edges(self) -> List[Edge]:
        if self.graph[0] == "complete":
            return complete_edges(self.n)
        _, a, b = self.graph
        return bipartite_edges(a, b)

    @functools.cached_property
    def edge_id(self) -> Dict[Edge, int]:
        """Edge -> its position in ``edges``, which is its bit in masks."""
        return {e: i for i, e in enumerate(self.edges)}

    @functools.cached_property
    def cross_mask(self) -> Tuple[int, ...]:
        """Row i has bit j set when edges i and j properly cross.  Building
        it confirms every simple-drawing invariant and raises NotSimpleError
        on a violation."""
        return _crossing_rows(self)

    @functools.cached_property
    def _cert_cache(self) -> dict:
        """Tree mask -> its TreeCert, filled by ``trees.check_mask``."""
        return {}

    @functools.cached_property
    def _derived(self) -> dict:
        """(builder, *args) -> ``builder(self, *args)``, filled by ``_derive``."""
        return {}

    def _derive(self, build, *args):
        """A structure fixed by the drawing, built on the first request and
        kept.  Builders return immutable values; one that raises stores
        nothing."""
        key = (build, *args)
        memo = self._derived
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = build(self, *args)
            return value

    @functools.cached_property
    def _report(self) -> ClassReport:
        """``validate_simple``'s report.  Each classifier answers no for the
        other backend."""
        _ = self.cross_mask  # raises NotSimpleError before any classifier runs
        cyl = None
        if self.backend == "cartesian" and self.circles is not None:
            cyl = classify_cylindrical(self, self.circles[0], self.circles[1])
        c_mono, strongly, _ = classify_c_monotone(self)
        return ClassReport(
            is_simple=True,
            is_monotone=classify_monotone(self) is not None,
            is_two_page_book=classify_two_page(self),
            is_cylindrical=cyl,
            is_c_monotone=c_mono,
            is_strongly_c_monotone=strongly,
        )

    @property
    def crossings(self) -> Dict[Edge, FrozenSet[Edge]]:
        """Edge -> the edges crossing it, built from ``cross_mask``."""
        edges = self.edges
        return {e: frozenset(edges[j] for j in bits(row))
                for e, row in zip(edges, self.cross_mask)}

    def crossing_pairs(self) -> List[Tuple[Edge, Edge]]:
        edges = self.edges
        return [(e, edges[j]) for i, (e, row) in enumerate(zip(edges, self.cross_mask))
                for j in bits(row) if j > i]


@dataclass(frozen=True)
class SpineStructure:
    kind: str                      # "monotone" | "cmonotone"
    order: Tuple[int, ...]         # x-order, or cyclic order by angle
    spine_edges: Tuple[Edge, ...]
    all_cycle_edges_spine: Optional[bool] = None


@dataclass(frozen=True)
class CylRoles:
    r_in2: Rat
    r_out2: Rat
    inner_vertices: Tuple[int, ...]
    outer_vertices: Tuple[int, ...]
    roles: Dict[Edge, str]                      # inner | outer | side
    crossed_cycle_edges: Tuple[Edge, ...]
    inner_path: Tuple[Edge, ...]                # uncrossed Hamiltonian paths
    outer_path: Tuple[Edge, ...]
    # edge masks of both paths and of the side edges
    paths_mask: int = field(repr=False, compare=False)
    sides_mask: int = field(repr=False, compare=False)


@dataclass(frozen=True)
class ClassReport:
    is_simple: bool
    is_monotone: bool
    is_two_page_book: bool
    is_cylindrical: Optional[CylRoles]
    is_c_monotone: bool
    is_strongly_c_monotone: bool


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

class _Image(NamedTuple):
    """A drawing with each axis (x and y, or angle and radius) scaled by
    the lcm of its denominators, so every coordinate is an int.  A positive
    scale keeps the sign of every orientation, box and order test.  Points
    are ``Point``s for both backends: a polar drawing lies in the
    angle-radius strip, ``turn`` is the scaled length of one turn, each
    vertex angle lies in [0, turn) and every curve is normalized to start
    there."""

    backend: str
    points: tuple
    curves: Dict[Edge, tuple]
    turn: int


def _integer_image(d: Drawing, curves: bool = True) -> _Image:
    """The image of d; without ``curves`` the scales come from the vertex
    points alone and no curve is scaled, which gives the same points when
    every waypoint is a vertex point."""
    everything = list(d.vertex_points)
    if curves:
        everything += [w for c in d.curves.values() for w in c]
    sx = math.lcm(*{p[0].denominator for p in everything})
    sy = math.lcm(*{p[1].denominator for p in everything})

    def scaled(p):
        return Point(p[0].numerator * (sx // p[0].denominator),
                     p[1].numerator * (sy // p[1].denominator))

    image = {e: tuple(map(scaled, c)) for e, c in d.curves.items()} if curves else {}
    points = tuple(map(scaled, d.vertex_points))
    if d.backend == "polar":
        image = {e: _normalized(c, sx) if c else c for e, c in image.items()}
        points = tuple(Point(x % sx, y) for x, y in points)
    return _Image(d.backend, points, image, sx)


def _check_cartesian_curve(img: _Image, e: Edge, curve: CartesianCurve) -> tuple:
    """Check one curve and return its ``_cartesian_record``."""
    if len(curve) < 2:
        raise NotSimpleError(f"curve of {e} has fewer than 2 waypoints")
    for i in range(len(curve) - 1):
        if curve[i] == curve[i + 1]:
            raise NotSimpleError(f"zero-length segment in curve of {e}")
    pu, pv = img.points[e[0]], img.points[e[1]]
    if {curve[0], curve[-1]} != {pu, pv}:
        raise NotSimpleError(f"curve of {e} does not join its endpoints")
    rec = _cartesian_record(curve)
    if _self_contacts(rec[0]):
        raise NotSimpleError(f"curve of {e} is self-intersecting")
    return rec


def _check_polar_curve(img: _Image, e: Edge, curve: CartesianCurve) -> tuple:
    """Check one strip curve (x = angle, y = radius) and return its
    ``_cartesian_record``."""
    if len(curve) < 2:
        raise NotSimpleError(f"curve of {e} has fewer than 2 waypoints")
    for w in curve:
        if w.y <= 0:
            raise NotSimpleError(f"curve of {e} has non-positive radius")
    for i in range(len(curve) - 1):
        if curve[i].x >= curve[i + 1].x:
            raise NotSimpleError(f"curve of {e} is not angle-monotone")
    turn = img.turn
    if curve[-1].x - curve[0].x >= turn:
        raise NotSimpleError(f"curve of {e} spans a full turn or more")
    ends = {curve[0], Point(curve[-1].x % turn, curve[-1].y)}
    if ends != {img.points[e[0]], img.points[e[1]]}:
        raise NotSimpleError(f"curve of {e} does not join its endpoints")
    return _cartesian_record(curve)


def _in_frame(img: _Image, p: Point, rec: tuple) -> Point:
    """Point p of the image in the frame of the curve with record rec: a
    polar point before the curve's start angle moves on by one turn.  A
    checked polar curve spans less than a turn, so no other lift of p can
    lie on it."""
    if img.backend == "polar" and p.x < rec[1][0]:
        return Point(p.x + img.turn, p.y)
    return p


def _vertex_on_curve(img: _Image, e: Edge, curve, rec: tuple, v: int) -> bool:
    """Does the curve, with record rec, pass through vertex v's point
    anywhere it must not?"""
    p = _in_frame(img, img.points[v], rec)
    if v in e:
        return p in curve[1:-1]
    x, y = p
    segs, (xlo, xhi, ylo, yhi) = rec
    if not (xlo <= x <= xhi and ylo <= y <= yhi):
        return False
    return any(sxlo <= x <= sxhi and sylo <= y <= syhi and orient(a, b, p) == 0
               for a, b, sxlo, sxhi, sylo, syhi in segs)


def validate_simple(d: Drawing) -> ClassReport:
    """Confirm every simple-drawing invariant and fill all classification
    flags.  Raises NotSimpleError on violation.  The report is built on the
    first call and returned unchanged by every later one."""
    return d._report


def _crossing_rows(d: Drawing) -> Tuple[int, ...]:
    """``Drawing.cross_mask``: check the drawing is simple and build the
    crossing rows.  Every sign test runs on the drawing's integer image;
    the image and each curve's segment records are built here once and
    dropped on return.

    After the structural checks, a cartesian drawing whose every curve is
    the segment between its two vertex points, with no three vertices on a
    line, is settled by ``_order_type_rows`` from the orientations of its
    vertex triples alone.  Such a drawing is always simple, so no check
    below could fail on it.  Anything else (a bent curve, or a zero
    orientation) runs the generic curve-contact loop, which reports every
    fault."""
    if d.n < 2:
        raise NotSimpleError("need at least 2 vertices")
    if d.graph[0] == "bipartite" and not (
            d.graph[1] > 0 and d.graph[2] > 0 and d.graph[1] + d.graph[2] == d.n):
        raise NotSimpleError("bipartite part sizes must be positive and sum to n")
    if list(d.edges) != d.expected_edges():
        raise NotSimpleError("edge set does not match declared graph")
    cartesian = d.backend == "cartesian"
    ends = d.vertex_points
    straight = cartesian and all(c == (ends[u], ends[v]) or c == (ends[v], ends[u])
                                 for (u, v), c in d.curves.items())
    img = _integer_image(d, curves=not straight)
    shared = img.points
    if len(set(shared)) != d.n:
        raise NotSimpleError("vertex points are not distinct")

    if straight:
        rows = _order_type_rows(shared, d.edges)
        if rows is not None:
            return rows
        img = _integer_image(d)

    records = {}
    for e, curve in img.curves.items():
        if cartesian:
            rec = _check_cartesian_curve(img, e, curve)
        else:
            rec = _check_polar_curve(img, e, curve)
        for v in range(d.n):
            if _vertex_on_curve(img, e, curve, rec, v):
                raise NotSimpleError(f"curve of {e} passes through vertex {v}")
        records[e] = rec

    edges = d.edges
    recs = [records[e] for e in edges]
    rows = [0] * len(edges)
    for i, e in enumerate(edges):
        u, v = e
        ri = recs[i]
        for j in range(i + 1, len(edges)):
            f = edges[j]
            contacts = (_polyline_contacts(ri, recs[j], False) if cartesian
                        else _strip_contacts(ri, recs[j], img.turn, False))
            if u in f or v in f:
                at = _in_frame(img, shared[u if u in f else v], ri)
                if not _meet_only_at(contacts, at):
                    raise NotSimpleError("adjacent crossing or degenerate contact",
                                         pair=(e, f))
            else:
                propers = 0
                touches = set()
                for c in contacts:
                    if type(c) is Proper:
                        propers += 1
                    else:
                        touches.add(c)
                if propers > 1:
                    raise NotSimpleError("double crossing", pair=(e, f))
                if touches:
                    raise NotSimpleError("degenerate contact", pair=(e, f))
                if propers:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
    return tuple(rows)


def _meet_only_at(contacts, at) -> bool:
    """The rule for two curves that share the vertex at point ``at``: no
    proper crossing and exactly one touch, there.  ``contacts`` is the
    pair's unmerged contact stream; it is read only up to the first
    contact that breaks the rule.  The generators' early stop applies the
    same rule to the integer coordinates of a candidate."""
    touch = None
    for c in contacts:
        if type(c) is Proper or c.at != at or (touch is not None and c != touch):
            return False
        touch = c
    return touch is not None


def _order_type_rows(points, edges) -> Optional[Tuple[int, ...]]:
    """Crossing rows of the straight-line drawing of ``edges`` on distinct
    ``points``, or None when three points lie on one line.

    ``left[a][b]`` has bit c set when c lies strictly left of the directed
    line a -> b; one orientation per vertex triple fills it.  With no three
    points on a line, segments sharing an end meet only there, no vertex
    touches a segment, and disjoint segments ab and cd cross, once, iff c
    and d lie on opposite sides of ab and a and b on opposite sides of cd."""
    n = len(points)
    left = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                o = orient(points[a], points[b], points[c])
                if o == 0:
                    return None
                p, q = (a, b) if o > 0 else (b, a)  # p, q, c counterclockwise
                left[p][q] |= 1 << c
                left[q][c] |= 1 << p
                left[c][p] |= 1 << q
    rows = [0] * len(edges)
    for i, (a, b) in enumerate(edges):
        ab = left[a][b]
        for j in range(i + 1, len(edges)):
            c, d = f = edges[j]
            if a in f or b in f:
                continue
            cd = left[c][d]
            if ((ab >> c) ^ (ab >> d)) & ((cd >> a) ^ (cd >> b)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


# ---------------------------------------------------------------------------
# monotone drawings
# ---------------------------------------------------------------------------

def classify_monotone(d: Drawing) -> Optional[SpineStructure]:
    """x-order and spine-path edges, or None if the graph is not K_n, two
    vertices share an x-coordinate or some curve is not x-monotone.  Built
    once per drawing."""
    return d._derive(_classify_monotone)


def _classify_monotone(d: Drawing) -> Optional[SpineStructure]:
    if d.backend != "cartesian" or d.graph[0] != "complete":
        return None
    xs = [p.x for p in d.vertex_points]
    if len(set(xs)) != d.n:
        return None
    if not all(is_x_monotone(c) for c in d.curves.values()):
        return None
    order = tuple(sorted(range(d.n), key=lambda v: xs[v]))
    spine = tuple(edge(order[i], order[i + 1]) for i in range(d.n - 1))
    return SpineStructure(kind="monotone", order=order, spine_edges=spine)


def classify_two_page(d: Drawing) -> bool:
    """True iff all vertices sit on one horizontal line and every edge
    interior stays strictly inside one open halfplane of it."""
    if d.backend != "cartesian":
        return False
    ys = {p.y for p in d.vertex_points}
    if len(ys) != 1:
        return False
    y0 = ys.pop()
    for curve in d.curves.values():
        interior = curve[1:-1]
        if not interior:
            return False  # a segment lying on the line itself
        signs = {1 if w.y > y0 else (-1 if w.y < y0 else 0) for w in interior}
        if 0 in signs or len(signs) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# cylindrical drawings
# ---------------------------------------------------------------------------

def _angle_cmp(p: Point, q: Point) -> int:
    def half(t: Point) -> int:
        return 0 if (t.y > 0 or (t.y == 0 and t.x > 0)) else 1
    hp, hq = half(p), half(q)
    if hp != hq:
        return -1 if hp < hq else 1
    c = p.x * q.y - p.y * q.x
    return 0 if c == 0 else (-1 if c > 0 else 1)


def _sorted_by_angle(d: Drawing, vs: List[int]) -> List[int]:
    return sorted(vs, key=functools.cmp_to_key(
        lambda a, b: _angle_cmp(d.vertex_points[a], d.vertex_points[b])))


def classify_cylindrical(d: Drawing, r_in2: Rat, r_out2: Rat) -> Optional[CylRoles]:
    """Roles and cycle structure for vertices on two origin-centred circles,
    or None if some vertex is off-circle or some edge crosses a circle.
    The class is defined for drawings of K_n: other graphs give None."""
    if r_in2 >= r_out2:
        raise InvalidRadiiError("inner squared radius must be smaller")
    if r_in2 <= 0:
        raise InvalidRadiiError("radii must be positive")
    if d.backend != "cartesian" or d.graph[0] != "complete":
        return None
    rows, ids = d.cross_mask, d.edge_id  # building rows validates the drawing
    origin = Point(Fraction(0), Fraction(0))
    inner, outer = [], []
    for v in range(d.n):
        p = d.vertex_points[v]
        norm = p.x ** 2 + p.y ** 2
        if norm == r_in2:
            inner.append(v)
        elif norm == r_out2:
            outer.append(v)
        else:
            return None
    for curve in d.curves.values():
        for rr in (r_in2, r_out2):
            if curve_circle_crossing(curve, origin, rr):
                return None

    inner_set = set(inner)
    roles = {}
    for e in d.edges:
        k = (e[0] in inner_set) + (e[1] in inner_set)
        roles[e] = "inner" if k == 2 else ("side" if k == 1 else "outer")
    sides_mask = sum(1 << ids[e] for e, role in roles.items() if role == "side")

    def circle_cycle(vs: List[int]) -> List[Edge]:
        if len(vs) < 2:
            return []
        ring = _sorted_by_angle(d, vs)
        if len(ring) == 2:
            return [edge(ring[0], ring[1])]
        return [edge(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]

    cycle = sorted(circle_cycle(inner) + circle_cycle(outer))
    crossed = tuple(e for e in cycle if rows[ids[e]])
    for e in crossed:
        if rows[ids[e]] & ~sides_mask:
            raise InternalInvariantViolated(
                f"cycle edge {e} crossed by a non-side edge")
    for vs in (inner, outer):
        on_circle = [e for e in crossed if e[0] in set(vs) and e[1] in set(vs)]
        if len(on_circle) > 1:
            raise InternalInvariantViolated(
                "more than one crossed cycle edge on a circle")

    def ham_path(vs: List[int]) -> Tuple[Edge, ...]:
        es = circle_cycle(vs)
        if len(vs) < 3:
            return tuple(es)
        bad = [e for e in es if rows[ids[e]]]
        drop = bad[0] if bad else max(es)
        return tuple(e for e in es if e != drop)

    inner_path, outer_path = ham_path(inner), ham_path(outer)
    return CylRoles(
        r_in2=r_in2, r_out2=r_out2,
        inner_vertices=tuple(sorted(inner)), outer_vertices=tuple(sorted(outer)),
        roles=roles, crossed_cycle_edges=crossed,
        inner_path=inner_path, outer_path=outer_path,
        paths_mask=sum(1 << ids[e] for e in inner_path + outer_path),
        sides_mask=sides_mask,
    )


# ---------------------------------------------------------------------------
# c-monotone drawings
# ---------------------------------------------------------------------------

def vertex_angles(d: Drawing) -> List[Rat]:
    return [p[0] % 1 for p in d.vertex_points]


def edge_span(d: Drawing, e: Edge) -> Tuple[Rat, Rat]:
    """Closed angular span [t0, tn] of an edge's curve, t0 in [0, 1)."""
    c = d.curves[e]
    t0 = c[0].theta % 1
    return t0, c[-1].theta - (c[0].theta - t0)


def span_contains(span: Tuple[Rat, Rat], theta: Rat) -> bool:
    """Whether the angle theta (mod 1) lies inside the open span interval."""
    t0, tn = span
    return t0 < lift_angle(theta, t0) < tn


def _spans_cover_circle(s1, s2, turn=1) -> bool:
    """Whether two spans (angles in units of 1/turn turns, each starting in
    [0, turn)) jointly cover the circle."""
    comp_lo, comp_hi = s1[1], s1[0] + turn  # complement arc of s1
    for k in (0, turn):
        if s2[0] + k <= comp_lo and s2[1] + k >= comp_hi:
            return True
    return False


def classify_c_monotone(d: Drawing):
    """(c_monotone, strongly, spine) for a polar drawing, built once per
    drawing.

    A validated polar drawing is c-monotone by construction once all
    vertices lie on one circle; strongly requires that no edge pair's spans
    jointly cover the circle.  Spine edges are the consecutive-vertex edges
    whose open span contains no vertex ray.  Strongly c-monotone drawings
    and spines are defined for K_n: other graphs give (c_mono, False, None).
    """
    return d._derive(_classify_c_monotone)


def _classify_c_monotone(d: Drawing):
    if d.backend != "polar":
        return False, False, None
    _ = d.cross_mask  # ensure the drawing is validated
    radii = {p[1] for p in d.vertex_points}
    if len(radii) != 1:
        return False, False, None
    if d.graph[0] != "complete":
        return True, False, None

    # spans and vertex angles scaled by the lcm of the span denominators;
    # every vertex angle is a span end, so its denominator divides turn
    spans = {e: edge_span(d, e) for e in d.edges}
    turn = math.lcm(*{t.denominator for span in spans.values() for t in span})

    def scaled(t: Rat) -> int:
        return t.numerator * (turn // t.denominator)

    ints = {e: (scaled(t0), scaled(tn)) for e, (t0, tn) in spans.items()}
    cover = list(ints.values())
    strongly = not any(_spans_cover_circle(s, t, turn)
                       for i, s in enumerate(cover) for t in cover[i + 1:])

    angles = vertex_angles(d)
    rays = [scaled(a) for a in angles]
    order = tuple(sorted(range(d.n), key=lambda v: angles[v]))
    cycle = {edge(order[i], order[(i + 1) % d.n]) for i in range(d.n)}  # one edge for n = 2
    spine = []
    for e in cycle:
        t0, tn = ints[e]
        if not any(0 < (a - t0) % turn < tn - t0 for a in rays):
            spine.append(e)
    structure = SpineStructure(
        kind="cmonotone", order=order,
        spine_edges=tuple(sorted(spine)),
        all_cycle_edges_spine=len(spine) == len(cycle),
    )
    return True, strongly, structure


# ---------------------------------------------------------------------------
# cut to monotone
# ---------------------------------------------------------------------------

def cut_to_monotone(d: Drawing) -> Optional[Drawing]:
    """If some cycle edge of a strongly c-monotone drawing is not a spine
    edge, the wedge between its endpoints is empty of edges; cutting there
    and unrolling (x = turns past the cut ray, y = radius) yields a monotone
    drawing with an identical crossing matrix.  Returns that flat drawing
    (its vertex order is ``classify_monotone(flat).order``), or None when
    all cycle edges are spine edges.  Built once per drawing, so the flat
    drawing keeps its own derived structures between calls."""
    return d._derive(_cut_to_monotone)


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
