"""Crossing relations, drawings, simple-drawing validation and classes.

A Relation is n vertices, an edge tuple and a crossing matrix of one int
per edge: edge ids are positions in the edge tuple, and bit j of
``cross_mask[i]`` is set when edges i and j cross.  Enumeration,
compatibility graphs, certification and the star-family transformations
read a relation and nothing more.  A Relation is immutable; two plain
dicts set at construction are its memos: the tree certificates, and the
structures ``Relation._derive`` builds.

A Drawing is a relation that holds one explicit curve per edge of a
complete (or complete bipartite) graph.  Its sorted edge tuple, crossing
matrix (whose construction is the simple-drawing check) and class report
are computed from the curves on first use and kept.  The class
recognition the transformation algorithms rely on (spine paths and
cylindrical roles) lives here.  A polar drawing is validated in its
angle-radius strip.

Validation and the monotone, c-monotone and two-page checks compare the
coordinates of the drawing's integer image, each axis scaled by the lcm
of its denominators, which is derived once per drawing; only
``_integer_image`` scales.  The cylindrical check's circle predicates
scale each curve on its own, since the whole image's coordinates grow to
about a thousand bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

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


class Relation:
    """n vertices, ``edges`` and their crossing rows ``cross_mask``.  The
    constructor copies its inputs into tuples and checks nothing, so any
    symmetric relation on any edge subset is one, an edge crossing itself
    included.  A ``Drawing`` is one, built from its curves."""

    def __init__(self, n: int, edges: Iterable[Edge], cross_mask: Iterable[int]):
        fields = self.__dict__
        fields["n"] = n
        fields["edges"] = tuple(map(tuple, edges))
        fields["cross_mask"] = tuple(cross_mask)
        self.__post_init__()

    def __post_init__(self):
        # memos, not fields: mask -> TreeCert (``trees.check_mask``) and
        # (builder, *args) -> its value (``_derive``)
        self.__dict__.update(_cert_cache={}, _derived={})

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"Relation(n={self.n}, edges={self.edges}, cross_mask={self.cross_mask})"

    @functools.cached_property
    def _edge_bit(self) -> Dict[Edge, int]:
        """(u, v) and (v, u) -> the edge's bit in masks, ``1 << i`` for ``edges[i]``."""
        table = {}
        for i, (u, v) in enumerate(self.edges):
            table[u, v] = table[v, u] = 1 << i
        return table

    def _derive(self, build, *args):
        """A structure fixed by the relation, built on the first request and
        kept.  Builders return immutable values; one that raises stores
        nothing."""
        key = (build, *args)
        memo = self._derived
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = build(self, *args)
            return value

    def crossing_pairs(self) -> List[Tuple[Edge, Edge]]:
        edges = self.edges
        return [(e, edges[j]) for i, (e, row) in enumerate(zip(edges, self.cross_mask))
                for j in bits(row) if j > i]


@dataclass(frozen=True)
class Drawing(Relation):
    """n vertices plus one curve per edge.  ``graph`` is ("complete",) or
    ("bipartite", a, b); ``backend`` is "cartesian" or "polar".  For the
    polar backend vertex points are (theta, r) pairs in rational turns and
    curve waypoints have strictly increasing theta spanning < 1 turn.
    Immutable: the vertex points, each curve, ``graph`` and ``circles`` are
    copied into tuples and ``curves`` into a read-only mapping, so
    everything derived from the drawing is computed on first use and kept."""

    n: int
    backend: str
    vertex_points: tuple
    curves: Mapping[Edge, tuple]
    graph: tuple = ("complete",)
    circles: Optional[Tuple[Rat, Rat]] = None  # (r_in^2, r_out^2) hint

    def __post_init__(self):
        fields = self.__dict__
        fields["vertex_points"] = tuple(self.vertex_points)
        fields["curves"] = MappingProxyType({e: tuple(c) for e, c in self.curves.items()})
        fields["graph"] = tuple(self.graph)
        if self.circles is not None:
            fields["circles"] = tuple(self.circles)
        super().__post_init__()

    @functools.cached_property
    def edges(self) -> Tuple[Edge, ...]:
        return tuple(sorted(self.curves))

    def expected_edges(self) -> List[Edge]:
        if self.graph[0] == "complete":
            return complete_edges(self.n)
        _, a, b = self.graph
        return bipartite_edges(a, b)

    @functools.cached_property
    def cross_mask(self) -> Tuple[int, ...]:
        """Row i has bit j set when edges i and j properly cross.  Building
        it confirms every simple-drawing invariant and raises NotSimpleError
        on a violation."""
        return _crossing_rows(self)

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
    paths_mask: int    # edge mask of both circles' uncrossed Hamiltonian paths
    sides_mask: int    # edge mask of the side edges


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
    there.  ``curves`` is a read-only mapping in the drawing's curve
    order."""

    backend: str
    points: tuple
    curves: Mapping[Edge, tuple]
    turn: int


def _integer_image(d: Drawing, curves: bool = True) -> _Image:
    """The image of d, kept as ``d._derive(_integer_image)``.  Without
    ``curves`` (the order-type route alone) the scales come from the vertex
    points and no curve is scaled, which gives the same points when every
    waypoint is a vertex point."""
    everything = list(d.vertex_points)
    if curves:
        everything += [w for c in d.curves.values() for w in c]
    # each point object once, not once per curve ending at it; keyed by id,
    # since hashing a Fraction costs more than scaling it
    distinct = {id(p): p for p in everything}
    sx = math.lcm(*{p[0].denominator for p in distinct.values()})
    sy = math.lcm(*{p[1].denominator for p in distinct.values()})
    image_of = {k: Point(p[0].numerator * (sx // p[0].denominator),
                         p[1].numerator * (sy // p[1].denominator))
                for k, p in distinct.items()}

    def scaled(points):
        return tuple(map(image_of.__getitem__, map(id, points)))

    image = {e: scaled(c) for e, c in d.curves.items()} if curves else {}
    points = scaled(d.vertex_points)
    if d.backend == "polar":
        image = {e: _normalized(c, sx) if c else c for e, c in image.items()}
        points = tuple(Point(x % sx, y) for x, y in points)
    return _Image(d.backend, points, MappingProxyType(image), sx)


def _check_curve(img: _Image, e: Edge, curve: CartesianCurve) -> tuple:
    """Check that the image's curve of e is a simple arc through no vertex
    but its two ends, and return its ``_cartesian_record``.  A polar curve
    lies in the angle-radius strip: positive radii, strictly increasing
    angles spanning less than a turn, its end taken mod one turn.  A
    cartesian one has no zero-length segment and does not touch itself.
    The checks run in a fixed order, which picks the reason reported.  A
    curve through one of its own ends as an interior waypoint breaks an
    earlier rule (zero length or self-contact; angle order or span), so
    only the other vertices are looked for on it."""
    if len(curve) < 2:
        raise NotSimpleError(f"curve of {e} has fewer than 2 waypoints")
    polar = img.backend == "polar"
    end = curve[-1]
    if polar:
        for w in curve:
            if w.y <= 0:
                raise NotSimpleError(f"curve of {e} has non-positive radius")
        for i in range(len(curve) - 1):
            if curve[i].x >= curve[i + 1].x:
                raise NotSimpleError(f"curve of {e} is not angle-monotone")
        if end.x - curve[0].x >= img.turn:
            raise NotSimpleError(f"curve of {e} spans a full turn or more")
        end = Point(end.x % img.turn, end.y)
    else:
        for i in range(len(curve) - 1):
            if curve[i] == curve[i + 1]:
                raise NotSimpleError(f"zero-length segment in curve of {e}")
    if {curve[0], end} != {img.points[e[0]], img.points[e[1]]}:
        raise NotSimpleError(f"curve of {e} does not join its endpoints")
    rec = segs, (xlo, xhi, ylo, yhi) = _cartesian_record(curve)
    if not polar and _self_contacts(segs):
        raise NotSimpleError(f"curve of {e} is self-intersecting")
    for v, p in enumerate(img.points):
        if v in e:
            continue
        p = x, y = _in_frame(img, p, rec)
        if xlo <= x <= xhi and ylo <= y <= yhi:
            for a, b, sxlo, sxhi, sylo, syhi in segs:
                if sxlo <= x <= sxhi and sylo <= y <= syhi and orient(a, b, p) == 0:
                    raise NotSimpleError(f"curve of {e} passes through vertex {v}")
    return rec


def _in_frame(img: _Image, p: Point, rec: tuple) -> Point:
    """Point p of the image in the frame of the curve with record rec: a
    polar point before the curve's start angle moves on by one turn.  A
    checked polar curve spans less than a turn, so no other lift of p can
    lie on it."""
    if img.backend == "polar" and p.x < rec[1][0]:
        return Point(p.x + img.turn, p.y)
    return p


def validate_simple(d: Drawing) -> ClassReport:
    """Confirm every simple-drawing invariant and fill all classification
    flags.  Raises NotSimpleError on violation.  The report is built on the
    first call and returned unchanged by every later one."""
    return d._report


def _crossing_rows(d: Drawing, unchecked=None) -> Tuple[int, ...]:
    """``Drawing.cross_mask``: check the drawing is simple and build the
    crossing rows.  Every sign test runs on the drawing's integer image,
    derived here and kept for the class checks; each curve's segment
    records are built here once and dropped on return.

    After the structural checks, a cartesian drawing whose every curve is
    the segment between its two vertex points, with no three vertices on a
    line, is settled by ``_order_type_rows`` from the orientations of its
    vertex triples alone.  Such a drawing is always simple, so no check
    below could fail on it.  Anything else (a bent curve, or a zero
    orientation) runs the generic curve-contact loop, which reports every
    fault.

    ``unchecked`` is ``generators.generate``'s alone: the pairs of curves
    sharing a vertex, each (e, f) with e before f in ``d.edges``, that the
    candidate's builder did not check with ``_meet_only_at`` on its own
    integers.  The loop checks those and takes every other such pair as
    passed; the builder's integers differ from the image by a positive
    factor per axis, or by a homeomorphism of the strip, so no verdict
    changes.  Left at None, as on every other path to this function,
    every pair is checked."""
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
    img = _integer_image(d, curves=False) if straight else d._derive(_integer_image)
    if len(set(img.points)) != d.n:
        raise NotSimpleError("vertex points are not distinct")

    if straight:
        rows = _order_type_rows(img.points, d.edges)
        if rows is not None:
            return rows
        img = d._derive(_integer_image)
    shared = img.points

    records = {e: _check_curve(img, e, curve) for e, curve in img.curves.items()}
    edges = d.edges
    recs = [records[e] for e in edges]
    rows = [0] * len(edges)
    for i, e in enumerate(edges):
        u, v = e
        ri = recs[i]
        for j in range(i + 1, len(edges)):
            f = edges[j]
            adjacent = u in f or v in f
            if adjacent and unchecked is not None and (e, f) not in unchecked:
                continue
            contacts = (_polyline_contacts(ri, recs[j], False) if cartesian
                        else _strip_contacts(ri, recs[j], img.turn, False))
            if adjacent:
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
    and d lie on opposite sides of ab and a and b on opposite sides of cd.
    So ab's row is read from the wedges at the vertices c left of it: the
    edges cd with d right of ab and on one side of exactly one of the lines
    a -> c and b -> c, which visits only crossing pairs."""
    n = len(points)
    left = [[0] * n for _ in range(n)]
    for a in range(n):
        ax, ay = points[a]
        for b in range(a + 1, n):
            dx, dy = points[b][0] - ax, points[b][1] - ay
            for c in range(b + 1, n):
                cx, cy = points[c]
                o = dx * (cy - ay) - dy * (cx - ax)
                if o == 0:
                    return None
                p, q = (a, b) if o > 0 else (b, a)  # p, q, c counterclockwise
                left[p][q] |= 1 << c
                left[q][c] |= 1 << p
                left[c][p] |= 1 << q
    bit = [{} for _ in range(n)]  # bit[c][d]: the bit of edge cd
    neighbours = [0] * n
    for i, (a, b) in enumerate(edges):
        bit[a][b] = bit[b][a] = 1 << i
        neighbours[a] |= 1 << b
        neighbours[b] |= 1 << a
    rows = []
    for a, b in edges:
        left_a, left_b = left[a], left[b]
        right, row = left_b[a], 0
        wedge = left_a[b]
        while wedge:  # bits() inlined, twice: this loop is the hot path
            low = wedge & -wedge
            c = low.bit_length() - 1
            wedge ^= low
            ends = right & (left_a[c] ^ left_b[c]) & neighbours[c]
            while ends:
                low = ends & -ends
                row |= bit[c][low.bit_length() - 1]
                ends ^= low
        rows.append(row)
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
    img = d._derive(_integer_image)
    xs = [p.x for p in img.points]
    if len(set(xs)) != d.n:
        return None
    for c in img.curves.values():
        cx = [w.x for w in c]
        up = sorted(set(cx))  # cx itself, or reversed, iff x moves one way only
        if cx != up and cx[::-1] != up:
            return None
    order = tuple(sorted(range(d.n), key=xs.__getitem__))
    spine = tuple(edge(order[i], order[i + 1]) for i in range(d.n - 1))
    return SpineStructure(kind="monotone", order=order, spine_edges=spine)


def classify_two_page(d: Drawing) -> bool:
    """True iff all vertices sit on one horizontal line and every edge
    interior stays strictly inside one open halfplane of it."""
    if d.backend != "cartesian":
        return False
    img = d._derive(_integer_image)
    ys = {p.y for p in img.points}
    if len(ys) != 1:
        return False
    y0 = ys.pop()
    for curve in img.curves.values():
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

def _ring_key(p: Point) -> tuple:
    """Sort key of a point by its angle about the origin, from angle 0,
    for points on one origin-centred circle: x falls along the upper half
    (y > 0, or the point at angle 0) and rises along the lower half."""
    if p.y > 0 or (p.y == 0 and p.x > 0):
        return 0, -p.x
    return 1, p.x


def check_radii(r_in2: Rat, r_out2: Rat) -> None:
    """Squared radii of two circles, inner first: 0 < r_in2 < r_out2, or
    InvalidRadiiError."""
    if r_in2 >= r_out2:
        raise InvalidRadiiError("inner squared radius must be smaller")
    if r_in2 <= 0:
        raise InvalidRadiiError("radii must be positive")


def classify_cylindrical(d: Drawing, r_in2: Rat, r_out2: Rat) -> Optional[CylRoles]:
    """Roles and cycle structure for vertices on two origin-centred circles,
    or None if some vertex is off-circle or some edge crosses a circle.
    The class is defined for drawings of K_n: other graphs give None.
    Built once per drawing and pair of radii."""
    check_radii(r_in2, r_out2)
    return d._derive(_classify_cylindrical, r_in2, r_out2)


def _classify_cylindrical(d: Drawing, r_in2: Rat, r_out2: Rat) -> Optional[CylRoles]:
    if d.backend != "cartesian" or d.graph[0] != "complete":
        return None
    bit, row = d._edge_bit, dict(zip(d.edges, d.cross_mask))  # the rows validate d
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

    sides_mask = sum(bit[u, v] for u, v in d.edges
                     if (u in inner) != (v in inner))
    paths_mask = 0
    for vs in (inner, outer):  # each cycle, less one edge, is its circle's path
        ring = sorted(vs, key=lambda v: _ring_key(d.vertex_points[v]))
        closing = ring[:1] if len(ring) > 2 else []  # two vertices: one edge
        cycle = [edge(a, b) for a, b in zip(ring, ring[1:] + closing)]
        crossed = sorted(e for e in cycle if row[e])
        for e in crossed:
            if row[e] & ~sides_mask:
                raise InternalInvariantViolated(
                    f"cycle edge {e} crossed by a non-side edge")
        if len(crossed) > 1:
            raise InternalInvariantViolated(
                "more than one crossed cycle edge on a circle")
        if len(cycle) > 1:
            cycle.remove(crossed[0] if crossed else max(cycle))
        paths_mask |= sum(bit[e] for e in cycle)

    return CylRoles(
        r_in2=r_in2, r_out2=r_out2,
        inner_vertices=tuple(sorted(inner)), outer_vertices=tuple(sorted(outer)),
        paths_mask=paths_mask, sides_mask=sides_mask,
    )


# ---------------------------------------------------------------------------
# c-monotone drawings
# ---------------------------------------------------------------------------

def _spans_cover_circle(s1, s2, turn=1) -> bool:
    """Whether two spans (angles in units of 1/turn turns, each starting in
    [0, turn)) jointly cover the circle."""
    comp_lo, comp_hi = s1[1], s1[0] + turn  # complement arc of s1
    for k in (0, turn):
        if s2[0] + k <= comp_lo and s2[1] + k >= comp_hi:
            return True
    return False


def _covering_pair(spans, turn) -> bool:
    """Whether two of the spans, taken as ``_spans_cover_circle`` takes
    them, jointly cover the circle.  Two closed spans cover it only if
    their lengths sum to a turn or more, so the spans are tried longest
    first and each stops at the first partner too short for it."""
    spans = sorted(spans, key=lambda s: s[0] - s[1])
    for i, s in enumerate(spans):
        need = turn - (s[1] - s[0])
        for j in range(i + 1, len(spans)):
            t = spans[j]
            if t[1] - t[0] < need:
                break
            if _spans_cover_circle(s, t, turn):
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
    img = d._derive(_integer_image)
    if len({p.y for p in img.points}) != 1:
        return False, False, None
    if d.graph[0] != "complete":
        return True, False, None

    turn = img.turn
    spans = {e: (c[0].x, c[-1].x) for e, c in img.curves.items()}  # c[0].x in [0, turn)
    strongly = not _covering_pair(spans.values(), turn)

    rays = [p.x for p in img.points]
    order = tuple(sorted(range(d.n), key=rays.__getitem__))
    cycle = {edge(order[i], order[(i + 1) % d.n]) for i in range(d.n)}  # one edge for n = 2
    spine = []
    for e in cycle:
        t0, tn = spans[e]
        if not any(0 < (a - t0) % turn < tn - t0 for a in rays):
            spine.append(e)
    structure = SpineStructure(
        kind="cmonotone", order=order,
        spine_edges=tuple(sorted(spine)),
        all_cycle_edges_spine=len(spine) == len(cycle),
    )
    return True, strongly, structure
