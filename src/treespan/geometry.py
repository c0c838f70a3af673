"""Exact predicates for the two curve backends.

Cartesian curves are polylines through ``Point`` waypoints; polar curves are
piecewise-linear radius profiles over angles measured in *turns* (one turn
is a full revolution), so every decision in the package is the sign of an
exact expression.  The predicates are sign tests that take ``int`` or
``Fraction`` coordinates alike: ``validate_simple`` runs them on a per-axis
integer image of the drawing (each axis scaled by the lcm of its
denominators, which keeps every sign), and polar angles are compared modulo
a turn length that is 1 for the public functions.  Interpolated radii are
compared by cross-multiplying, never by dividing.  Contacts that are not
transversal interior crossings (shared endpoints, endpoint-on-interior
touches, collinear overlaps, hits on waypoint breakpoints) are reported as
``Degenerate`` values rather than errors; the drawing layer decides which
of them are legal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple, Union

from .errors import NonMonotoneCurveError

Rat = Fraction


class Point(NamedTuple):
    x: Rat
    y: Rat


class PolarPoint(NamedTuple):
    theta: Rat  # turns
    r: Rat


CartesianCurve = Tuple[Point, ...]
PolarCurve = Tuple[PolarPoint, ...]


@dataclass(frozen=True)
class Proper:
    """Transversal crossing in the relative interior of both curves.

    ``at`` is the crossing Point for cartesian input and the crossing angle
    (a turn value in [0, 1)) for polar input.
    """

    at: object


@dataclass(frozen=True)
class Degenerate:
    """Any non-transversal contact.  ``at`` locates point contacts: a Point
    for cartesian input, a (theta, r) pair for polar input, None for
    collinear overlaps."""

    reason: str
    at: object = None


CrossKind = Union[Proper, Degenerate]


# ---------------------------------------------------------------------------
# cartesian primitives
# ---------------------------------------------------------------------------

def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the cross product (b - a) x (c - a)."""
    v = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def _in_box(a: Point, b: Point, p: Point) -> bool:
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def _line_intersection(a: Point, b: Point, c: Point, d: Point) -> Point:
    rx, ry = b.x - a.x, b.y - a.y
    sx, sy = d.x - c.x, d.y - c.y
    t = Fraction((c.x - a.x) * sy - (c.y - a.y) * sx, rx * sy - ry * sx)
    return Point(a.x + t * rx, a.y + t * ry)


def segment_proper_crossing(s1: Sequence[Point], s2: Sequence[Point]) -> Optional[CrossKind]:
    """Classify the contact of two closed segments.

    Proper: one transversal crossing interior to both open segments.
    Degenerate: collinear overlap, endpoint-on-segment touch, or shared
    endpoint.  None: disjoint.
    """
    return _segment_contact(*s1, *s2, True)


def _segment_contact(a: Point, b: Point, c: Point, d: Point,
                     locate: bool) -> Optional[CrossKind]:
    """segment_proper_crossing; a Proper's ``at`` is None unless locate."""
    if a == b or c == d:
        raise ValueError("zero-length segment")
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    if o1 == 0 and o2 == 0:
        # all four points on one line; lexicographic order = order along it
        lo1, hi1 = sorted((a, b))
        lo2, hi2 = sorted((c, d))
        lo, hi = max(lo1, lo2), min(hi1, hi2)
        if lo > hi:
            return None
        if lo == hi:
            return Degenerate("shared endpoint", at=lo)
        return Degenerate("collinear overlap")
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return Proper(_line_intersection(a, b, c, d) if locate else None)
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if orient(u, v, p) == 0 and _in_box(u, v, p):
            shared = p in (a, b) and p in (c, d)
            return Degenerate("shared endpoint" if shared else "endpoint contact", at=p)
    return None


def _segments(curve: Sequence):
    return [(curve[i], curve[i + 1]) for i in range(len(curve) - 1)]


def _bbox_disjoint(s1, s2) -> bool:
    (a, b), (c, d) = s1, s2
    return (max(a.x, b.x) < min(c.x, d.x) or max(c.x, d.x) < min(a.x, b.x)
            or max(a.y, b.y) < min(c.y, d.y) or max(c.y, d.y) < min(a.y, b.y))


def polyline_crossings(c1: CartesianCurve, c2: CartesianCurve) -> list:
    """All Proper and Degenerate contacts between two polylines, each once."""
    return _merged(_polyline_contacts(c1, c2, True))


def _merged(contacts: list) -> list:
    out = []
    for r in contacts:
        if r not in out:
            out.append(r)
    return out


def _polyline_contacts(c1: CartesianCurve, c2: CartesianCurve, locate: bool) -> list:
    """The contact of every segment pair that has one, unmerged: on simple
    curves distinct pairs never share a Proper crossing point."""
    out = []
    for s1 in _segments(c1):
        for s2 in _segments(c2):
            if not _bbox_disjoint(s1, s2):
                r = _segment_contact(*s1, *s2, locate)
                if r is not None:
                    out.append(r)
    return out


def curve_self_contacts(curve: CartesianCurve) -> list:
    """Illegal self-contacts of one polyline (an edge must be a simple arc).

    Consecutive segments are allowed to meet exactly at their shared
    waypoint; everything else is reported.
    """
    segs = _segments(curve)
    bad = []
    for i in range(len(segs)):
        for j in range(i + 1, len(segs)):
            r = segment_proper_crossing(segs[i], segs[j])
            if r is None:
                continue
            if j == i + 1 and isinstance(r, Degenerate) and r.at == curve[i + 1]:
                continue
            bad.append(r)
    return bad


# ---------------------------------------------------------------------------
# polar primitives
# ---------------------------------------------------------------------------

def normalize_polar(curve: PolarCurve) -> PolarCurve:
    """Shift the whole curve by an integer number of turns so that its first
    waypoint angle lies in [0, 1)."""
    return _normalized(curve, 1)


def lift_angle(theta: Rat, lo: Rat) -> Rat:
    """The representative of the angle theta (mod 1) in [lo, lo + 1)."""
    base = theta % 1
    return base + math.ceil(lo - base)


def _normalized(curve: PolarCurve, turn) -> PolarCurve:
    """normalize_polar for angles measured in units of 1/turn turns."""
    shift = curve[0].theta - (curve[0].theta % turn)
    if shift == 0:
        return tuple(curve)
    return tuple(PolarPoint(w.theta - shift, w.r) for w in curve)


def _piece_r(p0: PolarPoint, p1: PolarPoint, theta: Rat) -> Rat:
    return p0.r + (p1.r - p0.r) * (theta - p0.theta) / (p1.theta - p0.theta)


def _piece_num(p0: PolarPoint, p1: PolarPoint, theta):
    """The piece's radius at theta times its angular length p1 - p0."""
    return p0.r * (p1.theta - p0.theta) + (p1.r - p0.r) * (theta - p0.theta)


def polar_crossings(c1: PolarCurve, c2: PolarCurve) -> list:
    """All Proper and Degenerate contacts between two polar curves.

    Angles are compared mod 1 turn; a contact at a piece boundary or curve
    endpoint is Degenerate, a sign change of r1 - r2 interior to both pieces
    is Proper.  Waypoint angles must increase strictly along each curve.
    """
    return _merged(_polar_contacts(normalize_polar(c1), normalize_polar(c2), 1, True))


def _polar_contacts(c1: PolarCurve, c2: PolarCurve, turn, locate: bool) -> list:
    """polar_crossings of two curves already normalized to start in
    [0, turn), with one turn measuring ``turn``; unmerged, and a Proper's
    ``at`` is None unless locate.  Each radius comparison is the sign of
    r1 - r2 times the two pieces' angular lengths, so nothing is divided;
    a contact's radius is the radius of the piece end it lies on."""
    out = []
    for p0, p1 in _segments(c1):
        len1 = p1.theta - p0.theta
        for q0, q1 in _segments(c2):
            len2 = q1.theta - q0.theta
            for k in (-turn, 0, turn):
                lo = max(p0.theta, q0.theta + k)
                hi = min(p1.theta, q1.theta + k)
                if lo > hi:
                    continue
                dlo = _piece_num(p0, p1, lo) * len2 - _piece_num(q0, q1, lo - k) * len1
                if lo == hi:
                    if dlo == 0:
                        r = p0.r if lo == p0.theta else q0.r
                        out.append(Degenerate("endpoint contact", at=(lo % turn, r)))
                    continue
                dhi = _piece_num(p0, p1, hi) * len2 - _piece_num(q0, q1, hi - k) * len1
                if dlo == 0 and dhi == 0:
                    out.append(Degenerate("collinear overlap"))
                elif dlo == 0:
                    r = p0.r if lo == p0.theta else q0.r
                    out.append(Degenerate("endpoint contact", at=(lo % turn, r)))
                elif dhi == 0:
                    r = p1.r if hi == p1.theta else q1.r
                    out.append(Degenerate("endpoint contact", at=(hi % turn, r)))
                elif (dlo < 0) != (dhi < 0):
                    at = Fraction(hi * dlo - lo * dhi, dlo - dhi) % turn if locate else None
                    out.append(Proper(at))
    return out


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _x_direction(curve: CartesianCurve) -> int:
    xs = [w.x for w in curve]
    if all(xs[i] < xs[i + 1] for i in range(len(xs) - 1)):
        return 1
    if all(xs[i] > xs[i + 1] for i in range(len(xs) - 1)):
        return -1
    return 0


def is_x_monotone(curve: CartesianCurve) -> bool:
    return _x_direction(curve) != 0


def curve_eval(curve, at: Rat) -> Optional[Rat]:
    """y at x for an x-monotone cartesian curve, or r at theta (mod 1) for a
    polar curve.  None when the curve does not span the query."""
    if isinstance(curve[0], PolarPoint):
        c = normalize_polar(curve)
        cand = lift_angle(at, c[0].theta)
        if cand > c[-1].theta:
            return None
        for p0, p1 in _segments(c):
            if p0.theta <= cand <= p1.theta:
                return _piece_r(p0, p1, cand)
        return None
    direction = _x_direction(curve)
    if direction == 0:
        raise NonMonotoneCurveError("y-at-x query on a non-x-monotone curve")
    pts = curve if direction == 1 else tuple(reversed(curve))
    if at < pts[0].x or at > pts[-1].x:
        return None
    for a, b in _segments(pts):
        if a.x <= at <= b.x:
            return a.y + (b.y - a.y) * (at - a.x) / (b.x - a.x)
    return None


# ---------------------------------------------------------------------------
# circle relation
# ---------------------------------------------------------------------------

def segment_circle_relation(s: Sequence[Point], center: Point, r2: Rat) -> str:
    """Relation of a closed segment to the circle of squared radius r2:
    'disjoint', 'crosses' (the open segment passes through the circle
    transversally) or 'touches' (contact without a transversal pass)."""
    if r2 <= 0:
        raise ValueError("squared radius must be positive")
    a, b = s

    def f(p: Point) -> Rat:
        return (p.x - center.x) ** 2 + (p.y - center.y) ** 2 - r2

    fa, fb = f(a), f(b)
    dx, dy = b.x - a.x, b.y - a.y
    dd = dx * dx + dy * dy
    tstar = ((center.x - a.x) * dx + (center.y - a.y) * dy) / dd
    tcl = min(max(tstar, Fraction(0)), Fraction(1))
    fmin = f(Point(a.x + tcl * dx, a.y + tcl * dy))

    if fa > 0 and fb > 0:
        if fmin < 0:
            return "crosses"
        if fmin == 0:
            return "touches"
        return "disjoint"
    if (fa > 0 and fb < 0) or (fa < 0 and fb > 0):
        return "crosses"
    if fa < 0 and fb < 0:
        return "disjoint"
    if fa == 0 and fb == 0:
        return "touches"
    # exactly one endpoint on the circle
    if fa == 0:
        other = fb
        t_inward = tstar > 0
    else:
        other = fa
        t_inward = tstar < 1
    if other < 0:
        return "touches"
    return "crosses" if t_inward else "touches"


def curve_circle_crossing(curve: CartesianCurve, center: Point, r2: Rat) -> bool:
    """Whether a polyline passes transversally through a circle, including
    passes exactly through waypoints (tangential touches do not count)."""

    def f(p: Point) -> Rat:
        return (p.x - center.x) ** 2 + (p.y - center.y) ** 2 - r2

    signs = []

    def push(v: Rat) -> None:
        s = 1 if v > 0 else (-1 if v < 0 else 0)
        if s != 0 and (not signs or signs[-1] != s):
            signs.append(s)

    for a, b in _segments(curve):
        push(f(a))
        dx, dy = b.x - a.x, b.y - a.y
        dd = dx * dx + dy * dy
        tstar = ((center.x - a.x) * dx + (center.y - a.y) * dy) / dd
        if 0 < tstar < 1:
            push(f(Point(a.x + tstar * dx, a.y + tstar * dy)))
        push(f(b))
    return any(signs[i] != signs[i + 1] for i in range(len(signs) - 1))
