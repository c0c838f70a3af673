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
    ax, ay = a
    bx, by = b
    cx, cy = c
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


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
    return _segment_contact(_segment_record(*s1), _segment_record(*s2), True)


def _segment_record(a: Point, b: Point) -> tuple:
    """(a, b, xlo, xhi, ylo, yhi): a segment and its bounding box."""
    if a == b:
        raise ValueError("zero-length segment")
    xlo, xhi = (a.x, b.x) if a.x < b.x else (b.x, a.x)
    ylo, yhi = (a.y, b.y) if a.y < b.y else (b.y, a.y)
    return a, b, xlo, xhi, ylo, yhi


def _cartesian_record(curve: CartesianCurve) -> tuple:
    """(segment records, box) of a polyline; the box is (xlo, xhi, ylo, yhi)."""
    xs = [w.x for w in curve]
    ys = [w.y for w in curve]
    segs = [_segment_record(a, b) for a, b in zip(curve, curve[1:])]
    return segs, (min(xs), max(xs), min(ys), max(ys))


def _segment_contact(s: tuple, t: tuple, locate: bool) -> Optional[CrossKind]:
    """segment_proper_crossing of two segment records; a Proper's ``at`` is
    None unless locate."""
    a, b, c, d = s[0], s[1], t[0], t[1]
    if a == c or a == d or b == c or b == d:
        # two segments from one point that are not collinear meet only there
        p, u = (a, b) if a == c or a == d else (b, a)
        if orient(p, u, d if p == c else c) != 0:
            return Degenerate("shared endpoint", at=p)
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    if o1 == o2:
        if o1:
            return None  # c and d strictly on one side of the line ab
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
    if o3 == o4:
        return None  # a and b strictly on one side: both zero would mean collinear
    if o1 * o2 < 0 and o3 * o4 < 0:
        return Proper(_line_intersection(a, b, c, d) if locate else None)
    # a shared endpoint was settled above: what is left is an endpoint
    # lying on the other segment
    for p, o, box in ((c, o1, s), (d, o2, s), (a, o3, t), (b, o4, t)):
        if o == 0 and box[2] <= p.x <= box[3] and box[4] <= p.y <= box[5]:
            return Degenerate("endpoint contact", at=p)
    return None


def polyline_crossings(c1: CartesianCurve, c2: CartesianCurve) -> list:
    """All Proper and Degenerate contacts between two polylines, each once."""
    return _merged(_polyline_contacts(_cartesian_record(c1), _cartesian_record(c2), True))


def _merged(contacts) -> list:
    out = []
    for r in contacts:
        if r not in out:
            out.append(r)
    return out


def _polyline_contacts(rec1: tuple, rec2: tuple, locate: bool):
    """The contact of every segment pair that has one, unmerged, for two
    polylines given as ``_cartesian_record``s: on simple curves distinct
    pairs never share a Proper crossing point.  Pairs whose boxes are
    disjoint have no contact and are skipped, first for the whole curves."""
    segs1, (xlo, xhi, ylo, yhi) = rec1
    segs2, (uxlo, uxhi, uylo, uyhi) = rec2
    if xhi < uxlo or uxhi < xlo or yhi < uylo or uyhi < ylo:
        return
    for s in segs1:
        _, _, sxlo, sxhi, sylo, syhi = s
        for t in segs2:
            if t[3] < sxlo or sxhi < t[2] or t[5] < sylo or syhi < t[4]:
                continue
            r = _segment_contact(s, t, locate)
            if r is not None:
                yield r


def curve_self_contacts(curve: CartesianCurve) -> list:
    """Illegal self-contacts of one polyline (an edge must be a simple arc).

    Consecutive segments are allowed to meet exactly at their shared
    waypoint; everything else is reported.
    """
    return _self_contacts([_segment_record(a, b) for a, b in zip(curve, curve[1:])])


def _self_contacts(segs: list) -> list:
    """curve_self_contacts of a polyline's segment records."""
    bad = []
    for i, s in enumerate(segs):
        _, _, sxlo, sxhi, sylo, syhi = s
        for j in range(i + 1, len(segs)):
            t = segs[j]
            if t[3] < sxlo or sxhi < t[2] or t[5] < sylo or syhi < t[4]:
                continue
            r = _segment_contact(s, t, True)
            if r is None:
                continue
            if j == i + 1 and isinstance(r, Degenerate) and r.at == s[1]:
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


def polar_crossings(c1: PolarCurve, c2: PolarCurve) -> list:
    """All Proper and Degenerate contacts between two polar curves.

    Angles are compared mod 1 turn; a contact at a piece boundary or curve
    endpoint is Degenerate, a sign change of r1 - r2 interior to both pieces
    is Proper.  Waypoint angles must increase strictly along each curve.
    """
    return _merged(_polar_contacts(_polar_record(normalize_polar(c1)),
                                   _polar_record(normalize_polar(c2)), 1, True))


def _polar_record(curve: PolarCurve) -> tuple:
    """(piece records, range) of a polar curve.  A piece record is
    (t0, t1, r0, r1, length, a, b, rlo, rhi): the piece's end angles and
    radii, its angular length, the line a + b * theta that is its radius
    times its length, and its radius range, which holds every radius it
    interpolates.  The range is (t0, tn, rlo, rhi) for the whole curve."""
    segs = []
    for (t0, r0), (t1, r1) in zip(curve, curve[1:]):
        length, b = t1 - t0, r1 - r0
        rlo, rhi = (r0, r1) if r0 < r1 else (r1, r0)
        segs.append((t0, t1, r0, r1, length, r0 * length - b * t0, b, rlo, rhi))
    rs = [w.r for w in curve]
    return segs, (curve[0].theta, curve[-1].theta, min(rs), max(rs))


def _polar_contacts(rec1: tuple, rec2: tuple, turn, locate: bool):
    """polar_crossings of two ``_polar_record``s of curves normalized to
    start in [0, turn), with one turn measuring ``turn``; unmerged, and a
    Proper's ``at`` is None unless locate.  Each radius comparison is the
    sign of r1 - r2 times the two pieces' angular lengths, so nothing is
    divided; a contact's radius is the radius of the piece end it lies on.
    Pieces whose radius ranges are disjoint, or whose angle ranges meet
    under none of the three turn shifts, have no contact and are skipped,
    first for the whole curves."""
    segs1, (e0, e1, elo, ehi) = rec1
    segs2, (f0, f1, flo, fhi) = rec2
    if ehi < flo or fhi < elo:
        return
    shifts = [k for k in (-turn, 0, turn) if max(e0, f0 + k) <= min(e1, f1 + k)]
    if not shifts:
        return
    for t0, t1, r0, r1, len1, a1, b1, plo, phi in segs1:
        for u0, u1, s0, s1, len2, a2, b2, qlo, qhi in segs2:
            if phi < qlo or qhi < plo:
                continue
            for k in shifts:
                lo = t0 if t0 > u0 + k else u0 + k
                hi = t1 if t1 < u1 + k else u1 + k
                if lo > hi:
                    continue
                dlo = (a1 + b1 * lo) * len2 - (a2 + b2 * (lo - k)) * len1
                dhi = dlo if lo == hi else (a1 + b1 * hi) * len2 - (a2 + b2 * (hi - k)) * len1
                if dlo == 0 and dhi == 0 and lo < hi:
                    yield Degenerate("collinear overlap")
                elif dlo == 0:
                    r = r0 if lo == t0 else s0
                    yield Degenerate("endpoint contact", at=(lo % turn, r))
                elif dhi == 0:
                    r = r1 if hi == t1 else s1
                    yield Degenerate("endpoint contact", at=(hi % turn, r))
                elif (dlo < 0) != (dhi < 0):
                    yield Proper(Fraction(hi * dlo - lo * dhi, dlo - dhi) % turn
                                 if locate else None)


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
        for p0, p1 in zip(c, c[1:]):
            if p0.theta <= cand <= p1.theta:
                return _piece_r(p0, p1, cand)
        return None
    direction = _x_direction(curve)
    if direction == 0:
        raise NonMonotoneCurveError("y-at-x query on a non-x-monotone curve")
    pts = curve if direction == 1 else tuple(reversed(curve))
    if at < pts[0].x or at > pts[-1].x:
        return None
    for a, b in zip(pts, pts[1:]):
        if a.x <= at <= b.x:
            return a.y + (b.y - a.y) * (at - a.x) / (b.x - a.x)
    return None


# ---------------------------------------------------------------------------
# circle relation
# ---------------------------------------------------------------------------

def _circle_values(curve: CartesianCurve, center: Point, r2: Rat) -> list:
    """|p - center|^2 - r2 at every waypoint p of a polyline, and at each
    segment's point nearest the center when that point lies strictly
    inside the segment.  Along a segment the value is convex, so these
    samples hold every segment's minimum, and between two consecutive
    samples it is monotone."""
    cx, cy = center

    def f(x, y):
        return (x - cx) ** 2 + (y - cy) ** 2 - r2

    out = [f(*curve[0])]
    for (ax, ay), (bx, by) in zip(curve, curve[1:]):
        dx, dy = bx - ax, by - ay
        dd = dx * dx + dy * dy
        if dd == 0:
            raise ValueError("zero-length segment")
        tstar = Fraction((cx - ax) * dx + (cy - ay) * dy, dd)
        if 0 < tstar < 1:
            out.append(f(ax + tstar * dx, ay + tstar * dy))
        out.append(f(bx, by))
    return out


def _changes_sign(values: list) -> bool:
    return any(v > 0 for v in values) and any(v < 0 for v in values)


def segment_circle_relation(s: Sequence[Point], center: Point, r2: Rat) -> str:
    """Relation of a closed segment to the circle of squared radius r2:
    'disjoint', 'crosses' (the open segment passes through the circle
    transversally) or 'touches' (contact without a transversal pass)."""
    if r2 <= 0:
        raise ValueError("squared radius must be positive")
    values = _circle_values(s, center, r2)
    if _changes_sign(values):
        return "crosses"
    return "touches" if 0 in values else "disjoint"


def curve_circle_crossing(curve: CartesianCurve, center: Point, r2: Rat) -> bool:
    """Whether a polyline passes transversally through a circle, including
    passes exactly through waypoints (tangential touches do not count)."""
    return _changes_sign(_circle_values(curve, center, r2))
