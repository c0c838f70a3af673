"""Exact predicates for the two curve backends.

Cartesian curves are polylines through ``Point`` waypoints; polar curves are
piecewise-linear radius profiles over angles measured in *turns* (one turn
is a full revolution).  In the angle-radius strip (x = angle, y = radius)
a polar curve is an x-monotone polyline, and the strip is periodic in x
with period one turn.  So both backends share one contact kernel: a polar
pair is a pair of strip polylines, the second moved by each whole turn
under which the two angle ranges meet, and polar evaluation is polyline
evaluation at the lifted angle.  Every decision in the package is the sign
of an exact expression.  The predicates are sign tests that take ``int``
or ``Fraction`` coordinates alike: ``validate_simple`` runs them on a
per-axis integer image of the drawing (each axis scaled by the lcm of its
denominators, which keeps every sign), where one turn measures the lcm of
the angle denominators; it is 1 for the public functions.  Contacts that
are not transversal interior crossings (shared endpoints,
endpoint-on-interior touches, collinear overlaps, hits on waypoint
breakpoints) are reported as ``Degenerate`` values rather than errors; the
drawing layer decides which of them are legal.
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
# polar curves as polylines of the angle-radius strip
# ---------------------------------------------------------------------------

def normalize_polar(curve: PolarCurve) -> PolarCurve:
    """Shift the whole curve by an integer number of turns so that its first
    waypoint angle lies in [0, 1)."""
    return _normalized(curve, 1)


def lift_angle(theta: Rat, lo: Rat) -> Rat:
    """The representative of the angle theta (mod 1) in [lo, lo + 1)."""
    base = theta % 1
    return base + math.ceil(lo - base)


def _normalized(curve, turn):
    """normalize_polar for angles measured in units of 1/turn turns, of
    PolarPoints or of their strip Points alike."""
    shift = curve[0][0] - (curve[0][0] % turn)
    if shift == 0:
        return tuple(curve)
    kind = type(curve[0])
    return tuple(kind(w[0] - shift, w[1]) for w in curve)


def polar_crossings(c1: PolarCurve, c2: PolarCurve) -> list:
    """All Proper and Degenerate contacts between two polar curves.

    Angles are compared mod 1 turn; a contact at a piece boundary or curve
    endpoint is Degenerate, a sign change of r1 - r2 interior to both pieces
    is Proper.  Waypoint angles must increase strictly along each curve.
    The strip kernel's contacts are reported with their angles mod 1, and
    each point contact, a shared endpoint too, as an "endpoint contact".
    """
    return _merged(Proper(r.at.x % 1) if type(r) is Proper
                   else r if r.at is None
                   else Degenerate("endpoint contact", at=(r.at.x % 1, r.at.y))
                   for r in _strip_contacts(_strip_record(c1), _strip_record(c2), 1, True))


def _strip_record(curve: PolarCurve) -> tuple:
    """The ``_cartesian_record`` of a polar curve in the strip, normalized."""
    return _cartesian_record(tuple(Point(*w) for w in normalize_polar(curve)))


def _strip_contacts(rec1: tuple, rec2: tuple, turn, locate: bool):
    """``_polyline_contacts`` of two curves of the angle-radius strip, each
    normalized to start in [0, turn), where one turn measures ``turn``.
    The second curve is moved by each of -turn, 0 and +turn under which
    the two angle ranges meet, so every contact is located in the first
    curve's frame.  Segment pairs are visited in curve order, and the
    shifts of one pair in increasing order."""
    e0, e1 = rec1[1][0], rec1[1][1]
    segs, (f0, f1, flo, fhi) = rec2
    if f1 < e0 + turn and e1 < f0 + turn:  # neither -turn nor +turn meets: 0 alone or none
        return _polyline_contacts(rec1, rec2, locate)
    shifts = [k for k in (-turn, 0, turn) if e0 <= f1 + k and f0 + k <= e1]
    moved = [(Point(a.x + k, a.y), Point(b.x + k, b.y), xlo + k, xhi + k, ylo, yhi)
             for a, b, xlo, xhi, ylo, yhi in segs for k in shifts]
    return _polyline_contacts(rec1, (moved, (f0 + shifts[0], f1 + shifts[-1], flo, fhi)),
                              locate)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _x_direction(curve) -> int:
    """1 or -1 if the first coordinates strictly increase or decrease, else 0."""
    xs = [w[0] for w in curve]
    if all(xs[i] < xs[i + 1] for i in range(len(xs) - 1)):
        return 1
    if all(xs[i] > xs[i + 1] for i in range(len(xs) - 1)):
        return -1
    return 0


def curve_eval(curve, at: Rat) -> Optional[Rat]:
    """y at x for an x-monotone cartesian curve, or r at theta (mod 1) for a
    polar curve: its strip polyline's y at theta lifted into the curve's
    frame.  None when the curve does not span the query."""
    if isinstance(curve[0], PolarPoint):
        if _x_direction(curve) != 1:
            raise NonMonotoneCurveError("r-at-theta query on a non-angle-monotone curve")
        pts = normalize_polar(curve)
        at = lift_angle(at, pts[0].theta)
    else:
        direction = _x_direction(curve)
        if direction == 0:
            raise NonMonotoneCurveError("y-at-x query on a non-x-monotone curve")
        pts = curve if direction == 1 else tuple(reversed(curve))
    if at < pts[0][0] or at > pts[-1][0]:
        return None
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        if ax <= at <= bx:
            return ay + (by - ay) * (at - ax) / (bx - ax)
    return None


# ---------------------------------------------------------------------------
# circle relation
# ---------------------------------------------------------------------------

def _circle_values(curve: CartesianCurve, center: Point, r2: Rat) -> list:
    """|p - center|^2 - r2 at every waypoint p of a polyline, and at each
    segment's point nearest the center when that point lies strictly
    inside the segment, each as an int: the value times a positive factor,
    so with its sign.  Along a segment the value is convex, so these
    samples hold every segment's minimum, and between two consecutive
    samples it is monotone.

    Relative to the center, each axis is scaled by the lcm of its
    denominators: x = X / sx and y = Y / sy, and r2 = r / d.  A waypoint's
    value is the true one times sx^2 sy^2 d:
    F = X^2 sy^2 d + Y^2 sx^2 d - r sx^2 sy^2.  On a segment from A with
    direction V the nearest point lies at G / H, where
    G = -(AX VX sy^2 + AY VY sx^2) and H = VX^2 sy^2 + VY^2 sx^2 > 0, and
    its value is the true one times sx^2 sy^2 d H: F(A) H - d G^2."""
    cx, cy = center
    sx = math.lcm(cx.denominator, *(p[0].denominator for p in curve))
    sy = math.lcm(cy.denominator, *(p[1].denominator for p in curve))
    ox = cx.numerator * (sx // cx.denominator)
    oy = cy.numerator * (sy // cy.denominator)
    pts = [(x.numerator * (sx // x.denominator) - ox, y.numerator * (sy // y.denominator) - oy)
           for x, y in curve]
    wx, wy, r, d = sy * sy, sx * sx, r2.numerator, r2.denominator
    k = r * wx * wy

    def f(x, y):
        return d * (x * x * wx + y * y * wy) - k

    fa = f(*pts[0])
    out = [fa]
    for (ax, ay), (bx, by) in zip(pts, pts[1:]):
        vx, vy = bx - ax, by - ay
        h = vx * vx * wx + vy * vy * wy
        if h == 0:
            raise ValueError("zero-length segment")
        g = -(ax * vx * wx + ay * vy * wy)
        if 0 < g < h:
            out.append(fa * h - d * g * g)
        fa = f(bx, by)
        out.append(fa)
    return out


def _changes_sign(values: list) -> bool:
    return any(v > 0 for v in values) and any(v < 0 for v in values)


def curve_circle_crossing(curve: CartesianCurve, center: Point, r2: Rat) -> bool:
    """Whether a polyline passes transversally through a circle, including
    passes exactly through waypoints (tangential touches do not count)."""
    return _changes_sign(_circle_values(curve, center, r2))
