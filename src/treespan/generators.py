"""Seedable drawing generators for every supported class, plus the frozen
bipartite fixture.

Every construction uses integer-only randomness (SplitMix64) and exact
rational coordinates; candidate drawings are re-validated and resampled
with fresh jitter until they pass both validation and their class
check, within the spec's rejection budget.  Each candidate draws from its
own ``rng.split()`` child, so a builder may stop a candidate early without
changing any later one.

The monotone, strongly c-monotone and cylindrical builders compute on
integers, numerators over denominators fixed per drawing, and build each
``Fraction`` once, at the end.  Before that they check their curves with
validation's own rules (each pair sharing a vertex, or each side curve)
and reject the candidate at the first fault: validation would reject it
too, and these are nearly all of their rejects.  A builder returns its
candidate with the pairs sharing a vertex that it left unchecked, and
``generate`` validates the candidate once, checking those pairs alone.

Points on circles come from the tangent half-angle parametrization
t -> ((1-t^2), 2t) / (1+t^2), which is exactly on the unit circle for every
rational t; vertices are therefore bit-exactly on their circles.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .drawing import (
    Drawing,
    Edge,
    _crossing_rows,
    _meet_only_at,
    classify_c_monotone,
    classify_cylindrical,
    classify_monotone,
    classify_two_page,
    complete_edges,
    edge,
)
from .errors import NotSimpleError, RejectionBudgetExceededError, TreespanError
from .geometry import (
    Point,
    PolarPoint,
    _cartesian_record,
    _polyline_contacts,
    curve_self_contacts,
)
from .rng import SplitMix64


@dataclass(frozen=True)
class GenSpec:
    cls: str          # one of CLASSES
    n: int
    seed: int
    a: Optional[int] = None   # cylindrical circle sizes, a + b = n
    b: Optional[int] = None

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("need n >= 3")
        if not 0 <= self.seed < 1 << 64:  # SplitMix64 would alias it mod 2**64
            raise ValueError("seed must be in [0, 2**64)")
        if self.cls == "cylindrical":
            if not (self.a and self.b and self.a >= 1 and self.b >= 1
                    and self.a + self.b == self.n):
                raise ValueError("cylindrical needs a, b >= 1 with a + b = n")
        elif self.a is not None or self.b is not None:
            raise ValueError("a and b are for cylindrical only")


class _Reject(TreespanError):
    pass


def _circle_point(r: int, s: int, t: int, d: int) -> Tuple[int, int, int]:
    """The point at t/d of the tangent half-angle parametrization on the
    circle of radius r/s, r/s * ((d^2 - t^2), 2td) / (d^2 + t^2), as two
    numerators over one denominator."""
    dd, tt = d * d, t * t
    return r * (dd - tt), 2 * r * t * d, s * (dd + tt)


def _point(x: int, y: int, den: int) -> Point:
    return Point(Fraction(x, den), Fraction(y, den))


def _scaled_unit(t: Fraction, scale: Fraction) -> Point:
    return _point(*_circle_point(scale.numerator, scale.denominator,
                                 t.numerator, t.denominator))


def _jitter(rng: SplitMix64, den: int, mag: int) -> Fraction:
    return Fraction(rng.randint(-mag, mag), den)


# ---------------------------------------------------------------------------
# straight-line classes
# ---------------------------------------------------------------------------

def _straight(points) -> Dict[Edge, tuple]:
    return {e: (points[e[0]], points[e[1]]) for e in complete_edges(len(points))}


def _gen_convex(n: int, rng: SplitMix64) -> Drawing:
    ts = []
    for k in range(n):
        base = Fraction(5 * (2 * k + 1 - n), 2 * n) + Fraction(1, 7 * n)
        ts.append(base + _jitter(rng, den=100000, mag=400))
    pts = tuple(_scaled_unit(t, Fraction(8)) for t in ts)
    if len({p.x for p in pts}) != n or len(set(pts)) != n:
        raise _Reject("coincident coordinates")
    return Drawing(n=n, backend="cartesian", vertex_points=pts,
                   curves=_straight(pts))


def _gen_random_points(n: int, rng: SplitMix64) -> Drawing:
    pts = tuple(Point(Fraction(rng.randint(-8000, 8000), 1000),
                      Fraction(rng.randint(-8000, 8000), 1000))
                for _ in range(n))
    if len(set(pts)) != n:
        raise _Reject("coincident points")
    return Drawing(n=n, backend="cartesian", vertex_points=pts,
                   curves=_straight(pts))


# every coordinate of a monotone candidate is an integer over _DEN: a vertex
# x is its rank plus a jitter in thousandths, and a midpoint halves a chord
_DEN = 2000


def _monotone_ints(n: int, rng: SplitMix64):
    """The vertex points and curves of a monotone candidate as integer
    numerators over ``_DEN``: random x-order on the axis, straight chords
    bent at a jittered midpoint into 3-waypoint x-monotone polylines, each
    curve listed from its smaller vertex.  Ranks lie 2000 apart and the
    jitter moves a vertex by at most 400, so every x is distinct and every
    midpoint, at most 120 from the middle of its chord, stays strictly
    inside its column."""
    ranks = list(range(n))
    rng.shuffle(ranks)
    pts = []
    for v in range(n):
        x = _DEN * ranks[v] + 2 * rng.randint(-200, 200)
        pts.append(Point(x, 2 * rng.randint(-1500, 1500)))
    curves = {}
    for u, v in complete_edges(n):
        a, b = pts[u], pts[v]
        x = (a.x + b.x) // 2 + 2 * rng.randint(-60, 60)
        curves[(u, v)] = (a, Point(x, (a.y + b.y) // 2 + 2 * rng.randint(-60, 60)), b)
    return pts, curves


def _reject_adjacent_contact(pts, curves, skip: Optional[Edge] = None) -> None:
    """Raise _Reject at the first two curves, other than ``skip``, that share
    a vertex and break validation's rule for such a pair
    (``drawing._meet_only_at``).  Validation would reject the candidate at
    that pair, or at an earlier fault, so no verdict changes."""
    recs = {e: _cartesian_record(c) for e, c in curves.items() if e != skip}
    for v, p in enumerate(pts):
        star = [rec for e, rec in recs.items() if v in e]
        for i, rec in enumerate(star):
            for other in star[i + 1:]:
                if not _meet_only_at(_polyline_contacts(rec, other, False), p):
                    raise _Reject("adjacent crossing or degenerate contact")


def _gen_monotone(n: int, rng: SplitMix64) -> Tuple[Drawing, frozenset]:
    """A monotone candidate, each coordinate one ``Fraction`` built after
    the adjacent pairs pass, and the adjacent pairs left unchecked: none.
    The drawing is its integers over ``_DEN`` on both axes, so its image
    differs from them by a positive factor per axis."""
    pts, curves = _monotone_ints(n, rng)
    _reject_adjacent_contact(pts, curves)
    points = tuple(Point(Fraction(x, _DEN), Fraction(y, _DEN)) for x, y in pts)
    return Drawing(n=n, backend="cartesian", vertex_points=points, curves={
        (u, v): (points[u], Point(Fraction(x, _DEN), Fraction(y, _DEN)), points[v])
        for (u, v), (_, (x, y), _) in curves.items()}), frozenset()


def _gen_two_page(n: int, rng: SplitMix64) -> Drawing:
    """Vertices on a line; every edge is a tent into a random halfplane with
    height proportional to its span, so nested tents never meet and
    interleaved same-page tents cross exactly once."""
    pts = tuple(Point(Fraction(k), Fraction(0)) for k in range(n))
    curves = {}
    for e in complete_edges(n):
        span = Fraction(e[1] - e[0])
        sign = 1 if rng.randint(0, 1) else -1
        # slope grows strictly with span so tents sharing a foot diverge
        kappa = Fraction(1000 + 20 * (e[1] - e[0]) + rng.randint(0, 15), 2000)
        apex = Point((Fraction(e[0]) + Fraction(e[1])) / 2, sign * kappa * span)
        curves[e] = (pts[e[0]], apex, pts[e[1]])
    return Drawing(n=n, backend="cartesian", vertex_points=pts, curves=curves)


# ---------------------------------------------------------------------------
# cylindrical
# ---------------------------------------------------------------------------

def _spread_ts(count: int, rng: SplitMix64, den: int, phase: int) -> List[int]:
    """Increasing numerators over den of count jittered angles spread over
    (-2.2, 2.2) and shifted by phase/den; den is a multiple of
    1000 (count + 1)."""
    ts = [(44 * (k + 1) * (den // (count + 1)) - 22 * den) // 10 + phase
          + rng.randint(-80, 80) * (den // 1000) for k in range(count)]
    if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
        raise _Reject("angular order broke")
    return ts


def _t_walk(t0, t1, step) -> list:
    """Strictly increasing t values from t0 to t1 inclusive, spaced <= step."""
    if t1 < t0:
        return list(reversed(_t_walk(t1, t0, step)))
    ticks = [t0]
    k = 1
    while ticks[-1] + step < t1:
        ticks.append(t0 + step * k)
        k += 1
    ticks.append(t1)
    return ticks


def _reject_self_contact(way: list) -> None:
    """Raise _Reject if the polyline of (x, y, den) waypoints repeats a
    waypoint or touches itself, the rule ``drawing._check_curve`` applies
    to a cartesian curve, tested on its integer image: every waypoint times
    one common multiple of the denominators.  Validation would reject the candidate
    at this curve, or at an earlier fault, so no verdict changes."""
    m = math.lcm(*(den for _, _, den in way))
    img = [Point(x * (m // den), y * (m // den)) for x, y, den in way]
    if any(p == q for p, q in zip(img, img[1:])) or curve_self_contacts(img):
        raise _Reject("side curve repeats a waypoint or touches itself")


def _gen_cylindrical(n: int, a: int, b: int, rng: SplitMix64) -> Drawing:
    """Vertices 0..a-1 on the unit circle and a..n-1 on the circle of
    radius 2; outer edges are arcs outside both circles, inner edges
    chords and side edges spirals between the circles.  Every angle
    parameter t is a numerator over one denominator, each radius one
    numerator over a denominator fixed by its curve, and each point's two
    coordinates numerators over one denominator.  The side curves are built
    first, each checked as it is drawn; each ``Fraction`` is built once, at
    the end."""
    den = 1000 * math.lcm(a + 1, b + 1)
    t_of = _spread_ts(a, rng, den, 0) + _spread_ts(b, rng, den, den // 50)
    vertex = [_circle_point(1 if v < a else 2, 1, t, den) for v, t in enumerate(t_of)]
    # inner vertices come first, so an edge (u, w) is inner, side or outer
    # as w < a, u < a <= w or a <= u
    outer_edges = sorted((e for e in complete_edges(n) if e[0] >= a),
                         key=lambda e: (abs(t_of[e[1]] - t_of[e[0]]), e))
    radii = [4000 + 700 * rank + rng.randint(-40, 40)   # over 1000
             for rank in range(len(outer_edges))]

    sides = {}
    fine = den // 20
    for u, w in complete_edges(n):
        if u >= a or w < a:
            continue
        tu, tw = t_of[u], t_of[w]
        jig = rng.randint(-300, 300)   # over 10000
        width = tw - tu
        ticks = _t_walk(tu, tw, den // 5)
        if len(ticks) > 2:
            step = fine if width > 0 else -fine
            ticks = [tu, tu + step] + ticks[1:-1] + [tw - step, tw]
        way = [vertex[u]]
        for t in ticks[1:-1]:
            # radius 1 + frac + 4 jig frac (1 - frac) at frac = (t - tu) / width
            f = t - tu
            way.append(_circle_point(10000 * width * (width + f) + 4 * jig * f * (tw - t),
                                     10000 * width * width, t, den))
        way.append(vertex[w])
        _reject_self_contact(way)
        sides[(u, w)] = way

    curves: Dict[Edge, list] = {}
    sigma = den // 50
    for (u, w), r in zip(outer_edges, radii):   # outer ts ascend with id
        curves[(u, w)] = [vertex[u]] + [
            _circle_point(r, 1000, t, den)
            for t in _t_walk(t_of[u] + sigma, t_of[w] - sigma, den // 2)] + [vertex[w]]
    for e in complete_edges(n):
        if e[1] < a:
            curves[e] = [vertex[e[0]], vertex[e[1]]]
    curves.update(sides)

    pts = tuple(_point(*p) for p in vertex)
    return Drawing(n=n, backend="cartesian", vertex_points=pts, curves={
        (u, w): (pts[u],) + tuple(_point(*p) for p in way[1:-1]) + (pts[w],)
        for (u, w), way in curves.items()}, circles=(Fraction(1), Fraction(4)))


# ---------------------------------------------------------------------------
# strongly c-monotone
# ---------------------------------------------------------------------------

def _gen_strongly_cmonotone(n: int, rng: SplitMix64) -> Tuple[Drawing, frozenset]:
    """Wrap a perturbed monotone drawing onto an annulus; return it and
    the adjacent pairs left unchecked, the seam's when it is rerouted.

    theta is the scaled x-coordinate; the radius is y minus the
    piecewise-linear baseline through the vertex points, lifted above zero.
    Each curve gains a waypoint where it crosses a vertex column, so that
    every segment lies in one strip, where the shear is affine: the
    crossing pattern is preserved exactly and all vertices land on one
    circle.  Half the seeds reroute the cycle-closing edge through the
    empty wedge across the seam (all cycle edges become spine edges); the
    rest keep its unrolled shape, leaving a non-spine cycle edge for the
    cut branch.

    The wrap is a homeomorphism of the strip between the outer columns, so
    two wrapped curves meet exactly where their flat curves do, and a pair
    sharing a vertex breaks validation's rule on the annulus iff it breaks
    it flat: the adjacent pairs are checked on the flat integers, the
    rerouted seam aside.  Every curve but the seam lies within the angles
    [1/(4n), 1 - 1/(4n)], so no whole-turn shift of one meets another."""
    pts, flat = _monotone_ints(n, rng)
    reroute = rng.randint(0, 1) == 0
    order = sorted(range(n), key=lambda v: pts[v].x)
    seam = edge(order[0], order[-1])
    if reroute:
        jig = _jitter(rng, 1000, 300)
    _reject_adjacent_contact(pts, flat, seam if reroute else None)

    columns = [pts[v].x for v in order]
    col_ys = [pts[v].y for v in order]
    xmin, width = columns[0], columns[-1] - columns[0]
    lift_num = 2 * max(abs(w.y) for curve in flat.values() for w in curve) + 2 * _DEN
    lift = Fraction(lift_num, _DEN)
    thetas = {}  # x -> theta, over 4 n width: margin 1/(4n) at each end

    def theta(x: int) -> Fraction:
        t = thetas.get(x)
        if t is None:
            t = thetas[x] = Fraction(width + 2 * (x - xmin) * (2 * n - 1), 4 * n * width)
        return t

    points = tuple(PolarPoint(theta(p.x), lift) for p in pts)
    curves = {}
    for e, (a, mid, b) in flat.items():
        u, v = e if a.x < b.x else (e[1], e[0])
        a, b = pts[u], pts[v]
        # the midpoint's radius from the baseline of its strip [c0, c1]
        i = bisect.bisect_left(columns, mid.x)
        c0, y0, strip = columns[i - 1], col_ys[i - 1], columns[i] - columns[i - 1]
        r_mid = Fraction((mid.y + lift_num - y0) * strip - (col_ys[i] - y0) * (mid.x - c0),
                         _DEN * strip)
        way = [points[u]]
        for p, q, end in ((a, mid, PolarPoint(theta(mid.x), r_mid)), (mid, b, points[v])):
            # a waypoint on each column the segment p -> q crosses, where the
            # baseline is that column's vertex y
            seg = q.x - p.x
            for k in range(bisect.bisect_right(columns, p.x), bisect.bisect_left(columns, q.x)):
                c = columns[k]
                way.append(PolarPoint(theta(c), Fraction(
                    (p.y + lift_num - col_ys[k]) * seg + (q.y - p.y) * (c - p.x), _DEN * seg)))
            way.append(end)
        curves[e] = tuple(way)

    unchecked = frozenset()
    if reroute:
        t_hi = points[order[-1]].theta
        t_lo = points[order[0]].theta + 1
        curves[seam] = (PolarPoint(t_hi, lift), PolarPoint((t_hi + t_lo) / 2, lift + jig),
                        PolarPoint(t_lo, lift))
        unchecked = frozenset((min(seam, f), max(seam, f)) for f in complete_edges(n)
                              if f != seam and (seam[0] in f or seam[1] in f))

    return Drawing(n=n, backend="polar", vertex_points=points, curves=curves), unchecked


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_CLASSES = {  # class -> (builder, class check on the validated drawing); a
    # builder returns its candidate and the pairs of curves sharing a vertex
    # that it left unchecked, or None when it checks none of them
    "convex": (lambda spec, rng: (_gen_convex(spec.n, rng), None),
               lambda d: sum(row.bit_count() for row in d.cross_mask)
               == 2 * math.comb(d.n, 4)),
    "random_points": (lambda spec, rng: (_gen_random_points(spec.n, rng), None),
                      lambda d: True),
    "monotone_perturbed": (lambda spec, rng: _gen_monotone(spec.n, rng),
                           lambda d: classify_monotone(d) is not None),
    "two_page": (lambda spec, rng: (_gen_two_page(spec.n, rng), None), classify_two_page),
    "cylindrical": (lambda spec, rng: (_gen_cylindrical(spec.n, spec.a, spec.b, rng), None),
                    lambda d: classify_cylindrical(d, *d.circles) is not None),
    "strongly_cmonotone": (lambda spec, rng: _gen_strongly_cmonotone(spec.n, rng),
                           lambda d: classify_c_monotone(d)[1]),
}
CLASSES = tuple(_CLASSES)  # the class names ``GenSpec.cls`` takes

MAX_REJECTS = 1000  # candidates ``generate`` tries before it gives up


def generate(spec: GenSpec) -> Drawing:
    """Deterministic in (class, n, seed); resamples with fresh jitter until
    the drawing validates and matches its class, within MAX_REJECTS.

    Each candidate's crossing matrix is built once, here, with the pairs of
    curves sharing a vertex that its builder left unchecked: validation
    checks only those of them."""
    if spec.cls not in _CLASSES:
        raise ValueError(f"unknown drawing class {spec.cls!r}")
    build, check = _CLASSES[spec.cls]
    rng = SplitMix64(spec.seed)
    for _ in range(MAX_REJECTS):
        try:
            d, unchecked = build(spec, rng.split())
            # NotSimpleError; then only the class's own check
            vars(d)["cross_mask"] = _crossing_rows(d, unchecked)
            if check(d):
                return d
        except (_Reject, NotSimpleError):
            pass
    raise RejectionBudgetExceededError(spec)


# ---------------------------------------------------------------------------
# frozen bipartite fixture
# ---------------------------------------------------------------------------

def fixture_bipartite_isolated() -> Tuple[Drawing, tuple]:
    """A simple drawing of K_{2,3} with a plane spanning tree that crosses
    every non-tree edge, making the tree an isolated vertex of the
    compatibility graph.  Vertices 0-1 form one part, 2-4 the other; the
    tree consists of the three edges of the hub 0 plus the edge 1-2.

    The waypoints were found by guided search over small cases and are
    frozen here; the properties are re-verified by the test suite."""
    F = Fraction
    pts = (
        Point(F(0), F(0)),      # 0: hub of the two-vertex part
        Point(F(40), F(0)),     # 1
        Point(F(20), F(0)),     # 2
        Point(F(-10), F(15)),   # 3
        Point(F(-10), F(-15)),  # 4
    )

    def pl(*coords):
        return tuple(Point(F(x), F(y)) for x, y in coords)

    curves = {
        (0, 2): (pts[0], pts[2]),
        (0, 3): (pts[0], pts[3]),
        (0, 4): (pts[0], pts[4]),
        (1, 2): (pts[1], pts[2]),
        (1, 3): pl((40, 0), (30, -6), (11, 4), (-10, 15)),
        (1, 4): pl((40, 0), (33, -8), (11, -8), (7, -1), (4, 1), (0, 2),
                   (-5, F(9, 2)), (-9, -12), (-10, -15)),
    }
    d = Drawing(n=5, backend="cartesian", vertex_points=pts, curves=curves,
                graph=("bipartite", 2, 3))
    tree = ((0, 2), (0, 3), (0, 4), (1, 2))
    return d, tree
