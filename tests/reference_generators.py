"""The ``Fraction`` builders of the monotone, strongly c-monotone and
cylindrical candidates, as ``generators`` ran them before it moved to
integer numerators and an early stop at the first adjacent contact or, for
cylindrical candidates, at the first bad side curve.

They draw the same SplitMix64 values in the same order and compute every
coordinate on ``Fraction``s, waypoint by waypoint, with no check beyond the
``_Reject``s they always had.  The tests use them as the oracle of the
production builders and to build the raw candidates whose verdicts the
validation oracle compares, rejected ones included.
"""

import bisect
from fractions import Fraction
from typing import Dict, List

from treespan.drawing import Drawing, Edge, complete_edges, edge
from treespan.generators import _jitter, _Reject, _t_walk
from treespan.geometry import Point, PolarPoint
from treespan.rng import SplitMix64


def gen_monotone(n, rng):
    """Random x-order on the axis, straight chords bent at a jittered
    midpoint into 3-waypoint x-monotone polylines."""
    ranks = list(range(n))
    rng.shuffle(ranks)
    pts = tuple(Point(Fraction(ranks[v]) + _jitter(rng, 1000, 200),
                      Fraction(rng.randint(-1500, 1500), 1000))
                for v in range(n))
    if len({p.x for p in pts}) != n:
        raise _Reject("equal x")
    curves = {}
    for e in complete_edges(n):
        a, b = pts[e[0]], pts[e[1]]
        mid = Point((a.x + b.x) / 2 + _jitter(rng, 1000, 60),
                    (a.y + b.y) / 2 + _jitter(rng, 1000, 60))
        if not (min(a.x, b.x) < mid.x < max(a.x, b.x)):
            raise _Reject("midpoint escaped the column")
        curves[e] = (a, mid, b)
    return Drawing(n=n, backend="cartesian", vertex_points=pts, curves=curves)


def subdivide_at_columns(curve, columns):
    """Insert a waypoint wherever the curve's interior crosses one of the
    given x-columns (sorted ascending).  The curve's waypoints run strictly
    left to right."""
    out = [curve[0]]
    for a, b in zip(curve, curve[1:]):
        lo, hi = bisect.bisect_right(columns, a.x), bisect.bisect_left(columns, b.x)
        for x in columns[lo:hi]:
            y = a.y + (b.y - a.y) * (x - a.x) / (b.x - a.x)
            out.append(Point(x, y))
        out.append(b)
    return tuple(out)


def gen_strongly_cmonotone(n, rng):
    """Wrap a perturbed monotone drawing onto an annulus: theta is the
    scaled x-coordinate, the radius is y minus the piecewise-linear
    baseline through the vertex points, lifted above zero.  Half the seeds
    reroute the cycle-closing edge through the empty wedge across the
    seam."""
    flat = gen_monotone(n, rng)
    reroute = rng.randint(0, 1) == 0

    order = sorted(range(n), key=lambda v: flat.vertex_points[v].x)
    columns = [flat.vertex_points[v].x for v in order]
    base_pts = [flat.vertex_points[v] for v in order]
    slopes = [(b.y - a.y) / (b.x - a.x) for a, b in zip(base_pts, base_pts[1:])]

    def baseline(x):
        # the first strip [a.x, b.x] holding x, as a scan in column order finds it
        i = max(bisect.bisect_left(columns, x), 1)
        if x < columns[0] or i == len(columns):
            raise ValueError("x outside the drawing")
        a = base_pts[i - 1]
        return a.y + slopes[i - 1] * (x - a.x)

    ys = [w.y for curve in flat.curves.values() for w in curve]
    lift = 2 * max(abs(y) for y in ys) + 2
    xmin, xmax = columns[0], columns[-1]
    margin = Fraction(1, 4 * n)
    stretch = (1 - 2 * margin) / (xmax - xmin)

    def theta(x):
        return margin + (x - xmin) * stretch

    # x -> (theta, lift - baseline), once per distinct x: a column, where
    # the baseline is that vertex's y, or a bent midpoint
    wrap = {p.x: (theta(p.x), lift - p.y) for p in base_pts}
    points = tuple(PolarPoint(wrap[p.x][0], lift) for p in flat.vertex_points)
    curves = {}
    for e, curve in flat.curves.items():
        if curve[0].x > curve[-1].x:
            curve = tuple(reversed(curve))
        way = []
        for w in subdivide_at_columns(curve, columns):
            at = wrap.get(w.x)
            if at is None:
                at = wrap[w.x] = (theta(w.x), lift - baseline(w.x))
            way.append(PolarPoint(at[0], w.y + at[1]))
        curves[e] = tuple(way)

    if reroute:
        seam = edge(order[0], order[-1])
        t_hi = points[order[-1]].theta
        t_lo = points[order[0]].theta + 1
        mid = PolarPoint((t_hi + t_lo) / 2, lift + _jitter(rng, 1000, 300))
        curves[seam] = (PolarPoint(t_hi, lift), mid, PolarPoint(t_lo, lift))

    return Drawing(n=n, backend="polar", vertex_points=points, curves=curves)


def _unit_point(t: Fraction) -> Point:
    den = 1 + t * t
    return Point((1 - t * t) / den, 2 * t / den)


def _scaled_unit(t: Fraction, scale: Fraction) -> Point:
    p = _unit_point(t)
    return Point(p.x * scale, p.y * scale)


def _spread_ts(count: int, rng: SplitMix64, phase: Fraction) -> List[Fraction]:
    ts = []
    for k in range(count):
        base = Fraction(-22, 10) + Fraction(44, 10) * Fraction(k + 1, count + 1)
        ts.append(base + phase + _jitter(rng, 1000, 80))
    if any(ts[i] >= ts[i + 1] for i in range(len(ts) - 1)):
        raise _Reject("angular order broke")
    return ts


def gen_cylindrical(n: int, a: int, b: int, rng: SplitMix64) -> Drawing:
    inner_ts = _spread_ts(a, rng, Fraction(0))
    outer_ts = _spread_ts(b, rng, Fraction(1, 50))
    pts: List[Point] = []
    for t in inner_ts:
        pts.append(_scaled_unit(t, Fraction(1)))
    for t in outer_ts:
        pts.append(_scaled_unit(t, Fraction(2)))
    t_of = inner_ts + outer_ts
    if len(set(pts)) != n:
        raise _Reject("coincident points")

    inner_ids = set(range(a))
    curves: Dict[Edge, tuple] = {}
    sigma = Fraction(1, 50)

    outer_edges = [e for e in complete_edges(n)
                   if e[0] not in inner_ids and e[1] not in inner_ids]
    outer_edges.sort(key=lambda e: (abs(t_of[e[1]] - t_of[e[0]]), e))
    for rank, e in enumerate(outer_edges):
        (u, w), tu, tw = e, t_of[e[0]], t_of[e[1]]  # outer ts ascend with id
        radius = Fraction(4) + Fraction(7, 10) * rank + _jitter(rng, 1000, 40)
        way = [pts[u]]
        for t in _t_walk(tu + sigma, tw - sigma, Fraction(1, 2)):
            way.append(_scaled_unit(t, radius))
        way.append(pts[w])
        curves[e] = tuple(way)

    for e in complete_edges(n):
        if e[0] in inner_ids and e[1] in inner_ids:
            curves[e] = (pts[e[0]], pts[e[1]])

    side_edges = [e for e in complete_edges(n)
                  if (e[0] in inner_ids) != (e[1] in inner_ids)]
    for e in side_edges:
        u, w = (e[0], e[1]) if e[0] in inner_ids else (e[1], e[0])
        tu, tw = t_of[u], t_of[w]
        jig = _jitter(rng, 10000, 300)

        def radius_at(t: Fraction) -> Fraction:
            frac = (t - tu) / (tw - tu)
            return 1 + frac + jig * frac * (1 - frac) * 4

        way = [pts[u]]
        fine = Fraction(1, 20)
        ticks = _t_walk(tu, tw, Fraction(1, 5))
        if len(ticks) > 2:
            ticks = ([tu, tu + fine * (1 if tw > tu else -1)] + ticks[1:-1]
                     + [tw - fine * (1 if tw > tu else -1), tw])
        for t in ticks[1:-1]:
            way.append(_scaled_unit(t, radius_at(t)))
        way.append(pts[w])
        curves[e] = tuple(way)

    return Drawing(n=n, backend="cartesian", vertex_points=tuple(pts),
                   curves=curves, circles=(Fraction(1), Fraction(4)))


# class -> reference builder taking (spec, rng), as generators._CLASSES does
REFERENCE = {
    "monotone_perturbed": lambda spec, rng: gen_monotone(spec.n, rng),
    "strongly_cmonotone": lambda spec, rng: gen_strongly_cmonotone(spec.n, rng),
    "cylindrical": lambda spec, rng: gen_cylindrical(spec.n, spec.a, spec.b, rng),
}
