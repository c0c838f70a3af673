"""The ``Fraction`` builders of the monotone and strongly c-monotone
candidates, as ``generators`` ran them before it moved to integer
numerators and an early stop at the first adjacent contact.

They draw the same SplitMix64 values in the same order and compute every
coordinate on ``Fraction``s, waypoint by waypoint, with no check beyond the
two ``_Reject``s they always had.  The tests use them as the oracle of the
production builders and to build the raw candidates whose verdicts the
validation oracle compares, rejected ones included.
"""

import bisect
from fractions import Fraction

from treespan.drawing import Drawing, complete_edges, edge
from treespan.generators import _jitter, _Reject
from treespan.geometry import Point, PolarPoint


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


# class -> reference builder taking (spec, rng), as generators._CLASSES does
REFERENCE = {
    "monotone_perturbed": lambda spec, rng: gen_monotone(spec.n, rng),
    "strongly_cmonotone": lambda spec, rng: gen_strongly_cmonotone(spec.n, rng),
}
