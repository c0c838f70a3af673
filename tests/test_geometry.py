"""Geometry predicate tests.

Expected values for derived cases are computed by independent oracles:
a parametric linear solver for segment crossings (no orientation
predicates) and a float sampler for sign agreement.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treespan.errors import NonMonotoneCurveError
from treespan.geometry import (
    Degenerate,
    Point,
    PolarPoint,
    Proper,
    curve_circle_crossing,
    curve_eval,
    curve_self_contacts,
    polar_crossings,
    polyline_crossings,
    segment_proper_crossing,
)

from reference_geometry import segment_circle_relation


def P(x, y):
    return Point(F(x), F(y))


def PP(t, r):
    return PolarPoint(F(t), F(r))


# ---------------------------------------------------------------------------
# oracle: parametric segment intersection, independent of orientation tests
# ---------------------------------------------------------------------------

def oracle_segment_crossing(s1, s2):
    """Solve a + t(b-a) = c + u(d-c) exactly; classify by (t, u) ranges.
    Returns ('proper', point), ('contact',) or None."""
    (a, b), (c, d) = s1, s2
    rx, ry = b.x - a.x, b.y - a.y
    sx, sy = d.x - c.x, d.y - c.y
    den = rx * sy - ry * sx
    if den == 0:
        # parallel: contact iff collinear and parameter ranges meet
        if (c.x - a.x) * ry - (c.y - a.y) * rx != 0:
            return None
        def param(p):
            return ((p.x - a.x) * rx + (p.y - a.y) * ry) / (rx * rx + ry * ry)
        lo, hi = sorted((param(c), param(d)))
        if hi < 0 or lo > 1:
            return None
        return ("contact",)
    t = ((c.x - a.x) * sy - (c.y - a.y) * sx) / den
    u = ((c.x - a.x) * ry - (c.y - a.y) * rx) / den
    if 0 < t < 1 and 0 < u < 1:
        return ("proper", Point(a.x + t * rx, a.y + t * ry))
    if 0 <= t <= 1 and 0 <= u <= 1:
        return ("contact",)
    return None


coord = st.integers(min_value=-8, max_value=8)


def seg_strategy():
    return st.tuples(coord, coord, coord, coord).filter(
        lambda q: (q[0], q[1]) != (q[2], q[3])
    ).map(lambda q: (P(q[0], q[1]), P(q[2], q[3])))


# ---------------------------------------------------------------------------
# segment_proper_crossing
# ---------------------------------------------------------------------------

def test_diagonal_crossing():
    r = segment_proper_crossing((P(0, 0), P(1, 1)), (P(0, 1), P(1, 0)))
    assert r == Proper(P(F(1, 2), F(1, 2)))


def test_int_input_gives_exact_locations():
    # the predicates are sign tests on ints as well; a location is a Fraction
    r = segment_proper_crossing((Point(0, 0), Point(1, 1)), (Point(0, 1), Point(1, 0)))
    assert r == Proper(Point(F(1, 2), F(1, 2)))
    assert all(type(c) is F for c in r.at)


def test_parallel_disjoint():
    assert segment_proper_crossing((P(0, 0), P(1, 0)), (P(0, 1), P(1, 1))) is None


def test_shared_endpoint():
    r = segment_proper_crossing((P(0, 0), P(1, 0)), (P(1, 0), P(2, 0)))
    assert isinstance(r, Degenerate) and r.at == P(1, 0)
    r = segment_proper_crossing((P(0, 0), P(1, 0)), (P(1, 1), P(0, 0)))
    assert r == Degenerate("shared endpoint", at=P(0, 0))


def test_endpoint_on_interior():
    r = segment_proper_crossing((P(0, 0), P(2, 0)), (P(1, 0), P(1, 1)))
    assert isinstance(r, Degenerate) and r.reason == "endpoint contact"


def test_collinear_overlap():
    r = segment_proper_crossing((P(0, 0), P(2, 0)), (P(1, 0), P(3, 0)))
    assert r == Degenerate("collinear overlap")
    # from a shared endpoint
    r = segment_proper_crossing((P(0, 0), P(2, 0)), (P(0, 0), P(1, 0)))
    assert r == Degenerate("collinear overlap")


def test_collinear_disjoint():
    assert segment_proper_crossing((P(0, 0), P(1, 0)), (P(2, 0), P(3, 0))) is None


def test_zero_length_segment_rejected():
    p = P(1, 1)
    for s1, s2 in (((p, p), (P(0, 0), P(2, 2))), ((P(0, 0), P(2, 2)), (p, p))):
        with pytest.raises(ValueError, match="zero-length segment"):
            segment_proper_crossing(s1, s2)


@given(seg_strategy(), seg_strategy())
@settings(max_examples=300)
def test_matches_parametric_oracle(s1, s2):
    got = segment_proper_crossing(s1, s2)
    want = oracle_segment_crossing(s1, s2)
    if want is None:
        assert got is None
    elif want[0] == "proper":
        assert isinstance(got, Proper) and got.at == want[1]
    else:
        assert isinstance(got, Degenerate)


@given(seg_strategy(), seg_strategy())
@settings(max_examples=200)
def test_symmetry(s1, s2):
    a = segment_proper_crossing(s1, s2)
    b = segment_proper_crossing(s2, s1)
    if isinstance(a, Proper):
        assert isinstance(b, Proper) and a.at == b.at
    else:
        assert type(a) is type(b)


# ---------------------------------------------------------------------------
# polyline_crossings
# ---------------------------------------------------------------------------

def test_square_diagonals_one_proper():
    out = polyline_crossings((P(0, 0), P(1, 1)), (P(1, 0), P(0, 1)))
    assert len(out) == 1 and isinstance(out[0], Proper)


def test_polylines_shared_endpoint_once():
    c1 = (P(0, 0), P(1, 1), P(2, 0))
    c2 = (P(2, 0), P(3, 1))
    out = polyline_crossings(c1, c2)
    assert out == [Degenerate("shared endpoint", at=P(2, 0))]


def test_derived_midline_crossing():
    # oracle: (1,1)-(2,-1) meets y=0 at x = 1 + 1/2
    want = oracle_segment_crossing((P(0, 0), P(3, 0)), (P(1, 1), P(2, -1)))
    assert want == ("proper", P(F(3, 2), F(0)))
    out = polyline_crossings((P(0, 0), P(3, 0)), (P(1, 1), P(2, -1)))
    assert out == [Proper(P(F(3, 2), F(0)))]


def test_waypoint_hit_is_degenerate():
    c1 = (P(0, 0), P(1, 1), P(2, 0))
    c2 = (P(1, 0), P(1, 2))
    out = polyline_crossings(c1, c2)
    assert out == [Degenerate("endpoint contact", at=P(1, 1))]


def test_self_contacts():
    good = (P(0, 0), P(1, 1), P(2, 0))
    assert curve_self_contacts(good) == []
    bad = (P(0, 0), P(2, 0), P(1, 1), P(1, -1))
    assert curve_self_contacts(bad) != []


# ---------------------------------------------------------------------------
# polar crossings
# ---------------------------------------------------------------------------

def test_polar_no_angular_overlap():
    c1 = (PP(0, 2), PP(F(1, 3), 2))
    c2 = (PP(F(1, 2), 2), PP(F(5, 6), 2))
    assert polar_crossings(c1, c2) == []


def test_polar_symmetric_profiles():
    c1 = (PP(0, 1), PP(F(1, 2), 3))
    c2 = (PP(0, 3), PP(F(1, 2), 1))
    out = polar_crossings(c1, c2)
    assert out == [Proper(F(1, 4))]
    assert curve_eval(c1, F(1, 4)) == curve_eval(c2, F(1, 4)) == 2


def test_polar_derived_piecewise():
    # oracle: solve 3/2 = 2 - 4(t - 1/4) -> t = 3/8, inside both spans
    c1 = (PP(0, F(3, 2)), PP(F(1, 2), F(3, 2)))
    c2 = (PP(F(1, 4), 2), PP(F(1, 2), 1), PP(F(3, 4), 2))
    out = polar_crossings(c1, c2)
    assert out == [Proper(F(3, 8))]
    assert curve_eval(c1, F(3, 8)) == curve_eval(c2, F(3, 8)) == F(3, 2)


def test_polar_endpoint_touch_degenerate():
    # c2 starts exactly on c1's interior: a Degenerate contact, no Proper
    c1 = (PP(0, 2), PP(F(1, 2), 2))
    c2 = (PP(F(1, 4), 2), PP(F(1, 2), 1), PP(F(3, 4), 2))
    out = polar_crossings(c1, c2)
    assert out == [Degenerate("endpoint contact", at=(F(1, 4), F(2)))]


def test_polar_wraparound():
    # c1 crosses the 0/1 seam; c2 sits just past the seam
    c1 = (PP(F(3, 4), 1), PP(F(5, 4), 3))
    c2 = (PP(F(1, 8), 3), PP(F(3, 8), 1))
    out = polar_crossings(c1, c2)
    assert len(out) == 1 and isinstance(out[0], Proper)
    t = out[0].at
    assert curve_eval(c1, t) == curve_eval(c2, t)


def test_polar_tangential_contact_degenerate():
    c1 = (PP(0, 2), PP(F(1, 2), 2))
    c2 = (PP(0, 3), PP(F(1, 4), 2), PP(F(1, 2), 3))
    out = polar_crossings(c1, c2)
    assert all(isinstance(e, Degenerate) for e in out) and out


# ---------------------------------------------------------------------------
# curve_eval
# ---------------------------------------------------------------------------

def test_eval_polar_midpoint():
    c = (PP(0, 2), PP(F(1, 3), 1))
    assert curve_eval(c, F(1, 6)) == F(3, 2)


def test_eval_cartesian():
    c = (P(0, 0), P(2, -1))
    assert curve_eval(c, F(1)) == F(-1, 2)


def test_eval_outside_span_absent():
    c = (PP(0, 2), PP(F(1, 3), 1))
    assert curve_eval(c, F(1, 2)) is None


def test_eval_non_monotone_raises():
    c = (P(0, 0), P(2, 1), P(1, 2))
    with pytest.raises(NonMonotoneCurveError):
        curve_eval(c, F(1, 2))


def test_eval_polar_mod_one():
    c = (PP(F(3, 4), 1), PP(F(5, 4), 3))
    assert curve_eval(c, F(1, 8)) == F(5, 2)


# ---------------------------------------------------------------------------
# circle relation
# ---------------------------------------------------------------------------

def test_circle_endpoint_split():
    assert segment_circle_relation((P(0, 0), P(3, 0)), P(0, 0), F(1)) == "crosses"


def test_circle_disjoint_derived():
    # oracle: min squared distance of segment (2,0)-(0,2) to origin is 2
    a, b = P(2, 0), P(0, 2)
    dx, dy = b.x - a.x, b.y - a.y
    t = (-(a.x) * dx - a.y * dy) / (dx * dx + dy * dy)
    t = min(max(t, F(0)), F(1))
    closest = Point(a.x + t * dx, a.y + t * dy)
    assert closest.x ** 2 + closest.y ** 2 == 2
    assert segment_circle_relation((a, b), P(0, 0), F(1)) == "disjoint"


def test_circle_tangent():
    assert segment_circle_relation((P(1, 0), P(1, 2)), P(0, 0), F(1)) == "touches"


def test_circle_chord_touches():
    assert segment_circle_relation((P(1, 0), P(0, 1)), P(0, 0), F(1)) == "touches"


def test_circle_inside_disjoint():
    assert segment_circle_relation((P(0, 0), P(F(1, 2), 0)), P(0, 0), F(1)) == "disjoint"


def test_circle_symmetric_dip():
    assert segment_circle_relation((P(-2, F(1, 2)), P(2, F(1, 2))), P(0, 0), F(1)) == "crosses"


def test_curve_circle_crossing_through_waypoint():
    # tangential touch exactly at a waypoint: not a crossing
    graze = (P(2, 1), P(0, 1), P(-2, 1))
    assert curve_circle_crossing(graze, P(0, 0), F(1)) is False
    # pass from outside to inside exactly through a waypoint on the circle
    through = (P(2, 1), P(0, 1), P(0, 0))
    assert curve_circle_crossing(through, P(0, 0), F(1)) is True
    dip = (P(2, 0), P(0, F(1, 2)), P(-2, 0))
    assert curve_circle_crossing(dip, P(0, 0), F(1)) is True


def test_curve_circle_chord_not_crossing():
    # chord of the circle: touches at both endpoints, no transversal pass
    curve = (P(1, 0), P(0, 1))
    assert curve_circle_crossing(curve, P(0, 0), F(1)) is False


def test_circle_predicates_reject_zero_length_segment():
    p = P(1, 1)
    with pytest.raises(ValueError, match="zero-length segment"):
        segment_circle_relation((p, p), P(0, 0), F(1))
    with pytest.raises(ValueError, match="zero-length segment"):
        curve_circle_crossing((P(2, 0), p, p), P(0, 0), F(1))


# oracle: the two circle predicates as they were before they shared one
# sample walk, a case analysis over the endpoint values and the clamped
# nearest point, and a sign sequence pushed segment by segment

def oracle_segment_circle_relation(s, center, r2):
    a, b = s

    def f(p):
        return (p.x - center.x) ** 2 + (p.y - center.y) ** 2 - r2

    fa, fb = f(a), f(b)
    dx, dy = b.x - a.x, b.y - a.y
    dd = dx * dx + dy * dy
    tstar = ((center.x - a.x) * dx + (center.y - a.y) * dy) / dd
    tcl = min(max(tstar, F(0)), F(1))
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
    if fa == 0:
        other = fb
        t_inward = tstar > 0
    else:
        other = fa
        t_inward = tstar < 1
    if other < 0:
        return "touches"
    return "crosses" if t_inward else "touches"


def oracle_curve_circle_crossing(curve, center, r2):
    def f(p):
        return (p.x - center.x) ** 2 + (p.y - center.y) ** 2 - r2

    signs = []

    def push(v):
        s = 1 if v > 0 else (-1 if v < 0 else 0)
        if s != 0 and (not signs or signs[-1] != s):
            signs.append(s)

    for a, b in zip(curve, curve[1:]):
        push(f(a))
        dx, dy = b.x - a.x, b.y - a.y
        dd = dx * dx + dy * dy
        tstar = ((center.x - a.x) * dx + (center.y - a.y) * dy) / dd
        if 0 < tstar < 1:
            push(f(Point(a.x + tstar * dx, a.y + tstar * dy)))
        push(f(b))
    return any(signs[i] != signs[i + 1] for i in range(len(signs) - 1))


# a half-integer grid with squared radii in quarters, so that waypoints on
# the circle, tangents and chords are common
_HALF = st.builds(lambda k: F(k, 2), st.integers(-6, 6))
_GRID_POINT = st.builds(Point, _HALF, _HALF)


@st.composite
def circle_polylines(draw, points=_GRID_POINT):
    pts = [draw(points)]
    for _ in range(draw(st.integers(1, 4))):
        pts.append(draw(points.filter(lambda p, last=pts[-1]: p != last)))
    return tuple(pts)


@settings(max_examples=500)
@given(circle_polylines(), _GRID_POINT,
       st.builds(lambda k: F(k, 4), st.integers(1, 40)))
@example((P(1, 0), P(0, 1)), P(0, 0), F(1))                  # chord
@example((P(1, -2), P(1, 2)), P(0, 0), F(1))                 # tangent
@example((P(1, 0), P(0, 0)), P(0, 0), F(1))                  # end on, inward
@example((P(1, 0), P(-3, 0)), P(0, 0), F(1))                 # ... and out
@example((P(1, 0), P(3, 0)), P(0, 0), F(1))                  # end on, outward
@example((P(2, 1), P(0, 1), P(0, 0)), P(0, 0), F(1))         # waypoint on
@example((P(2, 1), P(0, 1), P(-2, 1)), P(0, 0), F(1))        # waypoint graze
def test_circle_predicates_match_oracle(curve, center, r2):
    assert (curve_circle_crossing(curve, center, r2)
            == oracle_curve_circle_crossing(curve, center, r2))
    for s in zip(curve, curve[1:]):
        assert (segment_circle_relation(s, center, r2)
                == oracle_segment_circle_relation(s, center, r2))


# coordinates i + j / den in [lo, hi], each with its own denominator, so
# that the two axes of a curve scale differently, and plain ints, which the
# predicates take as they are and the oracle as Fractions
def _over(dens, lo, hi):
    return st.builds(lambda den, i, j: F(i * den + j % den, den),
                     st.sampled_from(dens), st.integers(lo, hi - 1), st.integers(0, 999))


_MIXED = st.one_of(st.integers(-6, 6), _over((1, 2, 3, 7, 1000), -6, 6))
_MIXED_POINT = st.builds(Point, _MIXED, _MIXED)
_MIXED_R2 = st.one_of(st.integers(1, 40), _over((1, 3, 5, 7, 9, 1000), 0, 40).filter(bool))


def _exact(p):
    return Point(F(p.x), F(p.y))


@settings(max_examples=500)
@given(circle_polylines(_MIXED_POINT), _MIXED_POINT, _MIXED_R2)
@example((P(F(-3, 2), F(13, 21)), P(F(5, 2), F(13, 21))),    # dip below
         P(F(1, 2), F(2, 7)), F(1, 7))                       # y = 1/3
@example((Point(1, 0), Point(0, 1)), Point(0, 0), 1)          # int chord
def test_circle_predicates_match_oracle_on_mixed_scales(curve, center, r2):
    exact = tuple(map(_exact, curve))
    assert (curve_circle_crossing(curve, center, r2)
            == oracle_curve_circle_crossing(exact, _exact(center), F(r2)))
    for s, t in zip(zip(curve, curve[1:]), zip(exact, exact[1:])):
        assert (segment_circle_relation(s, center, r2)
                == oracle_segment_circle_relation(t, _exact(center), F(r2)))


@pytest.mark.parametrize("a, b, seed", [(2, 4, 2), (3, 3, 0), (2, 3, 3)])
def test_circle_predicates_match_oracle_on_cylindrical_drawings(a, b, seed):
    from treespan.generators import GenSpec, generate

    d = generate(GenSpec(cls="cylindrical", n=a + b, seed=seed, a=a, b=b))
    origin = P(0, 0)
    for curve in d.curves.values():
        for r2 in (F(1), F(4)):
            assert (curve_circle_crossing(curve, origin, r2)
                    == oracle_curve_circle_crossing(curve, origin, r2))
            for s in zip(curve, curve[1:]):
                assert (segment_circle_relation(s, origin, r2)
                        == oracle_segment_circle_relation(s, origin, r2))


# ---------------------------------------------------------------------------
# float-sampler agreement (exactness oracle)
# ---------------------------------------------------------------------------

def _float_classify(s1, s2):
    (a, b), (c, d) = s1, s2
    ax, ay, bx, by = float(a.x), float(a.y), float(b.x), float(b.y)
    cx, cy, dx, dy = float(c.x), float(c.y), float(d.x), float(d.y)
    den = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
    if abs(den) < 1e-6:
        return None
    t = ((cx - ax) * (dy - cy) - (cy - ay) * (dx - cx)) / den
    u = ((cx - ax) * (by - ay) - (cy - ay) * (bx - ax)) / den
    margin = 1e-6
    if margin < t < 1 - margin and margin < u < 1 - margin:
        return "proper"
    if t < -margin or t > 1 + margin or u < -margin or u > 1 + margin:
        return "none"
    return None  # too close to a boundary to trust floats


def test_float_sampler_agreement():
    from treespan.rng import SplitMix64

    rng = SplitMix64(20240817)
    checked = 0
    for _ in range(10_000):
        pts = [P(F(rng.randint(-1000, 1000), 97), F(rng.randint(-1000, 1000), 89))
               for _ in range(4)]
        if pts[0] == pts[1] or pts[2] == pts[3]:
            continue
        s1, s2 = (pts[0], pts[1]), (pts[2], pts[3])
        verdict = _float_classify(s1, s2)
        if verdict is None:
            continue
        checked += 1
        got = segment_proper_crossing(s1, s2)
        if verdict == "proper":
            assert isinstance(got, Proper)
        else:
            assert got is None
    assert checked > 5000
