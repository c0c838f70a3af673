"""``validate_simple`` against the ``Fraction`` validation it replaced.

``validate_simple`` runs every sign test on an integer image of the
drawing (each axis scaled by the lcm of its denominators).  The oracle
below is the validation as it ran before, on the drawing's own rational
coordinates: the curve and vertex checks, the pair loop, and the
``polar_crossings`` that evaluated interpolated radii with ``_piece_r``
divisions.  Random small drawings with mixed denominators, and the raw
candidates of the generators (rejected ones included, the monotone and
strongly c-monotone ones built by the ``Fraction`` reference builders of
``reference_generators``), must get the same
crossing matrix, or the same ``NotSimpleError`` reason and pair.  So must
straight-line drawings on a small grid, which take the order-type path in
general position and the pair loop otherwise.  A count of segment tests
pins the box pruning of the pair loop.  The rows ``generate`` builds, with
the adjacent pairs its builders checked taken as passed, must equal a full
check's; the wedge-read order-type rows and the integer class checks must
equal their references in ``reference_drawing``.  Curves that break two
neighbouring per-curve rules at once pin the order of those checks, and so
the reason reported, and curves repeating one of their own ends as an
interior waypoint must report an earlier rule; the sort key of a cylindrical drawing's rings must
order exact circle points as the comparator it replaced did.
"""

import dataclasses
import functools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import treespan.drawing
from treespan import geometry
from treespan.drawing import (
    Drawing,
    _classify_monotone,
    _covering_pair,
    _crossing_rows,
    _integer_image,
    _order_type_rows,
    _ring_key,
    _spans_cover_circle,
    bipartite_edges,
    classify_c_monotone,
    complete_edges,
    validate_simple,
)
from treespan.errors import NonMonotoneCurveError, NotSimpleError
from treespan.generators import _CLASSES, GenSpec, _Reject, fixture_bipartite_isolated, generate
from treespan.geometry import (
    Degenerate,
    Point,
    PolarPoint,
    Proper,
    curve_eval,
    curve_self_contacts,
    orient,
    polar_crossings,
    polyline_crossings,
)
from treespan.rng import SplitMix64

from conftest import polar_k3, polar_k4, polar_k5
import reference_drawing
from reference_drawing import edge_span, order_type_rows
from reference_generators import REFERENCE

# ---------------------------------------------------------------------------
# the Fraction oracle
# ---------------------------------------------------------------------------


def oracle_normalize_polar(curve):
    shift = curve[0].theta - (curve[0].theta % 1)
    if shift == 0:
        return tuple(curve)
    return tuple(PolarPoint(w.theta - shift, w.r) for w in curve)


def _in_box(a, b, p):
    return (min(a.x, b.x) <= p.x <= max(a.x, b.x)
            and min(a.y, b.y) <= p.y <= max(a.y, b.y))


def oracle_piece_r(p0, p1, theta):
    return p0.r + (p1.r - p0.r) * (theta - p0.theta) / (p1.theta - p0.theta)


def oracle_polar_crossings(c1, c2):
    c1 = oracle_normalize_polar(c1)
    c2 = oracle_normalize_polar(c2)
    out = []

    def add(entry):
        if entry not in out:
            out.append(entry)

    for p0, p1 in zip(c1, c1[1:]):
        for q0, q1 in zip(c2, c2[1:]):
            for k in (-1, 0, 1):
                lo = max(p0.theta, q0.theta + k)
                hi = min(p1.theta, q1.theta + k)
                if lo > hi:
                    continue
                r1lo = oracle_piece_r(p0, p1, lo)
                r2lo = oracle_piece_r(q0, q1, lo - k)
                if lo == hi:
                    if r1lo == r2lo:
                        add(Degenerate("endpoint contact", at=(lo % 1, r1lo)))
                    continue
                r1hi = oracle_piece_r(p0, p1, hi)
                r2hi = oracle_piece_r(q0, q1, hi - k)
                dlo = r1lo - r2lo
                dhi = r1hi - r2hi
                if dlo == 0 and dhi == 0:
                    add(Degenerate("collinear overlap"))
                elif dlo == 0:
                    add(Degenerate("endpoint contact", at=(lo % 1, r1lo)))
                elif dhi == 0:
                    add(Degenerate("endpoint contact", at=(hi % 1, r1hi)))
                elif (dlo < 0) != (dhi < 0):
                    t = lo + (hi - lo) * dlo / (dlo - dhi)
                    add(Proper(t % 1))
    return out


def oracle_polar_eval(curve, at):
    c = oracle_normalize_polar(curve)
    t0, tn = c[0].theta, c[-1].theta
    base = at % 1
    cand = base + math.ceil(t0 - base)
    if cand > tn:
        return None
    for p0, p1 in zip(c, c[1:]):
        if p0.theta <= cand <= p1.theta:
            return oracle_piece_r(p0, p1, cand)
    return None


def _oracle_check_curve(d, e, curve):
    pu, pv = d.vertex_points[e[0]], d.vertex_points[e[1]]
    if len(curve) < 2:
        raise NotSimpleError(f"curve of {e} has fewer than 2 waypoints")
    if d.backend == "cartesian":
        for i in range(len(curve) - 1):
            if curve[i] == curve[i + 1]:
                raise NotSimpleError(f"zero-length segment in curve of {e}")
        if {curve[0], curve[-1]} != {pu, pv}:
            raise NotSimpleError(f"curve of {e} does not join its endpoints")
        if curve_self_contacts(curve):
            raise NotSimpleError(f"curve of {e} is self-intersecting")
        return
    for w in curve:
        if w.r <= 0:
            raise NotSimpleError(f"curve of {e} has non-positive radius")
    for i in range(len(curve) - 1):
        if curve[i].theta >= curve[i + 1].theta:
            raise NotSimpleError(f"curve of {e} is not angle-monotone")
    if curve[-1].theta - curve[0].theta >= 1:
        raise NotSimpleError(f"curve of {e} spans a full turn or more")
    ends = {(curve[0].theta % 1, curve[0].r), (curve[-1].theta % 1, curve[-1].r)}
    if ends != {(pu[0] % 1, pu[1]), (pv[0] % 1, pv[1])}:
        raise NotSimpleError(f"curve of {e} does not join its endpoints")


def _oracle_vertex_on_curve(d, e, curve, v):
    if d.backend == "cartesian":
        p = d.vertex_points[v]
        interior = curve[1:-1]
        if v in e:
            return p in interior
        if p == curve[0] or p == curve[-1] or p in interior:
            return True
        return any(orient(a, b, p) == 0 and _in_box(a, b, p)
                   for a, b in zip(curve, curve[1:]))
    theta, r = d.vertex_points[v]
    c = oracle_normalize_polar(curve)
    t0, tn = c[0].theta, c[-1].theta
    base = theta % 1
    cand = base + math.ceil(t0 - base)
    while cand <= tn:
        at_start = cand == t0
        at_end = cand == tn
        if oracle_polar_eval(curve, cand) == r:
            own_end = v in e and ((at_start and (c[0].theta % 1, c[0].r) == (base, r))
                                  or (at_end and (c[-1].theta % 1, c[-1].r) == (base, r)))
            if not own_end:
                return True
        cand += 1
    return False


def oracle_validate(d):
    """Crossing pairs of a simple drawing, or the NotSimpleError raised."""
    if d.n < 2:
        raise NotSimpleError("need at least 2 vertices")
    if sorted(d.curves) != d.expected_edges():
        raise NotSimpleError("edge set does not match declared graph")
    if len(set(d.vertex_points)) != d.n:
        raise NotSimpleError("vertex points are not distinct")
    if d.backend == "polar":
        if len({(p[0] % 1, p[1]) for p in d.vertex_points}) != d.n:
            raise NotSimpleError("vertex points are not distinct")
    for e, curve in d.curves.items():
        _oracle_check_curve(d, e, curve)
        for v in range(d.n):
            if _oracle_vertex_on_curve(d, e, curve, v):
                raise NotSimpleError(f"curve of {e} passes through vertex {v}")
    edges = d.edges
    pairs = []
    for i, e in enumerate(edges):
        for f in edges[i + 1:]:
            if d.backend == "cartesian":
                contacts = polyline_crossings(d.curves[e], d.curves[f])
            else:
                contacts = oracle_polar_crossings(d.curves[e], d.curves[f])
            common = set(e) & set(f)
            if common:
                p = d.vertex_points[common.pop()]
                shared = p if d.backend == "cartesian" else (p[0] % 1, p[1])
                if not (len(contacts) == 1 and isinstance(contacts[0], Degenerate)
                        and contacts[0].at == shared):
                    raise NotSimpleError("adjacent crossing or degenerate contact",
                                         pair=(e, f))
            else:
                propers = [c for c in contacts if isinstance(c, Proper)]
                if len(propers) > 1:
                    raise NotSimpleError("double crossing", pair=(e, f))
                if len(propers) != len(contacts):
                    raise NotSimpleError("degenerate contact", pair=(e, f))
                if propers:
                    pairs.append((e, f))
    return pairs


def _outcome(validate, d):
    try:
        out = validate(d)
    except NotSimpleError as ex:
        return ("NotSimpleError", ex.reason, ex.pair)
    return out


def _fresh(d):
    return Drawing(n=d.n, backend=d.backend, vertex_points=d.vertex_points,
                   curves=dict(d.curves), graph=d.graph)


def _fast(d):
    validate_simple(d)
    return d.crossing_pairs()


# ---------------------------------------------------------------------------
# random drawings with mixed denominators
# ---------------------------------------------------------------------------

DENS = (1, 2, 3, 4, 5, 6, 7, 12)
rationals = st.builds(F, st.integers(-12, 12), st.sampled_from(DENS))


@st.composite
def cartesian_drawings(draw):
    n = draw(st.integers(3, 5))
    pts = tuple(draw(st.lists(st.builds(Point, rationals, rationals),
                              min_size=n, max_size=n, unique=True)))
    curves = {}
    for u, v in complete_edges(n):
        bends = draw(st.lists(st.builds(Point, rationals, rationals),
                              max_size=draw(st.sampled_from((0, 0, 1)))))
        ends = (pts[u], pts[v]) if draw(st.booleans()) else (pts[v], pts[u])
        curves[(u, v)] = (ends[0], *bends, ends[1])
    return Drawing(n=n, backend="cartesian", vertex_points=pts, curves=curves)


turns = st.sampled_from((24, 8, 6, 3)).flatmap(
    lambda den: st.builds(F, st.integers(0, den - 1), st.just(den)))
radii = st.builds(F, st.integers(1, 12), st.sampled_from((1, 2, 3, 5)))


@st.composite
def polar_curve(draw, p, q):
    """theta increasing from p to q (lifted by whole turns), bends inside."""
    lift = draw(st.sampled_from((-1, 0, 0, 0, 1)))
    t0 = p.theta + lift
    t1 = q.theta + lift
    while t1 <= t0:
        t1 += 1
    cuts = sorted(set(draw(st.lists(st.integers(1, 11), min_size=1, max_size=2))))
    inner = tuple(PolarPoint(t0 + (t1 - t0) * F(c, 12), draw(radii)) for c in cuts)
    return (PolarPoint(t0, p.r), *inner, PolarPoint(t1, q.r))


@st.composite
def polar_drawings(draw):
    n = draw(st.integers(3, 5))
    same_circle = draw(st.booleans())
    r0 = draw(radii)
    thetas = draw(st.lists(turns, min_size=n, max_size=n, unique=True))
    pts = tuple(PolarPoint(t, r0 if same_circle else draw(radii)) for t in thetas)
    curves = {}
    for u, v in complete_edges(n):
        a, b = (u, v) if draw(st.booleans()) else (v, u)
        curves[(u, v)] = draw(polar_curve(pts[a], pts[b]))
    return Drawing(n=n, backend="polar", vertex_points=pts, curves=curves)


def _straight(pts, graph=("complete",), backwards=()):
    """pts joined by segments along the graph's edges; an edge in
    ``backwards`` runs from its larger end."""
    n = len(pts)
    edges = complete_edges(n) if graph[0] == "complete" else bipartite_edges(*graph[1:])
    return Drawing(n=n, backend="cartesian", vertex_points=pts, graph=graph,
                   curves={(u, v): (pts[v], pts[u]) if (u, v) in backwards
                           else (pts[u], pts[v]) for u, v in edges})


def _pp(t, r):
    return PolarPoint(F(t), F(r))


PK3 = Drawing(n=3, backend="polar",
              vertex_points=(_pp(0, 2), _pp(F(1, 3), 2), _pp(F(2, 3), 2)),
              curves={(0, 1): (_pp(0, 2), _pp(F(1, 6), F(5, 3)), _pp(F(1, 3), 2)),
                      (1, 2): (_pp(F(1, 3), 2), _pp(F(2, 3), 2)),
                      (0, 2): (_pp(F(2, 3), 2), _pp(F(5, 6), F(7, 3)), _pp(1, 2))})


def _cartesian(pts, bent):
    """pts joined by straight edges, except the edges in ``bent``, which
    map to their interior waypoints."""
    return Drawing(n=len(pts), backend="cartesian", vertex_points=pts,
                   curves={(u, v): (pts[u], *bent.get((u, v), ()), pts[v])
                           for u, v in complete_edges(len(pts))})


_Q = tuple(PolarPoint(F(k, 4), F(2)) for k in range(4))
# (0, 2) spans [0, 1/2] and (1, 3) spans [3/4, 5/4]: they meet, and cross,
# only with (1, 3) shifted back by a turn
SEAM_CROSS = Drawing(n=4, backend="polar", vertex_points=_Q,
                     curves={(0, 1): (_Q[0], _Q[1]),
                             (0, 2): (_Q[0], _pp(F(1, 4), 3), _Q[2]),
                             (0, 3): (_Q[3], _pp(1, 2)),
                             (1, 2): (_Q[1], _Q[2]),
                             (1, 3): (_Q[3], _pp(1, 3), _pp(F(5, 4), 2)),
                             (2, 3): (_Q[2], _Q[3])})


# two edges run the long way round, so their spans cover the circle
LONG_WAY = Drawing(n=3, backend="polar", vertex_points=PK3.vertex_points,
                   curves={(0, 1): (_pp(F(1, 3), 2), _pp(F(2, 3), 3), _pp(1, 2)),
                           (0, 2): (_pp(0, 2), _pp(F(1, 3), 1), _pp(F(2, 3), 2)),
                           (1, 2): (_pp(F(1, 3), 2), _pp(F(2, 3), 2))})


@settings(max_examples=150, deadline=None, database=None)
@given(d=st.one_of(cartesian_drawings(), polar_drawings()))
@example(d=_straight((Point(F(0), F(0)), Point(F(1, 3), F(1, 2)),
                      Point(F(2, 7), F(-1, 5)), Point(F(-1, 2), F(1, 3)))))
@example(d=_straight((Point(F(0), F(0)), Point(F(1), F(1)),
                      Point(F(2), F(2)), Point(F(0), F(3)))))  # vertex on an edge
@example(d=PK3)
@example(d=Drawing(n=3, backend="polar", vertex_points=PK3.vertex_points,
                   curves={**PK3.curves, (1, 2): (_pp(F(1, 3), 2), _pp(F(5, 3), 2))}))
@example(d=polar_k4())
@example(d=polar_k5())
# adjacent edges whose first segments overlap along a line from the shared
# vertex: the shared-endpoint shortcut must fall through to the collinear test
@example(d=_cartesian((Point(F(0), F(0)), Point(F(2), F(0)), Point(F(1), F(1))),
                      {(0, 2): (Point(F(1), F(0)),)}))
# vertex 2 lies on the line through edge (0, 1) but outside its box
@example(d=_cartesian((Point(F(0), F(0)), Point(F(1), F(1)), Point(F(3), F(3))),
                      {(0, 2): (Point(F(2), F(0)),)}))
@example(d=SEAM_CROSS)
@example(d=LONG_WAY)
def test_validate_simple_matches_fraction_oracle(d):
    assert _outcome(_fast, _fresh(d)) == _outcome(oracle_validate, _fresh(d))


@st.composite
def straight_drawings(draw):
    """Straight-line drawings, complete or bipartite, on a small rational
    grid, where three vertices on a line are common."""
    n = draw(st.integers(3, 8))
    coord = st.builds(F, st.integers(0, draw(st.sampled_from((3, 4, 8, 40)))),
                      st.sampled_from((1, 2, 3)))
    pts = tuple(draw(st.lists(st.builds(Point, coord, coord),
                              min_size=n, max_size=n, unique=True)))
    graph = ("complete",)
    if draw(st.booleans()):
        a = draw(st.integers(1, n - 1))
        graph = ("bipartite", a, n - a)
    return _straight(pts, graph, draw(st.sets(st.sampled_from(complete_edges(n)))))


_K23 = (Point(F(0), F(0)), Point(F(4), F(0)), Point(F(3), F(3)), Point(F(1), F(3)))
# no three vertices on a line; (0, 2) and (1, 3) cross at (2, 2)
STRAIGHT_K23 = _straight(_K23 + (Point(F(2), F(-2)),), ("bipartite", 2, 3))
# vertex 4 lies between 0 and 1, which are not joined: still simple
COLLINEAR_K23 = _straight(_K23 + (Point(F(2), F(0)),), ("bipartite", 2, 3))


def test_straight_line_order_type_matches_fraction_oracle(monkeypatch):
    """Straight-line drawings in general position are settled by their
    order type, the others by the pairwise loop; both must agree with the
    oracle, and both must run."""
    branches = {"order type": 0, "fallback": 0}
    order_type_rows = treespan.drawing._order_type_rows

    def counting(points, edges):
        rows = order_type_rows(points, edges)
        branches["fallback" if rows is None else "order type"] += 1
        return rows

    monkeypatch.setattr(treespan.drawing, "_order_type_rows", counting)

    @settings(max_examples=200, deadline=None, database=None)
    @given(d=straight_drawings())
    @example(d=STRAIGHT_K23)
    @example(d=COLLINEAR_K23)
    def check(d):
        assert _outcome(_fast, _fresh(d)) == _outcome(oracle_validate, _fresh(d))

    check()
    assert branches["order type"] > 0 and branches["fallback"] > 0


@pytest.mark.parametrize("spec", [
    GenSpec(cls="strongly_cmonotone", n=5, seed=1),
    GenSpec(cls="strongly_cmonotone", n=6, seed=702),
    GenSpec(cls="monotone_perturbed", n=6, seed=402),
    GenSpec(cls="cylindrical", n=4, seed=0, a=2, b=2),
    GenSpec(cls="cylindrical", n=6, seed=0, a=3, b=3),
], ids=lambda s: f"{s.cls}-{s.n}-{s.seed}")
def test_generated_drawing_matches_fraction_oracle(spec):
    d = generate(spec)
    assert _fresh(d).crossing_pairs() == oracle_validate(_fresh(d))


# ---------------------------------------------------------------------------
# public polar_crossings against the _piece_r oracle
# ---------------------------------------------------------------------------

grid_theta = st.builds(F, st.integers(-8, 16), st.just(8))
grid_r = st.builds(F, st.integers(1, 4))


@st.composite
def polar_pieces(draw):
    thetas = sorted(set(draw(st.lists(grid_theta, min_size=2, max_size=4))))
    if len(thetas) < 2:
        thetas.append(thetas[0] + F(3, 8))
    thetas = [t for t in thetas if t - thetas[0] < 1] or thetas[:1]
    if len(thetas) < 2:
        thetas.append(thetas[0] + F(1, 8))
    return tuple(PolarPoint(t, draw(grid_r)) for t in thetas)


@settings(max_examples=400, deadline=None, database=None)
@given(c1=polar_pieces(), c2=polar_pieces())
# endpoint contact: c2 starts on c1's interior
@example(c1=(_pp(0, 2), _pp(F(1, 2), 2)), c2=(_pp(F(1, 4), 2), _pp(F(3, 4), 1)))
# collinear overlap
@example(c1=(_pp(0, 2), _pp(F(1, 2), 2)), c2=(_pp(F(1, 4), 2), _pp(F(3, 4), 2)))
# contact across the seam: c1 ends at 9/8 = 1/8 + 1 where c2 starts
@example(c1=(_pp(F(5, 8), 1), _pp(F(9, 8), 3)), c2=(_pp(F(1, 8), 3), _pp(F(1, 2), 1)))
# proper crossing across the seam, c1 given with a lift of two turns
@example(c1=(_pp(F(19, 8), 1), _pp(F(25, 8), 3)), c2=(_pp(F(1, 8), 3), _pp(F(3, 8), 1)))
# c1's one piece crosses c2's second piece in the same turn and its first
# piece a turn on: the contacts come in piece-pair order, not by shift
@example(c1=(_pp(F(1, 2), 1), _pp(F(11, 8), 3)),
         c2=(_pp(F(1, 8), 3), _pp(F(3, 8), 2), _pp(F(7, 8), 1)))
def test_polar_crossings_matches_piece_r_oracle(c1, c2):
    assert polar_crossings(c1, c2) == oracle_polar_crossings(c1, c2)


@settings(max_examples=300, deadline=None, database=None)
@given(c=polar_pieces(), at=grid_theta, turns=st.integers(-2, 2))
@example(c=(_pp(F(5, 8), 1), _pp(F(9, 8), 3)), at=F(1, 8), turns=1)  # across the seam
@example(c=(_pp(F(19, 8), 1), _pp(F(25, 8), 3)), at=F(3, 8), turns=-2)
def test_polar_curve_eval_matches_piece_r_oracle(c, at, turns):
    """curve_eval of a polar curve interpolates its strip polyline at the
    lifted angle: the answer is the oracle's, a whole turn away too."""
    assert curve_eval(c, at + turns) == curve_eval(c, at) == oracle_polar_eval(c, at)


@pytest.mark.parametrize("c, at", [
    ((_pp(0, 1), _pp(F(1, 2), 2), _pp(F(3, 10), 3)), F(2, 5)),  # passes 2/5 twice
    ((_pp(0, 1), _pp(0, 2), _pp(F(1, 2), 3)), 0),  # a radial first piece
    ((_pp(F(1, 2), 1), _pp(F(1, 4), 2)), F(3, 8)),  # angles decrease
], ids=["turn-back", "radial", "decreasing"])
def test_polar_curve_eval_rejects_angles_that_do_not_increase(c, at):
    """Like a cartesian curve that is not x-monotone, a polar curve whose
    angles do not strictly increase has no one r at an angle."""
    with pytest.raises(NonMonotoneCurveError):
        curve_eval(c, at)


# ---------------------------------------------------------------------------
# raw generator candidates, rejected ones included
# ---------------------------------------------------------------------------

RAW_GRID = ([("random_points", n, None) for n in range(4, 11)]
            + [("convex", n, None) for n in range(4, 11)]
            + [("monotone_perturbed", n, None) for n in range(6, 11)]
            + [("strongly_cmonotone", n, None) for n in (5, 6)]
            + [("cylindrical", 5, (2, 3)), ("cylindrical", 6, (3, 3))])


def _raw_candidates(cls, n, shape, seeds=range(3), per_seed=5):
    """The first candidates ``generate`` would build for each seed, before
    any validation or class check.  The monotone and strongly c-monotone
    ones come from the reference builders, which do not stop at an
    adjacent contact, so the rejected candidates stay in the grid."""
    build = REFERENCE.get(cls) or (lambda spec, rng: _CLASSES[cls][0](spec, rng)[0])
    out = []
    for seed in seeds:
        a, b = shape or (None, None)
        spec = GenSpec(cls=cls, n=n, seed=seed, a=a, b=b)
        rng = SplitMix64(seed)
        for _ in range(per_seed):
            try:
                out.append(build(spec, rng.split()))
            except _Reject:
                pass
    return out


@pytest.mark.parametrize("cls,n,shape", RAW_GRID,
                         ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_raw_candidates_match_fraction_oracle(cls, n, shape):
    outcomes = []
    for d in _raw_candidates(cls, n, shape):
        want = _outcome(oracle_validate, _fresh(d))
        assert _outcome(_fast, _fresh(d)) == want
        outcomes.append(want)
    assert outcomes


def test_raw_candidate_grid_has_rejections():
    """The grid above reaches the error paths, not only simple drawings."""
    reasons = set()
    for cls, n, shape in (("monotone_perturbed", 10, None), ("cylindrical", 6, (3, 3))):
        for d in _raw_candidates(cls, n, shape):
            try:
                validate_simple(d)
            except NotSimpleError as ex:
                reasons.add(ex.reason.split(" of ")[0])
    assert reasons >= {"adjacent crossing or degenerate contact", "curve"}


def test_strongly_verdict_matches_fraction_spans():
    """classify_c_monotone runs the cover test on the spans of the kept
    integer image; the Fraction helper over every edge pair is the oracle."""
    verdicts = []
    for d in (_raw_candidates("strongly_cmonotone", 5, None)
              + _raw_candidates("strongly_cmonotone", 6, None)
              + [PK3, SEAM_CROSS, LONG_WAY, polar_k4(), polar_k5()]):
        try:
            _, strongly, _ = classify_c_monotone(d)
        except NotSimpleError:
            continue
        spans = [edge_span(d, e) for e in d.edges]
        assert strongly == (not any(_spans_cover_circle(s, t) for i, s in enumerate(spans)
                                    for t in spans[i + 1:]))
        verdicts.append(strongly)
    assert True in verdicts and False in verdicts


def test_spine_edges_match_fraction_spans():
    """classify_c_monotone finds spine edges on the spans and vertex angles
    of the kept integer image, and the package has no Fraction span test
    left to run; generated drawings of both kinds (every cycle edge a spine
    edge, or one not), raw candidates and the polar fixtures agree with the
    Fraction test."""
    assert not hasattr(treespan.drawing, "span_contains")
    kinds = set()
    drawings = [generate(GenSpec(cls="strongly_cmonotone", n=n, seed=seed))
                for n in range(3, 9) for seed in range(10)]
    for n in range(3, 9):
        drawings += _raw_candidates("strongly_cmonotone", n, None)
    drawings += [PK3, SEAM_CROSS, LONG_WAY, polar_k3(), polar_k4(), polar_k5()]
    for d in drawings:
        try:
            _, _, spine = classify_c_monotone(d)
        except NotSimpleError:
            continue
        assert spine.spine_edges == reference_drawing.classify_c_monotone(_fresh(d))[2].spine_edges
        kinds.add(spine.all_cycle_edges_spine)
    assert kinds == {True, False}


def _segment_tests(monkeypatch, d):
    """The segment-record pairs validating d puts through the contact test."""
    calls = []
    contact = geometry._segment_contact

    def recording(s, t, locate):
        calls.append((s, t))
        return contact(s, t, locate)

    monkeypatch.setattr(geometry, "_segment_contact", recording)
    validate_simple(d)
    return calls


def test_validation_prunes_segment_pairs(monkeypatch):
    """Pairs of curves whose boxes are disjoint reach no segment test: a
    monotone drawing of K_8 with bent edges (378 edge pairs, 1512 segment
    pairs) tests fewer segment pairs than it has edge pairs, and a
    straight-line K_10 in general position tests none.  A strongly
    c-monotone drawing runs the same segment test in the angle-radius
    strip, except on pairs whose angle ranges meet under no whole-turn
    shift."""
    d = _fresh(generate(GenSpec(cls="monotone_perturbed", n=8, seed=0)))
    m = len(d.edges)
    assert 0 < len(_segment_tests(monkeypatch, d)) < m * (m - 1) // 2
    d = _fresh(generate(GenSpec(cls="random_points", n=10, seed=0)))
    assert _segment_tests(monkeypatch, d) == []

    d = _fresh(generate(GenSpec(cls="strongly_cmonotone", n=8, seed=0)))
    img = treespan.drawing._integer_image(d)
    turn, curves = img.turn, img.curves

    def key(a, b):  # a strip segment whatever turn it was moved by
        return a.x % turn, a.y, b.x % turn, b.y

    owner = {key(a, b): e for e, c in curves.items() for a, b in zip(c, c[1:])}

    def meet(e, f):
        (e0, e1), (f0, f1) = (curves[e][0].x, curves[e][-1].x), (curves[f][0].x, curves[f][-1].x)
        return any(e0 <= f1 + k and f0 + k <= e1 for k in (-turn, 0, turn))

    pairs = {(owner[key(*s[:2])], owner[key(*t[:2])])
             for s, t in _segment_tests(monkeypatch, d)}
    assert pairs and all(meet(e, f) for e, f in pairs)
    assert not all(meet(e, f) for i, e in enumerate(d.edges) for f in d.edges[i + 1:])


# ---------------------------------------------------------------------------
# generated rows against the full check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cls", sorted(_CLASSES))
def test_generated_rows_match_full_check(cls):
    """``generate`` builds each candidate's rows checking only the pairs
    sharing a vertex that its builder left unchecked; a
    ``dataclasses.replace`` copy builds them with every check.  Both give
    the same rows for n = 3-9 and seeds 0-4 (cylindrical shapes with three
    outer vertices or fewer, which every seed here reaches), and the
    oracle gives the same crossing pairs for seed n mod 5 of each n."""
    for n in range(3, 10):
        a, b = (n - min(3, n - 1), min(3, n - 1)) if cls == "cylindrical" else (None, None)
        for seed in range(5):
            d = generate(GenSpec(cls=cls, n=n, seed=seed, a=a, b=b))
            copy = dataclasses.replace(d)
            assert "cross_mask" not in vars(copy)
            assert _crossing_rows(copy) == d.cross_mask
            if seed == n % 5:
                assert d.crossing_pairs() == oracle_validate(_fresh(d))


# ---------------------------------------------------------------------------
# wedge rows and integer class checks against their references
# ---------------------------------------------------------------------------

def test_wedge_rows_match_pair_loop_on_generated_points():
    """The rows read from wedges are the pair loop's on the integer images
    of convex and random_points drawings, n = 3-12, seeds 0-9."""
    for cls in ("convex", "random_points"):
        for n in range(3, 13):
            for seed in range(10):
                d = generate(GenSpec(cls=cls, n=n, seed=seed))
                points = _integer_image(d, curves=False).points
                rows = _order_type_rows(points, d.edges)
                assert rows is not None
                assert rows == order_type_rows(points, d.edges) == d.cross_mask


def test_wedge_rows_match_pair_loop_on_edge_subsets():
    """Bipartite and partial edge sets on random points, with three points
    on a line (both give None) and without: a vertex left of an edge may
    have no edge to the vertices right of it."""
    rng = random.Random(7)
    seen = {"bipartite": 0, "partial": 0, "collinear": 0}
    for _ in range(300):
        n = rng.randint(3, 9)
        side = rng.choice((4, 1000))
        points = set()
        while len(points) < n:
            points.add(Point(rng.randrange(side), rng.randrange(side)))
        points = list(points)
        if rng.random() < 0.5:
            a = rng.randint(1, n - 1)
            edges, kind = bipartite_edges(a, n - a), "bipartite"
        else:
            edges = sorted(rng.sample(complete_edges(n), rng.randint(1, n * (n - 1) // 2)))
            kind = "partial"
        rows = _order_type_rows(points, edges)
        assert rows == order_type_rows(points, edges)
        if rows is None:
            seen["collinear"] += 1
        elif any(rows):
            seen[kind] += 1
    assert all(seen.values()), seen


def test_monotone_class_matches_fraction_reference():
    """``_classify_monotone`` compares the x-coordinates of the integer
    image; the reference compares the ``Fraction``s with ``is_x_monotone``.
    They agree on the cartesian raw candidates and on hand-built curves: two
    vertices at one x, a vertical segment, a curve that turns back, and
    curves listed from right to left."""
    pts = (Point(F(0), F(0)), Point(F(1, 3), F(2)), Point(F(2), F(1, 2)))
    cases = [
        _cartesian(pts, {}),
        _cartesian(pts, {(0, 2): (Point(F(1), F(1)), Point(F(1), F(-1)))}),   # vertical
        _cartesian(pts, {(0, 1): (Point(F(1, 2), F(1)),)}),                    # turns back
        _cartesian(pts, {(1, 2): (Point(F(2), F(1)),)}),                       # vertical at an end
        _cartesian((pts[0], Point(F(0), F(2)), pts[2]), {}),                   # one x, two vertices
        _straight(pts, backwards={(0, 1), (0, 2)}),
        _straight(pts, backwards={(0, 2)}),
    ]
    for cls, n, shape in RAW_GRID:
        if cls != "strongly_cmonotone":
            cases += _raw_candidates(cls, n, shape, seeds=range(2), per_seed=3)
    verdicts = [_classify_monotone(d) for d in cases]
    assert verdicts == [reference_drawing.classify_monotone(d) for d in cases]
    assert verdicts[0] is not None and verdicts[1:5] == [None] * 4
    assert None not in verdicts[5:7]


# an interior waypoint of (0, 2) lies exactly on the vertex line
ON_LINE = _cartesian((Point(F(0), F(0)), Point(F(1), F(0)), Point(F(2), F(0))),
                     {(0, 1): (Point(F(1, 2), F(1)),), (1, 2): (Point(F(3, 2), F(1)),),
                      (0, 2): (Point(F(1), F(-1)), Point(F(3), F(0)), Point(F(5, 2), F(-1)))})


def _distinct_copies(d):
    """d with every coordinate a new Fraction object of the same value."""
    def fresh(p):
        return type(p)(F(p[0].numerator, p[0].denominator), F(p[1].numerator, p[1].denominator))
    return dataclasses.replace(d, vertex_points=tuple(map(fresh, d.vertex_points)),
                               curves={e: tuple(map(fresh, c)) for e, c in d.curves.items()})


def _class_outcomes(module, d):
    """The three class checks of ``module`` on d, or the NotSimpleError the
    c-monotone check raises on a drawing that is not simple."""
    out = [module.classify_monotone(d), module.classify_two_page(d)]
    try:
        out.append(module.classify_c_monotone(d))
    except NotSimpleError as ex:
        out.append((ex.reason, ex.pair))
    return out


def test_class_checks_match_fraction_references():
    """The monotone, two-page and c-monotone checks read the integer image
    that validation keeps; their ``Fraction`` references read the drawing.
    They agree on generated drawings of every class, the raw candidates,
    the polar and bipartite fixtures and three hand-built cases: an
    interior waypoint exactly on the vertex line, equal coordinates given
    as distinct ``Fraction`` objects, and curves whose first angle lies
    past one turn, two turns for the one that must cover the circle."""
    drawings = []
    for cls in sorted(_CLASSES):
        for n in range(3, 8):
            a, b = (n - min(3, n - 1), min(3, n - 1)) if cls == "cylindrical" else (None, None)
            drawings += [generate(GenSpec(cls=cls, n=n, seed=seed, a=a, b=b))
                         for seed in range(3)]
    for cls, n, shape in RAW_GRID:
        drawings += _raw_candidates(cls, n, shape, seeds=range(2), per_seed=3)
    drawings += [PK3, SEAM_CROSS, LONG_WAY, polar_k3(), polar_k4(), polar_k5(),
                 fixture_bipartite_isolated()[0]]
    two_page = generate(GenSpec(cls="two_page", n=5, seed=0))
    past_a_turn = dataclasses.replace(LONG_WAY, curves={
        **LONG_WAY.curves,
        (0, 2): tuple(PolarPoint(w.theta + 2, w.r) for w in LONG_WAY.curves[0, 2]),
        (1, 2): tuple(PolarPoint(w.theta + 1, w.r) for w in LONG_WAY.curves[1, 2])})
    hand_built = [ON_LINE, _distinct_copies(two_page), _distinct_copies(polar_k5()),
                  _distinct_copies(_cartesian((Point(F(0), F(0)), Point(F(0), F(2)),
                                               Point(F(2), F(1, 2))), {})),
                  past_a_turn]
    outcomes = []
    for d in drawings + hand_built:
        got = _class_outcomes(treespan.drawing, _fresh(d))
        assert got == _class_outcomes(reference_drawing, _fresh(d))
        outcomes.append(got)
    *_, on_line, two_page, polar, one_x, past = outcomes
    assert on_line[1] is False and two_page[1] is True
    assert polar[2][1] is True and one_x[0] is None and past[2][1] is False
    assert {o[1] for o in outcomes} == {o[2][1] for o in outcomes if len(o[2]) == 3} == {
        True, False}


def test_covering_pair_stops_only_below_a_turn():
    """Two closed spans whose lengths sum to exactly a turn can cover the
    circle, so a row stops only at a partner whose length falls short of
    that; every covering pair among random spans is found."""
    assert _covering_pair([(3, 4), (0, 5), (5, 12)], 12)      # 5 + 7 = 12, covers
    assert not _covering_pair([(3, 4), (0, 5), (5, 11)], 12)  # 5 + 6 = 11
    assert not _covering_pair([(0, 6), (6, 11), (11, 16)], 12)
    rng = random.Random(3)
    found = set()
    for _ in range(500):
        turn = rng.choice((6, 12, 60))
        spans = []
        for _ in range(rng.randint(2, 8)):
            lo = rng.randrange(turn)
            spans.append((lo, lo + rng.randrange(turn)))
        want = any(_spans_cover_circle(s, t, turn)
                   for i, s in enumerate(spans) for t in spans[i + 1:])
        assert _covering_pair(spans, turn) == want
        found.add(want)
    assert found == {True, False}


# ---------------------------------------------------------------------------
# the order of the per-curve checks
# ---------------------------------------------------------------------------

_TRI = (Point(F(0), F(0)), Point(F(4), F(0)), Point(F(2), F(3)))


def _bad_first(backend, curve):
    """K_3 whose curve of (0, 1), checked first, is ``curve``; the other
    two curves are simple."""
    if backend == "cartesian":
        pts, rest = _TRI, {(0, 2): (_TRI[0], _TRI[2]), (1, 2): (_TRI[1], _TRI[2])}
    else:
        pts, rest = PK3.vertex_points, {e: PK3.curves[e] for e in ((0, 2), (1, 2))}
    return Drawing(n=3, backend=backend, vertex_points=pts,
                   curves={(0, 1): tuple(curve), **rest})


def _c(*xy):
    return [Point(F(x), F(y)) for x, y in xy]


def _p(*tr):
    return [_pp(t, r) for t, r in tr]


# Each curve of (0, 1) breaks two neighbouring per-curve rules at once; the
# reason is the first rule's.  Cartesian rules run: waypoint count,
# zero-length segments, endpoint join, self-contact, vertex on the curve
# (one waypoint leaves no segment to be zero-length, so the count is paired
# with the join).  Polar rules run: waypoint count, radius, angle order,
# angle span, endpoint join, vertex on the curve.
CHECK_ORDER = [
    ("cartesian", _c((0, 0)), "curve of (0, 1) has fewer than 2 waypoints"),
    ("cartesian", _c((0, 0), (0, 0), (4, 1)), "zero-length segment in curve of (0, 1)"),
    # ends at (1, -2); its last segment crosses its first
    ("cartesian", _c((0, 0), (3, -2), (3, -1), (1, -2)),
     "curve of (0, 1) does not join its endpoints"),
    # runs through vertex 2 at (2, 3), then its fourth segment crosses its second
    ("cartesian", _c((0, 0), (2, 3), (3, -2), (3, -1), (1, -2), (4, 0)),
     "curve of (0, 1) is self-intersecting"),
    ("polar", _p((0, -1)), "curve of (0, 1) has fewer than 2 waypoints"),
    ("polar", _p((0, 2), (F(1, 4), 0), (F(1, 5), 3), (F(1, 3), 2)),
     "curve of (0, 1) has non-positive radius"),
    ("polar", _p((0, 2), (F(1, 2), 3), (F(1, 4), 3), (F(4, 3), 2)),
     "curve of (0, 1) is not angle-monotone"),
    ("polar", _p((0, 2), (F(1, 2), 3), (F(5, 4), 2)),
     "curve of (0, 1) spans a full turn or more"),
    # runs through vertex 2 at angle 2/3, then ends off vertex 1
    ("polar", _p((0, 2), (F(1, 3), 3), (F(2, 3), 2), (F(5, 6), 3)),
     "curve of (0, 1) does not join its endpoints"),
]


@pytest.mark.parametrize("backend, curve, reason", CHECK_ORDER, ids=[
    "cartesian-count-join", "cartesian-zero-length-join", "cartesian-join-self-contact",
    "cartesian-self-contact-vertex", "polar-count-radius", "polar-radius-angle-order",
    "polar-angle-order-span", "polar-span-join", "polar-join-vertex"])
def test_first_broken_curve_rule_names_the_reason(backend, curve, reason):
    d = _bad_first(backend, curve)
    with pytest.raises(NotSimpleError) as oracle:
        _oracle_check_curve(d, (0, 1), d.curves[0, 1])
    assert oracle.value.reason == reason
    assert _outcome(_fast, _fresh(d)) == _outcome(oracle_validate, _fresh(d)) == (
        "NotSimpleError", reason, None)


def _own_end_mutants(d):
    """Copies of d with one curve repeating one of its own end vertices as
    an interior waypoint: inserted, or in place of a waypoint, and for a
    polar curve also lifted by a turn either way.  Yields (edge, copy)."""
    for e, curve in d.curves.items():
        for p in (d.vertex_points[v] for v in e):
            stops = [p]
            if d.backend == "polar":
                stops += [PolarPoint(p.theta + k, p.r) for k in (-1, 1)]
            for w in stops:
                for k in range(1, len(curve)):
                    changed = [curve[:k] + (w,) + curve[k:]]
                    if k < len(curve) - 1:
                        changed.append(curve[:k] + (w,) + curve[k + 1:])
                    for c in changed:
                        yield e, Drawing(n=d.n, backend=d.backend,
                                         vertex_points=d.vertex_points,
                                         curves={**d.curves, e: c}, graph=d.graph)


_BENT = {"zero-length segment in curve of e", "curve of e is self-intersecting"}
# a straight curve has no waypoint to replace; a lifted one is out of order
OWN_END_REASONS = {"random_points": {"zero-length segment in curve of e"},
                   "monotone_perturbed": _BENT, "two_page": _BENT, "cylindrical": _BENT,
                   "strongly_cmonotone": {"curve of e is not angle-monotone"}}


@pytest.mark.parametrize("spec", [
    GenSpec(cls="random_points", n=4, seed=0),
    GenSpec(cls="monotone_perturbed", n=4, seed=1),
    GenSpec(cls="monotone_perturbed", n=5, seed=0),
    GenSpec(cls="two_page", n=4, seed=2),
    GenSpec(cls="two_page", n=5, seed=0),
    GenSpec(cls="cylindrical", n=4, seed=0, a=2, b=2),
    GenSpec(cls="cylindrical", n=6, seed=1, a=3, b=3),
    GenSpec(cls="strongly_cmonotone", n=4, seed=0),
    GenSpec(cls="strongly_cmonotone", n=5, seed=1),
], ids=lambda s: f"{s.cls}-{s.n}-{s.seed}")
def test_own_end_vertex_as_waypoint_reports_an_earlier_rule(spec):
    """A curve through its own end vertex breaks a rule checked before the
    vertices on it: zero length or self-contact (cartesian), angle order
    or span (polar).  Both validations report that rule, and neither says
    the curve passes through one of its own ends."""
    reasons = set()
    for e, bad in _own_end_mutants(generate(spec)):
        got = _outcome(_fast, _fresh(bad))
        assert got == _outcome(oracle_validate, _fresh(bad)), (e, bad.curves[e])
        assert got[0] == "NotSimpleError"
        assert got[1] not in (f"curve of {e} passes through vertex {v}" for v in e)
        reasons.add(got[1].replace(str(e), "e"))
    assert reasons == OWN_END_REASONS[spec.cls]


# ---------------------------------------------------------------------------
# ring order on a circle
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None, database=None)
@given(r=st.fractions(min_value=F(1, 8), max_value=8, max_denominator=9),
       ts=st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                   min_size=1, max_size=9, unique=True),
       half_turn=st.booleans())
@example(r=F(1), ts=[F(0), F(1), F(-1), F(1, 3), F(-3)], half_turn=True)
def test_ring_key_orders_like_the_angle_comparator(r, ts, half_turn):
    """Exact points of one origin-centred circle, parametrized by the
    tangent of the half angle t: t = 0 is the point at angle 0, t > 0 the
    upper half and t < 0 the lower; the point at angle pi has no t."""
    pts = [Point(r * (1 - t * t) / (1 + t * t), r * 2 * t / (1 + t * t)) for t in ts]
    if half_turn:
        pts.append(Point(-r, F(0)))
    assert (sorted(pts, key=_ring_key)
            == sorted(pts, key=functools.cmp_to_key(reference_drawing.angle_cmp)))
