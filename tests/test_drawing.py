"""Drawing validation and classification tests."""

import dataclasses
from fractions import Fraction as F
from itertools import combinations

import pytest

from treespan import drawing, generators
from treespan.drawing import (
    Drawing,
    _spans_cover_circle,
    classify_c_monotone,
    classify_cylindrical,
    classify_monotone,
    classify_two_page,
    cut_to_monotone,
    edge,
    validate_simple,
)
from treespan.errors import InvalidRadiiError, NotSimpleError
from treespan.generators import GenSpec, generate
from treespan.geometry import Proper, segment_proper_crossing
from treespan.trees import enumerate_plane_trees

from conftest import P, cyl_k4, straight_line_drawing
from reference_spine import (
    EmptySetError,
    succ_above,
    succ_maximal,
    twiggly_set,
    vertices_above,
)


# ---------------------------------------------------------------------------
# validate_simple
# ---------------------------------------------------------------------------

def test_sq_simple_and_monotone(sq):
    report = validate_simple(sq)
    assert report.is_simple
    assert report.is_monotone
    assert sq.crossing_pairs() == [((0, 2), (1, 3))]


def test_convex5_crossing_count_matches_brute_force():
    pts = [P(i, i * i) for i in range(5)]  # strictly convex position
    d = straight_line_drawing(pts)
    validate_simple(d)
    # oracle: count crossing segment pairs directly
    count = 0
    for e, f in combinations(d.edges, 2):
        if set(e) & set(f):
            continue
        r = segment_proper_crossing((pts[e[0]], pts[e[1]]), (pts[f[0]], pts[f[1]]))
        if isinstance(r, Proper):
            count += 1
    assert count == 5  # C(5,4)
    assert len(d.crossing_pairs()) == count


def test_double_crossing_rejected(sq):
    pts = sq.vertex_points
    curves = dict(sq.curves)
    curves[(0, 2)] = (pts[0], P(4, 3), P(2, 2), pts[2])
    bad = Drawing(n=4, backend="cartesian", vertex_points=pts, curves=curves)
    with pytest.raises(NotSimpleError, match="double crossing"):
        validate_simple(bad)


def test_curve_through_vertex_rejected(m4):
    pts = m4.vertex_points
    curves = dict(m4.curves)
    curves[(0, 2)] = (pts[0], P(1, 1), pts[2])  # waypoint exactly at vertex 1
    bad = Drawing(n=4, backend="cartesian", vertex_points=pts, curves=curves)
    with pytest.raises(NotSimpleError, match="vertex"):
        validate_simple(bad)


def test_missing_edge_rejected(m4):
    curves = dict(m4.curves)
    del curves[(0, 1)]
    bad = Drawing(n=4, backend="cartesian", vertex_points=m4.vertex_points,
                  curves=curves)
    with pytest.raises(NotSimpleError, match="edge set"):
        validate_simple(bad)


def test_report_idempotent(m4):
    first = validate_simple(m4)
    again = validate_simple(straight_line_drawing(m4.vertex_points))
    assert first == again


def test_crossing_matrix_symmetric_no_adjacent(sq):
    cross = sq.crossings
    for e, s in cross.items():
        for f in s:
            assert e in cross[f]
            assert not set(e) & set(f)


def test_drawing_is_immutable(sq):
    curves = dict(sq.curves)
    d = Drawing(n=4, backend="cartesian", vertex_points=sq.vertex_points,
                curves=curves)
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.n = 5
    with pytest.raises(TypeError):
        d.curves[(0, 1)] = curves[(0, 2)]
    # a double crossing in the caller's dict must not reach the drawing
    curves[(0, 2)] = (sq.vertex_points[0], P(4, 3), P(2, 2), sq.vertex_points[2])
    assert d.curves == sq.curves
    assert d.cross_mask == sq.cross_mask
    assert isinstance(d.edges, tuple)
    assert d.cross_mask is d.cross_mask
    assert validate_simple(d) is validate_simple(d)
    assert not [f.name for f in dataclasses.fields(Drawing)
                if f.name.startswith("_")]


# ---------------------------------------------------------------------------
# classification on demand
# ---------------------------------------------------------------------------

def test_generate_classifies_each_candidate_once(monkeypatch):
    """Seed 0 makes several builder attempts (its rejects are adjacent
    contacts, which the builder itself stops at); only the simple
    candidates are classified, each once."""
    attempts, classified = [], []
    build, classify = generators._gen_strongly_cmonotone, classify_c_monotone

    def recording_build(n, rng):
        attempts.append(None)  # stays None when the builder rejects
        attempts[-1] = build(n, rng)
        return attempts[-1]

    def counting_classify(d):
        classified.append(d)
        return classify(d)

    monkeypatch.setattr(generators, "_gen_strongly_cmonotone", recording_build)
    for module in (drawing, generators):
        monkeypatch.setattr(module, "classify_c_monotone", counting_classify)
    d = generate(GenSpec(cls="strongly_cmonotone", n=6, seed=0))

    def simple(c):
        try:
            return c.cross_mask is not None
        except NotSimpleError:
            return False

    assert len(attempts) > 1
    built = [c for c in attempts if c is not None]
    assert [id(c) for c in classified] == [id(c) for c in built if simple(c)]
    assert classified[-1] is d


def test_trees_need_no_classification():
    d = dataclasses.replace(cyl_k4(), circles=(F(4), F(1)))
    assert len(enumerate_plane_trees(d)) == 16
    with pytest.raises(InvalidRadiiError):
        validate_simple(d)


# ---------------------------------------------------------------------------
# monotone structure
# ---------------------------------------------------------------------------

def test_m4_spine(m4):
    spine = classify_monotone(m4)
    assert spine.order == (0, 1, 2, 3)
    assert spine.spine_edges == ((0, 1), (1, 2), (2, 3))


def test_sq_spine_relabel(sq):
    spine = classify_monotone(sq)
    assert spine.order == (0, 3, 1, 2)
    assert spine.spine_edges == ((0, 3), (1, 3), (1, 2))


def test_equal_x_absent():
    d = straight_line_drawing([P(0, 0), P(0, 1), P(1, 0)])
    assert classify_monotone(d) is None


def test_twiggly_m4(m4):
    spine = classify_monotone(m4)
    assert twiggly_set(m4, spine, [(0, 3), (1, 3), (2, 3)]) == frozenset({(0, 3)})
    assert twiggly_set(m4, spine, spine.spine_edges) == frozenset()


def test_succ_maximal(m4):
    assert succ_maximal(m4, [(0, 3)]) == (0, 3)
    with pytest.raises(EmptySetError):
        succ_maximal(m4, [])


def test_succ_maximal_is_never_below_another(m4):
    # defining property: nothing among the twigglies runs above the maximum
    spine = classify_monotone(m4)
    twig = twiggly_set(m4, spine, m4.edges)
    best = succ_maximal(m4, twig)
    assert all(succ_above(m4, f, best) is not True for f in twig if f != best)


def test_vertices_above(m4):
    assert vertices_above(m4, (0, 3)) == [1]


# ---------------------------------------------------------------------------
# two-page
# ---------------------------------------------------------------------------

def test_two_page_true(book4):
    assert validate_simple(book4).is_two_page_book
    # consecutive-vertex path is uncrossed
    for e in [(0, 1), (1, 2), (2, 3)]:
        assert not book4.crossings[edge(*e)]


def test_two_page_false_for_m4(m4):
    assert classify_two_page(m4) is False


def test_two_page_false_for_polar(pk3):
    assert classify_two_page(pk3) is False


# ---------------------------------------------------------------------------
# cylindrical
# ---------------------------------------------------------------------------

def test_cyl_roles(cyl4):
    roles = classify_cylindrical(cyl4, F(1), F(4))
    assert roles is not None
    counts = {"inner": 0, "outer": 0, "side": 0}
    for r in roles.roles.values():
        counts[r] += 1
    assert counts == {"inner": 1, "outer": 1, "side": 4}
    assert set(roles.inner_vertices) == {0, 1}
    assert len(roles.crossed_cycle_edges) <= 2


def test_cyl_absent_for_off_circle(sq):
    assert classify_cylindrical(sq, F(1, 4), F(4)) is None


def test_cyl_invalid_radii(cyl4):
    with pytest.raises(InvalidRadiiError):
        classify_cylindrical(cyl4, F(4), F(1))


def test_cyl_report_flag(cyl4):
    report = validate_simple(cyl4)
    assert report.is_cylindrical is not None


# ---------------------------------------------------------------------------
# c-monotone
# ---------------------------------------------------------------------------

def test_pk3_strongly_c_monotone(pk3):
    c, strong, spine = classify_c_monotone(pk3)
    assert c and strong
    assert spine.all_cycle_edges_spine
    assert spine.spine_edges == ((0, 1), (0, 2), (1, 2))


def test_pk4_classification(pk4):
    c, strong, spine = classify_c_monotone(pk4)
    assert c and strong
    assert spine.spine_edges == ((0, 1), (1, 2), (2, 3))
    assert spine.all_cycle_edges_spine is False


def test_spans_cover_circle_helper():
    assert _spans_cover_circle((F(0), F(2, 3)), (F(1, 2), F(7, 6))) is True
    assert _spans_cover_circle((F(0), F(1, 3)), (F(1, 2), F(5, 6))) is False


def test_pk4_crossing_pairs(pk4):
    assert pk4.crossing_pairs() == [((0, 3), (1, 2))]


# ---------------------------------------------------------------------------
# cut to monotone
# ---------------------------------------------------------------------------

def test_cut_pk4(pk4):
    flat = cut_to_monotone(pk4)
    assert flat is not None
    report = validate_simple(flat)
    assert report.is_simple and report.is_monotone
    assert flat.crossings == pk4.crossings
    assert classify_monotone(flat).order == (0, 1, 2, 3)


def test_cut_absent_when_all_spine(pk3):
    assert cut_to_monotone(pk3) is None
