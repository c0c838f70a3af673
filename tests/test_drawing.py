"""Drawing validation and classification tests."""

import dataclasses
from fractions import Fraction as F
from itertools import combinations

import pytest

from treespan import drawing, generators
from treespan.cli import main
from treespan.drawing import (
    Drawing,
    _spans_cover_circle,
    classify_c_monotone,
    classify_cylindrical,
    classify_monotone,
    classify_two_page,
    edge,
    validate_simple,
)
from treespan.errors import InternalInvariantViolated, InvalidRadiiError, NotSimpleError
from treespan.fileio import save_drawing
from treespan.generators import GenSpec, generate
from treespan.geometry import Proper, segment_proper_crossing
from treespan.trees import enumerate_plane_trees, tree_mask

from conftest import PP, P, crossings, cyl_k4, straight_line_drawing
from reference_drawing import circle_paths
from reference_spine import (
    EmptySetError,
    cut_to_monotone,
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


def test_one_vertex_rejected():
    one = Drawing(n=1, backend="cartesian", vertex_points=(P(0, 0),), curves={})
    with pytest.raises(NotSimpleError, match="need at least 2 vertices"):
        validate_simple(one)


def test_report_idempotent(m4):
    first = validate_simple(m4)
    again = validate_simple(straight_line_drawing(m4.vertex_points))
    assert first == again


def test_crossing_matrix_symmetric_no_adjacent(sq):
    cross = crossings(sq)
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
        built = build(n, rng)
        attempts[-1] = built[0]
        return built

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
        assert not crossings(book4)[edge(*e)]


def test_two_page_false_for_m4(m4):
    assert classify_two_page(m4) is False


def test_two_page_false_for_an_edge_on_the_vertex_line():
    """K_3 on one line: the tent (0, 2) leaves the line, but the straight
    edges (0, 1) and (1, 2) lie on it, so the drawing is simple and not a
    two-page book."""
    pts = (P(0, 0), P(1, 0), P(2, 0))
    d = Drawing(n=3, backend="cartesian", vertex_points=pts,
                curves={(0, 2): (pts[0], P(1, 1), pts[2]),
                        (0, 1): (pts[0], pts[1]), (1, 2): (pts[1], pts[2])})
    assert d.crossing_pairs() == []
    assert classify_two_page(d) is False
    assert validate_simple(d).is_two_page_book is False


def test_two_page_false_for_polar(pk3):
    assert classify_two_page(pk3) is False


# ---------------------------------------------------------------------------
# cylindrical
# ---------------------------------------------------------------------------

def test_cyl_roles(cyl4):
    roles = classify_cylindrical(cyl4, F(1), F(4))
    assert roles is not None
    k = len(roles.inner_vertices)  # inner edges, outer edges, side edges:
    assert (k * (k - 1) // 2, (4 - k) * (3 - k) // 2,
            roles.sides_mask.bit_count()) == (1, 1, 4)
    assert set(roles.inner_vertices) == {0, 1}
    (_, inner_crossed, inner), (_, outer_crossed, outer) = circle_paths(cyl4, roles)
    assert len(inner_crossed) <= 1 and len(outer_crossed) <= 1
    assert roles.paths_mask == tree_mask(cyl4, inner + outer)
    assert roles.paths_mask.bit_count() == 2  # one edge on each two-vertex circle


def test_cyl_absent_for_off_circle(sq):
    assert classify_cylindrical(sq, F(1, 4), F(4)) is None


def test_cyl_invalid_radii(cyl4):
    with pytest.raises(InvalidRadiiError):
        classify_cylindrical(cyl4, F(4), F(1))


def test_cyl_radii_must_be_positive(cyl4):
    for r_in2 in (F(0), F(-1)):
        with pytest.raises(InvalidRadiiError, match="radii must be positive"):
            classify_cylindrical(cyl4, r_in2, F(4))


def test_cyl_absent_when_an_edge_crosses_a_circle():
    """Every vertex lies on a circle, but the straight edge (0, 2) runs
    through the origin, across the inner circle."""
    pts = [P(2, 0), P(0, 1), P(-2, 0), P(0, -1)]
    d = dataclasses.replace(straight_line_drawing(pts), circles=(F(1), F(4)))
    assert d.crossing_pairs() == [((0, 2), (1, 3))]
    assert classify_cylindrical(d, F(1), F(4)) is None
    assert validate_simple(d).is_cylindrical is None


def _cyl_with_crossings(pairs):
    """A generated cylindrical drawing on circles of three (inner vertices
    0, 1, 2) whose crossing rows also hold the given edge pairs."""
    d = dataclasses.replace(generate(GenSpec(cls="cylindrical", n=6, seed=0, a=3, b=3)))
    ids, rows = {e: i for i, e in enumerate(d.edges)}, list(d.cross_mask)
    for e, f in pairs:
        rows[ids[e]] |= 1 << ids[f]
        rows[ids[f]] |= 1 << ids[e]
    vars(d)["cross_mask"] = tuple(rows)
    return d


@pytest.mark.parametrize("pairs, message", [
    ([((0, 1), (3, 4))], "cycle edge (0, 1) crossed by a non-side edge"),
    ([((0, 1), (2, 3)), ((1, 2), (0, 4))], "more than one crossed cycle edge on a circle"),
    # both faults: the inner circle has three crossed cycle edges, and (1, 2)
    # and (3, 4), the first crossed cycle edge met by a non-side one, cross
    ([((0, 1), (2, 3)), ((0, 2), (1, 4)), ((1, 2), (3, 4))],
     "cycle edge (1, 2) crossed by a non-side edge"),
], ids=["non-side", "two-on-a-circle", "non-side-first"])
def test_cyl_rejects_crossed_cycle_edges(pairs, message):
    assert classify_cylindrical(_cyl_with_crossings([]), F(1), F(4)) is not None
    with pytest.raises(InternalInvariantViolated) as ex:
        classify_cylindrical(_cyl_with_crossings(pairs), F(1), F(4))
    assert str(ex.value) == message


def test_cyl_path_drops_the_crossed_cycle_edge():
    """A circle's one cycle edge crossed by a side edge is the edge its
    Hamiltonian path leaves out; uncrossed, the path leaves out the
    highest cycle edge."""
    d = _cyl_with_crossings([])
    plain = classify_cylindrical(d, F(1), F(4))
    (_, crossed, _), (_, outer_crossed, outer) = circle_paths(d, plain)
    assert crossed == outer_crossed == []
    assert plain.paths_mask == tree_mask(d, [(0, 2), (0, 1)] + outer)
    crossed_d = _cyl_with_crossings([((0, 1), (2, 3))])
    roles = classify_cylindrical(crossed_d, F(1), F(4))
    assert circle_paths(crossed_d, roles)[0][1] == [(0, 1)]
    assert roles.paths_mask == tree_mask(crossed_d, [(0, 2), (1, 2)] + outer)


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


def test_polar_vertices_off_one_circle_are_not_c_monotone(tmp_path):
    """A valid polar K3 with radii 2, 3, 2: its vertices lie on no one
    circle, so it is not c-monotone and the cmonotone method is
    inapplicable (exit 2)."""
    pts = (PP(0, 2), PP(F(1, 3), 3), PP(F(2, 3), 2))
    d = Drawing(n=3, backend="polar", vertex_points=pts,
                curves={edge(0, 1): (pts[0], pts[1]), edge(1, 2): (pts[1], pts[2]),
                        edge(0, 2): (pts[2], PP(1, 2))})
    report = validate_simple(d)
    assert report.is_simple
    assert classify_c_monotone(d) == (False, False, None)
    assert report.is_c_monotone is False
    path = str(tmp_path / "k3.json")
    save_drawing(d, path)
    assert main(["transform", path, "--from", "0-1,1-2", "--to", "0-2,1-2",
                 "--method", "cmonotone"]) == 2


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
    assert crossings(flat) == crossings(pk4)
    assert classify_monotone(flat).order == (0, 1, 2, 3)


def test_cut_absent_when_all_spine(pk3):
    assert cut_to_monotone(pk3) is None
