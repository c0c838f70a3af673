"""Transformation tests: hand-traced sequences plus self-certification."""

from fractions import Fraction as F

import pytest

from treespan.compat import bfs_distance, build_compat_graph
import treespan.transforms
import treespan.trees
from treespan.drawing import (
    Drawing,
    classify_c_monotone,
    classify_cylindrical,
    classify_monotone,
    validate_simple,
)
from treespan.errors import (
    IncompatibleStepError,
    BadTreeError,
    InternalInvariantViolated,
    NotDoubleStarError,
    NotSpecialTreeError,
    NotTwinStarError,
    UnknownEdgeError,
)
from treespan.transforms import (
    certify_sequence,
    cmonotone_to_spine,
    double_star_to_star,
    monotone_to_spine,
    star_to_star,
    transform_cylindrical,
    transform_special,
    twin_star_to_star,
)
from treespan.trees import (
    _incidence,
    canon_tree,
    classify_kind,
    double_star_paths,
    enumerate_plane_trees,
    tree_mask,
)

from conftest import P, polar_k2, polar_k5
from reference_spine import (
    CENTER,
    INFINITY,
    FullCircleCorridorError,
    corridor_path,
    corridors,
    twiggly_depth,
)


# ---------------------------------------------------------------------------
# certify_sequence
# ---------------------------------------------------------------------------

def test_certify_single(sq):
    seq = certify_sequence(sq, [[(0, 1), (1, 2), (2, 3)]])
    assert seq.certified and len(seq) == 1


def test_certify_bad_tree(sq):
    with pytest.raises(BadTreeError) as info:
        certify_sequence(sq, [[(0, 1), (0, 2), (0, 3)], [(0, 2), (1, 3), (2, 3)]])
    assert info.value.index == 1


def test_certify_incompatible_step(sq):
    with pytest.raises(IncompatibleStepError):
        certify_sequence(sq, [[(0, 1), (0, 2), (0, 3)],
                              [(0, 1), (1, 2), (1, 3)]])


# ---------------------------------------------------------------------------
# monotone
# ---------------------------------------------------------------------------

def test_m4_star_to_spine_trace(m4):
    spine = classify_monotone(m4)
    seq = monotone_to_spine(m4, spine, [(0, 3), (1, 3), (2, 3)])
    assert seq.trees == (
        ((0, 3), (1, 3), (2, 3)),
        ((0, 1), (1, 3), (2, 3)),
        ((0, 1), (1, 2), (2, 3)),
    )


def test_monotone_spine_fixed_point(m4):
    spine = classify_monotone(m4)
    seq = monotone_to_spine(m4, spine, spine.spine_edges)
    assert seq.trees == (canon_tree(spine.spine_edges),)


def test_monotone_no_twiggly_one_step(m4):
    spine = classify_monotone(m4)
    seq = monotone_to_spine(m4, spine, [(0, 1), (1, 3), (2, 3)])
    assert len(seq) == 2 and seq.trees[-1] == canon_tree(spine.spine_edges)


def test_monotone_all_trees_certify(m4, sq):
    for d in (m4, sq):
        spine = classify_monotone(d)
        target = canon_tree(spine.spine_edges)
        for t in enumerate_plane_trees(d):
            seq = monotone_to_spine(d, spine, t)
            assert seq.trees[0] == canon_tree(t)
            assert seq.trees[-1] == target
            assert len(seq) <= d.n + 1


# ---------------------------------------------------------------------------
# corridors
# ---------------------------------------------------------------------------

def test_corridors_empty(pk5):
    out = corridors(pk5, [])
    assert len(out) == 1
    assert out[0].lower == CENTER and out[0].upper == INFINITY
    assert out[0].start_vertex is None


def test_corridors_single_twiggly(pk5):
    out = corridors(pk5, [(1, 4)])
    assert len(out) == 3
    spans = {(c.lower, c.upper): c for c in out}
    inner = spans[(CENTER, (1, 4))]
    outer = spans[((1, 4), INFINITY)]
    around = spans[(CENTER, INFINITY)]
    assert inner.interval == (F(1, 5), F(4, 5))
    assert inner.start_vertex == 1 and inner.end_vertex == 4
    assert outer.interval == (F(1, 5), F(4, 5))
    assert around.interval == (F(4, 5), F(6, 5))
    assert around.start_vertex == 4 and around.end_vertex == 1


def test_corridor_stabbing_counts(pk5):
    # along each sampled ray, k twigglies stabbed means k+1 corridors hit
    twig = [(1, 4)]
    out = corridors(pk5, twig)
    for mid in (F(1, 10), F(3, 10), F(1, 2), F(7, 10), F(9, 10)):
        depth = twiggly_depth(pk5, twig, mid)
        hit = sum(1 for c in out
                  if c.interval[0] < mid < c.interval[1]
                  or c.interval[0] < mid + 1 < c.interval[1])
        assert hit == depth + 1


def test_corridor_paths(pk5):
    t = canon_tree([(0, 1), (1, 4), (1, 3), (2, 4)])
    twig = frozenset({(1, 4)})
    out = {(c.lower, c.upper): c for c in corridors(pk5, twig)}
    inner = corridor_path(pk5, t, out[(CENTER, (1, 4))], twigglies=twig)
    assert inner == [(1, 3), (3, 4)]
    outer = corridor_path(pk5, t, out[((1, 4), INFINITY)], twigglies=twig)
    assert outer == [(1, 2), (2, 4)]
    around = corridor_path(pk5, t, out[(CENTER, INFINITY)], twigglies=twig)
    assert around == [(0, 4), (0, 1)]


def test_corridor_check_always_runs(pk5):
    """A path in an inner corridor may not use a twiggly edge: (1, 3) is on
    the inner path, so naming it twiggly must fail the certification."""
    t = canon_tree([(0, 1), (1, 4), (1, 3), (2, 4)])
    out = {(c.lower, c.upper): c for c in corridors(pk5, [(1, 4)])}
    inner = out[(CENTER, (1, 4))]
    assert corridor_path(pk5, t, inner, twigglies=[(1, 4)]) == [(1, 3), (3, 4)]
    with pytest.raises(InternalInvariantViolated, match="twiggly"):
        corridor_path(pk5, t, inner, twigglies=[(1, 4), (1, 3)])


def test_corridor_full_circle_error(pk5):
    (full,) = corridors(pk5, [])
    with pytest.raises(FullCircleCorridorError):
        corridor_path(pk5, [(0, 1)], full, twigglies=[])


# ---------------------------------------------------------------------------
# strongly c-monotone
# ---------------------------------------------------------------------------

def test_cmonotone_no_twiggly(pk5):
    t = canon_tree([(0, 1), (1, 2), (2, 3), (3, 4)])
    seq = cmonotone_to_spine(pk5, t)
    assert len(seq) <= 2 and seq.method == "cmonotone"


def test_cmonotone_one_twiggly_three_trees(pk5):
    t = canon_tree([(0, 1), (1, 4), (1, 3), (2, 4)])
    seq = cmonotone_to_spine(pk5, t)
    assert len(seq.trees) == 3
    # depth profile 1 -> 0 on the ray through the twiggly span
    assert twiggly_depth(pk5, [(1, 4)], F(1, 2)) == 1
    spine = classify_c_monotone(pk5)[2]
    final = set(seq.trees[-1])
    assert final < set(spine.spine_edges) or final == set(spine.spine_edges)


def test_cmonotone_cut_branch(pk4):
    t = canon_tree([(0, 1), (0, 2), (0, 3)])
    seq = cmonotone_to_spine(pk4, t)
    assert seq.trees[0] == t
    assert seq.trees == (
        ((0, 1), (0, 2), (0, 3)),
        ((0, 1), (0, 2), (1, 3)),
        ((0, 1), (1, 2), (2, 3)),
    )


def test_cmonotone_k2_one_spine_edge():
    """The two-vertex cycle is one edge, listed once, as for monotone K_2."""
    d = polar_k2()
    _, strongly, spine = classify_c_monotone(d)
    assert strongly and spine.spine_edges == ((0, 1),)
    assert spine.all_cycle_edges_spine is True
    seq = cmonotone_to_spine(d, [(0, 1)])
    assert seq.trees == (((0, 1),),) and seq.method == "cmonotone"
    flat = Drawing(n=2, backend="cartesian", vertex_points=(P(0, 0), P(1, 0)),
                   curves={(0, 1): (P(0, 0), P(1, 0))})
    assert monotone_to_spine(flat, classify_monotone(flat), [(0, 1)]).trees == seq.trees


def test_cmonotone_every_tree(pk5):
    for t in enumerate_plane_trees(pk5):
        seq = cmonotone_to_spine(pk5, t)
        assert seq.certified and len(seq) <= pk5.n + 1


# ---------------------------------------------------------------------------
# cylindrical
# ---------------------------------------------------------------------------

def test_cylindrical_identity_and_shortcut(cyl4):
    roles = classify_cylindrical(cyl4, F(1), F(4))
    t1 = canon_tree([(0, 1), (0, 2), (0, 3)])
    assert transform_cylindrical(cyl4, roles, t1, t1).trees == (t1,)
    t2 = canon_tree([(0, 2), (1, 2), (2, 3)])
    seq = transform_cylindrical(cyl4, roles, t1, t2)
    assert len(seq) <= 5 and seq.trees[0] == t1 and seq.trees[-1] == t2


def test_cylindrical_all_pairs(cyl4):
    roles = classify_cylindrical(cyl4, F(1), F(4))
    trees = enumerate_plane_trees(cyl4)
    for t1 in trees:
        for t2 in trees:
            seq = transform_cylindrical(cyl4, roles, t1, t2)
            assert len(seq) <= 5


@pytest.mark.parametrize("n, step", [(4, 1), (5, 1), (6, 5)])
def test_cylindrical_one_circle(n, step):
    """Vertices all on the inner circle: the route is t1, the circle's
    uncrossed path, t2 (every fifth tree paired for n = 6)."""
    pts = []
    for t in [F(-3), F(-1), F(-1, 3), F(1, 3), F(1), F(3)][:n]:
        pts.append(P((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)))
    d = Drawing(n=n, backend="cartesian", vertex_points=tuple(pts),
                curves={(u, v): (pts[u], pts[v])
                        for u in range(n) for v in range(u + 1, n)},
                circles=(F(1), F(4)))
    roles = validate_simple(d).is_cylindrical
    assert roles.inner_vertices == tuple(range(n)) and roles.outer_vertices == ()
    trees = enumerate_plane_trees(d)[::step]
    path = canon_tree(roles.inner_path)
    for t1 in trees:
        for t2 in trees:
            seq = transform_cylindrical(d, roles, t1, t2)
            assert seq.trees[0] == t1 and seq.trees[-1] == t2 and len(seq) <= 3
            if len(seq) == 3:
                assert seq.trees[1] == path


# ---------------------------------------------------------------------------
# star family
# ---------------------------------------------------------------------------

def test_star_to_star_square_trace(sq):
    seq = star_to_star(sq, 0, 1)
    assert seq.trees == (
        ((0, 1), (0, 2), (0, 3)),
        ((0, 1), (0, 3), (1, 2)),
        ((0, 1), (1, 2), (1, 3)),
    )
    assert seq.flips == 2


def test_star_to_star_opposite(sq):
    seq = star_to_star(sq, 0, 2)
    assert seq.flips == 2
    assert seq.trees[-1] == canon_tree([(0, 2), (1, 2), (2, 3)])


def test_star_intermediates_keep_fixed_path(sq):
    seq = star_to_star(sq, 0, 1)
    for t in seq.trees[1:-1]:
        assert (0, 1) in double_star_paths(t) or (1, 0) in double_star_paths(t)


def test_star_to_star_k3(pk3):
    seq = star_to_star(pk3, 0, 2)
    assert seq.flips == 1


def test_double_star_square(sq):
    t = canon_tree([(0, 1), (0, 3), (1, 2)])
    seq = double_star_to_star(sq, t, 2)
    assert seq.trees[0] == t
    assert seq.trees[-1] == canon_tree([(0, 2), (1, 2), (2, 3)])
    assert seq.flips <= 2 * (sq.n - 2)


def test_double_star_accepts_star_at_target(sq):
    star2 = canon_tree([(0, 2), (1, 2), (2, 3)])
    seq = double_star_to_star(sq, star2, 2)
    assert seq.trees == (star2,)


def test_double_star_target_on_path(sq):
    t = canon_tree([(0, 1), (0, 3), (1, 2)])
    seq = double_star_to_star(sq, t, 1)
    assert seq.flips <= sq.n - 2
    assert seq.trees[-1] == canon_tree([(0, 1), (1, 2), (1, 3)])


def test_double_star_rejects_generic():
    d5 = polar_k5()
    spider = [(0, 1), (1, 2), (2, 3), (3, 4)]
    with pytest.raises(NotDoubleStarError):
        double_star_to_star(d5, spider, 0)


def test_twin_star_square(sq):
    t = canon_tree([(0, 3), (0, 1), (1, 2)])
    seq = twin_star_to_star(sq, t, 2)
    assert seq.trees[0] == t
    assert seq.trees[-1] == canon_tree([(0, 2), (1, 2), (2, 3)])
    assert seq.flips <= 2 * (sq.n - 2) + 1


def test_twin_star_rejects_plain_star(sq):
    with pytest.raises(NotTwinStarError):
        twin_star_to_star(sq, [(0, 1), (0, 2), (0, 3)], 2)


def test_transform_special_two_stars(sq):
    seq = transform_special(sq, [(0, 1), (0, 2), (0, 3)],
                            [(0, 1), (1, 2), (1, 3)])
    assert seq.trees == star_to_star(sq, 0, 1).trees


def test_transform_special_twin_to_star(sq):
    seq = transform_special(sq, [(0, 3), (0, 1), (1, 2)],
                            [(0, 2), (1, 2), (2, 3)])
    assert seq.flips <= 2 * (sq.n - 2) + 1


def test_transform_special_distance_vs_bfs(sq):
    g = build_compat_graph(sq, restricted=True)
    trees = g.nodes
    for t1 in trees:
        for t2 in trees:
            seq = transform_special(sq, t1, t2)
            assert seq.flips >= bfs_distance(g, t1, t2)
            assert seq.flips <= 5 * sq.n


def test_transform_special_accepts_five_path():
    d5 = polar_k5()
    path = [(0, 1), (1, 2), (2, 3), (3, 4)]  # admits a twin-star path
    seq = transform_special(d5, path, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert seq.certified


def test_transform_special_rejects_generic():
    from conftest import P, straight_line_drawing

    d6 = straight_line_drawing([P(i, i * i) for i in range(6)])
    spider = [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)]  # no 2-vertex cover
    with pytest.raises(NotSpecialTreeError):
        transform_special(d6, spider, [(0, k) for k in range(1, 6)])


def test_star_family_builds_one_incidence_table_per_tree(monkeypatch):
    """classify_kind and each star-family transformation read one incidence
    table per tree they meet."""
    built = []

    def counting(edges, mask):
        built.append(mask)
        return _incidence(edges, mask)

    monkeypatch.setattr(treespan.trees, "_incidence", counting)
    monkeypatch.setattr(treespan.transforms, "_incidence", counting)
    d = polar_k5()
    trees = enumerate_plane_trees(d, kind="special")
    kinds = {}
    for t in trees:
        built.clear()
        kinds[t] = classify_kind(d.n, d.edges, tree_mask(d, t))
        assert len(built) == 1
    assert {k[0] for k in kinds.values()} == {"star", "double_star", "twin_star"}
    for t, kind in kinds.items():
        built.clear()
        if kind[0] == "twin_star":
            twin_star_to_star(d, t, 0)
            assert len(built) == 2 and built[0] == tree_mask(d, t)  # then t + gr - rs
        else:
            double_star_to_star(d, t, 0)
            assert built == [tree_mask(d, t)]
    star = canon_tree([(0, k) for k in range(1, 5)])
    for t in trees:
        built.clear()
        transform_special(d, t, star)
        assert len(built) == len(set(built)) <= 3 or t == star


def test_transform_special_identical_trees():
    """Identical endpoints give a one-tree sequence only when the tree is
    special; a generic tree is rejected even when paired with itself."""
    from conftest import P, straight_line_drawing

    d6 = straight_line_drawing([P(i, i * i) for i in range(6)])
    spider = [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5)]
    with pytest.raises(NotSpecialTreeError):
        transform_special(d6, spider, spider)
    star = [(0, k) for k in range(1, 6)]
    assert len(transform_special(d6, star, star)) == 1


# ---------------------------------------------------------------------------
# input errors
# ---------------------------------------------------------------------------

def test_bad_second_endpoint_reports_position_one(cyl4, sq):
    roles = classify_cylindrical(cyl4, F(1), F(4))
    star = [(0, 1), (0, 2), (0, 3)]
    for call in (lambda: transform_cylindrical(cyl4, roles, star, star[:2]),
                 lambda: transform_special(sq, star, [(0, 2), (1, 3), (2, 3)])):
        with pytest.raises(BadTreeError) as info:
            call()
        assert info.value.index == 1
        assert str(info.value) == "tree at position 1 is not a plane spanning tree"
    with pytest.raises(BadTreeError) as info:
        transform_special(sq, [(0, 2), (1, 3), (2, 3)], star)
    assert info.value.index == 0


@pytest.mark.parametrize("center", [5, 7, -1])
def test_star_center_outside_drawing_is_value_error(center):
    d5 = polar_k5()
    star = [(0, v) for v in range(1, 5)]
    double = [(0, 1), (0, 2), (0, 3), (3, 4)]
    twin = [(0, 1), (1, 2), (2, 3), (3, 4)]
    calls = [lambda: star_to_star(d5, 0, center),
             lambda: star_to_star(d5, center, 0),
             lambda: double_star_to_star(d5, star, center),
             lambda: double_star_to_star(d5, double, center),
             lambda: twin_star_to_star(d5, twin, center)]
    for call in calls:
        with pytest.raises(ValueError, match="must be vertices"):
            call()


def test_star_flip_on_bipartite_names_the_missing_edge():
    # K_{1,3}: vertex 0 against 1, 2, 3; the star at 1 would need edge (1, 2)
    pts = (P(0, 0), P(1, 1), P(2, 0), P(1, -1))
    d = Drawing(n=4, backend="cartesian", vertex_points=pts,
                curves={(0, v): (pts[0], pts[v]) for v in (1, 2, 3)},
                graph=("bipartite", 1, 3))
    with pytest.raises(UnknownEdgeError, match=r"\(1, 2\)"):
        star_to_star(d, 0, 1)
