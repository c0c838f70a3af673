"""Transformation tests: hand-traced sequences plus self-certification."""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest

from treespan.compat import build_compat_graph
import treespan.transforms
import treespan.trees
from treespan.drawing import (
    Drawing,
    classify_c_monotone,
    classify_cylindrical,
    classify_monotone,
    edge,
    validate_simple,
)
from treespan.errors import (
    IncompatibleStepError,
    BadTreeError,
    InternalInvariantViolated,
    MethodInapplicable,
    NoSideEdgeError,
    NotCylindricalError,
    NotMonotoneError,
    NotSpecialTreeError,
    NotStronglyCMonotoneError,
    TreespanError,
    UnknownEdgeError,
)
from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.transforms import (
    _reduce_to_star,
    certify_sequence,
    cmonotone_to_spine,
    monotone_to_spine,
    star_to_star,
    transform_cylindrical,
    transform_special,
)
from treespan.trees import (
    _tree_incidence,
    canon_tree,
    check_mask,
    classify_kind,
    enumerate_plane_trees,
    is_compatible,
    tree_mask,
)

import reference_trees
from reference_drawing import circle_paths
from reference_trees import bfs_distance, double_star_paths
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


def test_certify_checks_each_tree_before_reading_the_next(sq):
    """A cycle ahead of a tree with an edge the drawing lacks is reported
    as the bad tree at position 0, as ``transform_special`` reports it."""
    cycle = [(0, 1), (1, 2), (2, 3), (0, 3)]
    unknown = [(0, 1), (1, 2), (3, 9)]
    for call in (lambda: certify_sequence(sq, [cycle, unknown]),
                 lambda: transform_special(sq, cycle, unknown)):
        with pytest.raises(BadTreeError) as info:
            call()
        assert info.value.index == 0
        assert str(info.value) == ("tree at position 0 is not a plane spanning tree"
                                   " (not acyclic and connected)")
    with pytest.raises(UnknownEdgeError):
        certify_sequence(sq, [unknown, cycle])


def test_certify_incompatible_step(sq):
    with pytest.raises(IncompatibleStepError):
        certify_sequence(sq, [[(0, 1), (0, 2), (0, 3)],
                              [(0, 1), (1, 2), (1, 3)]])


# ---------------------------------------------------------------------------
# monotone
# ---------------------------------------------------------------------------

def test_unmet_preconditions_raise_their_own_errors(sq):
    """A route handed no class structure, or a drawing outside its class,
    is inapplicable; an unknown enumeration filter is a ValueError."""
    star = ((0, 1), (0, 2), (0, 3))
    table = [
        (lambda: transform_cylindrical(sq, None, star, star), NotCylindricalError),
        (lambda: monotone_to_spine(sq, None, star), NotMonotoneError),
        (lambda: cmonotone_to_spine(sq, star), NotStronglyCMonotoneError),
        (lambda: enumerate_plane_trees(sq, kind="x"), ValueError),
    ]
    for call, error in table:
        with pytest.raises(error) as ex:
            call()
        assert type(ex.value) is error
        assert isinstance(ex.value, MethodInapplicable) == (error is not ValueError)


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
    (cycle, crossed, inner), _ = circle_paths(d, roles)
    assert len(cycle) == n and crossed == []
    assert roles.paths_mask == tree_mask(d, inner)
    path = canon_tree(inner)
    for t1 in trees:
        for t2 in trees:
            seq = transform_cylindrical(d, roles, t1, t2)
            assert seq.trees[0] == t1 and seq.trees[-1] == t2 and len(seq) <= 3
            if len(seq) == 3:
                assert seq.trees[1] == path


def test_cylindrical_roles_without_side_edges():
    """``roles`` is an argument, so it may mark no side edge: two
    incompatible trees on both circles then have no side edge to route
    through, and the call raises ``NoSideEdgeError``."""
    d = generate(GenSpec(cls="cylindrical", n=5, seed=0, a=2, b=3))
    roles = validate_simple(d).is_cylindrical
    trees = enumerate_plane_trees(d)
    t1, t2 = next((t1, t2) for t1 in trees for t2 in trees
                  if not is_compatible(d, t1, t2))
    assert transform_cylindrical(d, roles, t1, t2).certified
    with pytest.raises(NoSideEdgeError, match="spanning tree without a side edge"):
        transform_cylindrical(d, dataclasses.replace(roles, sides_mask=0), t1, t2)


def _crossed_cycle_edge_k4(label=(0, 1, 2, 3)) -> Drawing:
    """One inner vertex, 0 at 180 degrees, and outer vertices 2 (about
    127), 1 (180) and 3 (about 233): cycle edge 23 runs through the annulus
    below vertex 1, so side edge 01 crosses it once.  Outer edges 12 and 13
    bend outside the outer circle; the other side edges are segments.
    Vertex v is named ``label[v]``."""
    pts = (P(-1, 0), P(-2, 0), P(F(-6, 5), F(8, 5)), P(F(-6, 5), F(-8, 5)))
    curves = {
        (0, 1): (pts[0], pts[1]),
        (0, 2): (pts[0], pts[2]),
        (0, 3): (pts[0], pts[3]),
        (1, 2): (pts[1], P(F(-5, 2), 1), P(F(-3, 2), F(5, 2)), pts[2]),
        (1, 3): (pts[1], P(F(-5, 2), -1), P(F(-3, 2), F(-5, 2)), pts[3]),
        (2, 3): (pts[2], P(F(-3, 2), F(1, 2)), P(F(-3, 2), F(-1, 2)), pts[3]),
    }
    named = [None] * 4
    for v, p in enumerate(pts):
        named[label[v]] = p
    return Drawing(n=4, backend="cartesian", vertex_points=tuple(named),
                   curves={edge(label[u], label[v]): c for (u, v), c in curves.items()},
                   circles=(F(1), F(4)))


@pytest.mark.parametrize("label, crossed, outer_path", [
    ((0, 1, 2, 3), (2, 3), ((1, 2), (1, 3))),
    ((0, 3, 2, 1), (1, 2), ((2, 3), (1, 3))),  # not the greatest cycle edge
])
def test_cylindrical_crossed_cycle_edge(label, crossed, outer_path):
    """A cycle edge crossed by a side edge is reported, the outer path
    drops it, and every ordered pair of plane trees is certified."""
    d = _crossed_cycle_edge_k4(label)
    roles = validate_simple(d).is_cylindrical
    assert d.crossing_pairs() == [tuple(sorted([edge(0, label[1]), crossed]))]
    assert circle_paths(d, roles)[1][1] == [crossed]
    assert roles.inner_vertices == (0,) and roles.outer_vertices == (1, 2, 3)
    assert roles.paths_mask == tree_mask(d, outer_path)
    trees = enumerate_plane_trees(d)
    assert len(trees) > 1
    for t1 in trees:
        for t2 in trees:
            seq = transform_cylindrical(d, roles, t1, t2)
            assert seq.certified and seq.trees[0] == t1 and seq.trees[-1] == t2
            assert len(seq) <= 5


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
    """The double star with hub path 0-1 moves 0's leaf 3 onto 1, then the
    star at 1 walks to the star at 2."""
    t = canon_tree([(0, 1), (0, 3), (1, 2)])
    seq = transform_special(sq, t, [(0, 2), (1, 2), (2, 3)])
    assert seq.trees == (t, ((0, 1), (1, 2), (1, 3)), ((0, 1), (1, 2), (2, 3)),
                         ((0, 2), (1, 2), (2, 3)))


def test_double_star_accepts_star_at_target(sq):
    star2 = canon_tree([(0, 2), (1, 2), (2, 3)])
    assert transform_special(sq, star2, star2).trees == (star2,)


def test_double_star_target_on_path(sq):
    """A double star whose reduction ends at the target star needs no walk
    between stars."""
    t = canon_tree([(0, 1), (0, 3), (1, 2)])
    seq = transform_special(sq, t, [(0, 1), (1, 2), (1, 3)])
    assert seq.trees == (t, ((0, 1), (1, 2), (1, 3)))


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


def test_transform_special_bounds():
    """A reduction to a star takes at most n - 2 flips and the walk between
    two stars n - 2: at most 2(n - 2) flips from a special tree to a star
    and 3(n - 2) between special trees.  Each sequence is certified and
    runs from the first tree given to the second.  Pairs are sampled with
    a fixed seed where there are more than 300.  For n >= 5 both bounds
    are met."""
    rng = random.Random(0)
    worst = {}
    for cls in ("convex", "random_points", "monotone_perturbed", "two_page",
                "strongly_cmonotone"):
        for n, seed in itertools.product(range(4, 9), range(3)):
            d = generate(GenSpec(cls=cls, n=n, seed=seed))
            special = enumerate_plane_trees(d, kind="special")
            stars = enumerate_plane_trees(d, kind="star")
            to_star = list(itertools.product(special, stars))
            if len(to_star) > 300:
                to_star = rng.sample(to_star, 300)
            pairs = [(rng.choice(special), rng.choice(special)) for _ in range(150)]
            for (t1, t2), bound in ([(p, 2 * (n - 2)) for p in to_star]
                                    + [(p, 3 * (n - 2)) for p in pairs]):
                seq = transform_special(d, t1, t2)
                assert seq.certified and seq.trees[0] == t1 and seq.trees[-1] == t2
                assert seq.flips <= bound, (cls, n, seed, t1, t2)
                worst[n, bound] = max(worst.get((n, bound), 0), seq.flips)
    assert all(flips == bound for (n, bound), flips in worst.items() if n >= 5)


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
    """classify_kind and transform_special read one incidence table per
    tree they classify."""
    built = []

    def counting(d, mask):
        built.append(mask)
        return _tree_incidence(d, mask)

    monkeypatch.setattr(treespan.trees, "_tree_incidence", counting)
    monkeypatch.setattr(treespan.transforms, "_tree_incidence", counting)
    d = polar_k5()
    trees = enumerate_plane_trees(d, kind="special")
    kinds = {}
    for t in trees:
        built.clear()
        kinds[t] = classify_kind(d, tree_mask(d, t))
        assert len(built) == 1
    assert {k[0] for k in kinds.values()} == {"star", "double_star", "twin_star"}
    star = canon_tree([(0, k) for k in range(1, 5)])
    for t in trees:
        built.clear()
        transform_special(d, t, star)
        assert len(built) == len(set(built)) <= 2 or t == star  # one per endpoint


def _reduction(reduce, d, mask):
    """``reduce(d, certificate)``, or the type and message of what it raises."""
    try:
        return reduce(d, check_mask(d, mask))
    except TreespanError as e:
        return type(e), str(e)


def test_reduce_to_star_matches_the_double_star_detour():
    """A twin star collapses along its own hub pair (g, r) to the star at
    r, in the flips its detour through ``_double_star_to_star`` took; stars
    and double stars reduce as before."""
    drawings = [polar_k5(), fixture_bipartite_isolated()[0]] + [
        generate(GenSpec(cls=cls, n=n, seed=seed))
        for cls in ("convex", "random_points", "monotone_perturbed", "two_page",
                    "strongly_cmonotone")
        for n in range(4, 8) for seed in range(3)]
    kinds = set()
    for d in drawings:
        for t in enumerate_plane_trees(d, kind="special"):
            mask = tree_mask(d, t)
            kinds.add(classify_kind(d, mask)[0])
            assert (_reduction(_reduce_to_star, d, mask)
                    == _reduction(reference_trees._reduce_to_star, d, mask)), (d.graph, t)
    assert kinds == {"star", "double_star", "twin_star"}


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
    for call, failed in ((lambda: transform_cylindrical(cyl4, roles, star, star[:2]),
                          "not spanning"),
                         (lambda: transform_special(sq, star, [(0, 2), (1, 3), (2, 3)]),
                          "not plane")):
        with pytest.raises(BadTreeError) as info:
            call()
        assert info.value.index == 1
        assert str(info.value) == f"tree at position 1 is not a plane spanning tree ({failed})"
    with pytest.raises(BadTreeError) as info:
        transform_special(sq, [(0, 2), (1, 3), (2, 3)], star)
    assert info.value.index == 0


@pytest.mark.parametrize("center", [5, 7, -1])
def test_star_center_outside_drawing_is_value_error(center):
    d5 = polar_k5()
    calls = [lambda: star_to_star(d5, 0, center),
             lambda: star_to_star(d5, center, 0)]
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
