"""The star, double-star and twin-star searches against the loops they
replaced.

``trees._star_centers`` tests only the ends of the tree's lowest edge,
and ``trees._double_star_paths`` and ``trees._twin_star_paths`` only the
hub pairs that hold an end x of that edge and an end of the lowest edge
not at x (any vertex when x is a star centre).  The loops in
``reference_trees`` test every vertex, every edge and every pair of
neighbours.  Both must give the same sorted lists on every plane tree of
the plain classes, on a bipartite drawing and on masks that are not
trees, and ``classify_kind``, which reads all three, must name the same
kind.
"""

import random

import pytest

import treespan.trees
from treespan.drawing import complete_edges
from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.trees import (
    _double_star_paths,
    _star_centers,
    _tree_incidence,
    _twin_star_paths,
    classify_kind,
    enumerate_plane_trees,
    tree_mask,
)

import reference_trees
from reference_trees import double_star_paths, star_centers, twin_star_paths
from conftest import uncrossed

PLAIN_CLASSES = ["convex", "random_points", "monotone_perturbed", "two_page",
                 "strongly_cmonotone"]


def _kind(d, mask):
    """``classify_kind`` of the mask, or the type of what it raises: the
    walk along a k-star path fails on some masks that are not trees."""
    try:
        return classify_kind(d, mask)
    except KeyError as e:
        return type(e)


def _kinds(d, masks, reference):
    """``_kind`` of each mask, with the reference searches in place of the
    library's if ``reference``."""
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(treespan.trees, "_star_centers", reference_trees.star_centers_loop)
            mp.setattr(treespan.trees, "_double_star_paths",
                       reference_trees.double_star_paths_loop)
            mp.setattr(treespan.trees, "_twin_star_paths",
                       reference_trees.twin_star_paths_loop)
        return [_kind(d, mask) for mask in masks]


def _assert_searches_match(d, masks):
    """Returns the masks' kinds."""
    for mask in masks:
        inc = _tree_incidence(d, mask)
        assert inc == reference_trees.incidence_loop(d.edges, mask)
        args = (d.edges, inc, mask)
        assert _star_centers(*args) == reference_trees.star_centers_loop(*args), bin(mask)
        assert (_double_star_paths(*args)
                == reference_trees.double_star_paths_loop(*args)), bin(mask)
        assert (_twin_star_paths(*args)
                == reference_trees.twin_star_paths_loop(*args)), bin(mask)
    kinds = _kinds(d, masks, False)
    assert kinds == _kinds(d, masks, True)
    return kinds


@pytest.mark.parametrize("cls", PLAIN_CLASSES)
def test_every_plane_tree_matches_reference(cls):
    kinds = set()
    for n in range(3, 9):
        d = generate(GenSpec(cls=cls, n=n, seed=1))
        masks = [tree_mask(d, t) for t in enumerate_plane_trees(d)]
        kinds.update(k[0] for k in _assert_searches_match(d, masks))
    assert {"star", "double_star", "twin_star", "k_star"} <= kinds


def test_bipartite_drawing_matches_reference():
    d, _ = fixture_bipartite_isolated()
    masks = [tree_mask(d, t) for t in enumerate_plane_trees(d)]
    assert masks
    _assert_searches_match(d, masks)


def test_random_masks_match_reference():
    """(n - 1)-edge masks: trees, forests with a cycle, isolated vertices."""
    rng = random.Random(27)
    bip, _ = fixture_bipartite_isolated()
    drawings = [bip] + [generate(GenSpec(cls=cls, n=n, seed=2))
                        for cls in PLAIN_CLASSES for n in (4, 6, 8)]
    for d in drawings:
        m = len(d.edges)
        masks = [sum(1 << i for i in rng.sample(range(m), d.n - 1))
                 for _ in range(300)]
        _assert_searches_match(d, masks)


def test_three_vertex_path_is_a_star_and_a_twin_star():
    """Each labelling of the 3-path, the centre at each end of the lowest
    edge and off it."""
    edges = complete_edges(3)  # (0, 1), (0, 2), (1, 2)
    k3 = uncrossed(3, edges)
    for centre in range(3):
        a, b = (v for v in range(3) if v != centre)
        mask = 7 & ~(1 << edges.index((a, b)))
        inc = _tree_incidence(k3, mask)
        assert star_centers(edges, mask) == [centre]
        assert _twin_star_paths(edges, inc, mask) == [(a, centre, b), (b, centre, a)]
        assert twin_star_paths(edges, mask) == reference_trees.twin_star_paths_loop(
            edges, inc, mask)
        assert double_star_paths(edges, mask) == sorted(
            [(centre, a), (a, centre), (centre, b), (b, centre)])
        assert classify_kind(k3, mask) == ("star", centre)


def test_stars_leave_nothing_off_the_centre():
    """Every edge of a star is at its centre: all of them are double-star
    hub edges, and no pair of leaves is a twin-star hub pair once n > 3."""
    for n in range(2, 9):
        edges = complete_edges(n)
        kn = uncrossed(n, edges)
        for c in range(n):
            mask = sum(1 << edges.index(tuple(sorted((c, v))))
                       for v in range(n) if v != c)
            inc = _tree_incidence(kn, mask)
            assert _star_centers(edges, inc, mask) == (
                [0, 1] if n == 2 else [c])
            assert (_double_star_paths(edges, inc, mask)
                    == reference_trees.double_star_paths_loop(edges, inc, mask))
            assert len(_double_star_paths(edges, inc, mask)) == 2 * (n - 1)
            twins = _twin_star_paths(edges, inc, mask)
            assert twins == reference_trees.twin_star_paths_loop(edges, inc, mask)
            assert (twins != []) == (n == 3)


def test_empty_mask_has_no_hubs():
    edges = complete_edges(4)
    assert _star_centers(edges, {}, 0) == []
    assert _double_star_paths(edges, {}, 0) == []
    assert _twin_star_paths(edges, {}, 0) == []
