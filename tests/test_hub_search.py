"""The one star-family search against the loops it replaced.

``trees._special_paths`` tests as star centres only the ends of the
tree's lowest edge, and as hub pairs only those that hold an end x of
that edge and an end of the lowest edge not at x.  The loops in
``reference_trees`` test every vertex, every edge and every pair of
neighbours and list every representation.  The search must give the
least of each list (no double or twin path once there is a centre) on
every plane tree of the plain classes, on a bipartite drawing, on masks
that are not trees, on the 3-vertex paths, on the stars of K_n and on
the empty mask, and ``classify_kind``, which reads it, must name the same
kind with the loops in its place.
"""

import random

import pytest

import treespan.trees
from treespan.drawing import complete_edges
from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.trees import (
    _special_paths,
    _tree_incidence,
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
    """``_kind`` of each mask, with the reference search in place of the
    library's if ``reference``."""
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            mp.setattr(treespan.trees, "_special_paths",
                       reference_trees.special_paths_loop)
        return [_kind(d, mask) for mask in masks]


def _assert_searches_match(d, masks):
    """Returns the masks' kinds."""
    for mask in masks:
        inc = _tree_incidence(d, mask)
        assert inc == reference_trees.incidence_loop(d.edges, mask)
        args = (d.edges, inc, mask)
        assert (_special_paths(*args)
                == reference_trees.special_paths_loop(*args)), bin(mask)
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
    edge and off it: the loops list it as a twin star too, the search
    reports the star only."""
    edges = complete_edges(3)  # (0, 1), (0, 2), (1, 2)
    k3 = uncrossed(3, edges)
    for centre in range(3):
        a, b = (v for v in range(3) if v != centre)
        mask = 7 & ~(1 << edges.index((a, b)))
        inc = _tree_incidence(k3, mask)
        assert star_centers(edges, mask) == [centre]
        assert twin_star_paths(edges, mask) == [(a, centre, b), (b, centre, a)]
        assert double_star_paths(edges, mask) == sorted(
            [(centre, a), (a, centre), (centre, b), (b, centre)])
        assert (_special_paths(edges, inc, mask) == (centre, None, None)
                == reference_trees.special_paths_loop(edges, inc, mask))
        assert classify_kind(k3, mask) == ("star", centre)


def test_stars_leave_nothing_off_the_centre():
    """A star is reported by its centre alone, the least end of the edge
    when n = 2."""
    for n in range(2, 9):
        edges = complete_edges(n)
        kn = uncrossed(n, edges)
        for c in range(n):
            mask = sum(1 << edges.index(tuple(sorted((c, v))))
                       for v in range(n) if v != c)
            inc = _tree_incidence(kn, mask)
            assert (_special_paths(edges, inc, mask)
                    == (0 if n == 2 else c, None, None)
                    == reference_trees.special_paths_loop(edges, inc, mask))


def test_empty_mask_has_no_hubs():
    edges = complete_edges(4)
    assert _special_paths(edges, {}, 0) == (None, None, None)
    assert reference_trees.special_paths_loop(edges, {}, 0) == (None, None, None)
