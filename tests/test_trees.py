"""Tree certification, enumeration and flip tests.

The enumeration oracle decodes every Pruefer sequence (all n^(n-2) labelled
spanning trees) and post-filters by planarity, independently of the
incremental-growth implementation.
"""

import itertools

import pytest

import treespan.trees
from treespan.errors import (
    BadTreeError,
    IncompatibleStepError,
    TooLargeError,
    UnknownEdgeError,
)
from treespan.generators import GenSpec, generate
from treespan.trees import (
    KINDS,
    canon_tree,
    classify_kind,
    compatible_step_to_flips,
    enumerate_plane_trees,
    is_compatible,
)

from conftest import P, crossings, straight_line_drawing, uncrossed
from reference_trees import check_tree, double_star_paths, star_centers, twin_star_paths


def pruefer_decode(n, seq):
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    for v in seq:
        leaf = min(u for u in range(n) if degree[u] == 1)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(n) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return canon_tree(edges)


def all_spanning_trees(n):
    if n == 2:
        return [canon_tree([(0, 1)])]
    return sorted(pruefer_decode(n, seq)
                  for seq in itertools.product(range(n), repeat=n - 2))


def oracle_plane_trees(d):
    cross = crossings(d)
    out = []
    for t in all_spanning_trees(d.n):
        if not any(f in cross[e] for e, f in itertools.combinations(t, 2)):
            out.append(t)
    return sorted(out)


# ---------------------------------------------------------------------------
# check_tree
# ---------------------------------------------------------------------------

def test_path_on_square_is_twin_star(sq):
    cert = check_tree(sq, [(0, 1), (1, 2), (2, 3)])
    assert cert.is_plane_spanning_tree
    assert classify_kind(sq, cert.mask) == ("twin_star", 0, 1, 2)


def test_crossing_diagonals_not_plane(sq):
    cert = check_tree(sq, [(0, 2), (1, 3), (0, 1)])
    assert cert.spanning and not cert.plane


def test_star_kind(sq):
    cert = check_tree(sq, [(0, 1), (0, 2), (0, 3)])
    assert classify_kind(sq, cert.mask) == ("star", 0)


def test_unknown_edge(sq):
    with pytest.raises(UnknownEdgeError):
        check_tree(sq, [(0, 7)])


def test_non_spanning(sq):
    cert = check_tree(sq, [(0, 1), (1, 2)])
    assert not cert.spanning and cert.acyclic_connected
    assert not cert.is_plane_spanning_tree


def _kind_of_tree(n, tree):
    """``classify_kind`` of every edge of the relation of ``tree``."""
    return classify_kind(uncrossed(n, tree), (1 << len(tree)) - 1)


def test_kind_larger_cases():
    path5 = canon_tree([(0, 1), (1, 2), (2, 3), (3, 4)])
    assert _kind_of_tree(5, path5) == ("twin_star", 1, 2, 3)
    path6 = canon_tree([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    assert _kind_of_tree(6, path6) == ("generic",)
    spider = canon_tree([(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert _kind_of_tree(7, spider) == ("generic",)
    double = canon_tree([(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    assert _kind_of_tree(6, double) == ("double_star", 0, 1)


def test_representation_helpers():
    path4 = canon_tree([(0, 3), (0, 1), (1, 2)])
    assert (0, 1) in double_star_paths(path4)
    assert (1, 0, 3) in twin_star_paths(path4)
    star = canon_tree([(0, 1), (0, 2), (0, 3)])
    assert star_centers(star) == [0]
    assert twin_star_paths(star) == []


# ---------------------------------------------------------------------------
# is_compatible
# ---------------------------------------------------------------------------

def test_compatible_reflexive(sq):
    t = canon_tree([(0, 1), (1, 2), (2, 3)])
    assert is_compatible(sq, t, t)


def test_compatible_pair(sq):
    assert is_compatible(sq, [(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 3), (1, 2)])


def test_incompatible_star(sq):
    assert not is_compatible(sq, [(0, 1), (0, 2), (0, 3)],
                             [(1, 3), (0, 1), (1, 2)])


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_k3_three_trees(pk3):
    assert len(enumerate_plane_trees(pk3)) == 3


def test_square_counts(sq):
    trees = enumerate_plane_trees(sq)
    assert len(trees) == 12
    assert trees == oracle_plane_trees(sq)
    assert len(enumerate_plane_trees(sq, kind="star")) == 4


def test_matches_oracle_konvex5_and_m4(m4):
    d5 = straight_line_drawing([P(i, i * i) for i in range(5)])
    assert enumerate_plane_trees(d5) == oracle_plane_trees(d5)
    assert enumerate_plane_trees(m4) == oracle_plane_trees(m4)


def test_every_enumerated_tree_certifies(sq):
    for t in enumerate_plane_trees(sq):
        assert check_tree(sq, t).is_plane_spanning_tree


def test_certification_classifies_no_kind(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return classify_kind(*args)

    monkeypatch.setattr(treespan.trees, "classify_kind", counting)
    d5 = straight_line_drawing([P(i, i * i) for i in range(5)])
    trees = enumerate_plane_trees(d5)
    certs = [check_tree(d5, t) for t in trees]
    assert calls == [] and all(c.is_plane_spanning_tree for c in certs)


def test_kind_filters_certify_nothing():
    """The single-kind filters label the plane trees they list without a
    certificate, so listing every kind leaves the relation's cache empty."""
    for n in range(4, 8):
        d = generate(GenSpec(cls="convex", n=n, seed=0))
        for kind in KINDS:
            enumerate_plane_trees(d, kind)
        assert d._cert_cache == {}


def test_too_large():
    d = straight_line_drawing([P(i, i * i) for i in range(5)])
    with pytest.raises(TooLargeError):
        enumerate_plane_trees(d, limit=4)


# ---------------------------------------------------------------------------
# flips
# ---------------------------------------------------------------------------

def test_flips_identity(sq):
    t = canon_tree([(0, 1), (1, 2), (2, 3)])
    assert compatible_step_to_flips(sq, t, t) == []


def test_flips_single(sq):
    flips = compatible_step_to_flips(
        sq, [(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 3), (1, 2)])
    assert flips == [((2, 3), (0, 3))]


def test_flips_incompatible(sq):
    with pytest.raises(IncompatibleStepError) as info:
        compatible_step_to_flips(sq, [(0, 1), (0, 2), (0, 3)],
                                 [(1, 3), (0, 1), (1, 2)])
    assert info.value.index == 0


@pytest.mark.parametrize("bad", [
    [(0, 1), (1, 2), (2, 3), (0, 3)],  # the 4-cycle, not a tree
    [(0, 1), (1, 2)],                  # misses vertex 3
    [(0, 1), (0, 2), (0, 3), (1, 2)],  # four edges with a triangle
], ids=["cycle", "not-spanning", "triangle"])
def test_flips_reject_non_trees(sq, bad):
    """Both inputs are checked as plane spanning trees before the
    compatibility test; a bad one is named by its position."""
    star = [(0, 1), (0, 2), (0, 3)]
    with pytest.raises(BadTreeError) as info:
        compatible_step_to_flips(sq, bad, star)
    assert info.value.index == 0
    with pytest.raises(BadTreeError) as info:
        compatible_step_to_flips(sq, star, bad)
    assert info.value.index == 1


def test_flip_intermediates_stay_plane_spanning(sq):
    trees = enumerate_plane_trees(sq)
    pairs = [(a, b) for a in trees for b in trees
             if a < b and is_compatible(sq, a, b)]
    for t1, t2 in pairs:
        current = list(t1)
        for out, new in compatible_step_to_flips(sq, t1, t2):
            current.remove(out)
            current.append(new)
            assert check_tree(sq, current).is_plane_spanning_tree
        assert canon_tree(current) == t2
