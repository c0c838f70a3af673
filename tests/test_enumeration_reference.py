"""The plane-tree enumerators against the ones they replaced.

``reference_enumeration`` keeps the per-vertex-label growth, the cut-label
search without branch cuts or loop-run last levels, and one expansion per
star-family core.  ``_plane_masks(d, "all")`` and ``_star_family`` must
return their lists exactly: the same trees, in the same order, with the
same conflict masks, and twin classes numbered in order of first
appearance.  The drawings are generated ones, hand-built ones with missing
edges, and synthetic crossing relations that no drawing realises.  On the
synthetic relations, each listing must also be exactly the spanning trees
that certification accepts; on three or fewer vertices, every relation is
tried.

On 2 <= n <= 5 every plane tree is a star, a double star or a twin star, so
``_plane_masks(d, "special")`` takes the 'all' search there; ``_star_family``,
which it replaces on those sizes, stays its oracle.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_enumeration as reference
from treespan.drawing import Relation, bits, complete_edges
from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.rng import SplitMix64
from treespan.trees import (
    ENUM_LIMIT_SPECIAL,
    KINDS,
    _plane_masks,
    _star_family,
    check_mask,
    classify_kind,
    enumerate_plane_trees,
    mask_trees,
)
from treespan.transforms import certify_sequence

from conftest import polar_k2
from test_fileio_cli import _straight_line_k22

CLASSES = ("convex", "random_points", "monotone_perturbed", "two_page",
           "strongly_cmonotone")
SPECS = [GenSpec(cls=cls, n=n, seed=seed)
         for cls in CLASSES for n in range(3, 9) for seed in range(4)]
# seeds that generate in well under a second
SPECS += [GenSpec(cls="cylindrical", n=a + b, seed=seed, a=a, b=b)
          for (a, b), seed in (((2, 2), 3), ((2, 3), 0), ((3, 3), 3), ((2, 4), 2))]


def _drawings():
    out = [(f"{s.cls}-{s.n}-{s.seed}" + (f"-{s.a}x{s.b}" if s.a else ""),
            lambda s=s: generate(s)) for s in SPECS]
    return out + [("bipartite-fixture", lambda: fixture_bipartite_isolated()[0]),
                  ("straight-line-k22", _straight_line_k22),
                  ("polar-k2", polar_k2)]


DRAWINGS = _drawings()


def as_pairs(listing):
    """(mask, conflict mask) of each tree of a ``_plane_masks`` listing,
    after checking that its classes are numbered in order of first
    appearance and that no two hold one conflict mask."""
    masks, class_of, conflicts = listing
    number = {}  # conflict mask -> class, in order of first appearance
    assert [number.setdefault(conflicts[a], len(number)) for a in class_of] == class_of
    assert list(number) == conflicts and len(masks) == len(class_of)
    return [(mask, conflicts[a]) for mask, a in zip(masks, class_of)]


def assert_matches_reference(d, limit=None):
    got = as_pairs(_plane_masks(d, "all", limit=limit))
    assert got == reference.plane_masks(d)
    assert got == reference.cut_label_masks(d)
    assert as_pairs(_star_family(d)) == reference.star_family(d)
    return got


@pytest.mark.parametrize("make", [m for _, m in DRAWINGS],
                         ids=[name for name, _ in DRAWINGS])
def test_enumerators_match_reference(make):
    assert_matches_reference(make())


def test_enumerators_match_reference_past_the_limit():
    """177 843 trees, about a second for each side."""
    d = generate(GenSpec(cls="monotone_perturbed", n=9, seed=1))
    assert len(assert_matches_reference(d, limit=9)) == 177843


# star families only: the full enumeration is past its limit here
LARGE = [GenSpec(cls=cls, n=n, seed=seed) for cls in CLASSES
         for n in range(9, ENUM_LIMIT_SPECIAL + 1) for seed in range(2)]


@pytest.mark.parametrize("spec", LARGE, ids=[f"{s.cls}-{s.n}-{s.seed}" for s in LARGE])
def test_star_family_matches_reference_to_the_limit(spec):
    d = generate(spec)
    assert as_pairs(_star_family(d)) == reference.star_family(d)


def _relation(n, edges, pairs):
    """The relation of the given edges, crossing in the given pairs of edge
    ids (an id paired with itself marks an edge as crossing itself)."""
    rows = [0] * len(edges)
    for i, j in pairs:
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return Relation(n, edges, rows)


@st.composite
def crossing_relations(draw, lo=1, hi=7):
    """Any symmetric relation on a random subset of K_n's edges, lo <= n <=
    hi, so that disconnected graphs and graphs with fewer than n - 2 edges
    occur."""
    n = draw(st.integers(lo, hi))
    keep = draw(st.sampled_from([1.0, 0.8, 0.5, 0.2]))
    cross = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [e for e in complete_edges(n) if rnd.random() < keep]
    pairs = [(i, j) for i, j in itertools.combinations_with_replacement(
        range(len(edges)), 2) if rnd.random() < cross]
    return _relation(n, edges, pairs)


@settings(max_examples=200, deadline=None)
@given(crossing_relations())
@example(_relation(0, [], []))
@example(_relation(1, [], []))
@example(_relation(2, [(0, 1)], []))
@example(_relation(4, [], []))                                # edgeless
@example(_relation(4, complete_edges(4), [(1, 4)]))           # K_4, one crossing
@example(_relation(5, complete_edges(5), [(i, i) for i in range(10)]))  # all self-crossing
# K_4's edge ids: 01 0, 02 1, 03 2, 12 3, 13 4, 23 5
@example(_relation(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], []))  # gr = 01 missing
@example(_relation(4, complete_edges(4), [(1, 3)]))           # 02 crosses 12 at 2
@example(_relation(4, complete_edges(4), [(0, 0), (3, 3), (2, 3)]))  # 01, 12 self-crossing; 03 x 12
@example(_relation(4, [(0, 1), (0, 2), (0, 3), (1, 2)], []))  # 3 joined to 0 alone
# branches cut at the root: K_5 without 04 and 14 has ids 01 0, 02 1,
# 03 2, 12 3, 13 4, 23 5, 24 6, 34 7, and 4's two edges cross the first
# chosen edge 01; in the second, 0's one edge lies below every other
@example(_relation(5, [e for e in complete_edges(5) if e not in ((0, 4), (1, 4))],
                   [(0, 6), (0, 7)]))
@example(_relation(5, [(0, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 4)], [(1, 5)]))
def test_enumerators_match_reference_on_crossing_relations(d):
    assert_matches_reference(d)


def assert_lists_the_certified_trees(d):
    """``enumerate_plane_trees`` lists every spanning tree of the relation
    that ``check_mask`` certifies, and no other: an edge crossing itself is
    in none.  Each star kind lists the certified trees of that kind, and
    'special' those of all three.  With no vertex, the one pick is the
    empty mask, which is no tree."""
    picks = itertools.combinations(range(len(d.edges)), max(d.n - 1, 0))
    certified = [mask for mask in (sum(1 << i for i in pick) for pick in picks)
                 if check_mask(d, mask).is_plane_spanning_tree]
    assert enumerate_plane_trees(d) == mask_trees(d.edges, certified)
    kinds = {mask: classify_kind(d, mask)[0] for mask in certified}
    for kind in KINDS[1:]:
        want = [mask for mask in certified
                if kinds[mask] == kind or kind == "special" and kinds[mask] in KINDS]
        assert enumerate_plane_trees(d, kind) == mask_trees(d.edges, want), kind


@settings(max_examples=150, deadline=None)
@given(crossing_relations().filter(lambda d: d.n <= 6))
@example(_relation(4, complete_edges(4), [(0, 0)]))           # 01 crosses itself
@example(_relation(3, complete_edges(3), [(1, 1)]))           # ... 02, on three vertices
def test_enumeration_lists_exactly_the_certified_trees(d):
    assert_lists_the_certified_trees(d)


def _small_relations():
    """Every symmetric crossing relation, self-crossings included, on every
    edge subset of K_0, K_1, K_2 and K_3."""
    for n in (0, 1, 2, 3):
        for k in range(n * (n - 1) // 2 + 1):
            for edges in itertools.combinations(complete_edges(n), k):
                pairs = list(itertools.combinations_with_replacement(range(k), 2))
                for r in range(len(pairs) + 1):
                    for chosen in itertools.combinations(pairs, r):
                        yield _relation(n, edges, chosen)


def test_small_relations_list_exactly_the_certified_trees():
    """On three or fewer vertices every kind's listing is the certified
    trees of that kind, and agrees with all three reference enumerators;
    'special' is 'all' but on one vertex."""
    relations = list(_small_relations())
    assert len(relations) == 100
    for d in relations:
        assert_matches_reference(d)
        assert_lists_the_certified_trees(d)
        assert_special_is_all(d)


def assert_special_is_all(d):
    """'special', ``_star_family`` and 'all' give one triple, order and
    class numbering included; on one vertex the star family has no tree
    (no core edge) and 'all' lists the empty one."""
    special, every = _plane_masks(d, "special"), _plane_masks(d, "all")
    if d.n == 1:
        assert special == _star_family(d) == ([], [], [])
        assert mask_trees(d.edges, every[0]) == [()]
    else:
        assert special == _star_family(d) == every


@settings(max_examples=200, deadline=None)
@given(crossing_relations(4, 5))
@example(_relation(5, complete_edges(5), []))                 # K_5, all 125 trees
@example(_relation(5, [(0, 1), (1, 2), (2, 3), (3, 4)], []))  # the path, a twin star
@example(_relation(4, complete_edges(4), [(0, 0), (1, 4)]))   # a self-crossing edge
def test_special_is_all_on_four_and_five_vertices(d):
    assert_special_is_all(d)


GENERATED_4_5 = ([GenSpec(cls=cls, n=n, seed=0) for cls in CLASSES for n in (4, 5)]
                 + [GenSpec(cls="cylindrical", n=a + b, seed=0, a=a, b=b)
                    for a, b in ((2, 2), (2, 3))])


@pytest.mark.parametrize("spec", GENERATED_4_5,
                         ids=[f"{s.cls}-{s.n}" for s in GENERATED_4_5])
def test_special_is_all_on_generated_drawings(spec):
    assert_special_is_all(generate(spec))


def test_special_misses_trees_from_six_vertices():
    """On six vertices the path and the spider with legs 2, 2, 1 are plane
    trees of no star kind, so 'special' keeps its own search there."""
    d = generate(GenSpec(cls="convex", n=6, seed=0))
    special = _plane_masks(d, "special")[0]
    every = _plane_masks(d, "all")[0]
    assert len(every) == 273 and set(special) < set(every)
    assert {classify_kind(d, mask)[0] for mask in set(every) - set(special)} == {
        "k_star", "generic"}
    assert as_pairs(_plane_masks(d, "special")) == reference.star_family(d)


def test_one_vertex_lists_and_certifies_the_empty_tree():
    d = _relation(1, [], [])
    assert enumerate_plane_trees(d) == [()]
    assert check_mask(d, 0).is_plane_spanning_tree
    assert certify_sequence(d, [()]).trees == ((),)


def test_a_repeated_edge_is_a_cycle_on_three_vertices():
    """A relation is not checked, so it may hold an edge twice; the two
    copies close a cycle, and no listed tree holds both."""
    d = Relation(3, [(0, 1), (0, 1), (1, 2)], [0, 0, 0])
    assert as_pairs(_plane_masks(d, "all")) == reference.plane_masks(d) == [
        (0b101, 0), (0b110, 0)]
    assert not check_mask(d, 0b011).acyclic_connected


def test_star_family_sort_key_keeps_the_bit_string_order():
    """``_star_family`` sorts on each mask reversed, with edge i of m at
    bit m - 1 - i; the bit string read from bit 0 gave the same order, for
    every width, multiples of 8 or not."""
    rng = SplitMix64(2024)
    for width in range(1, 46):
        masks = list({rng.randint(0, (1 << width) - 1) for _ in range(64)})
        masks += [0, (1 << width) - 1, 1, 1 << (width - 1)]
        masks = list(dict.fromkeys(masks))
        assert (sorted(masks, key=lambda m: sum(1 << width - 1 - i for i in bits(m)))
                == sorted(masks, key=lambda m: format(m, f"0{width}b")[::-1]))
