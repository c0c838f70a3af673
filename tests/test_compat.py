"""Compatibility graph tests against direct pairwise checks.

The oracles below are the implementations the twin-class kernel replaced:
a tree-level build that tests every tree pair, and an ``analyze`` that runs
a BFS building a distance dict from every node.  The kernel must reproduce
their masks, adjacency rows, edge count and ``CompatAnalysis`` exactly.
"""

import math
import tracemalloc
from dataclasses import dataclass
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

import treespan.compat
import treespan.transforms
import treespan.trees
from treespan.compat import (
    CompatAnalysis,
    CompatGraph,
    _eccentricities,
    _twin_graph,
    analyze,
    build_compat_graph,
)
from treespan.fileio import compat_to_dot
from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.trees import (
    _plane_masks,
    canon_tree,
    classify_kind,
    conflict_mask,
    enumerate_plane_trees,
    is_compatible,
    mask_trees,
    tree_mask,
)
from treespan.transforms import star_to_star

import pytest

from reference_trees import _bfs, bfs_distance


@dataclass
class TreeGraph:
    """The oracles' graph: one adjacency row per tree."""
    masks: list
    adjacency: list

    def edge_count(self):
        return sum(row.bit_count() for row in self.adjacency) // 2


def oracle_pairwise(tree_masks, conflict_masks):
    m = len(tree_masks)
    adjacency = [0] * m
    for i in range(m):
        ci = conflict_masks[i]
        for j in range(i + 1, m):
            if not ci & tree_masks[j]:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return TreeGraph(masks=tree_masks, adjacency=adjacency)


def oracle_build(d, restricted=False):
    nodes = enumerate_plane_trees(d, kind="special" if restricted else "all")
    tree_masks = [tree_mask(d, t) for t in nodes]
    return oracle_pairwise(tree_masks,
                           [conflict_mask(d, mask) for mask in tree_masks])


def assert_matches_oracle(g, want):
    assert g.masks == want.masks
    assert list(g.adjacency) == want.adjacency
    assert g.edge_count() == want.edge_count()
    assert analyze(g) == oracle_analyze(want)


def oracle_bfs_levels(g, src):
    dist = {src: 0}
    frontier = 1 << src
    seen = frontier
    level = 0
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= g.adjacency[low.bit_length() - 1]
            f ^= low
        nxt &= ~seen
        seen |= nxt
        level += 1
        f = nxt
        while f:
            low = f & -f
            dist[low.bit_length() - 1] = level
            f ^= low
        frontier = nxt
    return dist


def oracle_analyze(g):
    m = len(g.adjacency)
    if m == 0:
        return CompatAnalysis(True, 0, 0, ())
    component_of = [-1] * m
    comp_count = 0
    for v in range(m):
        if component_of[v] == -1:
            for u in oracle_bfs_levels(g, v):
                component_of[u] = comp_count
            comp_count += 1
    ecc = [max(oracle_bfs_levels(g, v).values()) for v in range(m)]
    connected = comp_count == 1
    diameter = max(ecc) if connected else math.inf
    return CompatAnalysis(connected=connected, components=comp_count,
                          diameter=diameter, eccentricities=tuple(ecc))


def oracle_distance(g, i, j):
    return oracle_bfs_levels(g, i).get(j, math.inf)


ORACLE_CLASSES = ("convex", "random_points", "monotone_perturbed", "two_page",
                  "strongly_cmonotone")
ORACLE_SPECS = [GenSpec(cls=cls, n=n, seed=10 * n + k)
                for k, cls in enumerate(ORACLE_CLASSES) for n in (4, 5, 6)]
ORACLE_SPECS += [GenSpec(cls="cylindrical", n=a + b, seed=a * b, a=a, b=b)
                 for a, b in ((2, 2), (2, 3), (3, 3))]


def _oracle_drawings():
    out = [(f"{s.cls}-{s.n}" + (f"-{s.a}x{s.b}" if s.a else ""),
            lambda s=s: generate(s)) for s in ORACLE_SPECS]
    return out + [("bipartite-fixture", lambda: fixture_bipartite_isolated()[0])]


ORACLE_DRAWINGS = _oracle_drawings()


@pytest.mark.parametrize("make", [m for _, m in ORACLE_DRAWINGS],
                         ids=[name for name, _ in ORACLE_DRAWINGS])
def test_kernel_matches_oracle(make):
    d = make()
    for restricted in (False, True):
        assert_matches_oracle(build_compat_graph(d, restricted=restricted),
                              oracle_build(d, restricted=restricted))


def test_bipartite_fixture_has_isolated_tree():
    d, tree = fixture_bipartite_isolated()
    g = build_compat_graph(d)
    a = analyze(g)
    i = g.index[canon_tree(tree)]
    assert a.components > 1 and a.diameter == math.inf
    assert g.adjacency[i] == 0 and a.eccentricities[i] == 0
    assert a == oracle_analyze(g)


# convex n = 9 has 43 263 plane spanning trees, so the oracle below takes
# a few seconds there; n = 9 is past ENUM_LIMIT_ALL, hence the limit.
STAR_FAMILY_DRAWINGS = ORACLE_DRAWINGS + [
    ("convex-9", lambda: generate(GenSpec(cls="convex", n=9, seed=3)))]


@pytest.mark.parametrize("make", [m for _, m in STAR_FAMILY_DRAWINGS],
                         ids=[name for name, _ in STAR_FAMILY_DRAWINGS])
def test_star_family_prefilter_matches_classify(make):
    """Direct star-family generation against its oracle, filtering every
    plane tree by ``classify_kind``.  (The name predates direct generation;
    it is kept so the test ids stay stable.)"""
    d = make()
    every = [(t, classify_kind(d, tree_mask(d, t))[0])
             for t in enumerate_plane_trees(d, limit=d.n)]
    for kind, keep in (("special", ("star", "double_star", "twin_star")),
                       ("star", ("star",)), ("double_star", ("double_star",)),
                       ("twin_star", ("twin_star",))):
        want = [t for t, k in every if k in keep]
        assert enumerate_plane_trees(d, kind=kind) == want


def _graph(m, pairs):
    """A graph whose every twin class holds one tree, with the given rows."""
    adjacency = [0] * m
    for i, j in pairs:
        if i != j:
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    return CompatGraph(edges=tuple((0, i + 1) for i in range(m)),
                       masks=[1 << i for i in range(m)],
                       class_of=list(range(m)), class_rows=adjacency,
                       restricted=False)


@st.composite
def random_graphs(draw):
    m = draw(st.integers(0, 12))
    if m == 0:
        return _graph(0, [])
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                          max_size=3 * m))
    return _graph(m, pairs)


@settings(max_examples=200, deadline=None)
@given(random_graphs())
@example(_graph(0, []))                                    # empty
@example(_graph(1, []))                                    # one isolated node
@example(_graph(7, [(i, i + 1) for i in range(6)]))         # path, diameter 6
@example(_graph(6, [(0, 1), (1, 2), (3, 4)]))              # three components
@example(_graph(8, [(i, (i + 1) % 8) for i in range(8)]))   # cycle, diameter 4
def test_random_graphs_match_oracle(g):
    assert analyze(g) == oracle_analyze(g)
    for i, j in combinations(range(len(g.nodes)), 2):
        want = oracle_distance(g, i, j)
        assert bfs_distance(g, g.nodes[i], g.nodes[j]) == want
        assert bfs_distance(g, g.nodes[j], g.nodes[i]) == want
    for t in g.nodes:
        assert bfs_distance(g, t, t) == 0


@st.composite
def hub_graphs(draw):
    """A random graph plus one node adjacent to every other node."""
    m = draw(st.integers(1, 12))
    hub = draw(st.integers(0, m - 1))
    pairs = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1)),
                          max_size=3 * m))
    return _graph(m, pairs + [(hub, j) for j in range(m)])


@settings(max_examples=200, deadline=None)
@given(hub_graphs())
@example(_graph(6, list(combinations(range(6), 2))))       # K_6, all hubs
@example(_graph(6, [(0, j) for j in range(1, 6)]))          # star graph
@example(_graph(2, [(0, 1)]))                               # one edge
@example(_graph(1, []))                                     # one node
def test_hub_graphs_match_oracle(g):
    a = analyze(g)
    assert a == oracle_analyze(g)
    assert a.connected and a.diameter <= 2


@st.composite
def sparse_graphs(draw):
    """Disjoint unions of paths, cycles and random trees plus at least one
    isolated node, relabelled at random: hub-free, sparse and of long
    diameter, so ``analyze`` grows balls over many levels."""
    pairs, m = [], 0
    shapes = st.tuples(st.sampled_from(["path", "cycle", "tree"]),
                       st.integers(1, 14))
    parts = draw(st.lists(shapes, min_size=1, max_size=4))
    for shape, size in parts + [("path", 1)]:
        if shape == "cycle" and size >= 3:
            pairs += [(m + i, m + (i + 1) % size) for i in range(size)]
        elif shape == "tree":
            pairs += [(m + i, m + draw(st.integers(0, i - 1)))
                      for i in range(1, size)]
        else:
            pairs += [(m + i, m + i + 1) for i in range(size - 1)]
        m += size
    label = draw(st.permutations(range(m)))
    return _graph(m, [(label[i], label[j]) for i, j in pairs])


@settings(max_examples=200, deadline=None)
@given(sparse_graphs())
@example(_graph(2, []))                                     # two isolated
@example(_graph(16, [(i, i + 1) for i in range(14)]))       # path + isolated
@example(_graph(12, [(i, (i + 1) % 11) for i in range(11)]))  # cycle + isolated
def test_sparse_hub_free_graphs_match_oracle(g):
    m = len(g.adjacency)
    assert all(row | 1 << v != (1 << m) - 1 for v, row in enumerate(g.adjacency))
    assert analyze(g) == oracle_analyze(g)


@settings(max_examples=200, deadline=None)
@given(st.one_of(random_graphs(), hub_graphs(), sparse_graphs()))
@example(_graph(0, []))                                     # empty
@example(_graph(1, []))                                     # one node
@example(_graph(3, []))                                     # isolated nodes
# the edge 5-6 closes at level 2, before the path 0-1-2-3-4 at level 3
@example(_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)]))
def test_eccentricities_match_bfs(g):
    """The ball growth alone, hubs included (``analyze`` keeps them from
    it), against one BFS per node: its component is the reach of a BFS to
    the whole graph, and its eccentricity the level that covers it."""
    rows = g.class_rows
    full = (1 << len(rows)) - 1
    comps = [_bfs(rows, v, full)[1] for v in range(len(rows))]
    ecc = [_bfs(rows, v, comp)[0] for v, comp in enumerate(comps)]
    assert _eccentricities(rows) == (ecc, comps)


def _conflict(cross, mask):
    out = 0
    for e in range(len(cross)):
        if mask >> e & 1:
            out |= cross[e]
    return out


@st.composite
def twin_cases(draw):
    """A random symmetric crossing relation on k edges and distinct plane
    edge sets of it, which may share conflict masks."""
    k = draw(st.integers(1, 8))
    cross = [0] * k
    for i, j in draw(st.lists(st.tuples(st.integers(0, k - 1),
                                        st.integers(0, k - 1)), max_size=2 * k)):
        if i != j:
            cross[i] |= 1 << j
            cross[j] |= 1 << i
    plane = [mask for mask in range(1 << k) if not mask & _conflict(cross, mask)]
    masks = draw(st.lists(st.sampled_from(plane), unique=True, max_size=14))
    return cross, masks


@settings(max_examples=200, deadline=None)
@given(twin_cases())
# edges 0 and 1 both cross edge 2: trees {0} and {1} form one class, cut
# off from {2}, so each has eccentricity 1 in a component of its own
@example(([0b100, 0b100, 0b011], [0b001, 0b010, 0b100]))
@example(([0, 0], [0b01, 0b10, 0b11]))                  # one class, a clique
def test_twin_classes_match_tree_oracle(case):
    cross, masks = case
    conflicts = [_conflict(cross, mask) for mask in masks]
    edges = tuple((0, e + 1) for e in range(len(cross)))
    number = {}  # conflict mask -> class, in order of first appearance
    class_of = [number.setdefault(c, len(number)) for c in conflicts]
    g = _twin_graph(edges, masks, class_of, list(number), False)
    want = oracle_pairwise(masks, conflicts)
    assert len(g.class_rows) == len(set(conflicts))
    assert_matches_oracle(g, want)
    for i, t in enumerate(g.nodes):
        assert g._class_degree(g.class_of[i]) == want.adjacency[i].bit_count()
        for j, u in enumerate(g.nodes):
            assert bfs_distance(g, t, u) == oracle_distance(want, i, j)


def test_one_enumeration_kernel_call_per_listing_and_build(monkeypatch):
    """``enumerate_plane_trees`` and ``build_compat_graph``, full or
    restricted, each list their trees with one ``_plane_masks`` call, so no
    second enumeration path serves either."""
    calls = []

    def counting(d, kind="all", limit=None):
        calls.append(kind)
        return _plane_masks(d, kind, limit)

    for module in (treespan.trees, treespan.compat):
        monkeypatch.setattr(module, "_plane_masks", counting)
    d = generate(GenSpec(cls="two_page", n=6, seed=1))
    for call, want in ((lambda: enumerate_plane_trees(d), "all"),
                       (lambda: enumerate_plane_trees(d, "special"), "special"),
                       (lambda: build_compat_graph(d), "all"),
                       (lambda: build_compat_graph(d, restricted=True), "special")):
        calls.clear()
        assert call()
        assert calls == [want]


def test_restricted_convex_8_matches_levels_until():
    """Ball growth against one ``_bfs`` per node, on the restricted convex
    n = 8 graph: hub-free, 640 trees, diameter 5."""
    g = build_compat_graph(generate(GenSpec(cls="convex", n=8, seed=1)),
                           restricted=True)
    a = analyze(g)
    m = len(g.masks)
    assert m == 640 and a.connected and a.diameter == 5
    assert a.eccentricities == tuple(
        _bfs(g.adjacency, v, (1 << m) - 1)[0] for v in range(m))


def test_only_hub_free_analyze_runs_the_kernel(monkeypatch):
    """On convex n = 6 the full graph (43 classes) has a hub class, so
    ``analyze`` answers in closed form and never grows a ball; the
    restricted graph (42 classes) has none and runs the ball growth once."""
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return _eccentricities(rows)

    monkeypatch.setattr(treespan.compat, "_eccentricities", counting)
    d = generate(GenSpec(cls="convex", n=6, seed=1))
    full, restricted = build_compat_graph(d), build_compat_graph(d, restricted=True)
    assert analyze(full).diameter == 2 and len(full.class_rows) == 43
    assert calls == []
    a = analyze(restricted)
    assert a.connected and a.diameter == 3 and calls == [42]


def test_single_node_has_eccentricity_zero():
    a = analyze(_graph(1, []))
    assert a.connected and a.eccentricities == (0,) and a.diameter == 0


def test_k3_complete_graph(pk3):
    g = build_compat_graph(pk3)
    assert len(g.nodes) == 3
    assert g.edge_count() == 3
    a = analyze(g)
    assert a.connected and a.diameter == 1


def test_adjacency_matches_is_compatible(sq):
    g = build_compat_graph(sq)
    assert len(g.nodes) == 12
    for i, j in combinations(range(len(g.nodes)), 2):
        want = is_compatible(sq, g.nodes[i], g.nodes[j])
        got = bool(g.adjacency[i] >> j & 1)
        assert got == want


def test_square_connected(sq):
    a = analyze(build_compat_graph(sq))
    assert a.connected
    assert a.diameter == max(a.eccentricities)


def test_bfs_distance(sq):
    g = build_compat_graph(sq)
    t = canon_tree([(0, 1), (1, 2), (2, 3)])
    assert bfs_distance(g, t, t) == 0
    u = canon_tree([(0, 1), (0, 3), (1, 2)])
    assert bfs_distance(g, t, u) == 1
    star1 = canon_tree([(0, 1), (0, 2), (0, 3)])
    star2 = canon_tree([(0, 1), (1, 2), (1, 3)])
    assert bfs_distance(g, star1, star2) <= 2
    g = build_compat_graph(generate(GenSpec(cls="convex", n=6, seed=1)),
                           restricted=True)  # hub-free, diameter 3
    m = len(g.nodes)
    want = oracle_distance(g, 0, m - 1)
    assert bfs_distance(g, g.nodes[0], g.nodes[-1]) == want <= 3


def test_restricted_subset(sq):
    g_all = build_compat_graph(sq)
    g_star = build_compat_graph(sq, restricted=True)
    assert set(g_star.nodes) <= set(g_all.nodes)
    # at n=4 every plane spanning tree is a star or a twin star path
    assert set(g_star.nodes) == set(g_all.nodes)


def test_counts_and_distances_build_no_tree_rows(sq):
    """``analyze``, ``edge_count`` and ``bfs_distance`` read the class
    rows: the tree-level ``adjacency`` is built only when read."""
    g = build_compat_graph(sq)
    analyze(g)
    g.edge_count()
    bfs_distance(g, g.nodes[0], g.nodes[-1])
    assert "adjacency" not in vars(g)
    assert g.edge_count() == sum(row.bit_count() for row in g.adjacency) // 2


def test_adjacency_view_reads_like_a_list(sq):
    """``adjacency`` is a read-only sequence of the oracle's rows: its
    length, negative indices and ``IndexError`` past the end behave as on
    a list, and reading it twice gives the same rows."""
    g = build_compat_graph(sq)
    want = oracle_build(sq).adjacency
    rows = g.adjacency
    m = len(want)
    assert len(rows) == m == 12 and g.adjacency is rows
    assert rows[-1] == want[-1] != want[0] == rows[-m]
    assert [rows[i - m] for i in range(m)] == want
    for i in (m, -m - 1):
        with pytest.raises(IndexError):
            rows[i]
    assert list(rows) == list(rows) == want


def test_tree_rows_are_not_stored():
    """Reading every row and writing the DOT text keep m bits per class,
    far below the m x m bits of stored tree rows: random_points n = 7
    seed 2 has 2276 trees in 245 classes, and the traced peak must stay
    under m**2 / 16 bytes."""
    g = build_compat_graph(generate(GenSpec(cls="random_points", n=7, seed=2)))
    m = len(g.masks)
    assert (m, len(g.class_rows)) == (2276, 245)
    g.nodes  # the DOT node labels, built before the baseline
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for row in g.adjacency:
            pass
        for piece in compat_to_dot(g):
            pass
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < m * m // 16


def test_disconnected_reports_inf():
    # artificial two-node graph with no edges
    g = CompatGraph(edges=((0, 1), (1, 2)), masks=[1, 2], class_of=[0, 1],
                    class_rows=[0, 0], restricted=False)
    a = analyze(g)
    assert not a.connected and a.diameter == math.inf and a.components == 2


def test_results_build_edge_tuples_only_when_read(monkeypatch):
    """CompatGraph and TransformSequence keep masks: building and analysing
    a graph, or running a star schedule on a drawing whose certificates are
    warm, converts no mask to an edge tuple until nodes or trees is read,
    and the first read of each converts all its masks in one kernel call."""
    calls = []

    def counting(edges, masks):
        calls.append(masks)
        return mask_trees(edges, masks)

    for module in (treespan.trees, treespan.compat, treespan.transforms):
        monkeypatch.setattr(module, "mask_trees", counting)
    d = generate(GenSpec(cls="random_points", n=6, seed=3))
    want = enumerate_plane_trees(d)
    star_to_star(d, 0, 1)  # warms the drawing's tree certificates
    calls.clear()
    g = build_compat_graph(d)
    analyze(g)
    seq = star_to_star(d, 0, 1)
    assert calls == []
    assert g.nodes == want and g.index[want[-1]] == len(want) - 1
    assert g.nodes is g.nodes and calls == [g.masks]
    assert seq.trees == (
        ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5)),
        ((0, 1), (0, 2), (0, 4), (0, 5), (1, 3)),
        ((0, 1), (0, 2), (0, 4), (1, 3), (1, 5)),
        ((0, 1), (0, 2), (1, 3), (1, 4), (1, 5)),
        ((0, 1), (1, 2), (1, 3), (1, 4), (1, 5)),
    )
    assert seq.trees is seq.trees and calls == [g.masks, seq.masks]
