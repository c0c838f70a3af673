"""Star-family recognition and flips against the tuple implementations
they replaced.

The oracles below read a tree as a tuple of edges and build adjacency
dicts from it; the flip oracle finds each flip's cycle by a DFS.  The
library reads a tree's incidence table from its relation's vertex rows
and finds the cycle edge by rebuilding the tree with ``_retree``.  Both
call forms, every edge of a relation of the tree's own edges and a mask
over a drawing's or K_n's edges, must give the oracles' answers:
``trees._special_paths`` the least of their lists, the loops in
``reference_trees`` the lists themselves, ``classify_kind`` the kind.  The
flips must also equal those of the per-flip union-find loop in
``reference_trees``.
"""

import itertools

from treespan.drawing import complete_edges, edge
from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.rng import SplitMix64
from treespan.trees import (
    _special_paths,
    classify_kind,
    compatible_step_to_flips,
    enumerate_plane_trees,
    is_compatible,
    tree_mask,
)

import reference_trees
from reference_trees import double_star_paths, star_centers, twin_star_paths
from test_compat import ORACLE_DRAWINGS
from test_trees import all_spanning_trees, pruefer_decode
from conftest import uncrossed


def oracle_adjacency(tree):
    adj = {}
    for u, v in tree:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def oracle_star_centers(tree):
    verts = {v for e in tree for v in e}
    return sorted(c for c in verts if all(c in e for e in tree))


def oracle_double_star_paths(tree):
    out = []
    for g, r in tree:
        if all(g in e or r in e for e in tree):
            out.extend([(g, r), (r, g)])
    return sorted(out)


def oracle_twin_star_paths(tree):
    edges = set(tree)
    out = []
    for s, nbrs in oracle_adjacency(tree).items():
        for g, r in itertools.permutations(nbrs, 2):
            if g >= r or edge(g, r) in edges:
                continue
            if all(g in e or r in e for e in tree):
                out.extend([(g, s, r), (r, s, g)])
    return sorted(out)


def oracle_special_paths(tree):
    centers = oracle_star_centers(tree)
    if centers:
        return centers[0], None, None
    return (None, min(oracle_double_star_paths(tree), default=None),
            min(oracle_twin_star_paths(tree), default=None))


def oracle_is_path_on_four(tree):
    if len(tree) != 3:
        return False
    degs = {}
    for u, v in tree:
        degs[u] = degs.get(u, 0) + 1
        degs[v] = degs.get(v, 0) + 1
    return sorted(degs.values()) == [1, 1, 2, 2]


def oracle_classify_kind(n, tree):
    centers = oracle_star_centers(tree)
    if centers:
        return ("star", centers[0])
    if n == 4 and oracle_is_path_on_four(tree):
        return ("twin_star",) + oracle_twin_star_paths(tree)[0]
    doubles = oracle_double_star_paths(tree)
    if doubles:
        g, r = doubles[0]
        return ("double_star", min(g, r), max(g, r))
    twins = oracle_twin_star_paths(tree)
    if twins:
        return ("twin_star",) + twins[0]
    return ("generic",)


def oracle_cycle_with(tree, e):
    adj = {}
    for f in tree:
        adj.setdefault(f[0], []).append((f[1], f))
        adj.setdefault(f[1], []).append((f[0], f))
    path, seen = [], set()

    def dfs(v):
        if v == e[1]:
            return True
        seen.add(v)
        for w, f in adj.get(v, []):
            if w in seen:
                continue
            path.append(f)
            if dfs(w):
                return True
            path.pop()
        return False

    dfs(e[0])
    return path


def oracle_flips(t1, t2):
    current, t2set = list(t1), set(t2)
    flips = []
    for e in sorted(t2set - set(t1)):
        out = max(f for f in oracle_cycle_with(current, e) if f not in t2set)
        current.remove(out)
        current.append(e)
        flips.append((out, e))
    return flips


def _answers(d, mask):
    return (star_centers(d.edges, mask), double_star_paths(d.edges, mask),
            twin_star_paths(d.edges, mask),
            _special_paths(*reference_trees._searched(d.edges, mask)),
            classify_kind(d, mask))


def _oracle_answers(n, tree):
    return (oracle_star_centers(tree), oracle_double_star_paths(tree),
            oracle_twin_star_paths(tree), oracle_special_paths(tree),
            oracle_classify_kind(n, tree))


def _labelled_trees():
    """Every labelled tree for n <= 6, and a seeded sample for n = 7..9."""
    for n in range(2, 7):
        for t in all_spanning_trees(n):
            yield n, t
    rng = SplitMix64(14)
    for n in (7, 8, 9):
        for _ in range(1500):
            yield n, pruefer_decode(n, [rng.randint(0, n - 1)
                                        for _ in range(n - 2)])


def test_labelled_trees_match_tuple_oracle():
    kinds = set()
    for n, t in _labelled_trees():
        want = _oracle_answers(n, t)
        edges = complete_edges(n)
        mask = sum(1 << edges.index(e) for e in t)
        assert _answers(uncrossed(n, t), (1 << len(t)) - 1) == want, t
        assert _answers(uncrossed(n, edges), mask) == want, t
        kinds.add(want[-1][0])
    assert kinds == {"star", "double_star", "twin_star", "generic"}


def test_plane_trees_of_drawings_match_tuple_oracle():
    for _, make in ORACLE_DRAWINGS:
        d = make()
        for t in enumerate_plane_trees(d):
            mask = tree_mask(d, t)
            assert _answers(d, mask) == _oracle_answers(d.n, t), t


def test_flips_match_cycle_oracle():
    pairs = 0
    for _, make in ORACLE_DRAWINGS:
        d = make()
        trees = enumerate_plane_trees(d)
        for t1, t2 in itertools.combinations(trees[::5], 2):
            if is_compatible(d, t1, t2):
                assert (compatible_step_to_flips(d, t1, t2)
                        == oracle_flips(t1, t2)), (t1, t2)
                assert (compatible_step_to_flips(d, t2, t1)
                        == oracle_flips(t2, t1)), (t2, t1)
                pairs += 1
    assert pairs > 10000


def test_flips_match_union_find_reference():
    """Every compatible ordered pair among the first 60 plane trees of
    five drawing classes at n = 4..6, seeds 0 and 1, and of the bipartite
    fixture (whose three trees are compatible only with themselves)."""
    drawings = [generate(GenSpec(cls=cls, n=n, seed=seed))
                for cls in ("convex", "random_points", "monotone_perturbed",
                            "two_page", "strongly_cmonotone")
                for n in (4, 5, 6) for seed in (0, 1)]
    drawings.append(fixture_bipartite_isolated()[0])
    pairs = 0
    for d in drawings:
        trees = enumerate_plane_trees(d)[:60]
        for t1, t2 in itertools.product(trees, repeat=2):
            if is_compatible(d, t1, t2):
                assert (compatible_step_to_flips(d, t1, t2)
                        == reference_trees.compatible_step_to_flips(d, t1, t2)), (t1, t2)
                pairs += 1
    assert pairs == 49480
