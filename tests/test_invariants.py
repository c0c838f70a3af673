"""Cross-module properties checked over generated drawings."""

import itertools

from treespan.drawing import classify_monotone, validate_simple
from treespan.generators import GenSpec, generate
from treespan.geometry import Proper, polar_crossings, polyline_crossings
from treespan.rng import SplitMix64
from treespan.trees import (
    canon_tree,
    compatible_step_to_flips,
    enumerate_plane_trees,
    is_compatible,
)

from reference_spine import succ_above, twiggly_set
from reference_trees import bfs_distance, check_tree


def test_at_most_one_proper_on_validated_drawings():
    for cls, n in [("monotone_perturbed", 7), ("strongly_cmonotone", 6)]:
        d = generate(GenSpec(cls=cls, n=n, seed=13))
        validate_simple(d)
        fn = polyline_crossings if d.backend == "cartesian" else polar_crossings
        for e, f in itertools.combinations(d.edges, 2):
            propers = [c for c in fn(d.curves[e], d.curves[f])
                       if isinstance(c, Proper)]
            assert len(propers) <= 1


def test_vertical_above_relation_acyclic():
    # topological sort of the above-relation always succeeds on the twiggly
    # set of any plane tree
    for seed in range(8):
        d = generate(GenSpec(cls="monotone_perturbed", n=7, seed=seed))
        spine = classify_monotone(d)
        trees = enumerate_plane_trees(d)
        rng = SplitMix64(seed)
        for _ in range(10):
            t = trees[rng.randint(0, len(trees) - 1)]
            twig = sorted(twiggly_set(d, spine, t))
            succ = {e: [f for f in twig if f != e and succ_above(d, e, f)]
                    for e in twig}
            indeg = {e: 0 for e in twig}
            for e, below in succ.items():
                for f in below:
                    indeg[f] += 1
            ready = [e for e in twig if indeg[e] == 0]
            seen = 0
            while ready:
                e = ready.pop()
                seen += 1
                for f in succ[e]:
                    indeg[f] -= 1
                    if indeg[f] == 0:
                        ready.append(f)
            assert seen == len(twig)


def test_flips_on_500_random_compatible_pairs():
    done = 0
    for seed in range(40):
        cls = ("random_points", "monotone_perturbed",
               "strongly_cmonotone")[seed % 3]
        d = generate(GenSpec(cls=cls, n=5 + seed % 2, seed=seed + 101))
        trees = enumerate_plane_trees(d)
        rng = SplitMix64(seed)
        tried = 0
        while tried < 40 and done < 500:
            t1 = trees[rng.randint(0, len(trees) - 1)]
            t2 = trees[rng.randint(0, len(trees) - 1)]
            tried += 1
            if not is_compatible(d, t1, t2):
                continue
            flips = compatible_step_to_flips(d, t1, t2)
            assert len(flips) == len(set(t2) - set(t1))
            current = list(t1)
            for out, new in flips:
                current.remove(out)
                current.append(new)
                assert check_tree(d, current).is_plane_spanning_tree
            assert canon_tree(current) == t2
            done += 1
        if done >= 500:
            break
    assert done >= 500


def test_transform_walks_match_compat_graph():
    # any produced sequence is a walk in the compatibility graph, so the
    # BFS distance between its endpoints is at most its length - 1
    from fractions import Fraction as F

    from treespan.compat import build_compat_graph
    from treespan.drawing import classify_cylindrical
    from treespan.transforms import cmonotone_to_spine, transform_cylindrical

    d = generate(GenSpec(cls="cylindrical", n=5, seed=3, a=2, b=3))
    roles = classify_cylindrical(d, F(1), F(4))
    g = build_compat_graph(d)
    rng = SplitMix64(5)
    for _ in range(40):
        t1 = g.nodes[rng.randint(0, len(g.nodes) - 1)]
        t2 = g.nodes[rng.randint(0, len(g.nodes) - 1)]
        seq = transform_cylindrical(d, roles, t1, t2)
        assert bfs_distance(g, t1, t2) <= len(seq.trees) - 1

    d = generate(GenSpec(cls="strongly_cmonotone", n=5, seed=3))
    g = build_compat_graph(d)
    for _ in range(20):
        t = g.nodes[rng.randint(0, len(g.nodes) - 1)]
        seq = cmonotone_to_spine(d, t)
        assert bfs_distance(g, seq.trees[0], seq.trees[-1]) <= len(seq.trees) - 1
