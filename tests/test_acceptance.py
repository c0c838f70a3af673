"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Scales follow the stated requirements: cylindrical sweeps at n in {4,5,6}
over 20 seeds, two-page drawings up to n=7, 100 monotone drawings up to
n=9, 50 strongly c-monotone drawings up to n=8, 1000 mixed drawings up to
n=10 for the star schedule, 100 drawings up to n=7 for the restricted
compatibility graph, the frozen bipartite fixture, brute-force count
oracles, and a 10^4-instance float-sampler agreement check plus
byte-identical determinism.  Exhaustive tree-pair sweeps run wherever the
pair count stays moderate; above that a fixed-seed sample is used (noted
inline).
"""

import itertools
from contextlib import contextmanager
from fractions import Fraction as F

from treespan.compat import analyze, build_compat_graph
from treespan.drawing import (
    classify_c_monotone,
    classify_cylindrical,
    classify_monotone,
    validate_simple,
)
from treespan.fileio import drawing_to_dict, dumps, sequence_to_dict
from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.geometry import (
    Point,
    PolarPoint,
    Proper,
    polar_crossings,
    segment_proper_crossing,
)
from treespan.render import render_svg
from treespan.rng import SplitMix64
from treespan.transforms import (
    _strip,
    cmonotone_to_spine,
    monotone_to_spine,
    star_to_star,
    transform_cylindrical,
    transform_special,
)
from treespan.trees import (
    canon_tree,
    enumerate_plane_trees,
    is_compatible,
)

from conftest import crossings
from reference_geometry import segment_circle_relation
from reference_spine import cut_to_monotone, twiggly_depth, twiggly_set
from reference_trees import bfs_distance, check_tree, double_star_paths


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[criterion {number}] {name}: FAIL")
        raise
    print(f"\n[criterion {number}] {name}: PASS")


def sample_plane_trees(d, count, seed):
    """Seeded plane spanning trees found by Pruefer decoding + planarity
    rejection (independent of the enumerator)."""
    rng = SplitMix64(seed)
    cross = crossings(d)
    found = set()
    for _ in range(25000):
        degree = [1] * d.n
        seq = [rng.randint(0, d.n - 1) for _ in range(d.n - 2)]
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = min(u for u in range(d.n) if degree[u] == 1)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[leaf] -= 1
            degree[v] -= 1
        last = [u for u in range(d.n) if degree[u] == 1]
        edges.append((last[0], last[1]))
        t = canon_tree(edges)
        if not any(f in cross[e] for e, f in itertools.combinations(t, 2)):
            found.add(t)
        if len(found) >= count:
            break
    return sorted(found)


# ---------------------------------------------------------------------------
# 1. cylindrical diameter <= 4, every pair transformable in <= 5 trees
# ---------------------------------------------------------------------------

def test_criterion_1_cylindrical():
    cases = ([(2, 2, s) for s in range(6)] + [(1, 3, s) for s in range(2)]
             + [(2, 3, s) for s in range(4)] + [(1, 4, s) for s in range(2)]
             + [(3, 3, s) for s in range(4)] + [(2, 4, s) for s in range(2)])
    assert len(cases) == 20
    with criterion(1, "cylindrical diameter <= 4, sequences <= 5 trees"):
        for a, b, seed in cases:
            d = generate(GenSpec(cls="cylindrical", n=a + b, seed=seed, a=a, b=b))
            roles = classify_cylindrical(d, F(1), F(4))
            assert roles is not None
            g = build_compat_graph(d)
            result = analyze(g)
            assert result.connected
            assert result.diameter <= 4
            trees = g.nodes
            for i, t1 in enumerate(trees):
                for t2 in trees[i:]:
                    seq = transform_cylindrical(d, roles, t1, t2)
                    assert seq.certified and len(seq) <= 5


# ---------------------------------------------------------------------------
# 2. two-page diameter <= 2, path tree compatible with everything
# ---------------------------------------------------------------------------

def test_criterion_2_two_page():
    cases = [(4, 0), (4, 1), (5, 0), (5, 1), (6, 0), (6, 1), (7, 0)]
    with criterion(2, "2-page diameter <= 2"):
        for n, seed in cases:
            d = generate(GenSpec(cls="two_page", n=n, seed=seed))
            g = build_compat_graph(d)
            result = analyze(g)
            assert result.connected and result.diameter <= 2
            path = canon_tree((k, k + 1) for k in range(n - 1))
            for t in g.nodes:
                assert is_compatible(d, path, t)


# ---------------------------------------------------------------------------
# 3. monotone rounds: certified, <= n-1 rounds, twiggly count strictly down
# ---------------------------------------------------------------------------

def _audit_monotone(d, spine, t):
    seq = monotone_to_spine(d, spine, t)
    assert seq.certified
    target = canon_tree(spine.spine_edges)
    assert seq.trees[-1] == target
    assert len(seq.trees) - 1 <= d.n  # <= n-1 rounds plus the final hop
    counts = [len(twiggly_set(d, spine, tr)) for tr in seq.trees]
    while counts and counts[-1] == 0:
        counts.pop()
    assert all(a > b for a, b in zip(counts, counts[1:]))
    return seq


def test_criterion_3_monotone_progress():
    plan = [(4, 25), (5, 25), (6, 20), (7, 15), (8, 10), (9, 5)]
    assert sum(k for _, k in plan) == 100
    with criterion(3, "monotone transformation progress"):
        for n, drawings in plan:
            for seed in range(drawings):
                d = generate(GenSpec(cls="monotone_perturbed", n=n, seed=seed))
                spine = classify_monotone(d)
                assert spine is not None
                if n <= 6:
                    trees = enumerate_plane_trees(d)
                else:
                    trees = sample_plane_trees(d, 100, seed=seed + 1)
                    assert len(trees) == 100
                for t in trees:
                    _audit_monotone(d, spine, t)


# ---------------------------------------------------------------------------
# 4. strongly c-monotone: depth recursion and the cut branch
# ---------------------------------------------------------------------------

def test_criterion_4_cmonotone_depth():
    with criterion(4, "strongly c-monotone depth recursion"):
        cut_seen = 0
        spine_seen = 0
        for n in (4, 5, 6, 7, 8):
            for seed in range(10):
                d = generate(GenSpec(cls="strongly_cmonotone", n=n, seed=seed))
                c, strong, spine = classify_c_monotone(d)
                assert c and strong
                if n <= 6:
                    all_trees = enumerate_plane_trees(d)
                    rng = SplitMix64(seed)
                    trees = sorted({all_trees[rng.randint(0, len(all_trees) - 1)]
                                    for _ in range(6)})
                else:
                    trees = sample_plane_trees(d, 6, seed=seed + 7)
                if not spine.all_cycle_edges_spine:
                    cut_seen += 1
                    flat = cut_to_monotone(d)  # raises unless bit-exact
                    assert crossings(flat) == crossings(d)
                    # the route reads d's own table: the cut's plus its empty gap
                    table = _strip(flat)
                    assert _strip(d) == table._replace(rank=table.rank + ((),),
                                                       stab=table.stab + (0,))
                else:
                    spine_seen += 1
                samples = None
                for t in trees:
                    seq = cmonotone_to_spine(d, t)
                    assert seq.certified
                    assert len(seq.trees) - 1 <= d.n
                    if spine.all_cycle_edges_spine:
                        if samples is None:
                            angles = sorted(p[0] % 1 for p in d.vertex_points)
                            samples = [(x + y) / 2 for x, y in
                                       zip(angles, angles[1:] + [angles[0] + 1])]
                        for t1, t2 in zip(seq.trees, seq.trees[1:]):
                            w1 = twiggly_set(d, spine, t1)
                            w2 = twiggly_set(d, spine, t2)
                            for ray in samples:
                                before = twiggly_depth(d, w1, ray)
                                after = twiggly_depth(d, w2, ray)
                                assert after <= max(before - 1, 0)
        assert cut_seen >= 5 and spine_seen >= 5


# ---------------------------------------------------------------------------
# 5. star schedule: DAG, exactly n-2 flips, double-star intermediates
# ---------------------------------------------------------------------------

def test_criterion_5_star_flips():
    with criterion(5, "star-to-star flip schedule"):
        mixes = (
            [("random_points", 4 + i % 7) for i in range(400)]
            + [("monotone_perturbed", 4 + i % 7) for i in range(300)]
            + [("strongly_cmonotone", 4 + i % 5) for i in range(300)]
        )
        assert len(mixes) == 1000
        for seed, (cls, n) in enumerate(mixes):
            d = generate(GenSpec(cls=cls, n=n, seed=seed))
            rng = SplitMix64(seed ^ 0xABCDEF)
            g = rng.randint(0, n - 1)
            r = (g + 1 + rng.randint(0, n - 2)) % n
            seq = star_to_star(d, g, r)  # raises RelationCyclicError on a cycle
            assert seq.certified
            assert len(seq.trees) - 1 == n - 2
            for t in seq.trees[1:-1]:
                reps = double_star_paths(t)
                assert (g, r) in reps or (r, g) in reps
                assert check_tree(d, t).is_plane_spanning_tree


# ---------------------------------------------------------------------------
# 6. restricted compatibility graph connected; special transforms bounded
# ---------------------------------------------------------------------------

def test_criterion_6_special_trees():
    plan = ([("random_points", 4)] * 20 + [("monotone_perturbed", 4)] * 10
            + [("strongly_cmonotone", 4)] * 10
            + [("random_points", 5)] * 15 + [("strongly_cmonotone", 5)] * 15
            + [("random_points", 6)] * 10 + [("monotone_perturbed", 6)] * 10
            + [("random_points", 7)] * 5 + [("monotone_perturbed", 7)] * 5)
    assert len(plan) == 100
    with criterion(6, "restricted compatibility graph connected"):
        for seed, (cls, n) in enumerate(plan):
            d = generate(GenSpec(cls=cls, n=n, seed=seed + 31))
            g = build_compat_graph(d, restricted=True)
            assert analyze(g).connected
            trees = g.nodes
            pairs = [(a, b) for i, a in enumerate(trees) for b in trees[i:]]
            if len(pairs) > 800:  # fixed-seed sample above this size
                rng = SplitMix64(seed)
                pairs = [pairs[rng.randint(0, len(pairs) - 1)] for _ in range(800)]
            for t1, t2 in pairs:
                seq = transform_special(d, t1, t2)
                assert seq.certified
                assert seq.flips <= 5 * n
                assert seq.flips >= bfs_distance(g, t1, t2)


# ---------------------------------------------------------------------------
# 7. frozen bipartite fixture: isolated tree
# ---------------------------------------------------------------------------

def test_criterion_7_bipartite_fixture():
    with criterion(7, "bipartite fixture tree is isolated"):
        d, tree = fixture_bipartite_isolated()
        assert validate_simple(d).is_simple
        cert = check_tree(d, tree)
        assert cert.is_plane_spanning_tree
        tset = set(tree)
        for e in d.edges:
            if e not in tset:
                assert crossings(d)[e] & tset
        g = build_compat_graph(d)
        assert g.adjacency[g.index[tree]] == 0


# ---------------------------------------------------------------------------
# 8. brute-force count oracles
# ---------------------------------------------------------------------------

def _pruefer_trees(n):
    out = []
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = min(u for u in range(n) if degree[u] == 1)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[leaf] -= 1
            degree[v] -= 1
        last = [u for u in range(n) if degree[u] == 1]
        edges.append((last[0], last[1]))
        out.append(canon_tree(edges))
    return out


def test_criterion_8_count_oracles():
    with criterion(8, "convex counts match the brute-force oracle"):
        expected_crossings = {4: 1, 5: 5, 6: 15, 7: 35}
        for n, want in expected_crossings.items():
            d = generate(GenSpec(cls="convex", n=n, seed=2))
            assert len(d.crossing_pairs()) == want
        d4 = generate(GenSpec(cls="convex", n=4, seed=2))
        trees = enumerate_plane_trees(d4)
        assert len(trees) == 12
        for n in (4, 5, 6):
            d = generate(GenSpec(cls="convex", n=n, seed=2))
            cross = crossings(d)
            oracle = sorted(
                t for t in set(_pruefer_trees(n))
                if not any(f in cross[e]
                           for e, f in itertools.combinations(t, 2)))
            assert enumerate_plane_trees(d) == oracle


# ---------------------------------------------------------------------------
# 9. exactness against a float sampler; byte-identical determinism
# ---------------------------------------------------------------------------

def _float_segment_verdict(s1, s2):
    (a, b), (c, d) = s1, s2
    ax, ay, bx, by = float(a.x), float(a.y), float(b.x), float(b.y)
    cx, cy, dx, dy = float(c.x), float(c.y), float(d.x), float(d.y)
    den = (bx - ax) * (dy - cy) - (by - ay) * (dx - cx)
    if abs(den) < 1e-6:
        return None
    t = ((cx - ax) * (dy - cy) - (cy - ay) * (dx - cx)) / den
    u = ((cx - ax) * (by - ay) - (cy - ay) * (bx - ax)) / den
    m = 1e-6
    if m < t < 1 - m and m < u < 1 - m:
        return "proper"
    if t < -m or t > 1 + m or u < -m or u > 1 + m:
        return "none"
    return None


def test_criterion_9_exactness_and_determinism():
    with criterion(9, "float-sampler agreement and determinism"):
        rng = SplitMix64(0xC0FFEE)
        checked = 0
        for _ in range(4000):
            pts = [Point(F(rng.randint(-999, 999), 101),
                         F(rng.randint(-999, 999), 103)) for _ in range(4)]
            if pts[0] == pts[1] or pts[2] == pts[3]:
                continue
            verdict = _float_segment_verdict((pts[0], pts[1]), (pts[2], pts[3]))
            if verdict is None:
                continue
            checked += 1
            got = segment_proper_crossing((pts[0], pts[1]), (pts[2], pts[3]))
            assert (got is not None and isinstance(got, Proper)) \
                == (verdict == "proper")

        for _ in range(3000):
            vals = [rng.randint(1, 400) for _ in range(4)]
            lo1, hi1 = F(rng.randint(0, 200), 401), F(rng.randint(201, 400), 401)
            lo2, hi2 = F(rng.randint(0, 200), 401), F(rng.randint(201, 400), 401)
            c1 = (PolarPoint(lo1, F(vals[0], 7)), PolarPoint(hi1, F(vals[1], 7)))
            c2 = (PolarPoint(lo2, F(vals[2], 7)), PolarPoint(hi2, F(vals[3], 7)))
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if hi - lo < F(1, 100):
                continue

            def rr(c, t):
                a, b = c
                return float(a.r) + (float(b.r) - float(a.r)) * (
                    (float(t) - float(a.theta)) / (float(b.theta) - float(a.theta)))

            dlo = rr(c1, lo) - rr(c2, lo)
            dhi = rr(c1, hi) - rr(c2, hi)
            if abs(dlo) < 1e-6 or abs(dhi) < 1e-6:
                continue
            checked += 1
            propers = [x for x in polar_crossings(c1, c2) if isinstance(x, Proper)]
            assert (len(propers) == 1) == ((dlo < 0) != (dhi < 0))

        for _ in range(3000):
            a = Point(F(rng.randint(-500, 500), 97), F(rng.randint(-500, 500), 97))
            b = Point(F(rng.randint(-500, 500), 97), F(rng.randint(-500, 500), 97))
            if a == b:
                continue
            r2 = F(rng.randint(1, 40), 7)
            fa = float(a.x) ** 2 + float(a.y) ** 2 - float(r2)
            fb = float(b.x) ** 2 + float(b.y) ** 2 - float(r2)
            if abs(fa) < 1e-6 or abs(fb) < 1e-6:
                continue
            checked += 1
            got = segment_circle_relation((a, b), Point(F(0), F(0)), r2)
            if fa * fb < 0:
                assert got == "crosses"
            elif fa < 0 and fb < 0:
                assert got == "disjoint"
        assert checked >= 7000

        # determinism: byte-identical artifacts across two runs
        d1 = generate(GenSpec(cls="strongly_cmonotone", n=6, seed=77))
        d2 = generate(GenSpec(cls="strongly_cmonotone", n=6, seed=77))
        assert dumps(drawing_to_dict(d1)) == dumps(drawing_to_dict(d2))
        sq = generate(GenSpec(cls="convex", n=4, seed=9))
        s1 = transform_special(sq, [(0, 1), (0, 2), (0, 3)],
                               [(0, 1), (1, 2), (1, 3)])
        s2 = transform_special(sq, [(0, 1), (0, 2), (0, 3)],
                               [(0, 1), (1, 2), (1, 3)])
        assert (dumps(sequence_to_dict(s1.trees, s1.method))
                == dumps(sequence_to_dict(s2.trees, s2.method)))
        assert render_svg(d1) == render_svg(d2)
