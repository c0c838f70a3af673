"""The per-drawing bit tables against the code they replaced.

``tree_mask`` reads one table of edge bits keyed by both orientations of
each edge, and a certificate cache miss reads edge ends and a vertex
bitmask; both are checked against their former selves in
``reference_trees``, masks and errors alike.  A guard counts certificate
reads: each public transformation reads each distinct mask of its input
and output trees once, and no more.  The last tests pin what those reads
must keep: ``TreeCert`` and ``TransformSequence`` compare and print as
before, and a cached certificate of a bad tree still fails its call.
"""

import dataclasses
import random

import pytest

import treespan.transforms
import treespan.trees
from treespan.drawing import classify_c_monotone, classify_monotone, validate_simple
from treespan.generators import GenSpec, fixture_bipartite_isolated, generate
from treespan.transforms import (
    TransformSequence,
    _star,
    certify_sequence,
    cmonotone_to_spine,
    monotone_to_spine,
    star_to_star,
    transform_cylindrical,
    transform_special,
)
from treespan.errors import BadTreeError, IncompatibleStepError
from treespan.trees import (
    TreeCert,
    _vertex_rows,
    check_mask,
    enumerate_plane_trees,
    mask_trees,
    tree_mask,
)

import reference_trees
from conftest import edge_ids, polar_k2, polar_k5


def _outcome(f, *args):
    """The value f returns, or the type and message of what it raises."""
    try:
        return ("value", f(*args))
    except Exception as e:  # noqa: BLE001 - the exception is the outcome
        return ("raises", type(e), str(e))


def _drawings():
    bip, _ = fixture_bipartite_isolated()
    return [polar_k2(), polar_k5(), bip,
            generate(GenSpec(cls="random_points", n=6, seed=1))]


EDGE_LISTS = [
    [(0, 1), (1, 2)],                 # canonical
    [(1, 0), (2, 1)],                 # reversed
    [[0, 1], [2, 1]],                 # list-typed
    [(0, 1), (1, 0)],                 # duplicate, either orientation
    [(1, 0), (1, 0)],
    [(2, 2)],                         # loop
    [(0, 1), (3, 3)],
    [(0, 9)], [(9, 0)], [(-1, 0)], [(9, 9)],  # out of range
    [(0, 2)],                         # a bipartite drawing lacks it
    [(0, 1), (0, 2), (2, 3)],
    [],
    [("a", 1)], [(1, "a")],           # ends that do not compare
    [([0], [1])], [([0], 1)],         # ends that do not hash
    [([0], {1: 2})],                  # ends that neither compare nor hash
    [(None, 0)], [(0.0, 1.0)], [(True, 0)],
    [(0, 1, 2)], [(0,)], [5], ["01"],  # not a pair
]


@pytest.mark.parametrize("edges", EDGE_LISTS, ids=repr)
def test_tree_mask_matches_reference_on_each_input(edges):
    for d in _drawings():
        assert (_outcome(tree_mask, d, edges)
                == _outcome(reference_trees.tree_mask, d, edges)), d.graph


def test_tree_mask_reads_one_shot_iterators():
    d = polar_k5()
    for edges in ([(0, 1), (1, 2), (3, 2)], [(0, 1), (1, 0)], [(0, 1), (4, 4)]):
        assert (_outcome(tree_mask, d, (e for e in edges))
                == _outcome(reference_trees.tree_mask, d, iter(edges)))


def test_tree_mask_matches_reference_on_random_edge_lists():
    rng = random.Random(26)
    for d in _drawings():
        for _ in range(400):
            edges = [(rng.randint(-1, d.n), rng.randint(-1, d.n))
                     for _ in range(rng.randint(0, d.n + 1))]
            assert (_outcome(tree_mask, d, edges)
                    == _outcome(reference_trees.tree_mask, d, edges)), edges


def test_cold_certificates_match_reference():
    """Random masks (cycles, forests, too few or too many edges, 0) and
    every plane tree, each certified on a cache miss."""
    rng = random.Random(5)
    for d in _drawings() + [generate(GenSpec(cls="convex", n=7, seed=0))]:
        m = len(d.edges)
        masks = {0, (1 << m) - 1} | {tree_mask(d, t) for t in enumerate_plane_trees(d)}
        for _ in range(300):
            k = rng.randint(0, min(m, d.n + 1))
            masks.add(sum(1 << i for i in rng.sample(range(m), k)))
        for mask in masks:
            d._cert_cache.clear()
            cert, expected = check_mask(d, mask), reference_trees.check_mask(d, mask)
            assert cert == expected and cert.conflict == expected.conflict, bin(mask)
            assert (cert.is_plane_spanning_tree
                    == (expected.spanning and expected.acyclic_connected
                        and expected.plane))


def test_vertex_rows_meet_in_edge_bits():
    for d in _drawings():
        rows = _vertex_rows(d)
        for u in range(d.n):
            for v in range(d.n):
                if u != v:
                    assert rows[u] & rows[v] == d._edge_bit.get((u, v), 0)
        assert d._edge_bit == {**{e: 1 << i for e, i in edge_ids(d).items()},
                               **{e[::-1]: 1 << i for e, i in edge_ids(d).items()}}


def test_star_reads_the_vertex_row_or_names_the_missing_edge():
    d = polar_k5()
    assert _star(d, 2) == tree_mask(d, [(2, v) for v in range(5) if v != 2])
    bip, _ = fixture_bipartite_isolated()
    for c in range(bip.n):
        assert (_outcome(_star, bip, c)
                == _outcome(tree_mask, bip, [(c, v) for v in range(bip.n) if v != c]))


# ---------------------------------------------------------------------------
# one certificate read per distinct mask
# ---------------------------------------------------------------------------

class _CountingCache(dict):
    """A drawing's certificate cache that notes each mask found in it, by
    ``get``, ``[]`` or ``in``."""

    def __init__(self, seen, entries):
        super().__init__(entries)
        self.seen = seen

    def get(self, mask, default=None):
        if dict.__contains__(self, mask):
            self.seen.append(mask)
            return dict.__getitem__(self, mask)
        return default

    def __getitem__(self, mask):
        cert = dict.__getitem__(self, mask)
        self.seen.append(mask)
        return cert

    def __contains__(self, mask):
        found = dict.__contains__(self, mask)
        if found:
            self.seen.append(mask)
        return found


@pytest.fixture
def reads(monkeypatch):
    """``watch(d)`` makes d's certificate reads show in the returned list:
    a mask found in its cache, or a mask passed to ``check_mask``, in
    order.  ``check_mask`` on a cached mask therefore counts twice."""
    seen = []
    real = treespan.trees.check_mask

    def counting(d, mask):
        seen.append(mask)
        return real(d, mask)

    def watch(d):
        if not isinstance(vars(d).get("_cert_cache"), _CountingCache):
            vars(d)["_cert_cache"] = _CountingCache(seen, d._cert_cache)

    monkeypatch.setattr(treespan.trees, "check_mask", counting)
    monkeypatch.setattr(treespan.transforms, "check_mask", counting)
    return seen, watch


def _calls():
    """(drawing, call, input trees) of every public transformation on a
    few inputs."""
    out = []
    cyl = generate(GenSpec(cls="cylindrical", n=6, seed=0, a=3, b=3))
    roles = validate_simple(cyl).is_cylindrical
    trees = enumerate_plane_trees(cyl)
    for t1, t2 in list(zip(trees[::97], trees[40::53])) + [(trees[3], trees[3])]:
        out.append((cyl, lambda t1=t1, t2=t2: transform_cylindrical(cyl, roles, t1, t2),
                    [t1, t2]))
    mono = generate(GenSpec(cls="monotone_perturbed", n=6, seed=1))
    spine = classify_monotone(mono)
    for t in enumerate_plane_trees(mono)[::211]:
        out.append((mono, lambda t=t: monotone_to_spine(mono, spine, t), [t]))
    for seed in (1, 2):  # a cut-branch drawing and a corridor-path one
        cm = generate(GenSpec(cls="strongly_cmonotone", n=6, seed=seed))
        assert classify_c_monotone(cm)[1]
        for t in enumerate_plane_trees(cm)[::301]:
            out.append((cm, lambda t=t, cm=cm: cmonotone_to_spine(cm, t), [t]))
    d5 = polar_k5()
    star = [(0, v) for v in range(1, 5)]
    double = [(0, 1), (0, 2), (0, 3), (3, 4)]
    twin = [(0, 1), (1, 2), (2, 3), (3, 4)]
    out += [(d5, lambda: star_to_star(d5, 0, 3), []),
            (d5, lambda: transform_special(d5, twin, twin), [twin, twin]),
            (d5, lambda: transform_special(d5, twin, double), [twin, double]),
            (d5, lambda: certify_sequence(d5, [star, double, star]), [star, double, star])]
    special = enumerate_plane_trees(d5, kind="special")
    for t1, t2 in zip(special[::5], special[2::3]):
        out.append((d5, lambda t1=t1, t2=t2: transform_special(d5, t1, t2), [t1, t2]))
    return out


def test_each_transformation_looks_each_mask_up_once(reads):
    """Each input tree of a call, and then each tree of its output, is one
    read of the drawing's cache, on cold caches and warm.  The output of
    ``certify_sequence`` is its input, so it reads each tree once."""
    seen, watch = reads
    calls = _calls()
    for d, _, _ in calls:
        watch(d)
    for warm in (False, True):
        for d, call, inputs in calls:
            seen.clear()
            seq = call()
            masks = [tree_mask(d, t) for t in inputs]
            if seq.method != "manual":  # not certify_sequence's
                masks += seq.masks
            assert seen == masks, warm


def test_a_cached_mask_passed_to_check_mask_counts_twice(reads):
    seen, watch = reads
    d = polar_k5()
    watch(d)
    mask = tree_mask(d, [(0, v) for v in range(1, 5)])
    treespan.trees.check_mask(d, mask)
    assert seen == [mask]
    treespan.trees.check_mask(d, mask)
    assert seen == [mask] * 3


# ---------------------------------------------------------------------------
# what the faster reads keep
# ---------------------------------------------------------------------------

def test_tree_cert_keeps_its_verdict_out_of_eq_and_repr():
    rng = random.Random(27)
    for d in _drawings():
        m = len(d.edges)
        for _ in range(200):
            mask = sum(1 << i for i in rng.sample(range(m), rng.randint(0, m)))
            cert = check_mask(d, mask)
            fresh = TreeCert(cert.spanning, cert.acyclic_connected, cert.plane,
                             mask=mask, conflict=cert.conflict)
            assert (cert.is_plane_spanning_tree
                    == (cert.spanning and cert.acyclic_connected and cert.plane))
            assert vars(fresh)["is_plane_spanning_tree"] is (
                cert.spanning and cert.acyclic_connected and cert.plane)
            assert cert == fresh and hash(cert) == hash(fresh)
            assert repr(cert) == repr(fresh) == (
                f"TreeCert(spanning={cert.spanning!r}, "
                f"acyclic_connected={cert.acyclic_connected!r}, plane={cert.plane!r})")
    assert [f.name for f in dataclasses.fields(TreeCert)] == [
        "spanning", "acyclic_connected", "plane", "mask", "conflict"]


def test_transform_sequence_keeps_its_frozen_dataclass_contract():
    d = polar_k5()
    seq = star_to_star(d, 0, 3)
    for name in ("edges", "masks", "method", "trees", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(seq, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del seq.masks
    same = TransformSequence(d.edges, seq.masks, "special")
    assert same == seq == TransformSequence(edges=d.edges, masks=seq.masks,
                                            method="special")
    assert hash(same) == hash(seq)
    assert same != TransformSequence(d.edges, seq.masks, "manual")
    assert same != TransformSequence(d.edges, seq.masks[:-1], "special")
    assert repr(seq) == (f"TransformSequence(edges={d.edges!r}, "
                         f"masks={seq.masks!r}, method='special')")
    assert [f.name for f in dataclasses.fields(seq)] == ["edges", "masks", "method"]
    trees = seq.trees
    assert seq.trees is trees
    assert trees == tuple(mask_trees(d.edges, [mask])[0] for mask in seq.masks)
    assert seq == same and repr(seq) == repr(same)  # trees is in neither
    assert dataclasses.replace(seq, method="manual") == TransformSequence(
        d.edges, seq.masks, "manual")
    assert seq.certified and len(seq) == 4 and seq.flips == 3


# spanning and acyclic in polar_k5, but (1, 4) crosses (2, 3)
CROSSED = [(0, 1), (1, 4), (0, 3), (2, 3)]


def test_a_cached_bad_tree_still_fails_at_its_index():
    d = polar_k5()
    star = [(0, v) for v in range(1, 5)]
    double = [(0, 1), (0, 2), (0, 3), (3, 4)]
    cert = check_mask(d, tree_mask(d, CROSSED))
    assert cert.spanning and cert.acyclic_connected and not cert.plane
    calls = [
        (lambda: transform_special(d, star, CROSSED), 1),
        (lambda: transform_special(d, CROSSED, star), 0),
        (lambda: transform_special(d, CROSSED, CROSSED), 0),
        (lambda: cmonotone_to_spine(d, CROSSED), 0),
        (lambda: certify_sequence(d, [star, double, CROSSED]), 2),
        (lambda: certify_sequence(d, [CROSSED, star]), 0),
        (lambda: certify_sequence(d, [star, CROSSED, star, CROSSED]), 1),
    ]
    for call, index in calls:
        for _ in range(2):  # the second time every mask is cached
            with pytest.raises(BadTreeError) as e:
                call()
            assert e.value.index == index and e.value.cert is cert


def test_cached_bad_cylindrical_input_fails_at_its_index():
    d = generate(GenSpec(cls="cylindrical", n=6, seed=0, a=3, b=3))
    roles = validate_simple(d).is_cylindrical
    good = enumerate_plane_trees(d)[0]
    rng = random.Random(3)
    while True:  # a spanning tree of K6 that is not plane
        perm = rng.sample(range(6), 6)
        bad = [tuple(sorted((perm[i], perm[i + 1]))) for i in range(5)]
        cert = check_mask(d, tree_mask(d, bad))
        if not cert.plane:
            break
    for t1, t2, index in ((good, bad, 1), (bad, good, 0)):
        with pytest.raises(BadTreeError) as e:
            transform_cylindrical(d, roles, t1, t2)
        assert e.value.index == index and e.value.cert is cert


def test_trees_are_checked_before_steps():
    d = polar_k5()
    trees = enumerate_plane_trees(d)
    a, b = next((a, b) for a in trees for b in trees
                if tree_mask(d, a) & check_mask(d, tree_mask(d, b)).conflict)
    with pytest.raises(IncompatibleStepError) as e:
        certify_sequence(d, [a, a, b, a, b])
    assert e.value.index == 1
    with pytest.raises(BadTreeError) as e:
        certify_sequence(d, [a, b, CROSSED])
    assert e.value.index == 2
