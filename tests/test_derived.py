"""Structures derived once per drawing.

Each memoised structure (the classifiers, the cut, the strip table of the
spine route, the spine masks, the relation orders, the cylindrical path and
side masks and the certificates' conflict masks) is checked against its
uncached builder over a grid of generated drawings; build counts confirm
that repeated transformations build each structure once; and no caller can
change a drawing's answers through what it was handed.
"""

import dataclasses
from itertools import permutations

import pytest

import treespan.drawing
import treespan.transforms
from treespan.drawing import (
    Drawing,
    _classify_c_monotone,
    _classify_monotone,
    _cut_to_monotone,
    classify_c_monotone,
    classify_monotone,
    cut_to_monotone,
    validate_simple,
)
from treespan.errors import RelationCyclicError
from treespan.generators import GenSpec, generate
from treespan.rng import SplitMix64
from treespan.transforms import (
    _gr_order,
    _relation_order,
    _strip,
    cmonotone_to_spine,
    monotone_to_spine,
    star_to_star,
    transform_cylindrical,
    transform_special,
)
from treespan.trees import check_mask, conflict_mask, enumerate_plane_trees, tree_mask

# strongly c-monotone seeds per n: the first that takes the cut and the
# first whose cycle edges are all spine edges (the corridor path)
CMONO = {4: (0, 2), 5: (0, 1), 6: (0, 2), 7: (1, 0)}

GRID = ([GenSpec(cls=cls, n=n, seed=s) for cls in ("random_points", "monotone_perturbed")
         for n in range(4, 8) for s in (0, 1)]
        + [GenSpec(cls="strongly_cmonotone", n=n, seed=s)
           for n, seeds in CMONO.items() for s in seeds]
        + [GenSpec(cls="cylindrical", n=a + b, seed=s, a=a, b=b)
           for a, b in ((2, 3), (3, 3)) for s in (0, 1)])


def _name(spec):
    return f"{spec.cls}-{spec.n}-{spec.seed}"


def _use(d, trees):
    """Run every transformation that applies to d on a few of its trees,
    filling its memo the way callers do."""
    report = validate_simple(d)
    some = trees[:: max(1, len(trees) // 4)]
    if report.is_cylindrical is not None:
        for t1, t2 in zip(some, reversed(some)):
            transform_cylindrical(d, report.is_cylindrical, t1, t2)
    spine = classify_monotone(d)
    for t in some:
        if spine is not None:
            monotone_to_spine(d, spine, t)
        if report.is_strongly_c_monotone:
            cmonotone_to_spine(d, t)
    special = enumerate_plane_trees(d, kind="special")
    for t1, t2 in zip(special[::7], special[3::7]):
        try:
            transform_special(d, t1, t2)
        except RelationCyclicError:
            pass


def _assert_memo_matches_builders(d):
    """Every memoised value equals its builder run on a cold copy."""
    assert d._derived
    for (build, *args), value in d._derived.items():
        assert value == build(dataclasses.replace(d), *args), build.__name__
        assert (isinstance(value, (tuple, bool, type(None)))
                or dataclasses.is_dataclass(value))


@pytest.mark.parametrize("spec", GRID, ids=_name)
def test_memo_matches_uncached_builders(spec):
    d = generate(spec)
    trees = enumerate_plane_trees(d)
    _use(d, trees)
    fresh = dataclasses.replace(d)

    for g, r in permutations(range(d.n), 2):
        try:
            expected = _relation_order(fresh, g, r)
        except RelationCyclicError:
            with pytest.raises(RelationCyclicError):
                _gr_order(d, g, r)
            continue
        assert _gr_order(d, g, r) == expected

    for t in trees:
        mask = tree_mask(d, t)
        assert check_mask(d, mask).conflict == conflict_mask(fresh, mask)

    roles = validate_simple(d).is_cylindrical
    if spec.cls == "cylindrical":
        assert roles.paths_mask == tree_mask(fresh, roles.inner_path + roles.outer_path)
        assert roles.sides_mask == tree_mask(
            fresh, [e for e in fresh.edges if len(set(e) & set(roles.inner_vertices)) == 1])

    assert classify_monotone(d) == _classify_monotone(fresh)
    assert classify_c_monotone(d) == _classify_c_monotone(fresh)
    cut = cut_to_monotone(d)
    assert cut == _cut_to_monotone(fresh)
    if spec.cls == "strongly_cmonotone":
        assert (cut is None) == (spec.seed == CMONO[spec.n][1])
    corridors = spec.cls == "strongly_cmonotone" and cut is None
    flats = [d] + ([cut] if cut else [])
    for flat in flats:
        if corridors or classify_monotone(flat) is not None:  # the spine route's drawings
            assert flat._derive(_strip) == _strip(dataclasses.replace(flat))
        _assert_memo_matches_builders(flat)


# ---------------------------------------------------------------------------
# build counts
# ---------------------------------------------------------------------------

def _counting(monkeypatch, module, name, log):
    build = getattr(module, name)

    def counting(d, *args):
        log.append(d)
        return build(d, *args)

    monkeypatch.setattr(module, name, counting)


@pytest.mark.parametrize("seed, cut", [(1, True), (7, True), (2, False), (3, False)])
def test_cmonotone_route_builds_classifier_and_cut_once(seed, cut, monkeypatch):
    d = generate(GenSpec(cls="strongly_cmonotone", n=6, seed=seed))
    trees = enumerate_plane_trees(d)
    d = dataclasses.replace(d)  # cold: generation classified the original
    classified, cuts, flat_classified, strips = [], [], [], []
    _counting(monkeypatch, treespan.drawing, "_classify_c_monotone", classified)
    _counting(monkeypatch, treespan.drawing, "_cut_to_monotone", cuts)
    _counting(monkeypatch, treespan.drawing, "_classify_monotone", flat_classified)
    _counting(monkeypatch, treespan.transforms, "_strip", strips)
    for k in range(100):
        assert cmonotone_to_spine(d, trees[k * 37 % len(trees)]).certified
    assert classified == [d]
    assert cuts == ([d] if cut else [])
    assert len(flat_classified) == cut
    assert len(strips) == 1 and strips[0] is (cut_to_monotone(d) if cut else d)


def test_star_schedules_build_each_relation_order_once(monkeypatch):
    built = []
    _counting(monkeypatch, treespan.transforms, "_relation_order", built)
    for seed, (cls, n) in enumerate([("random_points", 5), ("random_points", 6),
                                     ("monotone_perturbed", 6), ("random_points", 7)]):
        d = generate(GenSpec(cls=cls, n=n, seed=seed + 31))
        trees = enumerate_plane_trees(d, kind="special")
        rng = SplitMix64(seed)
        pairs = [(trees[rng.randint(0, len(trees) - 1)],
                  trees[rng.randint(0, len(trees) - 1)]) for _ in range(300)]
        built.clear()
        for t1, t2 in pairs:
            assert transform_special(d, t1, t2).certified
        assert built and all(b is d for b in built)
        assert len(built) <= n * (n - 1)


# ---------------------------------------------------------------------------
# drawings cannot change under their caches
# ---------------------------------------------------------------------------

def test_returned_lists_do_not_reach_the_memo(m4):
    """The memo hands out tuples and ints, which no caller can change."""
    strip = m4._derive(_strip)
    assert all(isinstance(f, tuple) for f in strip)
    assert all(isinstance(x, (int, tuple)) for f in strip for x in f)
    assert strip.above[m4.edge_id[(0, 3)]] == 1 << 1  # vertex 1 lies above (0, 3)
    order = _gr_order(m4, 0, 3)
    assert isinstance(order, tuple)
    assert star_to_star(m4, 0, 3).certified and _gr_order(m4, 0, 3) == order


def test_failed_derivation_stores_nothing(m4):
    """A relation order that meets a cycle raises, and leaves no entry
    behind.  The crossing rows are set so that (1, 2) crosses (0, 3) and
    (1, 3) crosses (0, 2): for centres 0 and 1, vertex 2 comes before 3
    and 3 before 2."""
    d = dataclasses.replace(m4)
    ids, rows = d.edge_id, [0] * len(d.edges)
    for e, f in (((1, 2), (0, 3)), ((1, 3), (0, 2))):
        rows[ids[e]] |= 1 << ids[f]
        rows[ids[f]] |= 1 << ids[e]
    vars(d)["cross_mask"] = tuple(rows)
    for _ in range(2):
        with pytest.raises(RelationCyclicError):
            _gr_order(d, 0, 1)
    assert not d._derived
    assert _gr_order(d, 0, 2) == (1, 3) and len(d._derived) == 1


def test_replaced_drawing_starts_cold():
    d = generate(GenSpec(cls="strongly_cmonotone", n=5, seed=0))
    cmonotone_to_spine(d, enumerate_plane_trees(d)[0])
    assert d._derived
    copy = dataclasses.replace(d)
    assert "_derived" not in vars(copy) and "_cert_cache" not in vars(copy)
    assert copy == d and cut_to_monotone(copy) == cut_to_monotone(d)
    assert cut_to_monotone(copy) is not cut_to_monotone(d)
    assert "_derived" not in {f.name for f in dataclasses.fields(Drawing)}
