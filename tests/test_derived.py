"""Structures derived once per drawing.

Each memoised structure (the classifiers, the strip table of the spine
route, the spine masks, the flip pairs, the cylindrical path and
side masks and the certificates' conflict masks) is checked against its
uncached builder over a grid of generated drawings; build counts confirm
that repeated transformations build each structure once; and no caller can
change a drawing's answers through what it was handed.
"""

import dataclasses
from fractions import Fraction as F
from itertools import permutations

import pytest

import treespan.drawing
import treespan.transforms
from treespan.drawing import (
    Drawing,
    _classify_c_monotone,
    _classify_monotone,
    _integer_image,
    classify_c_monotone,
    classify_cylindrical,
    classify_monotone,
    validate_simple,
)
from treespan.errors import RelationCyclicError
from treespan.fileio import drawing_from_dict, drawing_to_dict
from treespan.generators import GenSpec, generate
from treespan.rng import SplitMix64
from treespan.transforms import (
    _flip_pairs,
    _strip,
    cmonotone_to_spine,
    monotone_to_spine,
    star_to_star,
    transform_cylindrical,
    transform_special,
)
from treespan.trees import (
    _vertex_rows,
    check_mask,
    conflict_mask,
    enumerate_plane_trees,
    tree_mask,
)

from conftest import edge_ids
from reference_drawing import circle_paths


# strongly c-monotone seeds per n: the first with a non-spine cycle edge
# (the monotone step) and the first whose cycle edges are all spine edges
# (the corridor step)
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
            expected = _flip_pairs(fresh, g, r)
        except RelationCyclicError:
            with pytest.raises(RelationCyclicError):
                d._derive(_flip_pairs, g, r)
            continue
        assert d._derive(_flip_pairs, g, r) == expected

    for t in trees:
        mask = tree_mask(d, t)
        assert check_mask(d, mask).conflict == conflict_mask(fresh, mask)

    roles = validate_simple(d).is_cylindrical
    if spec.cls == "cylindrical":
        (_, _, inner), (_, _, outer) = circle_paths(fresh, roles)
        assert roles.paths_mask == tree_mask(fresh, inner + outer)
        assert roles.sides_mask == tree_mask(
            fresh, [e for e in fresh.edges if len(set(e) & set(roles.inner_vertices)) == 1])

    assert classify_monotone(d) == _classify_monotone(fresh)
    assert classify_c_monotone(d) == _classify_c_monotone(fresh)
    if spec.cls == "strongly_cmonotone":
        spine = classify_c_monotone(d)[2]
        assert spine.all_cycle_edges_spine == (spec.seed == CMONO[spec.n][1])
    if spec.cls == "strongly_cmonotone" or classify_monotone(d) is not None:  # the spine route's drawings
        assert d._derive(_strip) == _strip(dataclasses.replace(d))
    _assert_memo_matches_builders(d)


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
    classified, monotone, strips, validated = [], [], [], []
    _counting(monkeypatch, treespan.drawing, "_classify_c_monotone", classified)
    _counting(monkeypatch, treespan.drawing, "_classify_monotone", monotone)
    _counting(monkeypatch, treespan.transforms, "_strip", strips)
    _counting(monkeypatch, treespan.drawing, "_crossing_rows", validated)
    for k in range(100):
        assert cmonotone_to_spine(d, trees[k * 37 % len(trees)]).certified
    assert (classify_c_monotone(d)[2].all_cycle_edges_spine is False) == cut
    assert classified == [d]
    assert monotone == []  # no flat copy is classified
    assert len(strips) == 1 and strips[0] is d
    assert len(validated) == 1 and validated[0] is d


def test_integer_image_is_built_once(monkeypatch):
    """Validation derives the integer image and the class checks read it:
    an accepted ``generate`` of a bent class builds one, a straight drawing
    with no three vertices on a line scales only its vertex points, and
    ``validate_simple`` on a freshly loaded bent drawing builds one."""
    built = []
    image = treespan.drawing._integer_image

    def counting(d, curves=True):
        built.append((d, curves))
        return image(d, curves)

    monkeypatch.setattr(treespan.drawing, "_integer_image", counting)
    for cls, a, b in (("monotone_perturbed", None, None), ("two_page", None, None),
                      ("strongly_cmonotone", None, None), ("cylindrical", 3, 3)):
        for seed in range(3):
            built.clear()
            d = generate(GenSpec(cls=cls, n=6, seed=seed, a=a, b=b))
            assert [curves for x, curves in built if x is d] == [True]
            built.clear()
            loaded = drawing_from_dict(drawing_to_dict(d))
            validate_simple(loaded)
            assert built == [(loaded, True)]
    for seed in range(3):
        built.clear()
        d = generate(GenSpec(cls="random_points", n=8, seed=seed))
        assert built == [(d, False)]


def test_cylindrical_roles_are_built_once(monkeypatch):
    """``generate``'s class check, ``validate_simple`` and a direct call
    share one ``classify_cylindrical`` build per drawing and radii, which
    tests every curve against both circles once."""
    tested = []
    crossing = treespan.drawing.curve_circle_crossing

    def counting(curve, center, r2):
        tested.append(curve)
        return crossing(curve, center, r2)

    monkeypatch.setattr(treespan.drawing, "curve_circle_crossing", counting)
    for seed in range(3):
        d = generate(GenSpec(cls="cylindrical", n=6, seed=seed, a=3, b=3))
        assert tested
        tested.clear()
        roles = validate_simple(d).is_cylindrical
        assert roles is not None and classify_cylindrical(d, F(1), F(4)) is roles
        assert tested == []
        cold = dataclasses.replace(d)
        for _ in range(2):
            assert validate_simple(cold).is_cylindrical == roles
            assert classify_cylindrical(cold, *cold.circles) == roles
        assert len(tested) == 2 * len(cold.edges)


def test_star_schedules_build_each_relation_order_once(monkeypatch):
    built = []
    _counting(monkeypatch, treespan.transforms, "_flip_pairs", built)
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
    """The memo hands out tuples, ints and read-only mappings, which no
    caller can change: the kept integer image among them."""
    strip = m4._derive(_strip)
    assert all(isinstance(f, tuple) for f in strip)
    assert all(isinstance(x, (int, tuple)) for f in strip for x in f)
    assert strip.above[edge_ids(m4)[(0, 3)]] == 1 << 1  # vertex 1 lies above (0, 3)
    pairs = m4._derive(_flip_pairs, 0, 3)
    assert isinstance(pairs, tuple) and all(isinstance(p, tuple) for p in pairs)
    assert (star_to_star(m4, 0, 3).certified
            and m4._derive(_flip_pairs, 0, 3) == pairs)
    image = m4._derive(_integer_image)
    assert isinstance(image.points, tuple)
    assert all(isinstance(c, tuple) for c in image.curves.values())
    with pytest.raises(TypeError):
        image.curves[0, 3] = image.curves[0, 1]
    with pytest.raises(AttributeError):
        image.points = ()
    assert classify_monotone(m4) is not None and m4._derive(_integer_image) is image


def test_drawing_owns_its_inputs(sq):
    """A drawing built from lists keeps tuples of them: changing the lists
    after its crossing rows were read changes nothing it holds."""
    def inputs():
        return dict(n=4, backend="cartesian", vertex_points=list(sq.vertex_points),
                    curves={e: list(c) for e, c in sq.curves.items()},
                    graph=list(sq.graph), circles=[F(1, 4), F(4)])

    given = inputs()
    d = Drawing(**given)
    rows = d.cross_mask
    given["vertex_points"].reverse()
    for curve in given["curves"].values():
        curve.reverse()
    given["graph"][0] = "bipartite"
    given["circles"][0] = F(1)
    fresh = Drawing(**inputs())
    assert d == fresh and d.cross_mask == rows == fresh.cross_mask
    assert all(isinstance(x, tuple) for x in (d.vertex_points, d.graph, d.circles,
                                              *d.curves.values()))


def test_failed_derivation_stores_nothing(m4):
    """A flip order that meets a cycle raises, and leaves no entry
    behind.  The crossing rows are set so that (1, 2) crosses (0, 3) and
    (1, 3) crosses (0, 2): for centres 0 and 1, vertex 2 comes before 3
    and 3 before 2."""
    d = dataclasses.replace(m4)
    ids, rows = edge_ids(d), [0] * len(d.edges)
    for e, f in (((1, 2), (0, 3)), ((1, 3), (0, 2))):
        rows[ids[e]] |= 1 << ids[f]
        rows[ids[f]] |= 1 << ids[e]
    vars(d)["cross_mask"] = tuple(rows)
    for _ in range(2):
        with pytest.raises(RelationCyclicError):
            d._derive(_flip_pairs, 0, 1)
    assert list(d._derived) == [(_vertex_rows,)]  # read before the cycle was met
    bit = d._edge_bit  # order (1, 3) for centres 0 and 2, read last first
    assert d._derive(_flip_pairs, 0, 2) == ((bit[0, 3], bit[2, 3]), (bit[0, 1], bit[2, 1]))
    assert len(d._derived) == 2


def test_replaced_drawing_starts_cold():
    d = generate(GenSpec(cls="strongly_cmonotone", n=5, seed=0))
    cmonotone_to_spine(d, enumerate_plane_trees(d)[0])
    assert d._derived
    copy = dataclasses.replace(d)
    for memo in ("_derived", "_cert_cache"):
        assert getattr(copy, memo) == {} and getattr(copy, memo) is not getattr(d, memo)
    assert copy == d and copy._derive(_strip) == d._derive(_strip)
    assert copy._derive(_strip) is not d._derive(_strip)
    assert "_derived" not in {f.name for f in dataclasses.fields(Drawing)}
