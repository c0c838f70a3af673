"""Generator determinism and class-conformance tests, and the integer
builders against their ``Fraction`` reference builders."""

import copy
import dataclasses
from fractions import Fraction as F

import pytest

from treespan import drawing, generators
from treespan.compat import build_compat_graph
from treespan.drawing import (
    classify_c_monotone,
    classify_cylindrical,
    edge,
    validate_simple,
)
from treespan.errors import NotSimpleError, RejectionBudgetExceededError
from treespan.generators import (
    _CLASSES,
    GenSpec,
    _Reject,
    fixture_bipartite_isolated,
    generate,
)
from treespan.rng import SplitMix64
from treespan.trees import tree_mask

from conftest import crossings
from reference_drawing import circle_paths
from reference_generators import REFERENCE
from reference_trees import check_tree


def test_splitmix_reference_values():
    # first outputs for seed 0, pinned so the stream can never drift
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    # choice reads one output per pick: index = output mod len(seq)
    rng = SplitMix64(0)
    assert "".join(rng.choice("abcdefg") for _ in range(6)) == "cbcecc"
    with pytest.raises(ValueError, match="empty range"):
        rng.choice([])


def test_splitmix_randint_rejects_an_empty_range():
    rng = SplitMix64(0)
    with pytest.raises(ValueError, match="empty range"):
        rng.randint(3, 2)
    assert rng.next_u64() == 0xE220A8397B1DCDAF  # the stream did not move
    assert rng.randint(5, 5) == 5


def test_determinism_same_drawing():
    for cls in ("convex", "random_points", "monotone_perturbed", "two_page",
                "strongly_cmonotone"):
        a = generate(GenSpec(cls=cls, n=6, seed=99))
        b = generate(GenSpec(cls=cls, n=6, seed=99))
        assert a.vertex_points == b.vertex_points
        assert a.curves == b.curves


def test_convex_crossing_counts():
    for n, want in [(4, 1), (5, 5), (6, 15), (7, 35)]:
        d = generate(GenSpec(cls="convex", n=n, seed=3))
        assert len(d.crossing_pairs()) == want


def test_random_points_simple():
    for seed in range(3):
        d = generate(GenSpec(cls="random_points", n=7, seed=seed))
        assert validate_simple(d).is_simple


def test_monotone_class():
    for seed in range(3):
        d = generate(GenSpec(cls="monotone_perturbed", n=8, seed=seed))
        assert validate_simple(d).is_monotone


def test_two_page_class():
    for seed in range(3):
        d = generate(GenSpec(cls="two_page", n=7, seed=seed))
        report = validate_simple(d)
        assert report.is_two_page_book
        for k in range(6):
            assert not crossings(d)[(k, k + 1)]


def test_cylindrical_roles():
    d = generate(GenSpec(cls="cylindrical", n=4, seed=5, a=2, b=2))
    roles = classify_cylindrical(d, F(1), F(4))
    k = len(roles.inner_vertices)  # inner edges, outer edges, side edges:
    assert (k * (k - 1) // 2, (4 - k) * (3 - k) // 2,
            roles.sides_mask.bit_count()) == (1, 1, 4)


def test_cylindrical_remark_holds():
    for (a, b) in [(2, 3), (3, 3), (2, 4)]:
        for seed in (1, 2):
            d = generate(GenSpec(cls="cylindrical", n=a + b, seed=seed, a=a, b=b))
            roles = classify_cylindrical(d, F(1), F(4))
            assert roles is not None
            paths = []
            for _, crossed, path in circle_paths(d, roles):
                assert len(crossed) <= 1
                paths += path
            assert roles.paths_mask == tree_mask(d, paths)


def test_strongly_cmonotone_modes():
    seen = set()
    for seed in range(8):
        d = generate(GenSpec(cls="strongly_cmonotone", n=6, seed=seed))
        c, strong, spine = classify_c_monotone(d)
        assert c and strong
        seen.add(spine.all_cycle_edges_spine)
    assert seen == {True, False}


def test_span_union_never_covers():
    from reference_drawing import edge_span
    from treespan.drawing import _spans_cover_circle

    d = generate(GenSpec(cls="strongly_cmonotone", n=7, seed=11))
    spans = {e: edge_span(d, e) for e in d.edges}
    es = d.edges
    for i, e in enumerate(es):
        for f in es[i + 1:]:
            assert not _spans_cover_circle(spans[e], spans[f])


# ---------------------------------------------------------------------------
# integer builders against the Fraction reference builders
# ---------------------------------------------------------------------------

_REFERENCE_SPECS = {  # class -> the specs whose first candidates are compared
    "monotone_perturbed": [dict(n=n) for n in range(3, 11)],
    "strongly_cmonotone": [dict(n=n) for n in range(3, 9)],
    "cylindrical": [dict(n=a + b, a=a, b=b)
                    for a, b in ((1, 3), (2, 2), (2, 3), (3, 3), (2, 4))],
}


@pytest.mark.parametrize("cls", sorted(_REFERENCE_SPECS))
def test_builders_match_fraction_reference(cls):
    """On the first 8 candidates of seeds 0-3 of every spec, the builder
    returns the reference builder's drawing, vertex points and curves in the
    same insertion order, or raises _Reject: then the reference rejects the
    candidate too, or validation does.  Both outcomes occur."""
    build, outcomes = _CLASSES[cls][0], set()
    for shape in _REFERENCE_SPECS[cls]:
        for seed in range(4):
            spec, rng = GenSpec(cls=cls, seed=seed, **shape), SplitMix64(seed)
            for _ in range(8):
                child = rng.split()
                twin = copy.copy(child)
                try:
                    want = REFERENCE[cls](spec, child)
                except _Reject:
                    want = None
                try:
                    got, _ = build(spec, twin)
                except _Reject:
                    if want is not None:
                        with pytest.raises(NotSimpleError):
                            validate_simple(want)
                    outcomes.add("early stop")
                    continue
                assert got.vertex_points == want.vertex_points
                assert list(got.curves.items()) == list(want.curves.items())
                outcomes.add("built")
    assert outcomes == {"early stop", "built"}


def _crossing_row_calls(monkeypatch) -> list:
    """The drawings ``_crossing_rows`` runs on from now on, whether
    ``generate`` calls it or a ``cross_mask`` read."""
    calls = []
    crossing_rows = drawing._crossing_rows

    def counting(d, *unchecked):
        calls.append(d)
        return crossing_rows(d, *unchecked)

    for module in (drawing, generators):
        monkeypatch.setattr(module, "_crossing_rows", counting)
    return calls


def test_early_stop_spares_full_validation(monkeypatch):
    """monotone_perturbed n = 10 seed 406 takes 240 candidates; the 239
    rejected ones stop at an adjacent contact inside the builder, so only
    the accepted one builds a crossing matrix (240 did before)."""
    calls = _crossing_row_calls(monkeypatch)
    d = generate(GenSpec(cls="monotone_perturbed", n=10, seed=406))
    assert calls == [d]


@pytest.mark.parametrize("a, b, seed", [(2, 4, 2), (3, 3, 0), (2, 3, 3)])
def test_cylindrical_early_stop_spares_full_validation(monkeypatch, a, b, seed):
    """Every rejected candidate of these seeds stops at a side curve that
    repeats a waypoint or touches itself, inside the builder, so only the
    accepted drawing builds a crossing matrix (14, 22 and 23 did before)."""
    calls = _crossing_row_calls(monkeypatch)
    d = generate(GenSpec(cls="cylindrical", n=a + b, seed=seed, a=a, b=b))
    assert calls == [d]


def _meet_only_at_runs(monkeypatch) -> list:
    """For each crossing-matrix build from now on: the drawing, and the
    number of pairs of curves sharing a vertex that the build put through
    ``drawing._meet_only_at``.  The builders call it too, under
    ``generators``' own name, which these counts leave out."""
    runs, calls = [], []
    meet, crossing_rows = drawing._meet_only_at, drawing._crossing_rows

    def counting_meet(contacts, at):
        calls.append(None)
        return meet(contacts, at)

    def counting_rows(d, *unchecked):
        calls.clear()
        try:
            return crossing_rows(d, *unchecked)
        finally:
            runs.append((d, len(calls)))

    monkeypatch.setattr(drawing, "_meet_only_at", counting_meet)
    for module in (drawing, generators):
        monkeypatch.setattr(module, "_crossing_rows", counting_rows)
    return runs


def _rerouted(d) -> bool:
    """Does the curve joining the least and the greatest vertex angle run
    across angle 0, through the wedge no other curve enters?"""
    order = sorted(range(d.n), key=lambda v: d.vertex_points[v].theta % 1)
    return d.curves[edge(order[0], order[-1])][-1].theta > 1


def _rebuilt(spec: GenSpec, d):
    """d as its builder returns it outside ``generate``: the candidates of
    spec's seed built again until one has d's curves."""
    rng = SplitMix64(spec.seed)
    while True:
        try:
            built, _ = _CLASSES[spec.cls][0](spec, rng.split())
        except _Reject:
            continue
        if built.curves == d.curves:
            return built


@pytest.mark.parametrize("cls", ["monotone_perturbed", "strongly_cmonotone"])
def test_validation_checks_the_pairs_the_builder_left(monkeypatch, cls):
    """Within ``generate``, validating a candidate puts through the
    adjacent-pair rule exactly the pairs its builder did not check: the
    2(n - 2) pairs of a rerouted seam, none on other candidates.  A copy,
    or the builder's output read outside ``generate``, checks all
    n(n - 1)(n - 2)/2 of them.  Leaving the seam's pairs unchecked changes
    no verdict on these seeds, so only this count tells."""
    runs, kinds = _meet_only_at_runs(monkeypatch), set()
    for n in range(3, 9):
        every = n * (n - 1) * (n - 2) // 2
        for seed in range(6):
            runs.clear()
            d = generate(GenSpec(cls=cls, n=n, seed=seed))
            assert runs[-1][0] is d
            for candidate, count in runs:
                rerouted = cls == "strongly_cmonotone" and _rerouted(candidate)
                assert count == (2 * (n - 2) if rerouted else 0)
                kinds.add(rerouted)
            runs.clear()
            _ = dataclasses.replace(d).cross_mask
            _ = _rebuilt(GenSpec(cls=cls, n=n, seed=seed), d).cross_mask
            assert [count for _, count in runs] == [every, every]
    assert kinds == ({False, True} if cls == "strongly_cmonotone" else {False})


def test_invalid_spec():
    with pytest.raises(ValueError):
        GenSpec(cls="cylindrical", n=5, seed=1, a=5, b=1)
    with pytest.raises(ValueError):
        GenSpec(cls="convex", n=2, seed=1)
    with pytest.raises(ValueError):
        generate(GenSpec(cls="banana", n=5, seed=1))
    for a, b in ((2, 3), (2, None), (None, 3)):  # sizes are for cylindrical only
        with pytest.raises(ValueError, match="cylindrical only"):
            GenSpec(cls="convex", n=5, seed=1, a=a, b=b)
    for seed in (-1, 2**64):  # SplitMix64 would read them as 2**64 - 1 and 0
        with pytest.raises(ValueError, match="seed must be in"):
            GenSpec(cls="convex", n=5, seed=seed)


# ---------------------------------------------------------------------------
# frozen bipartite fixture
# ---------------------------------------------------------------------------

def test_fixture_tree_plane_spanning():
    d, tree = fixture_bipartite_isolated()
    assert validate_simple(d).is_simple
    cert = check_tree(d, tree)
    assert cert.is_plane_spanning_tree


def test_fixture_crosses_every_nontree_edge():
    d, tree = fixture_bipartite_isolated()
    tset = set(tree)
    for e in d.edges:
        if e not in tset:
            assert crossings(d)[e] & tset


def test_fixture_isolated_in_compat_graph():
    d, tree = fixture_bipartite_isolated()
    g = build_compat_graph(d)
    assert g.adjacency[g.index[tree]] == 0


def test_rejection_budget_is_enforced(monkeypatch):
    # seed 406 takes 240 candidates at n=10, far beyond a budget of one
    monkeypatch.setattr(generators, "MAX_REJECTS", 1)
    with pytest.raises(RejectionBudgetExceededError):
        generate(GenSpec(cls="monotone_perturbed", n=10, seed=406))
