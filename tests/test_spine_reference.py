"""The spine route's round steps against the reference steps.

``_monotone_step`` and ``_corridor_step`` read the strip table; the
reference steps in ``reference_spine`` evaluate ``Fraction`` curves for
every decision.  Starting from sampled plane trees, both steps run on the
same tree each round and must return the same tree, until no twiggly edge
is left.  A strongly c-monotone drawing with a non-spine cycle edge takes
the package's monotone step on itself and the reference step on its
reference cut, a monotone drawing with the same edges; its strip table is
the cut's plus one empty gap.  Planted faults in the table show that the
corridor certificates and the route's empty-gap check read it.
"""

import dataclasses

import pytest

import reference_spine
from treespan.drawing import classify_c_monotone, classify_monotone
from treespan.errors import InternalInvariantViolated
from treespan.generators import GenSpec, generate
from treespan.rng import SplitMix64
from treespan.transforms import (
    _corridor_step,
    _monotone_step,
    _spine_masks,
    _strip,
    cmonotone_to_spine,
)
from treespan.trees import enumerate_plane_trees, tree_mask

from conftest import P, edge_ids, polar_k2, polar_k4, polar_k5, straight_line_drawing

TREES_PER_DRAWING = 24

SPECS = ([GenSpec(cls="strongly_cmonotone", n=n, seed=s) for n in range(4, 9) for s in range(8)]
         + [GenSpec(cls="monotone_perturbed", n=n, seed=s) for n in range(4, 8) for s in range(4)])

FIXTURES = {
    "pk5": polar_k5,
    "pk4": polar_k4,
    "polar_k2": polar_k2,
    "m4": lambda: straight_line_drawing([P(0, 0), P(1, 1), P(2, -1), P(3, 0)]),
    "sq": lambda: straight_line_drawing([P(0, 0), P(4, 1), P(5, 5), P(1, 4)]),
}


def _routed(d):
    """(step, drawing, spine) for the package and for the reference: a
    strongly c-monotone drawing with a non-spine cycle edge takes the
    package's monotone step on itself, and the reference step on its
    reference cut.  Both drawings have the same edge tuple, so their masks
    compare."""
    spine = classify_monotone(d) or classify_c_monotone(d)[2]
    if spine.all_cycle_edges_spine:
        return (_corridor_step, d, spine), (reference_spine.corridor_step, d, spine)
    flat = d if spine.kind == "monotone" else reference_spine.cut_to_monotone(d)
    return ((_monotone_step, d, spine),
            (reference_spine.monotone_step, flat, classify_monotone(flat)))


def _rounds_agree(d, trees):
    """Run both steps round by round from each tree; the number of rounds."""
    (step, d, spine), (reference, flat, flat_spine) = _routed(d)
    spine_mask, twiggly, _ = _spine_masks(d, spine)
    flat_masks = _spine_masks(flat, flat_spine)[:2]
    assert flat.edges == d.edges and flat_masks == (spine_mask, twiggly)
    rounds = 0
    for t in trees:
        t = tree_mask(d, t)
        while t & twiggly:
            new_t = step(d, spine_mask, twiggly, t)
            assert new_t == reference(flat, *flat_masks, t)
            t, rounds = new_t, rounds + 1
    return rounds


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.cls}-{s.n}-{s.seed}")
def test_steps_match_reference_on_generated_drawings(spec):
    d = generate(spec)
    trees = enumerate_plane_trees(d)
    rng = SplitMix64(spec.seed)
    sample = trees if len(trees) <= TREES_PER_DRAWING else [
        trees[rng.randint(0, len(trees) - 1)] for _ in range(TREES_PER_DRAWING)]
    _rounds_agree(d, sample)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_steps_match_reference_on_fixtures(name):
    d = FIXTURES[name]()
    rounds = _rounds_agree(d, enumerate_plane_trees(d))
    assert (rounds > 0) == (name != "polar_k2")  # K_2's one edge is a spine edge


def test_both_branches_are_compared():
    """The strongly c-monotone grid takes the corridor step and the
    monotone step."""
    cuts = [classify_c_monotone(generate(s))[2].all_cycle_edges_spine
            for s in SPECS if s.cls == "strongly_cmonotone"]
    assert cuts.count(True) >= 5 and cuts.count(False) >= 5


def test_strip_is_the_cut_drawings_table_plus_an_empty_gap():
    """On every drawing of the grid with a non-spine cycle edge, and on
    pk4, the table starts after the gap no edge spans: it is the reference
    cut's table with that gap added at the end."""
    drawings = [generate(s) for s in SPECS if s.cls == "strongly_cmonotone"] + [polar_k4()]
    cut = [d for d in drawings if classify_c_monotone(d)[2].all_cycle_edges_spine is False]
    assert len(cut) >= 6
    for d in cut:
        flat = _strip(reference_spine.cut_to_monotone(d))
        assert _strip(d) == flat._replace(rank=flat.rank + ((),), stab=flat.stab + (0,))


def test_spine_route_rejects_a_filled_cut_gap(pk4):
    """pk4's non-spine cycle edge (0, 3) leaves the gap from 3 to 0 empty,
    and the table ends there.  A table in which an edge spans that gap has
    no empty gap to read the drawing from, and the route refuses it."""
    path = [(0, 1), (1, 2), (2, 3)]
    assert cmonotone_to_spine(pk4, path).trees == (tuple(path),)
    d = dataclasses.replace(pk4)
    strip = _strip(d)
    assert strip.order == (0, 1, 2, 3) and strip.stab[-1] == 0
    d._derived[(_strip,)] = strip._replace(stab=strip.stab[:-1] + (strip.stab[0],))
    with pytest.raises(InternalInvariantViolated, match="cut wedge is not empty"):
        cmonotone_to_spine(d, path)


def test_corridor_step_reads_a_planted_fault(pk5):
    """Vertex 3 lies below (1, 4), in the inner corridor between the centre
    and (1, 4).  A table that places it above (1, 4) moves it to the outer
    corridor, whose path then runs below (1, 4) from 3 to 4."""
    t = tree_mask(pk5, [(0, 1), (1, 4), (1, 3), (2, 4)])
    spine_mask, twiggly, _ = _spine_masks(pk5, classify_c_monotone(pk5)[2])
    assert _corridor_step(pk5, spine_mask, twiggly, t) == reference_spine.corridor_step(
        pk5, spine_mask, twiggly, t)

    d = dataclasses.replace(pk5)
    strip = _strip(d)
    e = edge_ids(d)[(1, 4)]
    assert not strip.above[e] >> 3 & 1
    above = list(strip.above)
    above[e] |= 1 << 3
    d._derived[(_strip,)] = strip._replace(above=tuple(above))
    with pytest.raises(InternalInvariantViolated, match="leaves its corridor"):
        _corridor_step(d, spine_mask, twiggly, t)
