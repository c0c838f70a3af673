"""A ``Relation`` stands in for its drawing wherever only crossings count.

Enumeration, compatibility graphs, ``analyze``, certification and the
star-family route read ``n``, ``edges`` and ``cross_mask`` alone, so on
every generated drawing d of ``test_enumeration_reference.DRAWINGS``,
``Relation(d.n, d.edges, d.cross_mask)`` must give exactly what d gives.
A relation has no curves, vertex points or backend: a layer that reached
for one would fail here.  ``check_mask`` also runs on synthetic
relations, which no drawing realises, against the reference certificate.

A relation, like a drawing, cannot change under its own caches: it keeps
copies of what it was built from, every assignment raises, and each
instance has memos of its own.
"""

from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings

from treespan.compat import analyze, build_compat_graph
from treespan.drawing import Relation
from treespan.errors import TreespanError
from treespan.generators import GenSpec, generate
from treespan.rng import SplitMix64
from treespan.transforms import transform_special
from treespan.trees import _plane_masks, check_mask, compatible_step_to_flips

import reference_trees
from test_enumeration_reference import DRAWINGS, crossing_relations

SAMPLE = 12  # tree pairs per drawing and transformation


def _outcome(call, *args):
    """The call's result, or the type and message of the error it raises."""
    try:
        return call(*args)
    except (TreespanError, ValueError) as e:
        return type(e), str(e)


def _sample(rng, trees):
    """SAMPLE seeded pairs of the trees."""
    picks = [trees[rng.randint(0, len(trees) - 1)] for _ in range(2 * SAMPLE)] if trees else []
    return list(zip(picks[::2], picks[1::2]))


def _layers(d):
    """Everything the crossing-only layers answer on d, in one list."""
    out = [_plane_masks(d, "all"), _plane_masks(d, "special")]
    full, special = (build_compat_graph(d, restricted=r) for r in (False, True))
    for g in (full, special):
        out.append((g.edges, g.masks, g.class_of, g.class_rows, g.restricted, analyze(g)))
    rng = SplitMix64(1)
    out += [_outcome(transform_special, d, t1, t2)
            for t1, t2 in _sample(rng, special.nodes)]
    # each sampled pair, and the first tree with a neighbouring class
    for t1, t2 in _sample(rng, full.nodes):
        row = full.class_rows[full.class_of[full.index[t1]]]
        near = [u for u, c in zip(full.nodes, full.class_of) if row >> c & 1][:1]
        out += [_outcome(compatible_step_to_flips, d, t1, t) for t in [t2] + near]
    return out


@pytest.mark.parametrize("make", [m for _, m in DRAWINGS],
                         ids=[name for name, _ in DRAWINGS])
def test_relation_of_a_drawing_answers_as_the_drawing(make):
    d = make()
    relation = Relation(d.n, d.edges, d.cross_mask)
    assert isinstance(d, Relation)
    assert not hasattr(relation, "curves") and not hasattr(relation, "vertex_points")
    assert _layers(relation) == _layers(d)


@settings(max_examples=100, deadline=None)
@given(crossing_relations())
def test_check_mask_on_synthetic_relations(relation):
    """Every mask below 2^m for a few edges, a seeded sample past that."""
    m = len(relation.edges)
    rng = SplitMix64(m)
    masks = range(1 << m) if m <= 6 else [rng.randint(0, (1 << m) - 1) for _ in range(64)]
    for mask in masks:
        assert check_mask(relation, mask) == reference_trees.check_mask(relation, mask)
        assert relation._cert_cache[mask] is check_mask(relation, mask)


def test_relation_keeps_copies_of_its_inputs():
    edges, rows = [[0, 1], [1, 2], [0, 2]], [0, 0, 0]
    relation = Relation(3, edges, rows)
    edges[0][1] = 2
    edges.append([2, 3])
    rows[0] = 5
    rows.append(1)
    assert relation.edges == ((0, 1), (1, 2), (0, 2))
    assert relation.cross_mask == (0, 0, 0)
    assert relation._edge_bit[1, 0] == 1


@pytest.mark.parametrize("kind", ["relation", "drawing"])
def test_no_attribute_can_be_assigned_or_deleted(kind):
    d = generate(GenSpec(cls="convex", n=4, seed=1))
    target = Relation(d.n, d.edges, d.cross_mask) if kind == "relation" else d
    target._edge_bit  # a cached property, now in the instance dict
    names = ["n", "edges", "cross_mask", "_cert_cache", "_derived", "_edge_bit", "other"]
    if kind == "drawing":
        names += ["backend", "vertex_points", "curves", "graph", "circles", "_report"]
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(target, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(target, name)


def test_relations_from_the_same_rows_keep_their_own_memos():
    edges, rows = [(0, 1), (0, 2), (1, 2)], [0, 0, 0]
    one, two = Relation(3, edges, rows), Relation(3, edges, rows)
    assert one._cert_cache is not two._cert_cache
    assert one._derived is not two._derived
    check_mask(one, 3)
    one._derive(lambda r: r.n)
    assert list(one._cert_cache) == [3] and two._cert_cache == {}
    assert len(one._derived) == 1 and two._derived == {}
