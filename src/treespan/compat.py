"""Compatibility graph of plane spanning trees, kept on twin classes.

A graph is built from a ``Relation``, a drawing's crossing relation or
one given as rows, and stores its trees as edge masks over its ``edges``.
Its masks, twin classes and class rows are kept per relation through
``Relation._derive``, listed and built once for each kind, and every graph
built on the relation shares those tuples.  ``nodes`` (the trees'
canonical edge tuples, the public tree type) and ``index``, keyed by those
tuples, are the graph's own, built the first time they are read.

Two plane trees A and B are compatible iff ``A & conflict(B) == 0`` iff
``B & conflict(A) == 0``.  Trees with the same conflict mask therefore have
the same neighbours, and they are adjacent to each other, since each is
plane and so misses that mask: they are true twins, and the graph is the
quotient on conflict masks with each class blown up into a clique.  A graph
keeps that quotient: ``class_of`` maps each tree to its class, numbered in
order of first appearance by the enumeration itself, and ``class_rows``
are Python-int bitsets over classes.  No tree-level rows are stored:
``adjacency`` is a read-only view that keeps one reach mask per class,
built from the class rows when first read, and computes tree i's row from
its class's mask each time it is read.  ``edge_count`` works on the
class rows, against one class mask per bit of the class sizes.

``analyze`` runs on the class rows and expands its result to trees.  Trees
of different classes are as far apart as their classes, and two trees of
one class are at distance 1.  So a tree's eccentricity is its class's, with
one exception: a class alone in its component that holds two or more trees
has eccentricity 1, not 0.  If some class is adjacent to every other
(and there is more than one tree), nothing is searched: every tree of such
a hub class has eccentricity 1 and every other tree 2.  Otherwise one ball
growth over the class rows (``_eccentricities``) finds every class's
component and its eccentricity within it; the tests check it against one
BFS per class.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .drawing import Edge, Relation, bits
from .trees import Tree, _listing, _plane_masks, _shared_kind, mask_trees


class _TreeRows(Sequence):
    """A graph's tree-level rows, kept as one reach mask per twin class
    (the class's trees and those of every class in its row): row i is
    tree i's class's reach without tree i itself."""

    def __init__(self, reach: List[int], class_of: Sequence[int]):
        self._reach, self._class_of = reach, class_of

    def __len__(self) -> int:
        return len(self._class_of)

    def __getitem__(self, i: int) -> int:
        c = self._class_of[i]  # negative i and IndexError as on a list
        return self._reach[c] & ~(1 << i % len(self._class_of))


@dataclass
class CompatGraph:
    """A relation's plane trees, or its star-family trees if
    ``restricted``, and their compatibility.  The three tuples are the
    relation's kept listing and class rows, shared by every graph built on
    it; what a graph derives from them (``nodes``, ``index``, ``sizes``,
    ``adjacency``) is its own."""

    edges: Tuple[Edge, ...]        # the relation's edges: bit i is edges[i]
    masks: Tuple[int, ...]         # node i is the tree masks[i]
    class_of: Tuple[int, ...]      # node -> twin class
    class_rows: Tuple[int, ...]    # bit b of row a: classes a != b compatible
    restricted: bool

    @cached_property
    def nodes(self) -> List[Tree]:
        return mask_trees(self.edges, self.masks)

    @cached_property
    def index(self) -> Dict[Tree, int]:
        return {t: i for i, t in enumerate(self.nodes)}

    @cached_property
    def sizes(self) -> List[int]:
        sizes = [0] * len(self.class_rows)
        for c in self.class_of:
            sizes[c] += 1
        return sizes

    @cached_property
    def adjacency(self) -> Sequence[int]:
        """Bitset rows over nodes, bit j of row i set iff trees i and j are
        compatible: a read-only view that computes each row when read."""
        members = [0] * len(self.class_rows)
        for i, c in enumerate(self.class_of):
            members[c] |= 1 << i
        reach = []
        for a, row in enumerate(self.class_rows):
            r = members[a]
            for b in bits(row):
                r |= members[b]
            reach.append(r)
        return _TreeRows(reach, self.class_of)

    def edge_count(self) -> int:
        """Half the sum of the tree degrees.  A tree of class a meets the
        size_a - 1 other trees of a and every tree of the classes in a's
        row; with ``planes[j]`` the classes whose size has bit j, that is
        size_a - 1 + the sum of 2^j popcount(row_a & planes[j])."""
        sizes = self.sizes
        planes = [int("".join(str(size >> j & 1) for size in reversed(sizes)), 2)
                  for j in range(max(sizes, default=0).bit_length())]
        return sum(size * (size - 1 + sum((row & plane).bit_count() << j
                                          for j, plane in enumerate(planes)))
                   for size, row in zip(sizes, self.class_rows)) // 2


@dataclass(frozen=True)
class CompatAnalysis:
    connected: bool
    components: int
    diameter: object                       # int or math.inf
    eccentricities: Tuple[int, ...]        # within each node's component


def build_compat_graph(d: Relation, restricted: bool = False,
                       limit: Optional[int] = None) -> CompatGraph:
    kind = "special" if restricted else "all"
    masks, class_of, _ = _plane_masks(d, kind, limit)
    return CompatGraph(edges=d.edges, masks=masks, class_of=class_of,
                       class_rows=d._derive(_class_rows, _shared_kind(d, kind)),
                       restricted=restricted)


def _class_rows(d: Relation, kind: str) -> Tuple[int, ...]:
    """The class rows of the relation's kept listing of ``kind``.  They
    come from edge-holder sets, not from testing class pairs:
    ``holders[e]`` holds the classes whose last tree contains edge e, and
    class a is compatible with every class outside the holders of the
    edges in its conflict mask, which any one tree of each class decides."""
    masks, class_of, conflicts = d._derive(_listing, kind)
    holders = [0] * len(d.edges)
    for a, mask in dict(zip(class_of, masks)).items():  # a class's last tree
        while mask:
            low = mask & -mask
            holders[low.bit_length() - 1] |= 1 << a
            mask ^= low
    full = (1 << len(conflicts)) - 1
    class_rows = []
    for a, conflict in enumerate(conflicts):
        blocked = 1 << a              # its own trees are counted by its size
        while conflict:
            low = conflict & -conflict
            blocked |= holders[low.bit_length() - 1]
            conflict ^= low
        class_rows.append(full & ~blocked)
    return tuple(class_rows)


def _eccentricities(rows: Sequence[int]) -> Tuple[List[int], List[int]]:
    """(ecc, comps): the eccentricity of every node of the bitset rows
    ``rows`` within its component, and that component as a mask.

    Level k turns each live node's ball into ball_k(v), the OR of
    ball_{k-1}(u) over v and its neighbours u.  Every level reads only the
    previous level's balls: updating in place would let a ball grow by
    more than one step.  Every node's goal starts as the whole graph.  A
    node leaves at the level its ball equals its goal, or at the level its
    ball stops growing, with the level before as its eccentricity.  A ball
    that stops short of its goal is its component, and every node of the
    component takes the component as its goal.  A finished node's ball is
    its component, so a node with a finished neighbour finishes at the
    next level without any OR, and otherwise the OR loop stops as soon as
    the ball is full.  Every level grows a live ball or closes it, so the
    loop ends."""
    m = len(rows)
    ecc, comps = [0] * m, [(1 << m) - 1] * m
    balls = [1 << v for v in range(m)]
    done = 0
    live, grown, level = range(m), [row | 1 << v for v, row in enumerate(rows)], 1
    while True:
        still = []
        for v, ball in zip(live, grown):
            if ball == balls[v] != comps[v]:  # stopped short: its component
                for u in bits(ball):
                    comps[u] = ball
            if ball == comps[v]:  # a stopped ball reached it a level ago
                ecc[v] = level - (ball == balls[v])
                done |= 1 << v
            else:
                still.append(v)
            balls[v] = ball
        if not still:
            return ecc, comps
        live, level = still, level + 1
        grown = []
        for v in live:
            goal, ball = comps[v], balls[v]
            if rows[v] & done:
                ball = goal
            else:
                for u in bits(rows[v]):
                    ball |= balls[u]
                    if ball == goal:
                        break
            grown.append(ball)


def analyze(g: CompatGraph) -> CompatAnalysis:
    rows = g.class_rows
    full = (1 << len(rows)) - 1
    balls = [row | 1 << a for a, row in enumerate(rows)]
    if len(g.masks) > 1 and full in balls:
        ecc, components = [1 if ball == full else 2 for ball in balls], 1
    else:
        ecc, comps = _eccentricities(rows)
        # a class alone in its component is a clique of its trees
        ecc = [e or min(size - 1, 1) for e, size in zip(ecc, g.sizes)]
        components = len(set(comps))
    connected = components <= 1
    return CompatAnalysis(connected=connected, components=components,
                          diameter=max(ecc, default=0) if connected else math.inf,
                          eccentricities=tuple(ecc[c] for c in g.class_of))
