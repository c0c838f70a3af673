"""Compatibility graph of plane spanning trees, kept on twin classes.

A graph is built from a ``Relation``, a drawing's crossing relation or
one given as rows, and stores its trees as edge masks over its ``edges``;
``nodes`` (their canonical edge tuples, the public tree type) and
``index``, keyed by those tuples, are built the first time they are read.

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
classes and their sizes.

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
from .trees import Tree, _plane_masks, mask_trees


class _TreeRows(Sequence):
    """A graph's tree-level rows, kept as one reach mask per twin class
    (the class's trees and those of every class in its row): row i is
    tree i's class's reach without tree i itself."""

    def __init__(self, reach: List[int], class_of: List[int]):
        self._reach, self._class_of = reach, class_of

    def __len__(self) -> int:
        return len(self._class_of)

    def __getitem__(self, i: int) -> int:
        c = self._class_of[i]  # negative i and IndexError as on a list
        return self._reach[c] & ~(1 << i % len(self._class_of))


@dataclass
class CompatGraph:
    edges: Tuple[Edge, ...]        # the relation's edges: bit i is edges[i]
    masks: List[int]               # node i is the tree masks[i]
    class_of: List[int]            # node -> twin class
    class_rows: List[int]          # bit b of row a: classes a != b compatible
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

    def _class_degree(self, a: int) -> int:
        sizes = self.sizes
        return sizes[a] - 1 + sum(sizes[b] for b in bits(self.class_rows[a]))

    def edge_count(self) -> int:
        return sum(size * self._class_degree(a)
                   for a, size in enumerate(self.sizes)) // 2


@dataclass(frozen=True)
class CompatAnalysis:
    connected: bool
    components: int
    diameter: object                       # int or math.inf
    eccentricities: Tuple[int, ...]        # within each node's component


def build_compat_graph(d: Relation, restricted: bool = False,
                       limit: Optional[int] = None) -> CompatGraph:
    masks, class_of, conflicts = _plane_masks(
        d, kind="special" if restricted else "all", limit=limit)
    return _twin_graph(d.edges, masks, class_of, conflicts, restricted)


def _twin_graph(edges: Tuple[Edge, ...], masks: List[int], class_of: List[int],
                conflicts: List[int], restricted: bool) -> CompatGraph:
    """The graph of the plane trees ``masks``, tree i in twin class
    ``class_of[i]`` (classes numbered in order of first appearance) and
    class a's conflict mask ``conflicts[a]``.  The rows come from
    edge-holder sets, not from testing class pairs: ``holders[e]`` holds
    the classes whose last tree contains edge e, and class a is compatible
    with every class outside the holders of the edges in its conflict
    mask, which any one tree of each class decides."""
    holders = [0] * len(edges)
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
    return CompatGraph(edges=edges, masks=masks, class_of=class_of,
                       class_rows=class_rows, restricted=restricted)


def _eccentricities(rows: List[int]) -> Tuple[List[int], List[int]]:
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
