"""Compatibility graph of plane spanning trees.

A graph stores its trees as edge masks over the drawing's ``edges``.
``nodes``, their canonical edge tuples (the public tree type), and
``index``, keyed by those tuples, are built the first time they are read.
Adjacency rows are Python-int bitsets over node positions.  Row i is
built from edge-holder sets, not by testing tree pairs: ``holders[e]`` is
the bitset of trees containing edge e, and tree i is compatible with every
tree outside the union of the holder sets of the edges crossing it.

``analyze`` first looks for a hub, a node adjacent to every other node.
If there is one (and more than one node), nothing is searched: every node
adjacent to all others has eccentricity 1 and every other node 2, through
the hub.  Otherwise it finds components with one BFS each and then grows
every node's ball one level at a time: ball_k(v) is the OR of
ball_{k-1}(u) over v and its neighbours, and a node's eccentricity is the
level at which its ball covers its component.  A level costs at most
deg(v) ORs per node still growing, where a search from v pays one OR for
every node it reaches; a node next to a finished one finishes without any
OR.  A finished node keeps a reference to its component, so beyond the
adjacency rows the growth holds two balls per growing node, the previous
level's and the new one.  One BFS, cut short once it reaches its goal,
serves both the component sweep (the goal is every node not yet placed,
so on a connected graph the sweep ends as soon as all nodes are reached)
and ``bfs_distance`` (the goal is the target node); the tests use it as
the ball growth's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .drawing import Drawing, Edge, bits
from .errors import NodeMissingError
from .trees import Tree, _plane_masks, canon_tree, mask_tree


@dataclass
class CompatGraph:
    edges: Tuple[Edge, ...]        # the drawing's edges: bit i is edges[i]
    masks: List[int]
    adjacency: List[int]           # bitset rows, bit j of row i = compatible
    restricted: bool

    @cached_property
    def nodes(self) -> List[Tree]:
        return [mask_tree(self, mask) for mask in self.masks]

    @cached_property
    def index(self) -> Dict[Tree, int]:
        return {t: i for i, t in enumerate(self.nodes)}

    def degree(self, t) -> int:
        return self.adjacency[self._position(t)].bit_count()

    def _position(self, t) -> int:
        i = self.index.get(canon_tree(t))
        if i is None:
            raise NodeMissingError("tree is not a node of the compatibility graph")
        return i

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2


@dataclass(frozen=True)
class CompatAnalysis:
    connected: bool
    components: int
    diameter: object                       # int or math.inf
    eccentricities: Tuple[int, ...]        # within each node's component
    component_of: Tuple[int, ...]
    component_diameters: Tuple[int, ...]


def build_compat_graph(d: Drawing, restricted: bool = False,
                       limit: Optional[int] = None) -> CompatGraph:
    masks = _plane_masks(d, kind="special" if restricted else "all",
                         limit=limit)
    holders = [0] * len(d.edges)
    for i, (mask, _) in enumerate(masks):
        for e in bits(mask):
            holders[e] |= 1 << i
    full = (1 << len(masks)) - 1
    adjacency = []
    for i, (_, conflict) in enumerate(masks):
        blocked = 1 << i              # a plane tree is compatible with itself
        for e in bits(conflict):
            blocked |= holders[e]
        adjacency.append(full & ~blocked)
    return CompatGraph(edges=d.edges, masks=[mask for mask, _ in masks],
                       adjacency=adjacency, restricted=restricted)


def _bfs(adjacency: List[int], src: int, goal: int):
    """(level, reach) of a BFS from src that stops once reach covers goal:
    the level at which it did, or math.inf if the search ran out first.
    Rows are OR-ed into reach one by one, so the level that completes goal
    is cut short."""
    reach = frontier = 1 << src
    level = 0
    while reach & goal != goal:
        if not frontier:
            return math.inf, reach
        level += 1
        before = reach
        for v in bits(frontier):
            reach |= adjacency[v]
            if reach & goal == goal:
                return level, reach
        frontier = reach & ~before
    return level, reach


def _eccentricities(adjacency: List[int], balls: List[int],
                    goals: List[int]) -> List[int]:
    """Eccentricity of every node within its component goals[v], grown
    from balls[v] = ball_1(v), the node and its neighbours.

    Level k turns each live node's ball into ball_k(v), the OR of
    ball_{k-1}(u) over v and its neighbours u.  Every level reads only the
    previous level's balls: updating in place would let a ball grow by
    more than one step.  A node leaves at the level its ball equals its
    component; its ball is then replaced by the component itself, so a
    node with a finished neighbour finishes at the next level without any
    OR, and otherwise the OR loop stops as soon as the ball is full.
    ``balls`` is overwritten."""
    ecc = [0] * len(balls)
    done = 0
    live, grown, level = range(len(balls)), list(balls), 1
    while True:
        still = []
        for v, ball in zip(live, grown):
            if ball == goals[v]:
                ecc[v] = level if adjacency[v] else 0
                balls[v] = goals[v]
                done |= 1 << v
            else:
                balls[v] = ball
                still.append(v)
        if not still:
            return ecc
        live, level = still, level + 1
        grown = []
        for v in live:
            goal, ball = goals[v], balls[v]
            if adjacency[v] & done:
                ball = goal
            else:
                for u in bits(adjacency[v]):
                    ball |= balls[u]
                    if ball == goal:
                        break
            grown.append(ball)


def analyze(g: CompatGraph) -> CompatAnalysis:
    m = len(g.adjacency)
    if m == 0:
        return CompatAnalysis(True, 0, 0, (), (), ())
    full = (1 << m) - 1
    balls = [row | 1 << v for v, row in enumerate(g.adjacency)]
    if m > 1 and full in balls:
        ecc = tuple(1 if ball == full else 2 for ball in balls)
        return CompatAnalysis(True, 1, max(ecc), ecc, (0,) * m, (max(ecc),))
    components = []
    component_of = [-1] * m
    unseen = full
    while unseen:
        # a component lies inside unseen, so reaching all of unseen ends it
        _, comp = _bfs(g.adjacency, (unseen & -unseen).bit_length() - 1, unseen)
        for v in bits(comp):
            component_of[v] = len(components)
        components.append(comp)
        unseen &= ~comp
    ecc = _eccentricities(g.adjacency, balls,
                          [components[c] for c in component_of])
    comp_diam = [0] * len(components)
    for v, c in enumerate(component_of):
        comp_diam[c] = max(comp_diam[c], ecc[v])
    connected = len(components) == 1
    diameter = comp_diam[0] if connected else math.inf
    return CompatAnalysis(connected=connected, components=len(components),
                          diameter=diameter, eccentricities=tuple(ecc),
                          component_of=tuple(component_of),
                          component_diameters=tuple(comp_diam))


def bfs_distance(g: CompatGraph, t1, t2):
    """Shortest-path length between two trees, math.inf if no path."""
    a, b = g._position(t1), g._position(t2)
    return _bfs(g.adjacency, a, 1 << b)[0]
