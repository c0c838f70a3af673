"""Compatibility graph of plane spanning trees, the brute-force oracle.

Nodes and the ``index`` keys are canonical edge tuples, the public tree
type; adjacency rows are Python-int bitsets over node positions, built from
the edge masks of ``trees``.  All connectivity answers come from plain BFS
so they can be trusted against the constructive transformations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .drawing import Drawing
from .errors import NodeMissingError
from .trees import Tree, canon_tree, conflict_mask, enumerate_plane_trees, tree_mask


@dataclass
class CompatGraph:
    nodes: List[Tree]
    adjacency: List[int]           # bitset rows, bit j of row i = compatible
    restricted: bool
    index: Dict[Tree, int]

    def degree(self, t) -> int:
        i = self.index[canon_tree(t)]
        return bin(self.adjacency[i]).count("1")

    def edge_count(self) -> int:
        return sum(bin(row).count("1") for row in self.adjacency) // 2


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
    nodes = enumerate_plane_trees(d, kind="special" if restricted else "all",
                                  limit=limit)
    tree_masks = [tree_mask(d, t) for t in nodes]
    conflict_masks = [conflict_mask(d, mask) for mask in tree_masks]
    m = len(nodes)
    adjacency = [0] * m
    for i in range(m):
        ci = conflict_masks[i]
        for j in range(i + 1, m):
            if not ci & tree_masks[j]:
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return CompatGraph(nodes=nodes, adjacency=adjacency, restricted=restricted,
                       index={t: i for i, t in enumerate(nodes)})


def _bfs_levels(g: CompatGraph, src: int) -> Dict[int, int]:
    dist = {src: 0}
    frontier = 1 << src
    seen = frontier
    level = 0
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            nxt |= g.adjacency[low.bit_length() - 1]
            f ^= low
        nxt &= ~seen
        seen |= nxt
        level += 1
        f = nxt
        while f:
            low = f & -f
            dist[low.bit_length() - 1] = level
            f ^= low
        frontier = nxt
    return dist


def analyze(g: CompatGraph) -> CompatAnalysis:
    m = len(g.nodes)
    if m == 0:
        return CompatAnalysis(True, 0, 0, (), (), ())
    component_of = [-1] * m
    comp_count = 0
    for v in range(m):
        if component_of[v] == -1:
            for u in _bfs_levels(g, v):
                component_of[u] = comp_count
            comp_count += 1
    ecc = [0] * m
    comp_diam = [0] * comp_count
    for v in range(m):
        dist = _bfs_levels(g, v)
        ecc[v] = max(dist.values())
        c = component_of[v]
        comp_diam[c] = max(comp_diam[c], ecc[v])
    connected = comp_count == 1
    diameter = comp_diam[0] if connected else math.inf
    return CompatAnalysis(connected=connected, components=comp_count,
                          diameter=diameter, eccentricities=tuple(ecc),
                          component_of=tuple(component_of),
                          component_diameters=tuple(comp_diam))


def bfs_distance(g: CompatGraph, t1, t2):
    """Shortest-path length between two trees, math.inf if no path."""
    a, b = canon_tree(t1), canon_tree(t2)
    if a not in g.index or b not in g.index:
        raise NodeMissingError("tree is not a node of the compatibility graph")
    dist = _bfs_levels(g, g.index[a])
    return dist.get(g.index[b], math.inf)
