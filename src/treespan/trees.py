"""Plane spanning trees as edge bitmasks.

Sorted tuples of (u, v) edges are the tree type at the boundary: the public
API and file I/O speak it.  Inside, a tree is an int mask whose bit i
stands for the edge with id i, its position in ``Drawing.edges``, so
reading a mask in bit order gives the canonical tuple.  ``CompatGraph`` and
``TransformSequence`` store masks too and build the tuples when read.
The transformations convert their input trees to masks once, keep masks
throughout and certify each call's output once with ``check_mask``.
A tree is plane when ``mask & conflict_mask(d, mask) == 0``, and two trees
are compatible (their union is plane) when one mask misses the other's
conflicts.  Certification covers spanning/acyclicity/planarity, cached
per drawing by mask; a certificate classifies its tree's k-star kind only
when ``kind`` is first read.  The star-family transformations additionally
use the representation helpers below, because the star, double-star and
twin-star classes overlap (one tree can admit several fixed-path
representations).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Tuple

from .drawing import Drawing, Edge, bits, edge
from .errors import IncompatibleError, TooLargeError, UnknownEdgeError

Tree = Tuple[Edge, ...]

ENUM_LIMIT_ALL = 8
ENUM_LIMIT_SPECIAL = 10


def canon_tree(edges: Iterable[Edge]) -> Tree:
    out = sorted(edge(u, v) for u, v in edges)
    if len(set(out)) != len(out):
        raise ValueError("duplicate edges")
    return tuple(out)


def tree_mask(d: Drawing, edges: Iterable[Edge]) -> int:
    """Bitmask of an edge set.  Raises ValueError on a loop or a duplicate
    edge and UnknownEdgeError on an edge the drawing does not have."""
    ids = d.edge_id
    mask = 0
    for u, v in edges:
        i = ids.get((u, v) if u < v else (v, u))
        if i is None:  # edge() raises on a loop
            raise UnknownEdgeError(f"edge {edge(u, v)} not in drawing")
        if mask >> i & 1:
            raise ValueError("duplicate edges")
        mask |= 1 << i
    return mask


def mask_tree(d: Drawing, mask: int) -> Tree:
    """The canonical edge tuple of a mask.  Only ``d.edges`` is read, so a
    result that keeps the drawing's edges can stand in for the drawing."""
    edges = d.edges
    return tuple(edges[i] for i in bits(mask))


def conflict_mask(d: Drawing, mask: int) -> int:
    """Every edge crossing some edge of the mask."""
    rows = d.cross_mask
    out = 0
    for i in bits(mask):
        out |= rows[i]
    return out


@dataclass(frozen=True)
class TreeCert:
    spanning: bool
    acyclic_connected: bool
    plane: bool
    mask: int = field(repr=False)
    edges: Tuple[Edge, ...] = field(repr=False, compare=False)  # d.edges

    @property
    def is_plane_spanning_tree(self) -> bool:
        return self.spanning and self.acyclic_connected and self.plane

    @cached_property
    def kind(self) -> Optional[tuple]:
        """``classify_kind`` of a plane spanning tree, None otherwise:
        ("star", c) | ("double_star", g, r) | ("twin_star", g, s, r)
        | ("k_star", k, path) | ("generic",).  Computed when first read;
        certification itself needs only ``is_plane_spanning_tree``."""
        if not self.is_plane_spanning_tree:
            return None
        n = self.mask.bit_count() + 1  # a spanning tree has n - 1 edges
        return classify_kind(n, mask_tree(self, self.mask))


# ---------------------------------------------------------------------------
# basic graph structure
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _adjacency(tree: Iterable[Edge]) -> Dict[int, List[int]]:
    adj: Dict[int, List[int]] = {}
    for u, v in tree:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


# ---------------------------------------------------------------------------
# k-star representations
# ---------------------------------------------------------------------------

def star_centers(tree: Tree) -> List[int]:
    verts = {v for e in tree for v in e}
    return sorted(c for c in verts if all(c in e for e in tree))


def double_star_paths(tree: Tree) -> List[Tuple[int, int]]:
    """All (g, r) with edge gr in the tree and every edge touching g or r."""
    out = []
    for g, r in tree:
        if all(g in e or r in e for e in tree):
            out.extend([(g, r), (r, g)])
    return sorted(out)


def twin_star_paths(tree: Tree) -> List[Tuple[int, int, int]]:
    """All (g, s, r) with edges gs, sr in the tree, gr absent, and every
    edge touching g or r."""
    edges = set(tree)
    adj = _adjacency(tree)
    out = []
    for s, nbrs in adj.items():
        for g, r in itertools.permutations(nbrs, 2):
            if g >= r:
                continue
            if edge(g, r) in edges:
                continue
            if all(g in e or r in e for e in tree):
                out.extend([(g, s, r), (r, s, g)])
    return sorted(out)


def _is_path_on_four(tree: Tree) -> bool:
    if len(tree) != 3:
        return False
    degs = {}
    for u, v in tree:
        degs[u] = degs.get(u, 0) + 1
        degs[v] = degs.get(v, 0) + 1
    return sorted(degs.values()) == [1, 1, 2, 2]


def _strip_leaf_path(tree: Tree) -> Optional[Tuple[int, ...]]:
    """If the tree is a path plus leaves hanging off the path's two ends,
    return that path (the non-leaf core); otherwise None."""
    adj = _adjacency(tree)
    deg = {v: len(ns) for v, ns in adj.items()}
    core = [v for v, k in deg.items() if k >= 2]
    if not core:  # single edge
        return None
    core_set = set(core)
    ends = [v for v in core if sum(1 for w in adj[v] if w in core_set) <= 1]
    if len(core) == 1:
        path = [core[0]]
    else:
        if len(ends) != 2:
            return None
        path = [ends[0]]
        prev = None
        while path[-1] != ends[1]:
            nxt = [w for w in adj[path[-1]] if w in core_set and w != prev]
            if len(nxt) != 1:
                return None
            prev = path[-1]
            path.append(nxt[0])
        if set(path) != core_set:
            return None
    p0, pk = path[0], path[-1]
    for v, k in deg.items():
        if v in core_set:
            continue
        if not (edge(v, p0) in set(tree) or edge(v, pk) in set(tree)):
            return None
    for v in path[1:-1]:
        if deg[v] != 2:
            return None
    return tuple(path)


def classify_kind(n: int, tree: Tree) -> tuple:
    """Most specific k-star kind; a 4-vertex path is reported as a twin star
    (its canonical fixed path), larger overlaps resolve to the smaller k."""
    centers = star_centers(tree)
    if centers:
        return ("star", centers[0])
    if n == 4 and _is_path_on_four(tree):
        return ("twin_star",) + twin_star_paths(tree)[0]
    doubles = double_star_paths(tree)
    if doubles:
        g, r = doubles[0]
        return ("double_star", min(g, r), max(g, r))
    twins = twin_star_paths(tree)
    if twins:
        return ("twin_star",) + twins[0]
    path = _strip_leaf_path(tree)
    if path is not None:
        return ("k_star", len(path) - 1, path)
    return ("generic",)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def check_tree(d: Drawing, edges_in: Iterable[Edge]) -> TreeCert:
    return check_mask(d, tree_mask(d, edges_in))


def check_mask(d: Drawing, mask: int) -> TreeCert:
    """Certificate of the tree with this edge mask, cached on the drawing."""
    cached = d._cert_cache.get(mask)
    if cached is not None:
        return cached
    tree = mask_tree(d, mask)
    verts = {v for e in tree for v in e}
    spanning = verts == set(range(d.n))
    uf = _UnionFind(d.n)
    acyclic = all(uf.union(u, v) for u, v in tree)
    connected = acyclic and len(tree) == len(verts) - 1 if verts else False
    plane = mask & conflict_mask(d, mask) == 0
    cert = TreeCert(spanning=spanning, acyclic_connected=connected,
                    plane=plane, mask=mask, edges=d.edges)
    d._cert_cache[mask] = cert
    return cert


def is_compatible(d: Drawing, t1: Iterable[Edge], t2: Iterable[Edge]) -> bool:
    return tree_mask(d, t1) & conflict_mask(d, tree_mask(d, t2)) == 0


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_plane_trees(d: Drawing, kind: str = "all",
                          limit: Optional[int] = None) -> List[Tree]:
    """All plane spanning trees of the drawing, canonically ordered.

    'all' grows trees over the sorted edge list, pruning edges that close a
    cycle (``comp`` labels the components of the chosen forest) or cross a
    chosen edge (``blocked`` is the OR of their crossing rows).  The other
    kinds, 'special' for the union of 'star', 'double_star' and
    'twin_star', are built directly from the trees' defining vertices, not
    filtered from all trees; the three single kinds keep the trees whose
    ``classify_kind`` is that kind.
    """
    return [mask_tree(d, mask) for mask, _ in _plane_masks(d, kind, limit)]


def _plane_masks(d: Drawing, kind: str = "all",
                 limit: Optional[int] = None) -> List[Tuple[int, int]]:
    """(mask, conflict_mask) of each tree ``enumerate_plane_trees`` lists,
    in the same order."""
    if kind not in ("all", "star", "double_star", "twin_star", "special"):
        raise ValueError(f"unknown filter {kind!r}")
    if limit is None:
        limit = ENUM_LIMIT_ALL if kind == "all" else ENUM_LIMIT_SPECIAL
    if d.n > limit:
        raise TooLargeError(d.n, limit)
    if kind == "special":
        return _star_family(d)
    if kind != "all":
        return [p for p in _star_family(d)
                if classify_kind(d.n, mask_tree(d, p[0]))[0] == kind]

    edges, rows = d.edges, d.cross_mask
    m = len(edges)
    out: List[Tuple[int, int]] = []

    def grow(start: int, comp: List[int], left: int, mask: int,
             blocked: int) -> None:
        if not left:
            out.append((mask, blocked))
            return
        for i in range(start, m - left + 1):
            if blocked >> i & 1:
                continue
            u, v = edges[i]
            cu, cv = comp[u], comp[v]
            if cu == cv:
                continue
            grow(i + 1, [cv if c == cu else c for c in comp], left - 1,
                 mask | 1 << i, blocked | rows[i])

    grow(0, list(range(d.n)), d.n - 1, 0, 0)
    return out


def _star_family(d: Drawing) -> List[Tuple[int, int]]:
    """(mask, conflict_mask) of every plane double star and twin star, in
    canonical order.  The stars are among the double stars: a star with
    centre c is the double star of an edge cv with every other vertex
    joined to c.  Each tree is built from its core, the edge gr or the path
    g-s-r, by joining every other vertex to g or to r; a partial tree is
    dropped as soon as an edge it needs is missing (bipartite drawings) or
    crosses the edges chosen before it."""
    n, ids, rows = d.n, d.edge_id, d.cross_mask
    cores = [(g, r, ((g, r),)) for g, r in ids]
    cores += [(g, r, (edge(g, s), edge(s, r)))
              for g, r in itertools.combinations(range(n), 2)
              for s in range(n) if s != g and s != r]
    found: Dict[int, int] = {}
    for g, r, core in cores:
        on_core = {v for e in core for v in e}
        choices = [[ids.get(e)] for e in core]
        choices += [[ids.get(edge(c, v)) for c in (g, r)]
                    for v in range(n) if v not in on_core]
        partial = [(0, 0)]
        for options in choices:
            partial = [(mask | 1 << i, blocked | rows[i])
                       for mask, blocked in partial for i in options
                       if i is not None and not blocked >> i & 1]
        found.update(partial)
    return sorted(found.items(), key=lambda p: list(bits(p[0])))


# ---------------------------------------------------------------------------
# flips
# ---------------------------------------------------------------------------

def _cycle_with(tree: List[Edge], e: Edge) -> List[Edge]:
    """The unique cycle of tree + e, as a list of tree edges on it."""
    adj: Dict[int, List[Tuple[int, Edge]]] = {}
    for f in tree:
        adj.setdefault(f[0], []).append((f[1], f))
        adj.setdefault(f[1], []).append((f[0], f))
    target = e[1]
    path: List[Edge] = []
    seen = set()

    def dfs(v: int) -> bool:
        if v == target:
            return True
        seen.add(v)
        for w, f in adj.get(v, []):
            if w in seen:
                continue
            path.append(f)
            if dfs(w):
                return True
            path.pop()
        return False

    dfs(e[0])
    return path


def compatible_step_to_flips(d: Drawing, t1: Iterable[Edge],
                             t2: Iterable[Edge]) -> List[Tuple[Edge, Edge]]:
    """Expand one compatible tree pair into single edge flips: add each edge
    of t2 - t1 in canonical order, removing from the created cycle the
    highest-id edge of t1 - t2 on it.  Every intermediate stays a plane
    spanning tree."""
    t1, t2 = canon_tree(t1), canon_tree(t2)
    if not is_compatible(d, t1, t2):
        raise IncompatibleError("trees are not compatible")
    current = list(t1)
    t2set = set(t2)
    flips: List[Tuple[Edge, Edge]] = []
    for e in sorted(t2set - set(t1)):
        cycle = _cycle_with(current, e)
        removable = [f for f in cycle if f not in t2set]
        out = max(removable)
        current.remove(out)
        current.append(e)
        flips.append((out, e))
    return flips
