"""``tree_mask`` and a cold ``check_mask`` as ``trees`` ran them before they
read the drawing's edge-bit table and vertex bitmasks, and the star,
double-star and twin-star searches before they started from the tree's
lowest edge.

``tree_mask`` canonicalises every edge into a tuple and looks its id up in
an edge -> id dict; ``check_mask`` builds the mask's edge tuple, the set
of its vertices and a union-find over the tuples, and caches nothing.  The
tests use them as the oracles of ``trees.tree_mask`` (its mask, or the
type and message of what it raises) and of a certificate cache miss.
``incidence_loop`` builds a tree's incidence table edge by edge, vertices
in order of first appearance; it is the oracle of
``trees._tree_incidence``.
``star_centers_loop`` tests every vertex, ``double_star_paths_loop`` every
edge of the tree as the hub pair and ``twin_star_paths_loop`` every pair of
neighbours of every vertex; they take the arguments of
``trees._star_centers``, ``trees._double_star_paths`` and
``trees._twin_star_paths`` and are their oracles.

``star_centers``, ``double_star_paths``, ``twin_star_paths``,
``check_tree`` and ``bfs_distance`` are the package's former public forms,
which nothing in it read: the first three take a tree as a bare edge
tuple or as a mask over ``edges`` and run the package's searches on an
uncrossed relation of those edges, ``check_tree`` certifies an edge tuple
and ``bfs_distance`` runs one BFS over a compatibility graph's class
rows.  The tests read them as oracles and as short forms,
``bfs_distance`` as ``analyze``'s.

``_bfs`` is the BFS that ``compat.analyze`` ran once per component before
one ball growth (``compat._eccentricities``) found the components too:
it stops once its reach covers a goal mask.  ``bfs_distance`` runs it,
and the tests read it as the ball growth's oracle for eccentricities and
components.

``_reduce_to_star`` and ``_twin_star_to_star`` are ``transforms``' before
a twin star was collapsed along its own hub pair: the twin star's
t + gr - rs went through ``_double_star_to_star``, which derived that
tree's centres and double-star paths again.  ``_double_star_to_star`` is
the body of the package's former ``double_star_to_star``.  They are the
oracle of ``transforms._reduce_to_star``.

``compatible_step_to_flips`` is ``trees``' before a flip was one
``_retree`` call: it joins a fresh ``_UnionFind`` over the current tree's
edges, t2's first, until the added edge's ends meet.  It is the oracle of
``trees.compatible_step_to_flips``.

``mask_tree_loop`` is the one-mask conversion before tuples were joined from
per-chunk tables: it reads the mask's bits one at a time through ``bits``.
It is the oracle of ``trees.mask_trees`` and of the tuple views built on
it, and of the ``IndexError`` a negative mask, or one with a bit past the
edge list, raises.
"""

import itertools
import math
from typing import Iterable, List, Tuple

from treespan import trees
from treespan.drawing import Drawing, Edge, bits, edge
from treespan.errors import (
    IncompatibleError,
    InternalInvariantViolated,
    NotSpecialTreeError,
    UnknownEdgeError,
)
from treespan.transforms import (
    _collapse_double,
    _dedupe,
    _double_star_paths,
    _star_centers,
    _star_to_star,
    _tree_incidence,
    _twin_star_paths,
)
from treespan.trees import TreeCert, _input_certs, conflict_mask

from conftest import edge_ids, uncrossed


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


def tree_mask(d, edges) -> int:
    ids = edge_ids(d)
    mask = 0
    for u, v in edges:
        i = ids.get((u, v) if u < v else (v, u))
        if i is None:  # edge() raises on a loop
            raise UnknownEdgeError(f"edge {edge(u, v)} not in drawing")
        if mask >> i & 1:
            raise ValueError("duplicate edges")
        mask |= 1 << i
    return mask


def mask_tree_loop(edges, mask: int) -> Tuple[Edge, ...]:
    return tuple(edges[i] for i in bits(mask))


def check_mask(d, mask: int) -> TreeCert:
    tree = mask_tree_loop(d.edges, mask)
    # a one-vertex relation's tree has no edge
    verts = {v for e in tree for v in e} | ({0} if d.n == 1 else set())
    spanning = verts == set(range(d.n))
    uf = _UnionFind(d.n)
    acyclic = all(uf.union(u, v) for u, v in tree)
    connected = acyclic and len(tree) == len(verts) - 1
    conflict = conflict_mask(d, mask)
    return TreeCert(spanning=spanning, acyclic_connected=connected,
                    plane=mask & conflict == 0, mask=mask, conflict=conflict)


def star_centers_loop(edges, inc, mask):
    return sorted(c for c, at in inc.items() if at == mask)


def double_star_paths_loop(edges, inc, mask):
    out = []
    for i in bits(mask):
        g, r = edges[i]
        if inc[g] | inc[r] == mask:
            out.extend([(g, r), (r, g)])
    return sorted(out)


def twin_star_paths_loop(edges, inc, mask):
    out = []
    for s, at in inc.items():
        if not at & (at - 1):
            continue  # a leaf: one neighbour, no pair
        nbrs = sorted(sum(edges[i]) - s for i in bits(at))  # other ends
        for g, r in itertools.combinations(nbrs, 2):
            if not inc[g] & inc[r] and inc[g] | inc[r] == mask:
                out.extend([(g, s, r), (r, s, g)])
    return sorted(out)


def incidence_loop(edges, mask):
    inc = {}
    for i in bits(mask):
        for v in edges[i]:
            inc[v] = inc.get(v, 0) | 1 << i
    return inc


def _searched(edges, mask):
    """(edges, incidence table, mask) of the tree, every edge without a mask."""
    edges = tuple(edges)
    if mask is None:
        mask = (1 << len(edges)) - 1
    d = uncrossed(1 + max(map(max, edges), default=-1), edges)
    return edges, _tree_incidence(d, mask), mask


def star_centers(edges, mask=None):
    return _star_centers(*_searched(edges, mask))


def double_star_paths(edges, mask=None):
    """All (g, r) with edge gr in the tree and every edge touching g or r."""
    return _double_star_paths(*_searched(edges, mask))


def twin_star_paths(edges, mask=None):
    """All (g, s, r) with edges gs, sr in the tree, gr absent, and every
    edge touching g or r."""
    return _twin_star_paths(*_searched(edges, mask))


def check_tree(d, edges_in) -> TreeCert:
    return trees.check_mask(d, trees.tree_mask(d, edges_in))


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


def bfs_distance(g, t1, t2):
    """Shortest-path length between two trees, math.inf if no path; a
    tree that is no node raises KeyError."""
    i, j = g.index[trees.canon_tree(t1)], g.index[trees.canon_tree(t2)]
    if i == j:
        return 0
    a, b = g.class_of[i], g.class_of[j]
    if a == b:
        return 1
    return _bfs(g.class_rows, a, 1 << b)[0]


def _double_star_to_star(d: Drawing, t: int, target: int) -> List[int]:
    inc = _tree_incidence(d, t)
    centers = _star_centers(d.edges, inc, t)
    if centers:
        c = target if target in centers else centers[0]
        return [t] if c == target else _star_to_star(d, c, target)
    reps = _double_star_paths(d.edges, inc, t)
    if not reps:  # t + gr - rs of a twin star is a double star
        raise InternalInvariantViolated("tree admits no double-star path")
    with_target = [p for p in reps if p[1] == target]
    g, r = with_target[0] if with_target else reps[0]
    trees = _collapse_double(d, t, g, r)
    if r != target:
        trees += _star_to_star(d, r, target)[1:]
    return trees


def _twin_star_to_star(d: Drawing, t: TreeCert, twin: Tuple[int, int, int],
                       target: int) -> List[int]:
    g, s, r = twin
    gr = tree_mask(d, [(g, r)])
    if gr & t.conflict:
        raise InternalInvariantViolated("closing edge crosses the twin star")
    second = (t.mask | gr) & ~d._edge_bit[r, s]
    return _dedupe([t.mask] + _double_star_to_star(d, second, target))


def _reduce_to_star(d: Drawing, t: TreeCert) -> Tuple[List[int], int]:
    inc = _tree_incidence(d, t.mask)
    centers = _star_centers(d.edges, inc, t.mask)
    if centers:
        return [t.mask], centers[0]
    reps = _double_star_paths(d.edges, inc, t.mask)
    if reps:
        g, r = reps[0]
        return _collapse_double(d, t.mask, g, r), r
    twins = _twin_star_paths(d.edges, inc, t.mask)
    if twins:
        r = twins[0][2]
        return _twin_star_to_star(d, t, twins[0], r), r
    raise NotSpecialTreeError("tree is not a star, double star or twin star")


def compatible_step_to_flips(d: Drawing, t1: Iterable[Edge],
                             t2: Iterable[Edge]) -> List[Tuple[Edge, Edge]]:
    c1, c2 = _input_certs(d, [t1, t2])
    t1, t2 = c1.mask, c2.mask
    if t1 & c2.conflict:
        raise IncompatibleError("trees are not compatible")
    edges, current = d.edges, t1
    flips: List[Tuple[Edge, Edge]] = []
    for i in bits(t2 & ~t1):
        u, v = edges[i]
        # Joining the current tree's edges, t2's first and then the rest by
        # ascending id, links u and v at the highest-id edge of t1 - t2 on
        # the cycle that edge i closes (t2 is a tree: not all are in t2).
        uf = _UnionFind(d.n)
        for j in itertools.chain(bits(current & t2), bits(current & ~t2)):
            uf.union(*edges[j])
            if uf.find(u) == uf.find(v):
                break
        current ^= 1 << j | 1 << i
        flips.append((edges[j], edges[i]))
    return flips
