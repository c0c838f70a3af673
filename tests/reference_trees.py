"""``tree_mask`` and a cold ``check_mask`` as ``trees`` ran them before they
read the drawing's edge-bit table and vertex bitmasks, and the star,
double-star and twin-star searches before they started from the tree's
lowest edge.

``tree_mask`` canonicalises every edge into a tuple and looks its id up in
``Drawing.edge_id``; ``check_mask`` builds the mask's edge tuple, the set
of its vertices and a union-find over the tuples, and caches nothing.  The
tests use them as the oracles of ``trees.tree_mask`` (its mask, or the
type and message of what it raises) and of a certificate cache miss.
``star_centers`` tests every vertex, ``double_star_paths`` every edge of
the tree as the hub pair and ``twin_star_paths`` every pair of neighbours
of every vertex; they take the arguments of ``trees._star_centers``,
``trees._double_star_paths`` and ``trees._twin_star_paths`` and are their
oracles.
"""

import itertools

from treespan.drawing import bits, edge
from treespan.errors import UnknownEdgeError
from treespan.trees import TreeCert, _UnionFind, conflict_mask, mask_tree


def tree_mask(d, edges) -> int:
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


def check_mask(d, mask: int) -> TreeCert:
    tree = mask_tree(d, mask)
    verts = {v for e in tree for v in e}
    spanning = verts == set(range(d.n))
    uf = _UnionFind(d.n)
    acyclic = all(uf.union(u, v) for u, v in tree)
    connected = acyclic and len(tree) == len(verts) - 1 if verts else False
    conflict = conflict_mask(d, mask)
    return TreeCert(spanning=spanning, acyclic_connected=connected,
                    plane=mask & conflict == 0, mask=mask, conflict=conflict)


def star_centers(edges, inc, mask):
    return sorted(c for c, at in inc.items() if at == mask)


def double_star_paths(edges, inc, mask):
    out = []
    for i in bits(mask):
        g, r = edges[i]
        if inc[g] | inc[r] == mask:
            out.extend([(g, r), (r, g)])
    return sorted(out)


def twin_star_paths(edges, inc, mask):
    out = []
    for s, at in inc.items():
        if not at & (at - 1):
            continue  # a leaf: one neighbour, no pair
        nbrs = sorted(sum(edges[i]) - s for i in bits(at))  # other ends
        for g, r in itertools.combinations(nbrs, 2):
            if not inc[g] & inc[r] and inc[g] | inc[r] == mask:
                out.extend([(g, s, r), (r, s, g)])
    return sorted(out)
