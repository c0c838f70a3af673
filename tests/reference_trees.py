"""``tree_mask`` and a cold ``check_mask`` as ``trees`` ran them before they
read the drawing's edge-bit table and vertex bitmasks.

``tree_mask`` canonicalises every edge into a tuple and looks its id up in
``Drawing.edge_id``; ``check_mask`` builds the mask's edge tuple, the set
of its vertices and a union-find over the tuples, and caches nothing.  The
tests use them as the oracles of ``trees.tree_mask`` (its mask, or the
type and message of what it raises) and of a certificate cache miss.
"""

from treespan.drawing import edge
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
