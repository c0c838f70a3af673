"""Plane spanning trees as edge bitmasks.

Sorted tuples of (u, v) edges are the tree type at the boundary: the public
API and file I/O speak it.  Inside, a tree is an int mask whose bit i
stands for the edge with id i, its position in ``Relation.edges``, so
reading a mask in bit order gives the canonical tuple.  Everything here
reads a ``Relation`` (a ``Drawing`` is one) and no geometry.  Every
mask -> tuple conversion is one ``mask_trees`` call over a list of masks;
each call hashes the edge tuple, so hot paths read a single edge as
``d.edges[bit.bit_length() - 1]`` instead.

A tree is plane when ``mask & conflict_mask(d, mask) == 0``, and two trees
are compatible (their union is plane) when one mask misses the other's
conflicts.  The relation's cache is the one memo of certificates, and
``check_mask`` is the one place a missing certificate is computed and
stored.  An edge crossing itself is in no plane tree, so no enumerator
offers one.

The star, double-star and twin-star classes overlap (one tree can admit
several fixed-path representations), and ``_special_paths`` reads a
tree's least representation of each class in one pass.  ``_star_family``
lists the three classes together; on two to five vertices they hold every
tree, and the plane-tree search lists them instead.  ``_special_paths``
and ``classify_kind`` read one incidence table of the tree,
``_tree_incidence``, vertex -> mask of its edges at that vertex: c is a
star centre iff its entry is the whole mask, every edge touches g or r iff
their entries OR to the mask, gr is a tree edge iff their entries meet,
and a vertex's degree is its entry's bit count.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .drawing import Edge, Relation, bits, edge
from .errors import (
    BadTreeError,
    IncompatibleError,
    InternalInvariantViolated,
    TooLargeError,
    UnknownEdgeError,
)

Tree = Tuple[Edge, ...]

ENUM_LIMIT_ALL = 8
ENUM_LIMIT_SPECIAL = 10
KINDS = ("all", "star", "double_star", "twin_star", "special")  # enumeration filters


def canon_tree(edges: Iterable[Edge]) -> Tree:
    out = sorted(edge(u, v) for u, v in edges)
    if len(set(out)) != len(out):
        raise ValueError("duplicate edges")
    return tuple(out)


def tree_mask(d: Relation, edges: Iterable[Edge]) -> int:
    """Bitmask of an edge set.  Raises ValueError on a loop or a duplicate
    edge and UnknownEdgeError on an edge the relation does not have."""
    table = d._edge_bit
    mask = 0
    for e in edges:
        try:
            b = table[e]  # an edge tuple, in either orientation
        except (KeyError, TypeError):  # TypeError: e does not hash
            b = _pair_bit(d, e)
        if mask & b:
            raise ValueError("duplicate edges")
        mask |= b
    return mask


def _pair_bit(d: Relation, e) -> int:
    """The bit of an edge given as any pair of ends, a list say, looked up
    by its canonical tuple: a value that is not a pair fails to unpack,
    ends that do not compare or hash raise TypeError, a loop ValueError,
    a missing edge UnknownEdgeError."""
    u, v = e
    bit = d._edge_bit.get((u, v) if u < v else (v, u))
    if bit is None:  # edge() raises on a loop
        raise UnknownEdgeError(f"edge {edge(u, v)} not in drawing")
    return bit


def mask_trees(edges: Tuple[Edge, ...], masks: Iterable[int]) -> List[Tree]:
    """The canonical edge tuple of each mask over ``edges``, joined from one
    sub-tuple per 8-bit chunk of the mask.  Raises IndexError on a negative
    mask or one with a bit at or past ``len(edges)``."""
    tables = _chunk_tables(edges)
    out = []
    for mask in masks:
        tree = ()
        for table in tables:
            tree += table[mask & 255]  # IndexError past a short last chunk
            mask >>= 8
        if mask:  # bits past the last chunk, or a negative mask
            raise IndexError("mask has a bit outside the edge list")
        out.append(tree)
    return out


@functools.lru_cache(maxsize=16)
def _chunk_tables(edges: Tuple[Edge, ...]) -> Tuple[Tuple[Tree, ...], ...]:
    """Per 8-edge chunk of ``edges``, the tuple of each byte's edges in bit
    order: 2**k entries for a chunk of k edges.  Keyed by the edge tuple's
    value, since drawings of different classes can share it."""
    tables = []
    for lo in range(0, len(edges), 8):
        table = [()]
        for e in edges[lo:lo + 8]:
            table += [t + (e,) for t in table]
        tables.append(tuple(table))
    return tuple(tables)


def conflict_mask(d: Relation, mask: int) -> int:
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
    conflict: int = field(repr=False, compare=False)  # conflict_mask(mask)

    def __post_init__(self):
        # The verdict every certified read tests, stored once as a plain
        # attribute, so it is in neither ``==`` nor ``repr``.
        self.__dict__["is_plane_spanning_tree"] = (
            self.spanning and self.acyclic_connected and self.plane)


# ---------------------------------------------------------------------------
# basic graph structure
# ---------------------------------------------------------------------------

def _retree(d: Relation, groups: Sequence[int]) -> int:
    """Spanning tree built greedily from the edge-mask groups in
    keep-priority order (earlier groups are preferentially kept, ids
    ascending within one), over a union-find of vertex ids as in
    ``check_mask``."""
    edges = d.edges
    parent = list(range(d.n))
    out = 0
    for group in groups:
        for i in bits(group):  # a repeated edge finds one root
            u, v = edges[i]
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u != v:
                parent[u] = v
                out |= 1 << i
    if out.bit_count() != d.n - 1:
        raise InternalInvariantViolated("edge pool does not connect the graph")
    return out


def _vertex_rows(d: Relation) -> Tuple[int, ...]:
    """Vertex -> the mask of the relation's edges at it."""
    rows = [0] * d.n
    for i, (u, v) in enumerate(d.edges):
        rows[u] |= 1 << i
        rows[v] |= 1 << i
    return tuple(rows)


def _tree_incidence(d: Relation, mask: int) -> Dict[int, int]:
    """Vertex -> the mask of the tree's edges at it, for the vertices the
    tree touches, in ascending order: one AND of each vertex row."""
    return {v: at for v, row in enumerate(d._derive(_vertex_rows))
            if (at := row & mask)}


# ---------------------------------------------------------------------------
# star-family representations
# ---------------------------------------------------------------------------
# ``_special_paths`` takes a tree as ``(edges, inc, mask)``: its bits read over
# ``edges`` (the relation's edges for a tree mask) and its incidence table.

def _special_paths(edges: Sequence[Edge], inc: Dict[int, int], mask: int
                   ) -> Tuple[Optional[int], Optional[Tuple[int, int]],
                              Optional[Tuple[int, int, int]]]:
    """(centre, double, twin): the least star centre, else the least
    double-star path (g, r) and the least twin-star path (g, s, r), None
    for each one the tree lacks.  A centre is at every edge, so it is an
    end of the lowest.  Every edge touches a hub, g or r, so one hub x is
    an end of the lowest edge and the other an end of the lowest edge not
    at x.  A hub pair joined by an edge is a double-star path; one joined
    by none is a twin-star path through each middle s, a vertex with an
    edge to both."""
    if not mask:
        return None, None, None
    low = edges[(mask & -mask).bit_length() - 1]
    centres = [c for c in low if inc[c] == mask]
    if centres:
        return min(centres), None, None
    doubles, twins = [], []
    for x in low:
        at_x = inc[x]
        rest = mask & ~at_x
        for y in edges[(rest & -rest).bit_length() - 1]:
            at_y = inc[y]
            if at_x | at_y != mask:
                continue
            if at_x & at_y:
                doubles.append((min(x, y), max(x, y)))
                continue
            for i in bits(at_x):
                s = sum(edges[i]) - x
                if inc[s] & at_y:
                    twins += [(x, s, y), (y, s, x)]
    return None, min(doubles, default=None), min(twins, default=None)


def _kind_of(d: Relation, mask: int) -> tuple:
    """``classify_kind`` of a known plane spanning tree, read without a certificate."""
    centre, double, twin = _special_paths(d.edges, _tree_incidence(d, mask), mask)
    if centre is not None:
        return ("star", centre)
    if d.n == 4:  # a 4-vertex tree that is no star is the path
        return ("twin_star",) + twin
    if double:
        return ("double_star",) + double
    if twin:
        return ("twin_star",) + twin
    return ("generic",)


def classify_kind(d: Relation, mask: int) -> tuple:
    """Most specific star-family kind of the plane spanning tree ``mask``:
    ("star", c) | ("double_star", g, r) | ("twin_star", g, s, r) |
    ("generic",).  A tree of several kinds is named by the first of star,
    double star and twin star, except that the 4-vertex path is a twin star
    (its canonical fixed path).  Any other mask raises BadTreeError."""
    cert = check_mask(d, mask)
    if not cert.is_plane_spanning_tree:
        raise BadTreeError(0, cert)
    return _kind_of(d, mask)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def check_mask(d: Relation, mask: int) -> TreeCert:
    """Certificate of the tree with this edge mask, cached on the relation.
    A miss reads each edge's ends and crossing row once: the vertices it
    touches go into a vertex bitmask, and its ends into a union-find over
    vertex ids, where an edge joining two vertices with one root closes a
    cycle."""
    cached = d._cert_cache.get(mask)
    if cached is not None:
        return cached
    edges, rows = d.edges, d.cross_mask
    parent = list(range(d.n))
    verts = 1 if d.n == 1 else 0  # a one-vertex relation's tree has no edge
    conflict, acyclic = 0, True
    for i in bits(mask):
        u, v = edges[i]
        verts |= 1 << u | 1 << v
        conflict |= rows[i]
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        acyclic = acyclic and u != v
        parent[u] = v
    connected = acyclic and mask.bit_count() == verts.bit_count() - 1
    cert = TreeCert(spanning=verts == (1 << d.n) - 1,
                    acyclic_connected=connected,
                    plane=mask & conflict == 0, mask=mask, conflict=conflict)
    d._cert_cache[mask] = cert
    return cert


def _input_certs(d: Relation, trees: Sequence[Iterable[Edge]]) -> List[TreeCert]:
    """Certificates of a call's input trees, each checked in turn;
    BadTreeError gives the position of the tree in the call.  Each tree is
    one read of the relation's cache, certified by ``check_mask`` on a
    miss."""
    cache = d._cert_cache
    certs = []
    for i, t in enumerate(trees):
        mask = tree_mask(d, t)
        cert = cache.get(mask) or check_mask(d, mask)
        if not cert.is_plane_spanning_tree:
            raise BadTreeError(i, cert)
        certs.append(cert)
    return certs


def is_compatible(d: Relation, t1: Iterable[Edge], t2: Iterable[Edge]) -> bool:
    return tree_mask(d, t1) & conflict_mask(d, tree_mask(d, t2)) == 0


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_plane_trees(d: Relation, kind: str = "all",
                          limit: Optional[int] = None) -> List[Tree]:
    """All plane spanning trees of the relation, canonically ordered.

    'all' grows trees over the sorted edge list by a depth-first search.
    Each component of the chosen forest is labelled by its cut mask, the
    edges with one end in it: the XOR of its vertices' incidence masks.
    Joining two components by an edge XORs their labels, and the edges
    between them, the AND of the labels, now close a cycle: ``closed`` is
    the OR of those ANDs, ``blocked`` the OR of the chosen edges' crossing
    rows, and a level's candidates are the window's bits outside both.
    An edge crossing itself is in no window and no label.
    Every later choice lies outside ``blocked | closed`` and above the
    edge just chosen, and each component needs one of them in its cut, so
    a branch where some label misses that set holds no tree and is cut
    before it is entered.  The level that leaves three components runs
    the last two choices as loops of its own: it reads the two labels it
    joined as their XOR, so it builds no label list and makes no call,
    and once two components remain their cut is every edge that completes
    a tree.  On three or fewer vertices the list is every (n - 1)-edge set
    that ``check_mask`` certifies, the one definition of a plane spanning
    tree; a one-vertex relation's tree is the empty one.
    The other kinds, 'special' for the union of 'star', 'double_star' and
    'twin_star', are built directly from the trees' defining vertices, not
    filtered from all trees, except on 2 <= n <= 5, where every plane tree
    is special and the search above lists them; the three single kinds
    keep the 'special' trees whose ``classify_kind`` is that kind.
    """
    return mask_trees(d.edges, _plane_masks(d, kind, limit)[0])


def _plane_masks(d: Relation, kind: str = "all", limit: Optional[int] = None
                 ) -> Tuple[List[int], List[int], List[int]]:
    """The trees ``enumerate_plane_trees`` lists, in the same order, as
    ``(masks, class_of, conflicts)``: tree i is ``masks[i]``, its twin
    class (the trees with its conflict mask) is ``class_of[i]``, numbered
    in order of first appearance as the trees are found, and class a's
    conflict mask is ``conflicts[a]``: a listing keeps one conflict mask
    per class, not one per tree.  ``compat.build_compat_graph`` lists its
    trees through this kernel too.

    'special' on 2 <= n <= 5 is 'all': a tree on at most five vertices has
    diameter at most 4, so it is a star or a double star, or the path on
    five vertices, the twin star whose core is its middle three vertices."""
    if kind not in KINDS:
        raise ValueError(f"unknown filter {kind!r}")
    if limit is None:
        limit = ENUM_LIMIT_ALL if kind == "all" else ENUM_LIMIT_SPECIAL
    if d.n > limit:
        raise TooLargeError(d.n, limit)
    if kind not in ("all", "special"):
        masks, class_of, conflicts = _plane_masks(d, "special", limit)
        return _twin_classes((mask, conflicts[a]) for mask, a in zip(masks, class_of)
                             if _kind_of(d, mask)[0] == kind)
    if kind == "special" and not 2 <= d.n <= 5:
        return _star_family(d)

    n, edges, rows = d.n, d.edges, d.cross_mask
    m = len(edges)
    if m < n - 1:
        return [], [], []
    if n <= 3:  # few enough (n - 1)-edge sets to certify each one
        certs = [check_mask(d, sum(1 << i for i in pick))
                 for pick in (itertools.combinations(range(m), n - 1) if n else ())]
        return _twin_classes((c.mask, c.conflict) for c in certs
                             if c.is_plane_spanning_tree)
    usable = sum(1 << i for i, row in enumerate(rows) if not row >> i & 1)  # no self-crossing
    masks: List[int] = []
    class_of: List[int] = []
    number: Dict[int, int] = {}  # conflict mask -> class
    add_mask, add_class, new_class = masks.append, class_of.append, number.setdefault
    # with `left` edges still to choose, the next has id at most m - left
    window = [usable & (1 << m + 1 - left) - 1 for left in range(n)]

    def grow(start: int, comp: Sequence[int], left: int, mask: int,
             blocked: int, closed: int) -> None:
        # comp[v] is the cut mask of v's component; left >= 3
        cand = window[left] & ~(blocked | closed) & -(1 << start)
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            u, v = edges[i]
            cu, cv = comp[u], comp[v]
            joined, b, c = cu ^ cv, blocked | rows[i], closed | cu & cv
            later = ~(b | c) & -(low << 1)  # every choice after this one
            if left > 3:
                comp2 = [joined if x == cu or x == cv else x for x in comp]
                if all(map(later.__and__, comp2)):
                    grow(i + 1, comp2, left - 1, mask | low, b, c)
                continue
            # three components remain, comp's labels cu and cv now joined
            chosen = mask | low
            pick = window[2] & later
            while pick:
                low2 = pick & -pick
                pick ^= low2
                j = low2.bit_length() - 1
                x, y = edges[j]
                cx, cy = comp[x], comp[y]
                if cx == cu or cx == cv:
                    cx = joined
                if cy == cu or cy == cv:
                    cy = joined
                b2, pair = b | rows[j], chosen | low2
                cut = (cx ^ cy) & ~b2 & -(low2 << 1)  # each completes a tree
                while cut:
                    low3 = cut & -cut
                    cut ^= low3
                    add_mask(pair | low3)
                    add_class(new_class(b2 | rows[low3.bit_length() - 1],
                                        len(number)))

    grow(0, [row & usable for row in d._derive(_vertex_rows)], n - 1, 0, 0, 0)
    return masks, class_of, list(number)


def _twin_classes(trees: Iterable[Tuple[int, int]]
                  ) -> Tuple[List[int], List[int], List[int]]:
    """``_plane_masks``'s triple of trees given as (mask, conflict mask)
    pairs, their classes numbered in order of first appearance."""
    masks: List[int] = []
    class_of: List[int] = []
    number: Dict[int, int] = {}
    for mask, conflict in trees:
        masks.append(mask)
        class_of.append(number.setdefault(conflict, len(number)))
    return masks, class_of, list(number)


def _star_family(d: Relation) -> Tuple[List[int], List[int], List[int]]:
    """Every plane double star and twin star, in canonical order, in
    ``_plane_masks``'s shape.  The stars are among the double stars: a
    star with centre c is the double star of an edge cv with every other
    vertex joined to c.  Each tree is its core, the edge gr or the path g-s-r,
    with every other vertex joined to g or to r.  So each unordered pair
    (g, r) has one expansion: the entries, each vertex but g and r joined
    to g or r by an edge the relation has (bipartite drawings lack some),
    no two crossing; an entry is dropped as soon as its next edge crosses
    the edges chosen before it.  The cores are filters on that list: the
    double star on gr is every entry that no edge crossing gr is in, plus
    gr, and the twin star g-s-r every entry that holds gs and no edge
    crossing rs, plus rs (the entries holding rs give the same trees).
    ``_plane_masks`` calls it for n = 0, n = 1 (no tree: a lone vertex
    has no core edge) and n >= 6; on 2 <= n <= 5 the plane-tree search
    lists the same triple."""
    n, rows, top = d.n, d.cross_mask, len(d.edges) - 1
    at: List[List[Optional[Tuple[int, int, int]]]] = [[None] * n for _ in range(n)]
    # at[u][v]: edge uv's bit, row and bit in the reversed mask (edge i at
    # bit m - 1 - i), the sort key: every tree has n - 1 edges, so the
    # canonical order puts A before B iff the lowest bit of A ^ B is in A,
    # the highest of their reversed masks' XOR
    for i, (u, v) in enumerate(d.edges):
        if not rows[i] >> i & 1:  # an edge crossing itself gets no entry
            at[u][v] = at[v][u] = (1 << i, rows[i], 1 << top - i)
    found: Dict[int, Tuple[int, int]] = {}  # reversed mask -> (mask, blocked)
    for g, r in itertools.combinations(range(n), 2):
        ag, ar = at[g], at[r]
        entries = [(0, 0, 0)]
        for v in range(n):
            if v != g and v != r:
                opts = [o for o in (ag[v], ar[v]) if o is not None]
                entries = [(mask | b, blocked | row, rev | rb)
                           for mask, blocked, rev in entries
                           for b, row, rb in opts if not blocked & b]
                if not entries:
                    break
        if ag[r]:  # the double star on gr
            b, row, rb = ag[r]
            for mask, blocked, rev in entries:
                if not blocked & b:
                    found[rev | rb] = (mask | b, blocked | row)
        for s in range(n):  # each twin star g-s-r; at[x][x] is None
            if ag[s] and ar[s]:
                hold, (b, row, rb) = ag[s][0], ar[s]
                for mask, blocked, rev in entries:
                    if mask & hold and not blocked & b:
                        found[rev | rb] = (mask | b, blocked | row)
    return _twin_classes([found[rev] for rev in sorted(found, reverse=True)])


# ---------------------------------------------------------------------------
# flips
# ---------------------------------------------------------------------------

def compatible_step_to_flips(d: Relation, t1: Iterable[Edge],
                             t2: Iterable[Edge]) -> List[Tuple[Edge, Edge]]:
    """Expand one compatible tree pair into single edge flips: add each edge
    of t2 - t1 in canonical order, removing from the created cycle the
    highest-id edge of t1 - t2 on it.  Every intermediate stays a plane
    spanning tree."""
    c1, c2 = _input_certs(d, [t1, t2])
    t1, t2 = c1.mask, c2.mask
    if t1 & c2.conflict:
        raise IncompatibleError("trees are not compatible")
    edges, current = d.edges, t1
    flips: List[Tuple[Edge, Edge]] = []
    for i in bits(t2 & ~t1):
        # The current tree's edges in t2, with i, lie in t2 and close no
        # cycle; the rest, by ascending id, then drop the highest-id edge
        # of t1 - t2 on the one cycle that edge i closes.
        new = _retree(d, [current & t2 | 1 << i, current & ~t2])
        flips.append((edges[(current & ~new).bit_length() - 1], edges[i]))
        current = new
    return flips
