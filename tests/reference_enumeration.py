"""The plane-tree enumerators as ``trees`` ran them before: before cut-mask
component labels, before one star-family expansion per hub pair, and
before the cut-label search pruned branches and ran its last two levels
as loops.

``plane_masks`` labels the components of the chosen forest with a
per-vertex list that it copies on every call, and tests each edge of its
window one by one; ``cut_label_masks`` is the cut-label search with one
call and one new label list per level above the last, and no branch cut
before it is entered; ``star_family`` expands every core on its own, the
edge gr or the path g-s-r, building its option lists afresh.  All three
return ``(mask, conflict_mask)`` pairs in canonical order and read only
``n``, ``edges`` and ``cross_mask`` of the drawing.  None of them offers
an edge that crosses itself (no drawing has one; a synthetic relation
may), as ``trees`` does not.
The tests use the first two as oracles of ``trees._plane_masks(d, "all")``
and the third of ``trees._star_family``, whose one expansion per unordered
hub pair (g, r) serves every core on it as a filter.
"""

import itertools
from typing import Dict, List, Tuple

from treespan.drawing import edge

from conftest import edge_ids


def plane_masks(d) -> List[Tuple[int, int]]:
    edges, rows = d.edges, d.cross_mask
    m = len(edges)
    out: List[Tuple[int, int]] = []

    def grow(start: int, comp: List[int], left: int, mask: int,
             blocked: int) -> None:
        if not left:
            out.append((mask, blocked))
            return
        for i in range(start, m - left + 1):
            if (blocked | rows[i]) >> i & 1:
                continue
            u, v = edges[i]
            cu, cv = comp[u], comp[v]
            if cu == cv:
                continue
            grow(i + 1, [cv if c == cu else c for c in comp], left - 1,
                 mask | 1 << i, blocked | rows[i])

    if d.n:  # no vertex: no tree
        grow(0, list(range(d.n)), d.n - 1, 0, 0)
    return out


def cut_label_masks(d) -> List[Tuple[int, int]]:
    n, edges, rows = d.n, d.edges, d.cross_mask
    m = len(edges)
    if n <= 1:  # one vertex: the empty tree
        return [(0, 0)] * n
    if m < n - 1:
        return []
    inc, usable = [0] * n, 0
    for i, (u, v) in enumerate(edges):
        if not rows[i] >> i & 1:
            inc[u] |= 1 << i
            inc[v] |= 1 << i
            usable |= 1 << i
    # with `left` edges still to choose, the next has id at most m - left
    window = [usable & (1 << m + 1 - left) - 1 for left in range(n)]
    out: List[Tuple[int, int]] = []

    def leaves(mask: int, blocked: int, cut: int) -> None:
        while cut:
            low = cut & -cut
            out.append((mask | low, blocked | rows[low.bit_length() - 1]))
            cut ^= low

    def grow(start: int, comp: List[int], left: int, mask: int,
             blocked: int, closed: int) -> None:
        # comp[v] is the cut mask of v's component
        cand = window[left] & ~(blocked | closed) & -(1 << start)
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            u, v = edges[i]
            cu, cv = comp[u], comp[v]
            joined, b = cu ^ cv, blocked | rows[i]
            if left == 2:  # joined is the cut between the last two
                leaves(mask | low, b, joined & ~b & -(low << 1))
            else:
                grow(i + 1, [joined if c == cu or c == cv else c for c in comp],
                     left - 1, mask | low, b, closed | cu & cv)

    if n == 2:
        leaves(0, 0, inc[0])
    else:
        grow(0, inc, n - 1, 0, 0, 0)
    return out


def star_family(d) -> List[Tuple[int, int]]:
    n, ids, rows = d.n, edge_ids(d), d.cross_mask
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
                       if i is not None and not (blocked | rows[i]) >> i & 1]
        found.update(partial)
    width = f"0{len(d.edges)}b"
    return sorted(found.items(), key=lambda p: format(p[0], width)[::-1],
                  reverse=True)
