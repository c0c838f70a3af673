"""The plane-tree enumerators as ``trees`` ran them before they moved to
cut-mask component labels and to one star-family expansion per hub pair.

``plane_masks`` labels the components of the chosen forest with a
per-vertex list that it copies on every call, and tests each edge of its
window one by one; ``star_family`` expands every core on its own, the
edge gr or the path g-s-r, building its option lists afresh.  Both return
``(mask, conflict_mask)`` pairs in canonical order and read only ``n``,
``edges`` and ``cross_mask`` of the drawing.
The tests use them as the oracle of ``trees._plane_masks(d, "all")``, the
depth-first search over cut masks, and of ``trees._star_family``, whose
one expansion per unordered hub pair (g, r) serves every core on it as a
filter.
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
                       if i is not None and not blocked >> i & 1]
        found.update(partial)
    width = f"0{len(d.edges)}b"
    return sorted(found.items(), key=lambda p: format(p[0], width)[::-1],
                  reverse=True)
