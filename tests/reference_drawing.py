"""``drawing``'s order-type rows and class checks as they ran before they
read wedges and compared integers.

``order_type_rows`` fills the ``left`` table with one ``orient`` call per
vertex triple and then tests every pair of disjoint edges, O(m^2) pairs for
m edges; it is the oracle of ``drawing._order_type_rows``.
``classify_monotone`` compares the ``Fraction`` x-coordinates of the
vertices and of every waypoint with ``is_x_monotone``; it is the oracle of
``drawing._classify_monotone``.  ``vertex_angles`` and ``edge_span`` read a
polar drawing's angles as ``Fraction``s, the form the strongly c-monotone
check scaled to integers before it scaled the curve ends once; the span
and spine oracles read them.
"""

from typing import List, Optional, Tuple

from treespan.drawing import Drawing, Edge, SpineStructure, edge
from treespan.geometry import CartesianCurve, Rat, _x_direction, orient


def order_type_rows(points, edges) -> Optional[Tuple[int, ...]]:
    """Crossing rows of the straight-line drawing of ``edges`` on distinct
    ``points``, or None when three points lie on one line.

    ``left[a][b]`` has bit c set when c lies strictly left of the directed
    line a -> b; one orientation per vertex triple fills it.  With no three
    points on a line, segments sharing an end meet only there, no vertex
    touches a segment, and disjoint segments ab and cd cross, once, iff c
    and d lie on opposite sides of ab and a and b on opposite sides of cd."""
    n = len(points)
    left = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                o = orient(points[a], points[b], points[c])
                if o == 0:
                    return None
                p, q = (a, b) if o > 0 else (b, a)  # p, q, c counterclockwise
                left[p][q] |= 1 << c
                left[q][c] |= 1 << p
                left[c][p] |= 1 << q
    rows = [0] * len(edges)
    for i, (a, b) in enumerate(edges):
        ab = left[a][b]
        for j in range(i + 1, len(edges)):
            c, d = f = edges[j]
            if a in f or b in f:
                continue
            cd = left[c][d]
            if ((ab >> c) ^ (ab >> d)) & ((cd >> a) ^ (cd >> b)) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def is_x_monotone(curve: CartesianCurve) -> bool:
    return _x_direction(curve) != 0


def classify_monotone(d: Drawing) -> Optional[SpineStructure]:
    if d.backend != "cartesian" or d.graph[0] != "complete":
        return None
    xs = [p.x for p in d.vertex_points]
    if len(set(xs)) != d.n:
        return None
    if not all(is_x_monotone(c) for c in d.curves.values()):
        return None
    order = tuple(sorted(range(d.n), key=lambda v: xs[v]))
    spine = tuple(edge(order[i], order[i + 1]) for i in range(d.n - 1))
    return SpineStructure(kind="monotone", order=order, spine_edges=spine)


def vertex_angles(d: Drawing) -> List[Rat]:
    return [p[0] % 1 for p in d.vertex_points]


def edge_span(d: Drawing, e: Edge) -> Tuple[Rat, Rat]:
    """Closed angular span [t0, tn] of an edge's curve, t0 in [0, 1)."""
    c = d.curves[e]
    t0 = c[0].theta % 1
    return t0, c[-1].theta - (c[0].theta - t0)
