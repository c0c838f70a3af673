"""``drawing``'s order-type rows and class checks as they ran before they
read wedges and compared integers.

``order_type_rows`` fills the ``left`` table with one ``orient`` call per
vertex triple and then tests every pair of disjoint edges, O(m^2) pairs for
m edges; it is the oracle of ``drawing._order_type_rows``.  The three class
checks below compare the drawing's own ``Fraction`` coordinates, where the
package compares those of the integer image that validation keeps:
``classify_monotone`` tests the x-coordinates of the vertices and of every
waypoint with ``is_x_monotone``, ``classify_two_page`` the y-coordinates,
and ``classify_c_monotone`` the spans and vertex angles that
``edge_span`` and ``vertex_angles`` read as ``Fraction``s, taken mod one
turn.  ``angle_cmp`` is the comparator that ordered the vertices of a
cylindrical drawing's circles before ``drawing._ring_key`` did: its cross
product orders any points about the origin, not only points of one circle.
``circle_paths`` reads each circle's cycle in that order and states the
uncrossed Hamiltonian path that ``CylRoles.paths_mask`` holds.
"""

import functools
from typing import List, Optional, Tuple

from treespan.drawing import Drawing, Edge, SpineStructure, _spans_cover_circle, edge
from treespan.geometry import CartesianCurve, Point, Rat, _x_direction, lift_angle, orient


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


def classify_two_page(d: Drawing) -> bool:
    if d.backend != "cartesian":
        return False
    ys = {p.y for p in d.vertex_points}
    if len(ys) != 1:
        return False
    y0 = ys.pop()
    for curve in d.curves.values():
        interior = curve[1:-1]
        if not interior:
            return False  # a segment lying on the line itself
        signs = {1 if w.y > y0 else (-1 if w.y < y0 else 0) for w in interior}
        if 0 in signs or len(signs) != 1:
            return False
    return True


def vertex_angles(d: Drawing) -> List[Rat]:
    return [p[0] % 1 for p in d.vertex_points]


def edge_span(d: Drawing, e: Edge) -> Tuple[Rat, Rat]:
    """Closed angular span [t0, tn] of an edge's curve, t0 in [0, 1)."""
    c = d.curves[e]
    t0 = c[0].theta % 1
    return t0, c[-1].theta - (c[0].theta - t0)


def span_contains(span: Tuple[Rat, Rat], theta: Rat) -> bool:
    """Whether the angle theta (mod 1) lies inside the open span interval."""
    t0, tn = span
    return t0 < lift_angle(theta, t0) < tn


def classify_c_monotone(d: Drawing):
    """(c_monotone, strongly, spine): strongly when no two edge spans
    jointly cover the circle, and a spine edge a cycle edge whose open span
    holds no vertex angle."""
    if d.backend != "polar":
        return False, False, None
    _ = d.cross_mask  # validates d
    if len({p.r for p in d.vertex_points}) != 1:
        return False, False, None
    if d.graph[0] != "complete":
        return True, False, None
    spans = [edge_span(d, e) for e in d.edges]
    strongly = not any(_spans_cover_circle(s, t) for i, s in enumerate(spans)
                       for t in spans[i + 1:])
    angles = vertex_angles(d)
    order = tuple(sorted(range(d.n), key=lambda v: angles[v]))
    cycle = {edge(order[i], order[(i + 1) % d.n]) for i in range(d.n)}
    spine = tuple(sorted(e for e in cycle
                         if not any(span_contains(edge_span(d, e), a) for a in angles)))
    return True, strongly, SpineStructure(kind="cmonotone", order=order, spine_edges=spine,
                                          all_cycle_edges_spine=len(spine) == len(cycle))


def angle_cmp(p: Point, q: Point) -> int:
    """-1, 0 or 1 as p's angle about the origin, from angle 0 in [0, 2 pi),
    is below, equal to or above q's."""
    def half(t: Point) -> int:
        return 0 if (t.y > 0 or (t.y == 0 and t.x > 0)) else 1
    hp, hq = half(p), half(q)
    if hp != hq:
        return -1 if hp < hq else 1
    c = p.x * q.y - p.y * q.x
    return 0 if c == 0 else (-1 if c > 0 else 1)


def circle_paths(d: Drawing, roles) -> List[Tuple[List[Edge], List[Edge], List[Edge]]]:
    """(cycle, crossed, path) of the inner circle, then of the outer: the
    circle's cycle edges in vertex order by ``angle_cmp`` (one edge on two
    vertices, none on one), those of them that some edge crosses, and its
    path: the cycle less its first crossed edge, else less its largest
    edge; a one-edge cycle is its own path."""
    crossing = {e for pair in d.crossing_pairs() for e in pair}
    out = []
    for vs in (roles.inner_vertices, roles.outer_vertices):
        ring = sorted(vs, key=functools.cmp_to_key(
            lambda u, v: angle_cmp(d.vertex_points[u], d.vertex_points[v])))
        cycle = list(dict.fromkeys(edge(a, b) for a, b in zip(ring, ring[1:] + ring[:1])
                                   if a != b))
        crossed = [e for e in cycle if e in crossing]
        dropped = None if len(cycle) < 2 else crossed[0] if crossed else max(cycle)
        out.append((cycle, crossed, [e for e in cycle if e != dropped]))
    return out
