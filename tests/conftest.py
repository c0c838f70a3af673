"""Shared hand-built drawings.

SQ   convex quadrilateral with distinct x and y coordinates (straight-line).
M4   the standard 4-point monotone drawing (0,0),(1,1),(2,-1),(3,0).
PK4  polar K4 with one long cycle edge crossing a spine edge once.
PK3  polar K3, all cycle edges short (everything is spine).
PK2  polar K2, one edge along a quarter of the circle.
"""

from fractions import Fraction as F

import pytest

from treespan.drawing import Drawing, Relation, bits, complete_edges, edge
from treespan.geometry import Point, PolarPoint


def P(x, y):
    return Point(F(x), F(y))


def PP(t, r):
    return PolarPoint(F(t), F(r))


def crossings(d):
    """Edge -> the edges crossing it, built from ``d.cross_mask``: the
    tuple view of the crossing matrix that the oracles read."""
    edges = d.edges
    return {e: frozenset(edges[j] for j in bits(row))
            for e, row in zip(edges, d.cross_mask)}


def edge_ids(d):
    """Edge -> its id, its position in ``d.edges`` and so its bit in
    masks: the index the oracles read."""
    return {e: i for i, e in enumerate(d.edges)}


def uncrossed(n, edges):
    """The relation of ``edges`` on n vertices in which no edges cross."""
    edges = tuple(edges)
    return Relation(n, edges, [0] * len(edges))


def straight_line_drawing(points):
    pts = tuple(points)
    curves = {e: (pts[e[0]], pts[e[1]]) for e in complete_edges(len(pts))}
    return Drawing(n=len(pts), backend="cartesian", vertex_points=pts, curves=curves)


@pytest.fixture
def sq():
    return straight_line_drawing([P(0, 0), P(4, 1), P(5, 5), P(1, 4)])


@pytest.fixture
def m4():
    return straight_line_drawing([P(0, 0), P(1, 1), P(2, -1), P(3, 0)])


def polar_k4():
    pts = (PP(0, 10), PP(F(1, 4), 10), PP(F(1, 2), 10), PP(F(3, 4), 10))
    curves = {
        edge(0, 1): (PP(0, 10), PP(F(1, 8), F(49, 5)), PP(F(1, 4), 10)),
        edge(1, 2): (PP(F(1, 4), 10), PP(F(3, 8), F(49, 5)), PP(F(1, 2), 10)),
        edge(2, 3): (PP(F(1, 2), 10), PP(F(5, 8), F(49, 5)), PP(F(3, 4), 10)),
        # the remaining cycle edge runs the long way and crosses spine (1,2)
        edge(0, 3): (PP(0, 10), PP(F(5, 16), 7), PP(F(7, 16), 12), PP(F(3, 4), 10)),
        edge(0, 2): (PP(0, 10), PP(F(1, 4), 4), PP(F(1, 2), 10)),
        edge(1, 3): (PP(F(1, 4), 10), PP(F(1, 2), 13), PP(F(3, 4), 10)),
    }
    return Drawing(n=4, backend="polar", vertex_points=pts, curves=curves)


def polar_k2():
    pts = (PP(0, 2), PP(F(1, 4), 2))
    return Drawing(n=2, backend="polar", vertex_points=pts,
                   curves={edge(0, 1): (PP(0, 2), PP(F(1, 4), 2))})


def polar_k3():
    pts = (PP(0, 2), PP(F(1, 3), 2), PP(F(2, 3), 2))
    curves = {
        edge(0, 1): (PP(0, 2), PP(F(1, 3), 2)),
        edge(1, 2): (PP(F(1, 3), 2), PP(F(2, 3), 2)),
        edge(0, 2): (PP(F(2, 3), 2), PP(1, 2)),
    }
    return Drawing(n=3, backend="polar", vertex_points=pts, curves=curves)


def polar_k5():
    """All five cycle edges hug the circle (everything is spine); the edge
    (1,4) crosses spine edge (2,3) once and is the only twiggly edge."""
    pts = tuple(PP(F(k, 5), 10) for k in range(5))
    dip = F(49, 5)
    curves = {}
    for k in range(5):
        a, b = F(k, 5), F(k + 1, 5)
        curves[edge(k, (k + 1) % 5)] = (PP(a, 10), PP((a + b) / 2, dip), PP(b, 10))
    curves[edge(1, 4)] = (PP(F(1, 5), 10), PP(F(9, 20), 9),
                          PP(F(11, 20), F(21, 2)), PP(F(4, 5), 10))
    curves[edge(0, 2)] = (PP(0, 10), PP(F(1, 5), 8), PP(F(2, 5), 10))
    curves[edge(1, 3)] = (PP(F(1, 5), 10), PP(F(2, 5), 6), PP(F(3, 5), 10))
    curves[edge(0, 3)] = (PP(0, 10), PP(F(3, 10), F(51, 5)), PP(F(3, 5), 10))
    curves[edge(2, 4)] = (PP(F(2, 5), 10), PP(F(3, 5), 11), PP(F(4, 5), 10))
    return Drawing(n=5, backend="polar", vertex_points=pts, curves=curves)


@pytest.fixture
def pk5():
    return polar_k5()


@pytest.fixture
def pk4():
    return polar_k4()


@pytest.fixture
def pk3():
    return polar_k3()


def two_page_k4():
    pts = (P(0, 0), P(1, 0), P(2, 0), P(3, 0))
    up = {edge(0, 1): F(3, 10), edge(1, 2): F(3, 10), edge(2, 3): F(3, 10),
          edge(0, 3): 3}
    down = {edge(0, 2): -2, edge(1, 3): -4}
    curves = {}
    for e, h in {**up, **down}.items():
        mid = F(pts[e[0]].x + pts[e[1]].x, 2)
        curves[e] = (pts[e[0]], P(mid, F(h)), pts[e[1]])
    return Drawing(n=4, backend="cartesian", vertex_points=pts, curves=curves)


@pytest.fixture
def book4():
    return two_page_k4()


def cyl_k4():
    pts = (P(1, 0), P(-1, 0), P(0, 2), P(0, -2))
    curves = {
        edge(0, 1): (P(1, 0), P(-1, 0)),
        edge(2, 3): (P(0, 2), P(5, 3), P(5, -3), P(0, -2)),
        edge(0, 2): (P(1, 0), P(F(3, 2), F(1, 2)), P(0, 2)),
        edge(0, 3): (P(1, 0), P(F(3, 2), F(-1, 2)), P(0, -2)),
        edge(1, 2): (P(-1, 0), P(F(-3, 2), F(1, 2)), P(0, 2)),
        edge(1, 3): (P(-1, 0), P(F(-3, 2), F(-1, 2)), P(0, -2)),
    }
    return Drawing(n=4, backend="cartesian", vertex_points=pts, curves=curves,
                   circles=(F(1), F(4)))


@pytest.fixture
def cyl4():
    return cyl_k4()
