"""Deterministic SVG rendering of drawings with optional highlighted trees.

Polar curves are sampled at 32 points per piece for display only; the
sampling never feeds back into any predicate.  Output is byte-identical
for identical input.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from .drawing import Drawing
from .trees import canon_tree

_SAMPLES = 32
_PALETTE = ["#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e"]


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _cartesian_path(curve) -> List[Tuple[float, float]]:
    return [(float(w.x), float(w.y)) for w in curve]


def _plane(theta, r) -> Tuple[float, float]:
    """The plane point at angle theta (in turns) and radius r."""
    ang = 2 * math.pi * float(theta)
    return float(r) * math.cos(ang), float(r) * math.sin(ang)


def _polar_path(curve) -> List[Tuple[float, float]]:
    pts = [_plane(a.theta + (b.theta - a.theta) * i / _SAMPLES,
                  a.r + (b.r - a.r) * i / _SAMPLES)
           for a, b in zip(curve, curve[1:]) for i in range(_SAMPLES)]
    pts.append(_plane(*curve[-1]))
    return pts


def render_svg(d: Drawing, highlight: Sequence[Iterable] = ()) -> str:
    """SVG document for the drawing; each highlighted edge set gets its own
    colour and a heavier stroke."""
    polar = d.backend == "polar"
    if not all(d.curves.values()):
        raise ValueError("cannot render an edge with an empty curve")
    try:
        paths = {e: (_polar_path(c) if polar else _cartesian_path(c))
                 for e, c in sorted(d.curves.items())}
        verts = ([_plane(*p) for p in d.vertex_points] if polar
                 else _cartesian_path(d.vertex_points))
    except OverflowError:  # float() of a value past the float range
        raise ValueError("drawing too large to render") from None

    xs = [x for pts in paths.values() for x, _ in pts]
    ys = [y for pts in paths.values() for _, y in pts]
    pad = 1.0 + 0.05 * (max(xs) - min(xs) + max(ys) - min(ys))
    x0, y0 = min(xs) - pad, min(ys) - pad
    width, height = max(xs) - x0 + pad, max(ys) - y0 + pad
    scale = 600.0 / max(width, height)
    if not scale:  # the drawing's extent overflows a float
        raise ValueError("drawing too large to render")

    def sx(x: float) -> str:
        return _fmt((x - x0) * scale)

    def sy(y: float) -> str:
        return _fmt((max(ys) + pad - y) * scale)  # flip y for screen coords

    marks = {}
    for rank, tree in enumerate(highlight):
        colour = _PALETTE[rank % len(_PALETTE)]
        for e in canon_tree(tree):
            marks[e] = colour

    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{_fmt(width * scale)}" height="{_fmt(height * scale)}" '
             f'viewBox="0 0 {_fmt(width * scale)} {_fmt(height * scale)}">']
    if polar:
        r_guide = float(d.vertex_points[0][1]) * scale
        cx, cy = sx(0.0), sy(0.0)
        lines.append(f'  <circle cx="{cx}" cy="{cy}" r="{_fmt(r_guide)}" '
                     f'fill="none" stroke="#cccccc" stroke-dasharray="4 4"/>')
        lines.append(f'  <circle cx="{cx}" cy="{cy}" r="3" fill="#888888"/>')
    for e, pts in paths.items():
        coords = " ".join(f"{sx(x)},{sy(y)}" for x, y in pts)
        colour = marks.get(e, "#555555")
        width_attr = "2.5" if e in marks else "1"
        lines.append(f'  <polyline points="{coords}" fill="none" '
                     f'stroke="{colour}" stroke-width="{width_attr}"/>')
    for v in range(d.n):
        x, y = verts[v]
        lines.append(f'  <circle cx="{sx(x)}" cy="{sy(y)}" r="4" fill="#000000"/>')
        lines.append(f'  <text x="{sx(x)}" y="{sy(y)}" dx="6" dy="-6" '
                     f'font-size="12">{v}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
