"""The segment-circle relation, kept for the tests that read it.

``segment_circle_relation`` names the relation of one closed segment to a
circle.  The package reads only ``curve_circle_crossing``, the transversal
pass of a whole polyline; both are sign walks over the samples of
``geometry._circle_values``, so the tests of this one exercise the samples
the cylindrical check reads.
"""

from typing import Sequence

from treespan.geometry import Point, Rat, _changes_sign, _circle_values


def segment_circle_relation(s: Sequence[Point], center: Point, r2: Rat) -> str:
    """Relation of a closed segment to the circle of squared radius r2:
    'disjoint', 'crosses' (the open segment passes through the circle
    transversally) or 'touches' (contact without a transversal pass)."""
    if r2 <= 0:
        raise ValueError("squared radius must be positive")
    values = _circle_values(s, center, r2)
    if _changes_sign(values):
        return "crosses"
    return "touches" if 0 in values else "disjoint"
