"""Plane spanning trees in simple drawings of complete graphs.

Exact-rational drawings with one explicit curve per edge, exact
compatibility graphs with their diameters, and certified transformations
between compatible plane spanning trees for cylindrical, monotone and
strongly c-monotone drawings, plus the star/double-star/twin-star family
in arbitrary simple drawings.
"""

from .compat import CompatGraph, analyze, build_compat_graph
from .drawing import (
    ClassReport,
    CylRoles,
    Drawing,
    Relation,
    SpineStructure,
    classify_c_monotone,
    classify_cylindrical,
    classify_monotone,
    classify_two_page,
    validate_simple,
)
from .generators import CLASSES, GenSpec, fixture_bipartite_isolated, generate
from .geometry import (
    CartesianCurve,
    CrossKind,
    Degenerate,
    Point,
    PolarCurve,
    PolarPoint,
    Proper,
    Rat,
    curve_eval,
    polar_crossings,
    polyline_crossings,
    segment_proper_crossing,
)
from .transforms import (
    TransformSequence,
    certify_sequence,
    cmonotone_to_spine,
    monotone_to_spine,
    star_to_star,
    transform,
    transform_cylindrical,
    transform_special,
)
from .trees import (
    TreeCert,
    canon_tree,
    compatible_step_to_flips,
    enumerate_plane_trees,
    is_compatible,
)

__version__ = "0.1.0"
