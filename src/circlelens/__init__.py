"""Exact enumeration and auditing of k-rich lens families in circle
arrangements, with duality lifts, lens cutting, and numeric bound
certification."""

__version__ = "0.1.0"

from .bounds import (BOUND_KINDS, RecurrenceTrace, TraceRow, bound_eval,
                     clamped_log, dyadic_degree_sum, recurrence_certify,
                     select_z)
from .dual import (AuditReport, DualLine, DualPlane, DualPoint,
                   coplanarity_audit, dual_plane, lens_line, lift_circle,
                   lines_coplanar)
from .errors import (CapExceeded, CircleLensError, DegenerateInput,
                     Inconclusive, InvalidInput, InvalidRichness,
                     NoRadicalAxis, OracleCapExceeded, OutOfDomain,
                     SceneFormatError, VerticalTangent)
from .families import (CircleArc, CutResult, LensFamily, lens_cutting,
                       select_family, verify_cut)
from .generators import (MODELS, BundleDescriptor, GeneratorSpec,
                         pencil_bundle_construction, random_scene)
from .geometry import (Circle, Line, circle_line_points, intersection_points,
                       point_on_circle, power_of_point, radical_axis)
from .incidence import SzekelyStats, count_incidences, szekely_stats
from .pencils import (Lens, Scene, brute_force_lenses, enumerate_lenses,
                      rich_lenses)
from .quadfield import QuadNum, QuadPoint
from .sceneio import parse_scene, serialize_scene
from .slopes import GammaPoint, OrderReversal, gamma_point, order_reversal_check

__all__ = [
    "__version__",
    "BOUND_KINDS", "RecurrenceTrace", "TraceRow", "bound_eval", "clamped_log",
    "dyadic_degree_sum", "recurrence_certify", "select_z",
    "AuditReport", "DualLine", "DualPlane", "DualPoint", "coplanarity_audit",
    "dual_plane", "lens_line", "lift_circle", "lines_coplanar",
    "CapExceeded", "CircleLensError", "DegenerateInput", "Inconclusive",
    "InvalidInput", "InvalidRichness", "NoRadicalAxis", "OracleCapExceeded",
    "OutOfDomain", "SceneFormatError", "VerticalTangent",
    "CircleArc", "CutResult", "LensFamily", "lens_cutting", "select_family",
    "verify_cut",
    "MODELS", "BundleDescriptor", "GeneratorSpec",
    "pencil_bundle_construction", "random_scene",
    "Circle", "Line", "circle_line_points", "intersection_points",
    "point_on_circle", "power_of_point", "radical_axis",
    "SzekelyStats", "count_incidences", "szekely_stats",
    "Lens", "Scene", "brute_force_lenses", "enumerate_lenses", "rich_lenses",
    "QuadNum", "QuadPoint",
    "parse_scene", "serialize_scene",
    "GammaPoint", "OrderReversal", "gamma_point", "order_reversal_check",
]
