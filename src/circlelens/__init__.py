"""Exact enumeration and auditing of k-rich lens families in circle
arrangements, with duality lifts, lens cutting, and numeric bound
certification.

`import circlelens` loads no submodule.  The first read of a name the
package lacks imports the whole public API in one step (PEP 562), so its
cost is paid there and not spread over later reads; submodules such as
`circlelens.pencils` resolve after it.
"""

__version__ = "0.1.0"

# submodule -> the public names it gives the package, in __all__ order
_API = {
    "bounds": ("BOUND_KINDS", "RecurrenceTrace", "TraceRow", "bound_eval",
               "clamped_log", "dyadic_degree_sum", "recurrence_certify",
               "select_z"),
    "dual": ("AuditReport", "DualLine", "DualPlane", "DualPoint",
             "coplanarity_audit", "dual_plane", "lens_line", "lift_circle",
             "lines_coplanar"),
    "errors": ("CapExceeded", "CircleLensError", "DegenerateInput",
               "Inconclusive", "InvalidInput", "InvalidRichness",
               "NoRadicalAxis", "OracleCapExceeded", "OutOfDomain",
               "SceneFormatError", "VerticalTangent"),
    "families": ("CircleArc", "CutResult", "LensFamily", "lens_cutting",
                 "select_family", "verify_cut"),
    "generators": ("MODELS", "BundleDescriptor", "GeneratorSpec",
                   "pencil_bundle_construction", "random_scene"),
    "geometry": ("Circle", "Line", "circle_line_points", "intersection_points",
                 "point_on_circle", "power_of_point", "radical_axis"),
    "incidence": ("SzekelyStats", "count_incidences", "szekely_stats"),
    "pencils": ("Lens", "Scene", "brute_force_lenses", "enumerate_lenses",
                "rich_lenses"),
    "quadfield": ("QuadNum", "QuadPoint"),
    "sceneio": ("parse_scene", "serialize_scene"),
    "slopes": ("GammaPoint", "OrderReversal", "gamma_point",
               "order_reversal_check"),
}

__all__ = ["__version__", *(name for names in _API.values() for name in names)]


def __getattr__(name):
    # a dunder probe (__path__, __wrapped__, ...) loads nothing
    if not (name.startswith("__") and name.endswith("__")):
        from importlib import import_module
        found = globals()
        for module, names in _API.items():
            mod = import_module(f"{__name__}.{module}")
            found.update((n, getattr(mod, n)) for n in names)
        if name in found:
            return found[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
