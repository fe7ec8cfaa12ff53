"""Flat twist tori: construction, homological invariants, and flows.

Each exported name loads its module on first use (PEP 562), so
importing the package, or any one module of it, loads no other module.
"""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "errors": (
        "BadIndex", "BadPartition", "CrossCheckFailed", "InvalidAssignment",
        "InvalidConfig", "InvalidSurface", "LowValence", "MalformedGraph",
        "ModeMismatch", "NonLiftable", "NonPositiveHeight", "NonPositiveLength",
        "NotAbelianSquare", "NotPants", "OddValence", "OutOfRange", "ParseError",
        "RadiusTooSmall", "SpanNotCertified", "TTLabError", "ZeroLengthForced",
    ),
    "classify": (
        "FULL_STRATUM", "HYPERELLIPTIC", "INCONCLUSIVE", "OrbitClosureVerdict",
        "StratumLabel", "classify_orbit_closure", "classify_pants_torus",
        "high_rank_threshold", "hyperelliptic_involution_search",
        "identify_stratum", "nabla_count",
    ),
    "cover": (
        "BranchedDoubleCover", "cover_genus", "h1_anti_invariant",
        "holonomy_double_cover", "rank_lower_bound", "relations_formula",
        "stratum_rank",
    ),
    "linalg": ("nullspace",),
    "probe": ("ProbeReport", "ks_distance", "run_probe"),
    "ribbon": (
        "MetricRibbonGraph", "SpineAssignment", "co_orientable", "cone_orders",
        "jointly_orientable", "pants_assignment", "pants_spine",
        "plumbing_fixture", "single_vertex_graph", "validate_assignment",
    ),
    "rng": ("CounterRandom",),
    "saddle": ("SaddleConnection", "SaddleSearch", "saddle_connections_up_to"),
    "specfile": (
        "TorusSpecFile", "forced_zero_lengths", "parse_spec", "spec_from_surface",
        "validate_spec", "write_spec",
    ),
    "spin": ("arf_invariant", "spin_parity", "winding_form"),
    "surface": (
        "EXACT", "NUMERIC", "FlatTwistSurface", "build_surface",
        "cylinder_twist", "geodesic_flow", "horocycle_flow",
    ),
    "topology": (
        "ComplementPiece", "MulticurveConfig", "ValidationReport",
        "enumerate_pants_configs", "is_pants_decomposition", "make_config",
        "validate_config",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name, or a module named in _EXPORTS, imported on its
    first use and kept in the package namespace."""
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
