"""Flat twist tori: construction, homological invariants, and flows."""

from .errors import (
    BadIndex,
    BadPartition,
    CrossCheckFailed,
    InvalidAssignment,
    InvalidConfig,
    InvalidSurface,
    LowValence,
    MalformedGraph,
    ModeMismatch,
    NonLiftable,
    NonPositiveHeight,
    NonPositiveLength,
    NotAbelianSquare,
    NotPants,
    OddValence,
    OutOfRange,
    ParseError,
    RadiusTooSmall,
    SpanNotCertified,
    TTLabError,
    ZeroLengthForced,
)
from .classify import (
    FULL_STRATUM,
    HYPERELLIPTIC,
    INCONCLUSIVE,
    OrbitClosureVerdict,
    StratumLabel,
    classify_orbit_closure,
    classify_pants_torus,
    high_rank_threshold,
    hyperelliptic_involution_search,
    identify_stratum,
    nabla_count,
)
from .cover import (
    BranchedDoubleCover,
    cover_genus,
    h1_anti_invariant,
    holonomy_double_cover,
    rank_lower_bound,
    relations_formula,
    stratum_rank,
)
from .linalg import nullspace
from .probe import ProbeReport, ks_distance, run_probe
from .ribbon import (
    MetricRibbonGraph,
    SpineAssignment,
    co_orientable,
    cone_orders,
    jointly_orientable,
    pants_assignment,
    pants_spine,
    plumbing_fixture,
    single_vertex_graph,
    validate_assignment,
)
from .rng import CounterRandom
from .saddle import SaddleConnection, SaddleSearch, saddle_connections_up_to
from .specfile import (
    TorusSpecFile,
    forced_zero_lengths,
    parse_spec,
    spec_from_surface,
    validate_spec,
    write_spec,
)
from .spin import arf_invariant, spin_parity, winding_form
from .surface import (
    EXACT,
    NUMERIC,
    FlatTwistSurface,
    build_surface,
    cylinder_twist,
    geodesic_flow,
    horocycle_flow,
)
from .topology import (
    ComplementPiece,
    MulticurveConfig,
    ValidationReport,
    enumerate_pants_configs,
    is_pants_decomposition,
    make_config,
    validate_config,
)

__version__ = "0.1.0"
