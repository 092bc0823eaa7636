"""Controllability analysis for bilinear and homogeneous control systems on
R^n minus the origin: matrix Lie-algebra closures, rank conditions,
attainable-set sampling with coverage metrics, non-controllability
certificates, and planar first-return maps of radial leaf fields.
"""

__version__ = "0.1.0"

from .analysis import (
    AnalysisBudgets,
    LarcFailure,
    MonotoneNorm,
    Verdict,
    angular_accessibility,
    decide_controllability,
    min_rank_search,
    monotone_norm_certificate,
    orbit_dimension_profile,
    transversality_at,
)
from .foliation import (
    ArcFamily,
    FirstReturnResult,
    FoliationError,
    PlanarSection,
    RadialDistribution,
    arc_family,
    first_return,
    first_return_constancy,
    orbit_tangent_distribution,
    planar_section,
    radial_graph_distribution,
    sphere_distribution,
)
from .matlie import LieBasis, bracket, evaluate_at, lie_closure, matrix_exponential
from .model import (
    BUILTIN_NAMES,
    ControlSchedule,
    MatrixFamily,
    SystemSpec,
    bilinear_system,
    builtin_corpus,
    parse_system,
    random_system,
    serialize_system,
    smooth_system,
)
from .reach import (
    CoverageGrid,
    CoverageReport,
    ReachTestResult,
    Trajectory,
    approx_reach_test,
    coverage,
    sample_attainable,
    simulate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
