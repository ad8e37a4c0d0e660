"""Exact bounds for multi-point Seshadri constants on Picard-number-1 surfaces.

The package computes, compares, and brute-force-verifies lower and upper
bounds for the Seshadri constant of the ample generator at r very general
points, entirely in exact arithmetic: rationals are fractions, irrational
bounds are surds q*sqrt(n), and every comparison is decided by integer
cross-multiplication.
"""

from .exact import Surd, isqrt, render_decimal, squarefree_decompose
from .pell import FsstWitness, PellSolution, fsst_applicable, pell_fundamental, szemberg_single_point_bound
from .bounds import (
    BoundEntry,
    BoundReport,
    BoundValue,
    HarbourneBound,
    HarbourneElement,
    MainLowerBound,
    PlaneValue,
    PlaneValueStatus,
    ProductFactors,
    SubmaximalCandidate,
    ThresholdScan,
    biran_product_bound,
    compare_bounds,
    dominance_scan,
    enumerate_exceptional_candidates,
    generic_lower_value,
    harbourne_bound,
    main_lower_bound,
    nagata_plane_value,
    szemberg_floor_bound,
    upper_bound,
)
from .oracle import (
    CaseLabel,
    HanScan,
    K3Exclusion,
    K3TraceRow,
    Multiplicities,
    SearchResult,
    TheoremScan,
    TheoremViolation,
    Violation,
    check_el_xu,
    classify_case,
    feasible_multiplicities,
    k3_case2_excluded,
    k3_h0,
    min_ratio_search,
    validate_multiplicities,
    verify_han_exhaustive,
    verify_theorem,
)
from .catalog import (
    SurfaceKind,
    SurfaceSpec,
    SurfaceSyntaxError,
    known_value,
    make_surface,
    parse_surface,
)

__version__ = "0.1.0"
