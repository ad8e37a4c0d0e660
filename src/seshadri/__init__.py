"""Exact bounds for multi-point Seshadri constants on Picard-number-1 surfaces.

The package computes, compares, and brute-force-verifies lower and upper
bounds for the Seshadri constant of the ample generator at r very general
points, entirely in exact arithmetic: rationals are fractions, irrational
bounds are surds q*sqrt(n), and every comparison is decided by integer
cross-multiplication.

Importing the package loads none of its modules: each name below loads
the module that defines it on first access (PEP 562), so a command-line
run pays only for the modules its subcommand uses.
"""

__version__ = "0.1.0"

# Every public name, with the module that defines it.  This is the only list
# of them: each of those modules takes its __all__ from here (_public below).
_EXPORTS = {
    **dict.fromkeys(("Surd", "isqrt", "render_decimal", "squarefree_decompose"), "exact"),
    **dict.fromkeys(
        (
            "PellSolution",
            "fsst_applicable",
            "pell_fundamental",
            "szemberg_single_point_bound",
        ),
        "pell",
    ),
    **dict.fromkeys(("PlaneValue", "PlaneValueStatus", "nagata_plane_value"), "plane"),
    **dict.fromkeys(
        (
            "BoundEntry",
            "BoundReport",
            "BoundValue",
            "HarbourneBound",
            "HarbourneElement",
            "MainLowerBound",
            "ProductFactors",
            "SubmaximalCandidate",
            "compare_bounds",
            "enumerate_exceptional_candidates",
            "generic_lower_value",
            "harbourne_bound",
            "main_lower_bound",
            "upper_bound",
        ),
        "bounds",
    ),
    **dict.fromkeys(("ThresholdScan", "dominance_scan", "szemberg_floor_bound"), "threshold"),
    **dict.fromkeys(
        (
            "CaseLabel",
            "Multiplicities",
            "SearchResult",
            "TheoremViolation",
            "check_el_xu",
            "classify_case",
            "feasible_multiplicities",
            "min_ratio_search",
            "validate_multiplicities",
        ),
        "walk",
    ),
    **dict.fromkeys(
        (
            "HanScan",
            "K3Scan",
            "TheoremScan",
            "Violation",
            "k3_h0",
            "verify_han_exhaustive",
            "verify_k3",
            "verify_theorem",
        ),
        "oracle",
    ),
    **dict.fromkeys(
        (
            "SurfaceKind",
            "SurfaceSpec",
            "SurfaceSyntaxError",
            "known_value",
            "make_surface",
            "parse_surface",
        ),
        "catalog",
    ),
}

__all__ = list(_EXPORTS)


def _public(module_name: str) -> list[str]:
    """The __all__ of the module module_name: the names above that it defines."""
    module = module_name.rpartition(".")[2]
    return [name for name, home in _EXPORTS.items() if home == module]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
