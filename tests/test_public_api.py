"""The public surface: each module's __all__ is what the package re-exports,
and each public result record holds the fields pinned here."""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

import seshadri

MODULES = ("exact", "pell", "bounds", "oracle", "catalog")


def reexports() -> dict[str, list[str]]:
    """Names seshadri/__init__.py imports, by the module they come from."""
    tree = ast.parse(Path(seshadri.__file__).read_text())
    found: dict[str, list[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.setdefault(node.module, []).extend(a.name for a in node.names)
    return found


def test_reexports_come_only_from_the_listed_modules():
    assert sorted(reexports()) == sorted(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_the_package_reexports(name):
    module = importlib.import_module(f"seshadri.{name}")
    imported = reexports()[name]
    assert len(module.__all__) == len(set(module.__all__))
    assert sorted(module.__all__) == sorted(imported)
    for attr in module.__all__:
        assert getattr(seshadri, attr) is getattr(module, attr)


# Records hold data only; the sentences the CLI prints about them live in
# the CLI, so a prose field added to a record shows up here.
RECORD_FIELDS = {
    "PellSolution": ("p0", "q0", "k"),
    "FsstWitness": ("applicable", "n"),
    "BoundValue": ("value", "attained", "conditional"),
    "SubmaximalCandidate": ("d", "s", "value"),
    "MainLowerBound": ("bound", "candidates"),
    "HarbourneElement": ("value", "source", "d", "num", "den"),
    "HarbourneBound": ("bound", "elements"),
    "PlaneValue": ("bound", "status"),
    "ProductFactors": ("pell", "witness", "plane"),
    "BoundEntry": ("name", "value", "conjectural", "candidates", "detail"),
    "BoundReport": ("k", "r", "upper", "entries", "ranks"),
    "ThresholdScan": ("r", "k_cap", "threshold", "last_failure", "band_cutoff", "stable_beyond_cap"),
    "SearchResult": ("minimum", "witnesses"),
    "Violation": ("d", "k", "r", "m"),
    "TheoremScan": ("feasible_vectors", "subgeneric_counts", "violations"),
    "HanScan": ("applicable_checked", "counterexamples", "equality_witnesses"),
    "K3TraceRow": ("d", "s", "branch"),
    "K3Exclusion": ("excluded", "trace"),
    "SurfaceSpec": ("kind", "k", "very_ample"),
}


def record_fields(obj):
    """Field names of a dataclass or NamedTuple class; None for anything else."""
    if isinstance(obj, type) and dataclasses.is_dataclass(obj):
        return tuple(f.name for f in dataclasses.fields(obj))
    if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields"):
        return obj._fields
    return None


def test_every_public_record_has_its_pinned_fields():
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"seshadri.{name}")
        for attr in module.__all__:
            fields = record_fields(getattr(module, attr))
            if fields is not None:
                found[attr] = fields
    assert found == RECORD_FIELDS
