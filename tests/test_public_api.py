"""The public surface: each module's __all__ is what the package exports,
read from the package's one export table, and each public result record
holds the fields pinned here."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import seshadri

MODULES = ("exact", "pell", "plane", "bounds", "walk", "oracle", "catalog")
SRC = str(Path(__file__).resolve().parents[1] / "src")
PACKAGE = Path(SRC) / "seshadri"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def reexports() -> dict[str, list[str]]:
    """Names the package exports, grouped by the module it takes them from."""
    found: dict[str, list[str]] = {}
    for name, module in seshadri._EXPORTS.items():
        found.setdefault(module, []).append(name)
    return found


def fresh_python(script: str) -> str:
    """stdout of `script` in a new interpreter without site, importing
    seshadri from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-S", "-B", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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


def all_assignments(source: str) -> list[str]:
    """The value of each top-level assignment to __all__ in source (plain,
    augmented or annotated), as source text, in order."""
    found = []
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            found.append(ast.unparse(node.value))
    return found


# The modules outside the export table, which list their names themselves.
LITERAL_ALL = ("cli", "inequalities")


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_only_the_modules_outside_the_table_list_their_names(path):
    # A module in the export table takes its __all__ from the table; a
    # literal list there would declare the same names a second time.
    found = all_assignments(path.read_text())
    if path.stem in MODULES:
        assert found == ["_public(__name__)"]
    else:
        assert any(value.startswith("[") for value in found) == (path.stem in LITERAL_ALL), found


def test_a_planted_literal_all_is_reported():
    source = (PACKAGE / "plane.py").read_text()
    assert all_assignments(source) == ["_public(__name__)"]
    planted = source.replace("__all__ = _public(__name__)", "__all__ = ['BoundValue']")
    assert all_assignments(planted) == ["['BoundValue']"]
    assert all_assignments(source + "__all__ += ['extra']\n") == ["_public(__name__)", "['extra']"]
    assert all_assignments(source + "__all__: list = []\n") == ["_public(__name__)", "[]"]


def test_star_import_binds_every_export_and_dir_lists_them():
    namespace: dict = {}
    exec("from seshadri import *", namespace)
    exported = set(seshadri._EXPORTS)
    assert set(seshadri.__all__) == exported
    assert exported <= set(namespace) and exported <= set(dir(seshadri))
    assert "__version__" in dir(seshadri)
    for name in exported:
        assert namespace[name] is getattr(seshadri, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'seshadri' has no attribute 'nope'"):
        seshadri.nope
    assert not hasattr(seshadri, "nope")


def test_bare_import_loads_no_submodule():
    loaded = fresh_python(
        "import sys, seshadri\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('seshadri'))))"
    )
    assert loaded.split() == ["seshadri"]


def test_first_access_loads_only_the_defining_module():
    walk = ["seshadri", "seshadri.exact", "seshadri.inequalities", "seshadri.walk"]
    plane = ["seshadri", "seshadri.exact", "seshadri.inequalities", "seshadri.plane"]
    expected = {
        "pell_fundamental": ["seshadri", "seshadri.exact", "seshadri.pell"],
        "min_ratio_search": walk,
        "classify_case": walk,
        "nagata_plane_value": plane,
        "BoundValue": plane,
    }
    for name, modules in expected.items():
        loaded = fresh_python(
            "import sys, seshadri\n"
            f"seshadri.{name}\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('seshadri') or m == 'dataclasses')))"
        )
        assert (name, loaded.split()) == (name, modules)  # a loaded dataclasses fails too


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
    "K3Scan": ("pairs_checked", "failures"),
    "SurfaceSpec": ("kind", "k", "very_ample"),
}


def record_fields(obj):
    """Field names of a dataclass, a NamedTuple or a class with public
    __slots__; None for anything else, such as a class whose slots are all
    private."""
    if not isinstance(obj, type):
        return None
    if dataclasses.is_dataclass(obj):
        return tuple(f.name for f in dataclasses.fields(obj))
    if issubclass(obj, tuple) and hasattr(obj, "_fields"):
        return obj._fields
    public = tuple(name for name in vars(obj).get("__slots__", ()) if not name.startswith("_"))
    return public or None


def test_record_fields_reads_public_slots_only():
    assert record_fields(seshadri.PellSolution) == ("p0", "q0", "k")
    assert "_num" in seshadri.Surd.__slots__ and record_fields(seshadri.Surd) is None


def test_every_public_record_has_its_pinned_fields():
    found = {}
    for name in MODULES:
        module = importlib.import_module(f"seshadri.{name}")
        for attr in module.__all__:
            fields = record_fields(getattr(module, attr))
            if fields is not None:
                found[attr] = fields
    assert found == RECORD_FIELDS


# perfbench/test_checks.py corrupts these records with dataclasses.replace
# to show that the benchmark records a wrong result as a failure.  A record
# turned into a NamedTuple or a __slots__ class would break that self-test,
# which is not part of this suite; such a change has to move the
# self-test to the record's new copy method with it.
BENCHMARK_REPLACES = ("BoundEntry", "BoundReport", "ThresholdScan", "TheoremScan", "HanScan")


@pytest.mark.parametrize("name", BENCHMARK_REPLACES)
def test_records_the_benchmark_replaces_stay_dataclasses(name):
    assert dataclasses.is_dataclass(getattr(seshadri, name))


# The benchmark under perfbench/ calls library attributes by module path
# (lib.<module>.<name> in workloads.py) and wraps the entry points that
# tracing.py lists.  A name moved or dropped here would fail the benchmark,
# not this suite, so the targets are read from those two files.


def benchmark_targets() -> list[tuple[str, str]]:
    """(module, dotted attribute) for every library attribute the
    benchmark reads: each lib.<module>.<name>... chain in workloads.py and
    each entry of tracing.py's ENTRY_POINTS."""
    targets = set()
    for node in ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id == "lib" and len(chain) >= 2:
            module, *attrs = reversed(chain)
            targets.add((f"seshadri.{module}", ".".join(attrs)))
    for node in ast.parse((PERFBENCH / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"]:
            targets.update((module, attr) for _, module, attr in ast.literal_eval(node.value))
    return sorted(targets)


def unresolved(targets, modules):
    """The (module, dotted attribute) targets that do not resolve, given
    modules, a mapping from module name to module."""
    missing = []
    for module, dotted in targets:
        owner = modules[module]
        for attr in dotted.split("."):
            if not hasattr(owner, attr):
                missing.append((module, dotted))
                break
            owner = getattr(owner, attr)
    return missing


def test_benchmark_targets_are_read_from_both_files():
    targets = benchmark_targets()
    assert ("seshadri.oracle", "min_ratio_search") in targets  # workloads.py and tracing.py
    assert ("seshadri.exact", "Surd.from_string") in targets  # workloads.py only
    assert ("seshadri.exact", "Surd.__post_init__") in targets  # tracing.py only


def test_every_name_the_benchmark_reads_resolves_in_a_fresh_import():
    targets = benchmark_targets()
    script = (
        "import importlib\n"
        + inspect.getsource(unresolved)
        + f"targets = {targets!r}\n"
        + "print(unresolved(targets, {m: importlib.import_module(m) for m, _ in targets}))"
    )
    assert ast.literal_eval(fresh_python(script)) == []


def test_a_name_the_benchmark_reads_going_missing_is_caught():
    targets = benchmark_targets()
    modules = {m: importlib.import_module(m) for m, _ in targets}
    oracle = vars(modules["seshadri.oracle"])
    modules["seshadri.oracle"] = SimpleNamespace(**{k: v for k, v in oracle.items() if k != "min_ratio_search"})
    assert unresolved(targets, modules) == [("seshadri.oracle", "min_ratio_search")]
