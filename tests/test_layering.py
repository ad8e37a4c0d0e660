"""The CLI runs each verification suite through one oracle call, and the
library stands apart from its tests and its benchmark.

A suite's loop, and the rule that decides which of its cases fail, live
in .oracle; the CLI only renders the record a suite returns.  So the
only names cli.py may import from .oracle are the three suite functions.
The slow references the suites are compared with live in tests/oracles.py,
so no module of src/seshadri may import from tests, oracles or perfbench.
Each of those references is named by a test module, or by a reference
that is, so a reference leaves together with its last comparison.
"""

import ast
from pathlib import Path

import pytest

CLI = Path(__file__).resolve().parents[1] / "src" / "seshadri" / "cli.py"
SUITES = ["verify_han_exhaustive", "verify_k3", "verify_theorem"]
LIBRARY = sorted(CLI.parent.glob("*.py"))
OUTSIDE = ("tests", "oracles", "perfbench")
ORACLES = Path(__file__).resolve().parent / "oracles.py"
TESTS = sorted(ORACLES.parent.glob("test_*.py"))


def oracle_imports(source: str) -> list[str]:
    """Every name source imports from the package's oracle module, sorted,
    with `oracle` for an import of the module itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            names = [alias.name for alias in node.names]
            if module in (".oracle", "seshadri.oracle"):
                found += names
            elif module in (".", "seshadri"):
                found += [name for name in names if name == "oracle"]
        elif isinstance(node, ast.Import):
            found += ["oracle" for alias in node.names if alias.name == "seshadri.oracle"]
    return sorted(found)


def test_the_cli_imports_only_the_suites_from_the_oracle():
    assert oracle_imports(CLI.read_text()) == SUITES


@pytest.mark.parametrize(
    "planted,stray",
    [
        ("from .oracle import k3_case2_excluded", "k3_case2_excluded"),
        ("from seshadri.oracle import k3_h0", "k3_h0"),
        ("from . import oracle", "oracle"),
        ("import seshadri.oracle", "oracle"),
    ],
)
def test_a_planted_import_is_reported(planted, stray):
    source = CLI.read_text().replace("import argparse\n", f"import argparse\n{planted}\n", 1)
    assert oracle_imports(source) == sorted([*SUITES, stray])


def outside_imports(source: str) -> list[str]:
    """The top-level packages among tests, oracles and perfbench that
    source imports, sorted, one entry per import; relative imports stay
    inside the package and are skipped."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module] if node.level == 0 and node.module else []
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found += [top for top in (m.partition(".")[0] for m in modules) if top in OUTSIDE]
    return sorted(found)


def test_no_library_module_imports_the_tests_or_the_benchmark():
    assert {p.stem for p in LIBRARY} >= {"cli", "oracle", "walk"}
    assert {p.stem: outside_imports(p.read_text()) for p in LIBRARY} == {p.stem: [] for p in LIBRARY}


@pytest.mark.parametrize(
    "planted,stray",
    [
        ("from oracles import k3_excluded_by_rows", "oracles"),
        ("from tests.oracles import k3_failures_by_pair", "tests"),
        ("import tests.oracles", "tests"),
        ("from perfbench import workloads", "perfbench"),
        ("import os, perfbench.tracing", "perfbench"),
    ],
)
def test_a_planted_outside_import_is_reported(planted, stray):
    source = (CLI.parent / "oracle.py").read_text()
    assert "import math\n" in source
    planted_source = source.replace("import math\n", f"import math\n{planted}\n", 1)
    assert (outside_imports(source), outside_imports(planted_source)) == ([], [stray])


def orphans(oracle_source: str, test_sources: list[str]) -> list[str]:
    """The top-level functions and classes of oracle_source that no test
    source names, directly or through one of them that a test names,
    sorted.  A name is a bare name, an attribute or an imported name."""
    defs = {
        node.name: node
        for node in ast.parse(oracle_source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }

    def named(tree):
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
        return found & defs.keys()

    reached = set()
    pending = set().union(*(named(ast.parse(source)) for source in test_sources))
    while pending:
        name = pending.pop()
        reached.add(name)
        pending |= named(defs[name]) - reached
    return sorted(defs.keys() - reached)


def test_every_oracle_is_named_by_a_test():
    assert {p.stem for p in TESTS} >= {"test_bounds", "test_oracle", "test_pell"}
    assert orphans(ORACLES.read_text(), [p.read_text() for p in TESTS]) == []


def test_a_planted_orphan_is_reported():
    planted = """
def kept(): return helper()
def helper(): return 1
def lone(): return helper()
class Unused: pass
"""
    assert orphans(planted, ["from oracles import kept"]) == ["Unused", "lone"]
    assert orphans(planted, ["import oracles\noracles.lone()"]) == ["Unused", "kept"]
    assert orphans(planted, []) == ["Unused", "helper", "kept", "lone"]
