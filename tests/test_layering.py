"""The CLI runs each verification suite through one oracle call.

A suite's loop, and the rule that decides which of its cases fail, live
in .oracle; the CLI only renders the record a suite returns.  So the
only names cli.py may import from .oracle are the three suite functions.
"""

import ast
from pathlib import Path

import pytest

CLI = Path(__file__).resolve().parents[1] / "src" / "seshadri" / "cli.py"
SUITES = ["verify_han_exhaustive", "verify_k3", "verify_theorem"]


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
