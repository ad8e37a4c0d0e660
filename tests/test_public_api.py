"""The public surface: each module's __all__ is what the package re-exports."""

import ast
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
