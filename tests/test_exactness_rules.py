"""The package's exactness rules, checked on the syntax of every module.

An invariant is a real check, since `python -O` strips asserts, and no
float takes part in any decision: no float literal or `float` name, no
true division, and none of math's float-valued sqrt, log or exp.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seshadri"
FLOAT_MATH = {"sqrt", "log", "exp"}


def breaches(source: str) -> list[str]:
    """One line per breach of the rules in source: the rule and the line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            rule = "assert"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            rule = "float literal"
        elif isinstance(node, ast.Name) and node.id == "float":
            rule = "float name"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            rule = "true division"
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in FLOAT_MATH
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "math"
            and FLOAT_MATH & {alias.name for alias in node.names}
        ):
            rule = "float math"
        else:
            continue
        found.append(f"{rule} at line {node.lineno}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_keeps_the_rules(path):
    assert breaches(path.read_text()) == []


def test_every_module_is_scanned():
    assert {p.stem for p in PACKAGE.glob("*.py")} >= {"exact", "bounds", "walk", "oracle", "cli"}


@pytest.mark.parametrize(
    "snippet,rule",
    [
        ("assert x > 0", "assert"),
        ("y = 0.5", "float literal"),
        ("y = 1e3", "float literal"),
        ("isinstance(x, float)", "float name"),
        ("y = float(x)", "float name"),
        ("y = a / b", "true division"),
        ("y /= 2", "true division"),
        ("import math\ny = math.sqrt(x)", "float math"),
        ("import math\ny = math.log(x)", "float math"),
        ("import math\ny = math.exp(x)", "float math"),
        ("from math import isqrt, sqrt", "float math"),
    ],
)
def test_each_rule_fires_on_a_planted_breach(snippet, rule):
    assert [b.split(" at ")[0] for b in breaches(snippet)] == [rule]
