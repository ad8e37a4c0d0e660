"""The package's exactness rules, checked on the syntax of every module.

Plain, `python -O` and `python -OO` runs are the same program.  The rule
bans every construct whose meaning those flags change, and the list is
complete: `assert`, which -O strips; the name `__debug__` and
`sys.flags`, which -O sets; and any read of `__doc__`, which -OO sets to
None.  So an invariant is a real check, and the help text is a literal.
A standard-library call that reads a docstring for its caller, such as
inspect.getdoc, would get round the rule; the package makes none.

No float takes part in any decision: no float literal or `float` name, no
true division, and none of math's float-valued sqrt, log or exp.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seshadri"
FLOAT_MATH = {"sqrt", "log", "exp"}


def uses(node: ast.AST, module: str, names: set[str]) -> bool:
    """Whether node reads module.<one of names>, or imports one of names from module."""
    if isinstance(node, ast.Attribute):
        return node.attr in names and isinstance(node.value, ast.Name) and node.value.id == module
    return isinstance(node, ast.ImportFrom) and node.module == module and bool(names & {a.name for a in node.names})


def breaches(source: str) -> list[str]:
    """One line per breach of the rules in source: the rule and the line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            rule = "assert"
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            rule = "__debug__"
        elif uses(node, "sys", {"flags"}):
            rule = "sys.flags"
        elif (
            isinstance(node, ast.Name) and node.id == "__doc__"
            or isinstance(node, ast.Attribute) and node.attr == "__doc__"
        ) and isinstance(node.ctx, ast.Load):
            rule = "__doc__"
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            rule = "float literal"
        elif isinstance(node, ast.Name) and node.id == "float":
            rule = "float name"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            rule = "true division"
        elif uses(node, "math", FLOAT_MATH):
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
        ("if __debug__:\n    check(x)", "__debug__"),
        ("import sys\nif sys.flags.optimize:\n    pass", "sys.flags"),
        ("from sys import flags", "sys.flags"),
        ("head = __doc__.split('\\n\\n')[0]", "__doc__"),
        ("text = main.__doc__", "__doc__"),
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
