"""Every precondition of the library raises its own exception and message.

PRECONDITIONS holds one call per raise site: the callable, its arguments,
the exception type and a fragment of the message.  The guard reads every
module of src/seshadri but the CLI (whose errors the golden files pin),
finds each `raise ValueError`, `TypeError` or `SurfaceSyntaxError` by its
function, and runs the table to see which of them its rows reach: the
innermost frame of a row's traceback is the raise that fired.  A function
with more raises than the table reaches is reported.
"""

import ast
import operator
import re
from fractions import Fraction
from pathlib import Path

import pytest

from seshadri.bounds import (
    compare_bounds,
    enumerate_exceptional_candidates,
    generic_lower_value,
    harbourne_bound,
    main_lower_bound,
    upper_bound,
)
from seshadri.catalog import SurfaceKind, SurfaceSyntaxError, make_surface, parse_surface
from seshadri.exact import Surd, render_decimal, squarefree_decompose
from seshadri.oracle import k3_h0, verify_han_exhaustive, verify_k3, verify_theorem
from seshadri.pell import PellSolution, fsst_applicable, pell_fundamental
from seshadri.plane import nagata_plane_value
from seshadri.threshold import dominance_scan, szemberg_floor_bound
from seshadri.walk import (
    check_el_xu,
    classify_case,
    feasible_multiplicities,
    min_ratio_search,
    validate_multiplicities,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "seshadri"
GUARDED = ("ValueError", "TypeError", "SurfaceSyntaxError")


def first_feasible(d, k, max_points, m_max):
    # A generator checks its arguments on the first next, not at the call.
    return next(feasible_multiplicities(d, k, max_points, m_max))


PRECONDITIONS = [
    # bounds
    (upper_bound, (0, 1), ValueError, "need k, r >= 1, got k=0, r=1"),
    (generic_lower_value, (1, 1), ValueError, "need k >= 1 and r >= 2, got k=1, r=1"),
    (enumerate_exceptional_candidates, (1, 1), ValueError, "multi-point candidates need r >= 2, got 1"),
    (enumerate_exceptional_candidates, (0, 2), ValueError, "need k >= 1, got 0"),
    (main_lower_bound, (1, 1), ValueError, "multi-point bound needs r >= 2"),
    (main_lower_bound, (0, 2), ValueError, "need k >= 1, got 0"),
    (harbourne_bound, (0, 1), ValueError, "need k, r >= 1, got k=0, r=1"),
    (compare_bounds, (1, 1), ValueError, "bound comparison needs r >= 2, got 1"),
    (compare_bounds, (0, 2), ValueError, "need k >= 1, got 0"),
    # catalog
    (make_surface, (SurfaceKind.GENERAL_K3,), ValueError, "k3 surface needs a parameter"),
    (make_surface, (SurfaceKind.GENERAL_K3, 3), ValueError, "even self-intersection >= 2, got 3"),
    (make_surface, (SurfaceKind.HYPERSURFACE_P3, 3), ValueError, "requires degree >= 4"),
    (make_surface, (SurfaceKind.ABELIAN_TYPE_1D, 0), ValueError, "type (1, d) needs d >= 1, got 0"),
    (make_surface, (SurfaceKind.CUSTOM, 0), ValueError, "need k >= 1, got 0"),
    (make_surface, ("k4", 4), ValueError, "unknown surface kind 'k4'"),
    (parse_surface, ("k4:4",), SurfaceSyntaxError, "unknown surface 'k4:4'"),
    (parse_surface, ("p2:1",), SurfaceSyntaxError, "p2 takes no parameter"),
    (parse_surface, ("k3:x",), SurfaceSyntaxError, "must be a positive integer: 'k3:x'"),
    # exact
    (squarefree_decompose, (0,), ValueError, "requires n >= 1, got 0"),
    (Surd, (Fraction(1, 2), 2.0), TypeError, "radicand must be an int, got float 2.0"),
    (Surd, (0.5,), TypeError, "surd coefficient must be an int or a Fraction, got float 0.5"),
    (Surd, (1, -1), ValueError, "radicand must be nonnegative, got -1"),
    (Surd, (Fraction(-1, 2), 3), ValueError, "surd values are nonnegative, got coefficient -1/2"),
    (Surd.sqrt, (Fraction(-1, 2),), ValueError, "sqrt of negative rational -1/2"),
    (Surd.from_string, ("1/0",), ValueError, "not a surd string: '1/0'"),
    (operator.mul, (Surd(2), Fraction(-1, 3)), ValueError, "got coefficient -2/3"),
    (operator.mul, (Surd(1), "x"), TypeError, "multiply"),
    (render_decimal, (Surd(1), 0), ValueError, "digits must be >= 1, got 0"),
    (render_decimal, (0.5, 2), TypeError, "rendered value must be a Surd, got float 0.5"),
    # oracle
    (verify_theorem, (1, 1, 1, 1), ValueError, "bad scan box"),
    (verify_han_exhaustive, (1, 2), ValueError, "need s_max, m_max >= 2, got 1, 2"),
    (k3_h0, (0, 2), ValueError, "need d >= 1, got 0"),
    (k3_h0, (1, 3), ValueError, "even self-intersection >= 2, got 3"),
    (verify_k3, (1, 3, 1), ValueError, "empty K3 box: need k_max >= 2, r_max >= 3, d_max >= 1, got 1, 3, 1"),
    (verify_k3, (2, 2, 1), ValueError, "got 2, 2, 1"),
    (verify_k3, (2, 3, 0), ValueError, "got 2, 3, 0"),
    # pell
    (PellSolution, (0, 1, 2), ValueError, "not a nontrivial Pell solution"),
    (PellSolution, (1, 2, 2), ValueError, "Pell identity fails"),
    (pell_fundamental, (1,), ValueError, "Pell equation needs k >= 2, got 1"),
    (pell_fundamental, (9,), ValueError, "only trivial solutions (k is a square)"),
    (fsst_applicable, (1,), ValueError, "fsst_applicable needs k >= 2, got 1"),
    # plane
    (nagata_plane_value, (0,), ValueError, "need r >= 1, got 0"),
    # threshold
    (szemberg_floor_bound, (1, 0), ValueError, "need k, r >= 1, got k=1, r=0"),
    (dominance_scan, (1, 10), ValueError, "dominance scan needs r >= 2, got 1"),
    (dominance_scan, (2, 0), ValueError, "need k_cap >= 1, got 0"),
    # walk
    (validate_multiplicities, ((),), ValueError, "multiplicity vector must be nonempty"),
    (validate_multiplicities, ((1, 0),), ValueError, "must be >= 1, got (1, 0)"),
    (validate_multiplicities, ((1, 2),), ValueError, "must be nonincreasing, got (1, 2)"),
    (check_el_xu, (0, 1, (1,)), ValueError, "need d, k >= 1, got d=0, k=1"),
    (classify_case, (1, 1, 1, (1,)), ValueError, "classification needs r >= 2, got 1"),
    (classify_case, (1, 1, 2, (1, 1, 1)), ValueError, "s = 3 exceeds r = 2"),
    (first_feasible, (1, 0, 2, 2), ValueError, "need d, k >= 1, got d=1, k=0"),
    (min_ratio_search, (1, 0, 3, 5), ValueError, "empty search box: k=1, r=0"),
    (min_ratio_search, (1, 2, 0, 1), ValueError, "empty search box"),
]


def row_id(row):
    call, args = row[0], row[1]
    return f"{getattr(call, '__qualname__', call)}{args!r}"


@pytest.mark.parametrize("call,args,exc,fragment", PRECONDITIONS, ids=map(row_id, PRECONDITIONS))
def test_precondition_raises(call, args, exc, fragment):
    with pytest.raises(exc, match=re.escape(fragment)) as info:
        call(*args)
    assert type(info.value) is exc


def raise_sites(source: str) -> dict[str, list[tuple[int, int]]]:
    """The guarded raises of a module, by qualified function name, as the
    (first, last) lines of each raise statement."""
    sites: dict[str, list[tuple[int, int]]] = {}

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = [*scope, child.name]
                visit(child, inner if isinstance(child, ast.ClassDef) else [*inner, "<locals>"])
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id in GUARDED:
                    name = ".".join(scope[:-1] if scope[-1:] == ["<locals>"] else scope)
                    sites.setdefault(name, []).append((child.lineno, child.end_lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def shortfalls(module: str, source: str, reached: set[tuple[str, int]]) -> list[str]:
    """One line per function of module whose guarded raises outnumber the
    raise sites reached, a site being reached when a reached line of the
    module falls inside it."""
    lines = {line for name, line in reached if name == module}
    found = []
    for function, spans in raise_sites(source).items():
        hit = sum(any(first <= line <= last for line in lines) for first, last in spans)
        if hit < len(spans):
            found.append(f"{module}.{function}: {len(spans)} raises, {hit} reached")
    return found


def reached_lines() -> set[tuple[str, int]]:
    """(module, line) of the raise each row of the table fires, where that
    raise is in the package."""
    reached = set()
    for call, args, _, _ in PRECONDITIONS:
        try:
            call(*args)
        except Exception as e:  # the rows' own types are checked above
            tb = e.__traceback__
            while tb.tb_next is not None:
                tb = tb.tb_next
            path = Path(tb.tb_frame.f_code.co_filename).resolve()
            if path.parent == PACKAGE:
                reached.add((path.stem, tb.tb_lineno))
    return reached


GUARDED_MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.stem != "cli")


def test_every_library_module_is_guarded():
    assert {p.stem for p in GUARDED_MODULES} >= {
        "bounds", "catalog", "exact", "oracle", "pell", "plane", "threshold", "walk"
    }


def test_the_table_reaches_every_guarded_raise():
    reached = reached_lines()
    found = [line for p in GUARDED_MODULES for line in shortfalls(p.stem, p.read_text(), reached)]
    assert found == []
    total = sum(len(spans) for p in GUARDED_MODULES for spans in raise_sites(p.read_text()).values())
    assert total == len(reached)  # 50 at the time of writing, one row each


def test_a_planted_raise_is_reported():
    # One more raise at the end of render_decimal, the last function of
    # exact.py, so no line that the table reaches moves.
    source = (PACKAGE / "exact.py").read_text()
    tail = '    return f"{whole}.{frac:0{digits}d}"\n'
    assert source.endswith(tail)
    planted = source[: -len(tail)] + '    if whole < 0:\n        raise ValueError("planted")\n' + tail
    assert shortfalls("exact", source, reached_lines()) == []
    assert shortfalls("exact", planted, reached_lines()) == ["exact.render_decimal: 3 raises, 2 reached"]


def test_nested_functions_and_methods_get_their_qualified_names():
    source = (
        "class A:\n"
        "    def f(self):\n"
        "        raise ValueError('a')\n"
        "def g():\n"
        "    def h():\n"
        "        raise TypeError('b')\n"
        "    raise RuntimeError('not guarded')\n"
    )
    assert raise_sites(source) == {"A.f": [(3, 3)], "g.<locals>.h": [(6, 6)]}
