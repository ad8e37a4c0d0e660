"""sympy as an independent oracle for the number theory in exact and pell.

Skipped when sympy is not installed; it is a test-only dependency.
"""

import math

import pytest
from conftest import unlimited_int_digits
from hypothesis import given, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.solvers.diophantine.diophantine import diop_DN  # noqa: E402

from seshadri.exact import squarefree_decompose  # noqa: E402
from seshadri.pell import pell_fundamental  # noqa: E402


def sympy_pell(k):
    """(p0, q0) of the fundamental solution of q^2 - k*p^2 = 1."""
    ((q0, p0),) = diop_DN(k, 1)
    return p0, q0


def sympy_squarefree(n):
    """(a, b) with n = a^2 * b and b squarefree, from the factorization."""
    a = b = 1
    for p, e in sympy.factorint(n).items():
        a *= p ** (e // 2)
        b *= p ** (e % 2)
    return a, b


def test_pell_fundamental_small_k():
    for k in range(2, 1001):
        if math.isqrt(k) ** 2 == k:
            continue
        sol = pell_fundamental(k)
        assert (sol.p0, sol.q0) == sympy_pell(k), k


def test_pell_fundamental_past_4500_digits():
    # a k of the size the benchmark solves; q0 has about 4,530 digits
    sol = pell_fundamental(129813574)
    with unlimited_int_digits():
        assert (sol.p0, sol.q0) == sympy_pell(129813574)
    assert sol.q0.bit_length() > 15000


@given(st.integers(2, 10**7).filter(lambda k: math.isqrt(k) ** 2 != k))
def test_pell_fundamental(k):
    sol = pell_fundamental(k)
    assert (sol.p0, sol.q0) == sympy_pell(k)


@given(st.integers(1, 10**9))
def test_squarefree_decompose(n):
    assert squarefree_decompose(n) == sympy_squarefree(n)


@given(st.integers(1, 3000), st.integers(1, 10**5))
def test_squarefree_decompose_with_square_part(a, b):
    n = a * a * b
    assert squarefree_decompose(n) == sympy_squarefree(n)


def test_squarefree_decompose_two_primes_near_1e8():
    # 99999971 * 99999989: trial division stops at the cube root, not at
    # the smaller prime
    n = 9_999_996_000_000_319
    assert len(sympy.factorint(n)) == 2
    assert squarefree_decompose(n) == sympy_squarefree(n) == (1, n)
