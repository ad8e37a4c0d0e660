"""Independent result checks for the benchmark, in integer arithmetic.

Nothing here imports seshadri.  Each check re-derives, from the inputs
alone, what a correct result must satisfy, and compares the result's
fields against that.  The result objects are read only through
their public attributes (a Surd is read as coeff = p/q and radicand n,
so its square is p^2 n / q^2).  A check raises CheckFailure with a
one-line reason; it returns None when the result passes.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from fractions import Fraction
from functools import lru_cache


class CheckFailure(Exception):
    """A result that contradicts what the inputs force it to be."""


def expect(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailure(reason)


# -- surds as integer triples ------------------------------------------


def surd_parts(value) -> tuple[int, int, int]:
    """(p, q, n) with value = (p/q) * sqrt(n), read from a Surd's fields."""
    coeff = Fraction(value.coeff)
    return coeff.numerator, coeff.denominator, int(value.radicand)


def square(value) -> tuple[int, int]:
    """The exact square of a Surd as (numerator, denominator), unreduced."""
    p, q, n = surd_parts(value)
    return p * p * n, q * q


def at_most(x, y) -> bool:
    """x <= y for two nonnegative Surds, by cross-multiplying squares."""
    xn, xd = square(x)
    yn, yd = square(y)
    return xn * yd <= yn * xd


def squares_to(value, num: int, den: int) -> bool:
    """value^2 == num/den, by cross-multiplication."""
    vn, vd = square(value)
    return vn * den == num * vd


_EXACT_RE = re.compile(r"^(\d+)(?:/(\d+))?(?:\*sqrt\((\d+)\))?$")


def parse_exact(text: str) -> tuple[int, int, int]:
    """Parse the rendering "p", "p/q", "p*sqrt(n)" or "p/q*sqrt(n)"."""
    m = _EXACT_RE.match(text)
    expect(m is not None, f"exact value {text!r} is not of the form p/q*sqrt(n)")
    p, q, n = m.groups()
    q = int(q) if q else 1
    expect(q > 0, f"exact value {text!r} has a zero denominator")
    return int(p), q, int(n) if n else 1


def decimal_brackets(exact: tuple[int, int, int], decimal: str) -> bool:
    """decimal (truncated at its own digit count) <= exact < decimal + 1 ulp."""
    whole, _, frac = decimal.partition(".")
    expect(whole.isdigit() and frac.isdigit(), f"decimal {decimal!r} is malformed")
    digits = len(frac)
    scaled = int(whole + frac)
    p, q, n = exact
    value_sq = p * p * n * 10 ** (2 * digits)  # (value * 10^digits)^2 * q^2
    return scaled * scaled * q * q <= value_sq < (scaled + 1) * (scaled + 1) * q * q


# -- bound layer ---------------------------------------------------------


def expected_candidate_count(k: int, r: int) -> int:
    """Number of (d, s) with d*k/s below the generic value, by isqrt per d.

    For fixed d the admissible s form the interval
    (r+2) s^2 > d^2 k r (r+3),  s <= min(r, d^2 k + 1),
    and d stops once d^2 k (r+3) >= (r+2) r, where even s = r fails.
    """
    count = 0
    d = 1
    while d * d * k * (r + 3) < (r + 2) * r:
        need = d * d * k * r * (r + 3)
        s_lo = math.isqrt(need // (r + 2))
        while (r + 2) * s_lo * s_lo <= need:
            s_lo += 1
        s_hi = min(r, d * d * k + 1)
        count += max(0, s_hi - s_lo + 1)
        d += 1
    return count


def check_compare(k: int, r: int, very_ample: bool, report) -> None:
    """compare_bounds(k, r, very_ample) against the definitions."""
    expect((report.k, report.r) == (k, r), f"report is for {(report.k, report.r)}, not {(k, r)}")
    upper = report.upper.value
    expect(squares_to(upper, k, r), f"upper^2 != {k}/{r}")
    by_name = {e.name: e for e in report.entries}
    expect(len(by_name) == len(report.entries), "duplicate entry names")
    square_k = math.isqrt(k) ** 2 == k
    wanted = {"main", "szemberg-floor"}
    if very_ample:
        wanted.add("harbourne")
    if k >= 2 and not square_k:
        wanted.add("biran-product")
    expect(set(by_name) == wanted, f"entries {sorted(by_name)}, expected {sorted(wanted)}")

    floor = surd_parts(by_name["szemberg-floor"].value.value)
    expect(floor == (math.isqrt(k // r), 1, 1), f"floor entry {floor} != isqrt({k}//{r})")

    main = by_name["main"]
    if (r, k) == (2, 6):
        expect(surd_parts(main.value.value) == (3, 2, 1), "main bound at (r,k)=(2,6) is not 3/2")
        expect(not main.candidates, "(2,6) lists exceptional candidates")
    else:
        expect(
            squares_to(main.value.value, (r + 2) * k, (r + 3) * r),
            "generic value^2 != (r+2)k/((r+3)r)",
        )
    for c in main.candidates:
        expect(1 <= c.s <= r and c.d >= 1, f"candidate {(c.d, c.s)} out of range")
        expect(c.s - 1 <= c.d * c.d * k, f"candidate {(c.d, c.s)} has s-1 > d^2 k")
        value = Fraction(c.value)
        expect(value.numerator * c.s == c.d * k * value.denominator, f"candidate {(c.d, c.s)} value != dk/s")
        expect(
            (c.d * k) ** 2 * (r + 3) * r < (r + 2) * k * c.s * c.s,
            f"candidate {(c.d, c.s)} is not below the generic value",
        )
    if (r, k) != (2, 6):
        expected = expected_candidate_count(k, r)
        expect(
            len(main.candidates) == expected,
            f"{len(main.candidates)} exceptional candidates, expected {expected}",
        )

    for e in report.entries:
        if not e.value.conditional:
            expect(at_most(e.value.value, upper), f"unconditional entry {e.name} exceeds sqrt(k/r)")
    for prev, cur in zip(report.entries, report.entries[1:]):
        expect(at_most(cur.value.value, prev.value.value), f"entries not in decreasing order at {cur.name}")


def expected_dominance(r: int, k_cap: int) -> tuple:
    """(threshold, last_failure, band_cutoff, stable) band by band.

    k fails when j^2 r (r+3) < (r+2) k with j = floor(sqrt(k/r)).  Inside
    band j (j^2 r <= k < (j+1)^2 r) the failures are the k above
    j^2 r (r+3)/(r+2), an upper interval, so the last failure up to k_cap
    is the clipped top of the highest band that has one.
    """
    last = None
    for j in range(math.isqrt(k_cap // r), -1, -1):
        top = min((j + 1) * (j + 1) * r - 1, k_cap)
        first_fail = max(j * j * r, j * j * r * (r + 3) // (r + 2) + 1, 1)
        if top >= first_fail:
            last = top
            break
    j = 0
    while j * j * r * (r + 3) < (r + 2) * (r * (j + 1) ** 2 + r - 1):
        j += 1
    cutoff = r * j * j
    if last is None:
        threshold = 1
    elif last == k_cap:
        threshold = None
    else:
        threshold = last + 1
    return threshold, last, cutoff, k_cap + 1 >= cutoff


# The published threshold at r = 10: floor(sqrt(k/10)) dominates the
# generic value for every k >= 6250, and k = 6249 is the last failure.
R10_THRESHOLD = 6250


def check_dominance(r: int, k_cap: int, scan) -> None:
    got = (scan.threshold, scan.last_failure, scan.band_cutoff, scan.stable_beyond_cap)
    want = expected_dominance(r, k_cap)
    expect(got == want, f"dominance_scan({r}, {k_cap}) = {got}, expected {want}")
    if r == 10 and k_cap >= R10_THRESHOLD:
        expect(scan.threshold == R10_THRESHOLD, f"threshold at r=10 is {scan.threshold}, not 6250")


# -- oracle ----------------------------------------------------------------


@lru_cache(maxsize=None)
def feasible_count(cap: int, length: int, room: int) -> int:
    """Nonempty nonincreasing vectors with entries <= cap, at most
    `length` entries and sum(m_i^2) - m_last <= room.

    Appending an entry e' adds e'^2 and moves the last entry to e', which
    never lowers sum(m^2) - m_last, so a prefix ending in e extends only
    into the room left after e^2.
    """
    total = 0
    for e in range(1, cap + 1):
        if e * e - e > room:
            break
        total += 1
        if length > 1 and e * e <= room:
            total += feasible_count(e, length - 1, room - e * e)
    return total


@lru_cache(maxsize=None)
def best_total(cap: int, length: int, room: int) -> tuple[int, int]:
    """(largest sum(m), number of vectors reaching it) over the vectors
    that feasible_count counts; (0, 0) when there are none."""
    best, ways = 0, 0
    for e in range(1, cap + 1):
        if e * e - e > room:
            break
        options = [(e, 1)]
        if length > 1 and e * e <= room:
            tail, tail_ways = best_total(e, length - 1, room - e * e)
            if tail_ways:
                options.append((e + tail, tail_ways))
        for total, n in options:
            if total > best:
                best, ways = total, n
            elif total == best:
                ways += n
    return best, ways


def subgeneric(budget: int, r: int, total: int) -> bool:
    """d^2 k r (r+3) < (r+2) (sum m)^2: ratio below the generic value at r."""
    return budget * r * (r + 3) < (r + 2) * total * total


def expected_unit_count(k_min, k_max, r_min, r_max, d_max) -> int:
    """Sub-generic (d, k, r, (1,...,1)) configurations: s ones are
    feasible when s - 1 <= d^2 k."""
    count = 0
    for k in range(k_min, k_max + 1):
        for d in range(1, d_max + 1):
            budget = d * d * k
            for s in range(1, min(r_max, budget + 1) + 1):
                for r in range(max(r_min, s), r_max + 1):
                    count += subgeneric(budget, r, s)
    return count


def expected_two_six_count(k_min, k_max, r_min, r_max, m_max) -> int:
    """The (1, 6, (2, 2)) triple, counted once per r where it is sub-generic."""
    if not (k_min <= 6 <= k_max and m_max >= 2):
        return 0
    return sum(subgeneric(6, r, 4) for r in range(max(r_min, 2), r_max + 1))


def check_theorem(box: tuple, scan) -> None:
    """verify_theorem(k_max, r_max, d_max, m_max, k_min=..) over box =
    (k_min, k_max, r_max, d_max, m_max), with r_min = 2."""
    k_min, k_max, r_max, d_max, m_max = box
    expect(scan.ok and not scan.violations, f"theorem scan {box} reports violations")
    feasible = sum(
        feasible_count(m_max, r_max, d * d * k)
        for k in range(k_min, k_max + 1)
        for d in range(1, d_max + 1)
    )
    expect(scan.feasible_vectors == feasible, f"{scan.feasible_vectors} feasible vectors, expected {feasible}")
    counts = {label.value: n for label, n in scan.subgeneric_counts.items()}
    unit = expected_unit_count(k_min, k_max, 2, r_max, d_max)
    pair = expected_two_six_count(k_min, k_max, 2, r_max, m_max)
    expect(counts.get("unit-multiplicity") == unit, f"unit-multiplicity count {counts}, expected {unit}")
    expect(counts.get("two-six") == pair, f"two-six count {counts}, expected {pair}")


def han_applicable(m: tuple) -> bool:
    s = len(m)
    return m[0] >= 2 and (s >= 3 or (s == 2 and m != (2, 2)))


def expected_han_checked(s_max: int, m_max: int) -> int:
    """Applicable vectors: all multisets of size s >= 2 from 1..m_max,
    minus (1,...,1) for every s, minus (2, 2)."""
    return sum(math.comb(m_max + s - 1, s) - 1 for s in range(2, s_max + 1)) - 1


def check_han(s_max: int, m_max: int, scan) -> None:
    expect(not scan.counterexamples, f"han scan ({s_max}, {m_max}) reports counterexamples")
    want = expected_han_checked(s_max, m_max)
    expect(scan.applicable_checked == want, f"{scan.applicable_checked} vectors checked, expected {want}")
    for m in scan.equality_witnesses:
        s = len(m)
        expect(han_applicable(m), f"equality witness {m} is not applicable")
        expect(
            (s + 3) * s * (sum(e * e for e in m) - m[-1]) == (s + 2) * sum(m) ** 2,
            f"equality witness {m} is not an equality",
        )


def check_search(k: int, r: int, d_max: int, m_max: int, result) -> None:
    """min_ratio_search against the largest feasible sum(m) per d."""
    per_d = {d: best_total(m_max, r, d * d * k) for d in range(1, d_max + 1)}
    minimum = min(Fraction(d * k, best) for d, (best, _) in per_d.items())
    expect(Fraction(result.minimum) == minimum, f"search minimum {result.minimum}, expected {minimum}")
    want = sum(ways for d, (best, ways) in per_d.items() if Fraction(d * k, best) == minimum)
    witnesses = result.witnesses
    expect(len(witnesses) == want, f"{len(witnesses)} witnesses, expected {want}")
    expect(len(set(witnesses)) == len(witnesses), "duplicate witnesses")
    for d, m in witnesses:
        expect(1 <= d <= d_max and 1 <= len(m) <= r, f"witness {(d, m)} outside the box")
        expect(all(1 <= b <= a <= m_max for a, b in zip((m_max,) + m, m)), f"witness {m} not nonincreasing in [1, m_max]")
        expect(sum(e * e for e in m) - m[-1] <= d * d * k, f"witness {(d, m)} fails EL-Xu")
        expect(Fraction(d * k, sum(m)) == minimum, f"witness {(d, m)} does not reach the minimum")


# -- CLI ------------------------------------------------------------------


def _text_values(stdout: str) -> list[tuple[str, str, str]]:
    """(name, exact, decimal) rows of every table in the text format.

    Columns are left-justified to their header, so each header word's
    offset is where that column starts in every row below it."""
    rows, cols = [], None
    for line in stdout.splitlines():
        if not line.startswith("  "):
            cols = None  # a record line starts a new table
        elif line.startswith("  name"):
            cols = [line.index(h) for h in ("exact", "decimal", "flags")]
        elif cols and not line.startswith("  note: "):
            ex, dec, fl = cols
            rows.append((line[2:ex].strip(), line[ex:dec].strip(), line[dec:fl].strip()))
    return rows


def cli_values(fmt: str, stdout: str) -> list[tuple[str, str, str]]:
    """(name, exact, decimal) for every entry the CLI printed."""
    if fmt == "json":
        return [
            (e["name"], e["exact"], e["decimal"])
            for line in stdout.splitlines()
            for e in json.loads(line)["entries"]
        ]
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(stdout))
        return [(row["name"], row["exact"], row["decimal"]) for row in reader]
    return _text_values(stdout)


def check_cli(command: dict, returncode: int, stdout: str, from_string=None) -> None:
    """A CLI run: exit code 0, every exact value well formed (and accepted
    by from_string when given), every decimal a truncation of it, and for
    `bounds` the upper entry equal to sqrt(k/r)."""
    expect(returncode == 0, f"exit code {returncode}")
    values = cli_values(command["format"], stdout)
    expect(values, "no entries in the output")
    for name, exact, decimal in values:
        if name == "threshold" and exact == "none":
            continue  # the window's last k still fails: no threshold to print
        parts = parse_exact(exact)
        if from_string is not None:
            from_string(exact)
        if decimal:
            expect(decimal_brackets(parts, decimal), f"{name}: {decimal} does not truncate {exact}")
    if command["sub"] == "bounds":
        k, r = command["k"], command["r"]
        uppers = [parse_exact(x) for name, x, _ in values if name == "upper"]
        expect(len(uppers) == 1, f"{len(uppers)} upper entries")
        p, q, n = uppers[0]
        expect(p * p * n * r == k * q * q, f"upper^2 != {k}/{r}")
