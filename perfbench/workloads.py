"""The four workloads: seeded inputs, how to run one operation, how to check it.

A workload builds its inputs at set-up as a fixed pool of rounds.  A
round has a fixed mix of operation kinds, so every run sees the same
proportions whatever its seed; only the draws inside each kind change,
and each kind's draws sit in a narrow band of sizes.  The timed pass
cycles through the pool, emptying the Pell cache at the start of each
cycle, and stops at a round boundary.  All inputs come from the seed
alone: the program under test only ever sees them as arguments.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import checks


def log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    """An integer drawn from a log-uniform law on [lo, hi]."""
    return min(hi, int(math.exp(math.log(lo) + rng.random() * (math.log(hi + 1) - math.log(lo)))))


def pell_digits(k: int) -> float:
    """log10 of q0 in the fundamental solution of q^2 - k p^2 = 1.

    Walks one period of the continued fraction of sqrt(k) with small
    integers and sums log10 of the convergent ratios h_n / h_(n-1) =
    a_n + h_(n-2) / h_(n-1); q0 = h_(P-1) for an even period P and
    h_(2P-1) for an odd one.  Costs O(P) small-integer and float steps,
    where computing q0 itself costs O(P) big-integer steps.
    """
    a0 = math.isqrt(k)
    m, d, a = 0, 1, a0
    period = []
    while a != 2 * a0:
        m = d * a - m
        d = (k - m * m) // d
        a = (a0 + m) // d
        period.append(a)
    terms = period[:-1] if len(period) % 2 == 0 else period + period[:-1]
    t = float(a0)
    total = math.log10(t)
    for a in terms:
        t = a + 1.0 / t
        total += math.log10(t)
    return total


def is_known_defect(exc: BaseException) -> bool:
    """The Pell-overflow defect: a fundamental solution past Python's
    4300-digit int-to-str limit makes compare_bounds raise while it
    renders the solution into a note."""
    return isinstance(exc, ValueError) and "integer string conversion" in str(exc)


class Workload:
    name = ""
    tail_percentile = 90.0  # fixed per workload so every run reports the same one
    pool_rounds = 16  # rounds built at set-up; the timed pass cycles through them
    cleared_hits = 0  # Pell cache hits counted before each cache_clear()

    def round(self, rng: random.Random) -> list:
        raise NotImplementedError

    def pool(self, rng: random.Random) -> list[list]:
        """The run's input stream: `pool_rounds` rounds (lists of operations)."""
        return [self.round(rng) for _ in range(self.pool_rounds)]

    def warm_up_ops(self, rng: random.Random) -> list:
        raise NotImplementedError

    def execute(self, lib, op):
        kind, args = op
        return LIBRARY_CALLS[kind](lib, *args)

    def check(self, lib, op, result) -> None:
        kind, args = op
        LIBRARY_CHECKS[kind](*args, result)

    def output_bytes(self, result) -> int:
        return 0

    def reset(self, lib) -> None:
        """Empty the program's cache (Pell solutions), so that no call is
        served by an entry an earlier pass or block made.  Clearing also
        zeroes the cache's counters, so their hits are added up first."""
        fn = lib.pell.pell_fundamental
        if hasattr(fn, "cache_clear"):
            self.cleared_hits += fn.cache_info().hits
            fn.cache_clear()

    def pell_hits(self, lib) -> int:
        """Pell cache hits since the start of the run, across clears."""
        info = getattr(lib.pell.pell_fundamental, "cache_info", None)
        return self.cleared_hits + (info().hits if info else 0)


LIBRARY_CALLS = {
    "compare": lambda lib, k, r, va: lib.bounds.compare_bounds(k, r, very_ample=va),
    "dominance": lambda lib, r, k_cap: lib.bounds.dominance_scan(r, k_cap),
    "theorem": lambda lib, box: lib.oracle.verify_theorem(*box[1:], k_min=box[0]),
    "han": lambda lib, s_max, m_max: lib.oracle.verify_han_exhaustive(s_max, m_max),
    "search": lambda lib, k, r, d_max, m_max: lib.oracle.min_ratio_search(k, r, d_max, m_max),
}

LIBRARY_CHECKS = {
    "compare": checks.check_compare,
    "dominance": checks.check_dominance,
    "theorem": checks.check_theorem,
    "han": checks.check_han,
    "search": checks.check_search,
}

# Published comparison points (r = 10 floor table, very-ample table, and
# the full comparison at (35, 101)), mixed into the dense grid.
PUBLISHED = [(150, 10, False), (1050, 10, False), (2500, 10, False), (6, 10, True), (7, 10, True), (35, 101, True)]


def grid_query(rng: random.Random) -> tuple:
    if rng.random() < 0.02:
        return ("compare", rng.choice(PUBLISHED))
    return ("compare", (rng.randint(1, 200), rng.randint(2, 50), rng.random() < 0.5))


class BoundsGrid(Workload):
    """Thousands of cheap compare_bounds queries over k <= 200, r <= 50."""

    name = "bounds-grid"
    tail_percentile = 99.0
    pool_rounds = 40  # 20,000 queries, about as many as the grid has points

    def round(self, rng):
        return [grid_query(rng) for _ in range(500)]

    def warm_up_ops(self, rng):
        return [grid_query(rng) for _ in range(200)]


# Non-square k in [10^8, 10^9] whose Pell solution q0 has 2560-2600
# digits (PELL_K) or 4500-4540 digits (OVERFLOW_K), by pell_digits; each
# walks a continued-fraction period of about 5000 and 8700 terms.  Tables
# rather than draws: finding such k takes seconds of rejection sampling.
PELL_K = (
    106887466, 117455990, 120182488, 120258273, 145867221, 151170282, 164290419, 191920651,
    233327751, 264266482, 306371666, 319009066, 332722469, 368000164, 372268796, 374821073,
    384969659, 391090311, 391197862, 391454951, 410168778, 414629091, 470772479, 521102029,
    560626914, 620936754, 642968402, 647614578, 688242616, 688397552, 692547609, 710703598,
    719426705, 771173639, 791181928, 791266988, 798083996, 803636686, 828193881, 857927328,
    875636668, 899502210, 913116839, 942974155, 964360448, 965325286, 966330412, 970814363,
)
OVERFLOW_K = (
    129813574, 140269637, 153540188, 171650046, 177155941, 191494211, 275919214, 278790274,
    279844553, 293146093, 299251809, 317121214, 326166167, 348286508, 391394293, 417416365,
    495464036, 496109755, 500018635, 514103368, 529628214, 536811374, 537103823, 547866464,
    561260118, 593767672, 603485362, 651854429, 672007696, 683838295, 689937645, 707772216,
    726179213, 776930858, 794752849, 808552094, 825053554, 829687637, 848990359, 850313564,
    889618192, 913192764, 921450398, 926808143, 928654205, 962682022, 964905356, 967662097,
)
PELL_DIGITS = (2560, 2600)
OVERFLOW_DIGITS = (4500, 4540)


class BoundsWide(Workload):
    """Few large, unique queries; each round holds one of each slot.

    Each slot's sizes sit in a narrow band, so a round's sorted costs
    form plateaus: three cheap mid-size queries, one mid-size candidate
    enumeration, four dominance scans (around 130 ms; the median falls
    in the middle of them), three Pell queries (around 200 ms; the 75th
    percentile falls in the middle of those), the large candidate
    enumeration and the overflowing Pell query (both near a second).
    """

    name = "bounds-wide"
    tail_percentile = 75.0

    def pool(self, rng):
        pell_k = rng.sample(PELL_K, 3 * self.pool_rounds)
        overflow_k = rng.sample(OVERFLOW_K, self.pool_rounds)
        return [self.round(rng, pell_k[3 * i:3 * i + 3], k) for i, k in enumerate(overflow_k)]

    def round(self, rng, pell_ks, overflow_k):
        ops = [
            # mid-size k: trial division of large radicands, short Pell periods
            *(("compare", (log_uniform(rng, 10**3, 10**6), log_uniform(rng, 10, 10**4), rng.random() < 0.5))
              for _ in range(3)),
            # candidate enumeration, O(r * d) with r >> k: mid-size and large
            ("compare", (rng.randint(50, 60), rng.randint(2400, 2600), False)),
            ("compare", (1, rng.randint(9800, 10**4), False)),
            # the O(k_cap) dominance scan, once at r = 10 (threshold 6250)
            *(("dominance", (r, rng.randint(480_000, 500_000))) for r in (10, *rng.sample(range(11, 21), 3))),
            # long Pell periods: solutions that print, and one past the limit
            *(("compare", (k, rng.randint(100, 200), False)) for k in pell_ks),
            ("compare", (overflow_k, rng.randint(100, 200), False)),
        ]
        rng.shuffle(ops)
        return ops

    def warm_up_ops(self, rng):
        # every code path once, at small sizes
        return [grid_query(rng) for _ in range(50)] + [
            ("compare", (1, 500, True)),
            ("compare", (rng.randint(10**5, 10**6), 300, False)),
            ("dominance", (10, 10**4)),
        ]


# The acceptance box of the trichotomy scan: k <= 20, r <= 10, d <= 5, m <= 8.
THEOREM_BOX = (20, 10, 5, 8)


def search_op(rng):
    return ("search", (rng.randint(20, 40), 10, 4, 6))


class VerifyBox(Workload):
    """The oracle walks: verify_theorem by per-k sub-box, plus the Han
    scan and seeded minimum-ratio searches."""

    name = "verify-box"
    tail_percentile = 90.0

    def round(self, rng):
        k_max, r_max, d_max, m_max = THEOREM_BOX
        ops = [("theorem", ((k, k, r_max, d_max, m_max),)) for k in range(1, k_max + 1)]
        ops.append(("han", (8, 12)))
        ops += [search_op(rng) for _ in range(4)]
        rng.shuffle(ops)
        return ops

    def warm_up_ops(self, rng):
        return [
            ("theorem", ((1, 6, 6, 3, 6),)),
            ("han", (5, 6)),
            ("search", (rng.randint(1, 10), 5, 2, 4)),
        ]


FORMATS = ("text", "json", "csv")
SUBCOMMANDS = ("bounds", "pell", "search", "verify", "threshold", "p2-table")


def cli_command(rng: random.Random, sub: str) -> dict:
    """One small `seshadri <sub>` invocation in a random format."""
    fmt = rng.choice(FORMATS)
    digits = ["--digits", str(rng.choice([2, 3, 4, 6]))]
    cmd = {"sub": sub, "format": fmt}
    if sub == "bounds":
        k, r = rng.randint(1, 300), rng.randint(2, 60)
        extra = rng.choice([[], ["--very-ample"], ["--surface", f"custom:{k},va"], ["--all-digits"]])
        argv = ["--k", str(k), "--r", str(r), *extra, *digits]
        cmd.update(k=k, r=r)
    elif sub == "pell":
        k = rng.randint(2, 5000)
        while math.isqrt(k) ** 2 == k:
            k += 1
        argv = ["--k", str(k), *digits]
    elif sub == "search":
        argv = ["--k", str(rng.randint(1, 12)), "--r", str(rng.randint(2, 8)),
                "--d-max", str(rng.randint(1, 2)), "--m-max", str(rng.randint(3, 6)), *digits]
    elif sub == "verify":
        suite = rng.choice(["theorem", "han", "k3"])
        if suite == "theorem":
            argv = ["--k-max", str(rng.randint(3, 6)), "--r-max", str(rng.randint(3, 6)), "--d-max", "2", "--m-max", "4"]
        elif suite == "han":
            argv = ["--s-max", str(rng.randint(3, 5)), "--m-max", str(rng.randint(4, 6))]
        else:
            argv = ["--k-max", str(rng.randint(4, 10)), "--r-max", str(rng.randint(3, 6)), "--d-max", "2"]
        argv = ["--suite", suite, *argv]
    elif sub == "threshold":
        argv = ["--r", str(rng.randint(2, 30)), "--k-cap", str(rng.randint(1000, 20000))]
    else:
        argv = ["--r-max", str(rng.randint(1, 30)), *digits]
    cmd["argv"] = [sub, *argv, "--format", fmt]
    return cmd


class Cli(Workload):
    """Cold `python -m seshadri` processes, one at a time.

    Untraced, each operation is a subprocess.  Traced, the same commands
    run in-process through cli.main so that spans can be recorded.
    """

    name = "cli"
    tail_percentile = 90.0
    pool_rounds = 48
    in_process = False

    def __init__(self, root: Path) -> None:
        self.root = root
        env = {k: v for k, v in os.environ.items() if k != "SESHADRI_FORMAT"}
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        self.env = env

    def round(self, rng):
        ops = [("cli", cli_command(rng, sub)) for sub in SUBCOMMANDS]
        rng.shuffle(ops)
        return ops

    def warm_up_ops(self, rng):
        return [("cli", cli_command(rng, sub)) for sub in ("bounds", "verify")]

    def python(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=120,
        )

    def execute(self, lib, op):
        argv = op[1]["argv"]
        if not self.in_process:
            proc = self.python("-m", "seshadri", *argv)
            return proc.returncode, proc.stdout
        self.reset(lib)  # a child process would start with empty caches
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib.cli.main(list(argv))
        return code, out.getvalue()

    def output_bytes(self, result) -> int:
        return len(result[1].encode())

    def check(self, lib, op, result):
        code, stdout = result
        checks.check_cli(op[1], code, stdout, from_string=lib.exact.Surd.from_string)


def make(name: str, root: Path) -> Workload:
    if name == "cli":
        return Cli(root)
    for cls in (BoundsGrid, BoundsWide, VerifyBox):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = ("bounds-grid", "bounds-wide", "verify-box", "cli")
