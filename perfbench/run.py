"""Benchmark for seshadri: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload bounds-grid --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ./src.
One caller drives the library (or, for the cli workload, one child
process at a time) in a closed loop.  Set-up (import, building the input
pool, warm-up on inputs from another seed) is timed several times and
reported as a median.  Then the timed pass cycles through the pool's
rounds until --seconds have passed, checks every result independently,
and prints the end-to-end metrics.  Times are scaled to a reference host
speed (hostspeed.py); the raw ones are in the detail line.  With
--trace 1 it instead runs the operations in blocks, each once untraced
and once with spans around every layer's entry points, and prints the
per-layer metrics (DESIGN.md says what each should move).

The last line of standard output is the result object; the line before
it ("detail ...") carries the sample counts and other context.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import checks
import hostspeed
import tracing
import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 5
WARM_SEED_OFFSET = 1_000_003  # warm-up inputs come from a different seed
PROBE_REPEATS = 5
BLOCK_S = 1.0  # length of each untraced block in a traced run
CALIBRATE_EVERY_S = 0.05  # longest stretch of operations between calibrations
TAIL_SAMPLES = 10  # samples the tail percentile must have beyond it
LAYERS = ("exact", "pell", "bounds", "oracle", "catalog", "cli")


def load_library() -> SimpleNamespace:
    """Import seshadri afresh from ./src (dropping any earlier import)."""
    for name in [n for n in sys.modules if n == "seshadri" or n.startswith("seshadri.")]:
        del sys.modules[name]
    pkg = importlib.import_module("seshadri")
    if Path(pkg.__file__).resolve().parent != (SRC / "seshadri").resolve():
        raise RuntimeError(f"seshadri imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{n: importlib.import_module(f"seshadri.{n}") for n in LAYERS})


class Pass:
    """Outcome of one pass over a sequence of operations."""

    def __init__(self) -> None:
        self.latencies = array("d")
        self.calibration = array("i")  # per operation: the calibration before it
        self.completed = 0
        self.output_bytes = 0
        self.defects = 0  # failures from the known Pell-overflow defect
        self.errors: list[str] = []  # any other failure: a wrong result or a crash
        self.wall_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return self.attempted - self.completed


def run_op(work, lib, op, out: Pass, clock: hostspeed.Clock | None = None) -> None:
    if clock is not None:
        out.calibration.append(clock.before_op())
    t0 = perf_counter()
    try:
        result = work.execute(lib, op)
    except Exception as exc:  # one failed operation must not end the run
        out.latencies.append(perf_counter() - t0)
        if workloads.is_known_defect(exc):
            out.defects += 1
        else:
            out.errors.append(f"{op!r}: {type(exc).__name__}: {exc}"[:300])
        return
    out.latencies.append(perf_counter() - t0)
    out.output_bytes += work.output_bytes(result)
    try:
        work.check(lib, op, result)
    except checks.CheckFailure as exc:
        out.errors.append(f"{op!r}: wrong result: {exc}"[:300])
        return
    out.completed += 1


def cycle(work, lib, pool):
    """Endless rounds from the pool, with an empty Pell cache at the start
    of each pass over it, so repeats come only from within the pool."""
    while True:
        work.reset(lib)
        yield from pool


def nearest_rank(n: int, q: float) -> int:
    """Index into n sorted samples of percentile q (nearest rank)."""
    return max(0, -(-int(q * n) // 100) - 1)


def beyond(n: int, q: float) -> int:
    return n - 1 - nearest_rank(n, q)


def timed_pass(work, lib, rounds, seconds: float) -> tuple[Pass, hostspeed.Clock]:
    """Run whole rounds until `seconds` have passed and the workload's
    tail percentile has TAIL_SAMPLES samples beyond it."""
    out, clock = Pass(), hostspeed.Clock(CALIBRATE_EVERY_S)
    start = perf_counter()
    for batch in rounds:
        for op in batch:
            run_op(work, lib, op, out, clock)
        if perf_counter() - start >= seconds and beyond(out.attempted, work.tail_percentile) >= TAIL_SAMPLES:
            break
    clock.calibrate()  # closes the bracket around the last operations
    out.wall_s = perf_counter() - start
    return out, clock


def replay(work, lib, ops) -> Pass:
    out = Pass()
    start = perf_counter()
    for op in ops:
        run_op(work, lib, op, out)
    out.wall_s = perf_counter() - start
    return out


def set_up(work, seed: int):
    """Import, build the seeded input pool, warm up on another seed.

    Returns (seconds taken, the same scaled to the reference host speed,
    library, pool, warm-up pass)."""
    before = hostspeed.measure()
    t0 = perf_counter()
    lib = load_library()
    pool = work.pool(random.Random(seed))
    warm = replay(work, lib, work.warm_up_ops(random.Random(seed + WARM_SEED_OFFSET)))
    seconds = perf_counter() - t0
    return seconds, seconds * hostspeed.factor(before, hostspeed.measure()), lib, pool, warm


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timings(latencies, completed: int, q: float) -> dict:
    xs = sorted(latencies)
    return {
        "ops_per_s": metric(completed / sum(xs), "1/s"),
        "latency_p50_ms": metric(statistics.median(xs) * 1e3, "ms"),
        "latency_tail_ms": metric(xs[nearest_rank(len(xs), q)] * 1e3, "ms"),
    }


def end_to_end(work, result: Pass, clock: hostspeed.Clock, setup_s: float) -> tuple[dict, dict]:
    # read before the lists below, whose size grows with the operation count
    who = resource.RUSAGE_CHILDREN if work.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    scaled = [t * clock.factor(i) for t, i in zip(result.latencies, result.calibration)]
    metrics = timings(scaled, result.completed, work.tail_percentile)
    metrics["peak_rss_mb"] = metric(peak_rss_mb, "MB")
    metrics["setup_s"] = metric(setup_s, "s")
    detail = {
        "tail_percentile": work.tail_percentile,
        "tail_samples_beyond": beyond(result.attempted, work.tail_percentile),
        "busy_s": sum(result.latencies),
        "host_speed": clock.speed(),
        "calibrations": len(clock.refs),
        "raw": {name: m["value"] for name, m in timings(result.latencies, result.completed, work.tail_percentile).items()},
    }
    return metrics, detail


def cli_probes(work) -> dict:
    """Medians over fresh interpreters: bare start-up, and importing seshadri.cli."""
    bare, imports = [], []
    code = "import time; t = time.perf_counter(); import seshadri.cli; print(time.perf_counter() - t)"
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        work.python("-c", "pass").check_returncode()
        bare.append(perf_counter() - t0)
        proc = work.python("-c", code)
        proc.check_returncode()
        imports.append(float(proc.stdout))
    return {"cli.interpreter_s": statistics.median(bare), "cli.import_s": statistics.median(imports)}


def traced_run(work, lib, rounds, seconds: float):
    """Alternate untraced and traced blocks of the same operations.

    Each block is whole rounds run untraced for about BLOCK_S, then run
    again with spans on; both start from empty caches.  Alternating in
    short blocks keeps drift in the host's speed out of the overhead.
    Returns (untraced pass, traced pass, tracer, Pell cache hits while
    traced, entry points not found)."""
    untraced, traced, tracer = Pass(), Pass(), tracing.Tracer()
    hits, missing = 0, []
    start = perf_counter()
    while perf_counter() - start < seconds:
        work.reset(lib)
        block, block_s = [], 0.0
        while block_s < BLOCK_S:
            batch = next(rounds)
            block += batch
            t0 = perf_counter()
            for op in batch:
                run_op(work, lib, op, untraced)
            block_s += perf_counter() - t0
        untraced.wall_s += block_s
        work.reset(lib)
        hits_before = work.pell_hits(lib)
        missing = tracer.install()
        t0 = perf_counter()
        try:
            for op in block:
                run_op(work, lib, op, traced)
        finally:
            traced.wall_s += perf_counter() - t0
            tracer.uninstall()
        hits += work.pell_hits(lib) - hits_before
    return untraced, traced, tracer, hits, missing


def per_layer(work, untraced: Pass, traced: Pass, tracer, hits: int) -> dict:
    layer = tracer.metrics()
    pell_calls = tracer.calls["pell.fundamental"]
    feasible = tracer.counts["oracle.theorem.feasible_vectors"]
    theorem_s = layer["oracle.theorem.self_s"][0]
    layer["pell.cache_hit_ratio"] = (hits / pell_calls if pell_calls else 0.0, "ratio")
    layer["bounds.compare.failures"] = (tracer.failures["bounds.compare"], "count")
    layer["oracle.theorem.vectors_per_s"] = (feasible / theorem_s if theorem_s else 0.0, "1/s")
    layer["cli.output_bytes"] = (traced.output_bytes, "bytes")
    probes = cli_probes(work) if work.name == "cli" else {"cli.interpreter_s": 0.0, "cli.import_s": 0.0}
    layer.update((name, (value, "s")) for name, value in probes.items())
    layer["trace.overhead_s"] = (traced.wall_s - untraced.wall_s, "s")
    return {name: metric(*v) for name, v in layer.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "seshadri" / "__init__.py").is_file():
        print(f"perfbench: no seshadri package under {SRC}; run from a checkout's root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for the whole run, child processes included, so that the
    # host-speed calibrations measure the CPU the operations run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = workloads.make(args.workload, ROOT)

    setup_runs, setup_scaled, errors = [], [], []
    for _ in range(SETUP_REPEATS):
        lib = pool = None  # free the previous set-up's modules and inputs first
        gc.collect()
        seconds, scaled, lib, pool, warm = set_up(work, args.seed)
        setup_runs.append(seconds)
        setup_scaled.append(scaled)
        errors += warm.errors + ["warm-up hit the Pell-overflow defect"] * warm.defects
    rounds = cycle(work, lib, pool)
    gc.collect()

    if not args.trace:
        result, clock = timed_pass(work, lib, rounds, args.seconds)
        metrics, detail = end_to_end(work, result, clock, statistics.median(setup_scaled))
    else:
        if work.name == "cli":
            work.in_process = True  # spans need cli.main in this process
        untraced, result, tracer, hits, missing = traced_run(work, lib, rounds, args.seconds)
        errors += untraced.errors
        metrics = per_layer(work, untraced, result, tracer, hits)
        tracer.write(ROOT / ".bench_out" / f"spans-{work.name}")
        detail = {
            "spans": len(tracer.start_col),
            "missing_entry_points": missing,
            "pell_cache_hits": hits,
            "pell_cache_base": "every call to pell_fundamental in the traced blocks",
            "untraced_wall_s": untraced.wall_s,
            "traced_wall_s": result.wall_s,
            "trace_overhead_frac": result.wall_s / untraced.wall_s - 1,
        }

    errors += result.errors
    detail.update(
        workload=work.name,
        seed=args.seed,
        trace=args.trace,
        attempted=result.attempted,
        failed=result.failed,
        failed_frac=result.failed / result.attempted,
        known_defect_failures=result.defects,
        wall_s=result.wall_s,
        errors=errors[:5],
        setup_runs_s=setup_runs,
        setup_scaled_s=setup_scaled,
        machine={
            "cpus": os.cpu_count(),
            "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "int_max_str_digits": sys.get_int_max_str_digits(),
        },
    )
    print("detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not errors,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
