"""The committed benchmark trajectories, BENCH_<workload>.json at the repo
root: each point is one commit's runs of perfbench/run.py, and its
medians and quartiles are what the statistics module computes from them."""

import copy
import json
import math
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAJECTORIES = sorted(ROOT.glob("BENCH_*.json"))
COMMIT = re.compile(r"[0-9a-f]{40}")
# Runs and summaries are stored to six decimals, so a summary recomputed
# from the stored runs can differ from the stored one by up to 1.5e-6.
STORED_TO = 2e-6


def problems(doc: dict, file_name: str, benchmark: dict = BENCHMARK) -> list[str]:
    """Everything wrong with one trajectory document, as sentences."""
    found = []
    workload = doc.get("workload")
    if workload not in {w["name"] for w in benchmark["workloads"]}:
        found.append(f"workload {workload!r} is not one of the benchmark's")
    if file_name != f"BENCH_{workload}.json":
        found.append(f"{file_name} holds workload {workload!r}")
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    if not doc.get("points"):
        found.append("no points")
    for i, point in enumerate(doc.get("points", [])):
        where = f"point {i}"
        for key in ("commit", "harness_commit"):
            if not COMMIT.fullmatch(str(point.get(key))):
                found.append(f"{where}: {key} {point.get(key)!r} is not 40 hex characters")
        seeds = point["seeds"]
        if len(set(seeds)) != len(seeds):
            found.append(f"{where}: repeated seeds {seeds}")
        for key in ("attempted", "failed"):
            if len(point[key]) != len(seeds):
                found.append(f"{where}: {len(point[key])} {key} entries for {len(seeds)} seeds")
        if not set(point["ran_first_in_pair"]) <= set(seeds):
            found.append(f"{where}: ran_first_in_pair {point['ran_first_in_pair']} is not a subset of the seeds")
        for name, spec in metrics.items():
            m = point["metrics"].get(name)
            if m is None:
                found.append(f"{where}: metric {name} missing")
                continue
            if (m.get("unit"), m.get("better")) != (spec["unit"], spec["better"]):
                found.append(f"{where}: {name} is in {m.get('unit')!r}, {m.get('better')!r} better")
            runs = m["runs"]
            if len(runs) != len(seeds):
                found.append(f"{where}: {len(runs)} {name} runs for {len(seeds)} seeds")
            if len(runs) < 2:
                found.append(f"{where}: {name} has too few runs for quartiles")
                continue
            q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
            expected = {"median": statistics.median(runs), "q1": q1, "q3": q3, "iqr": q3 - q1}
            for key, value in expected.items():
                if not math.isclose(m.get(key, math.nan), value, rel_tol=0, abs_tol=STORED_TO):
                    found.append(f"{where}: {name} {key} {m.get(key)} is not {value:.6f}")
    return found


def test_there_are_trajectories():
    assert {p.name for p in TRAJECTORIES} >= {f"BENCH_{w['name']}.json" for w in BENCHMARK["workloads"]}


@pytest.mark.parametrize("path", TRAJECTORIES, ids=lambda p: p.name)
def test_each_trajectory_is_consistent(path):
    assert problems(json.loads(path.read_text()), path.name) == []


@pytest.fixture
def doc():
    return json.loads((ROOT / "BENCH_bounds-wide.json").read_text())


def test_a_wrong_median_is_caught(doc):
    doc["points"][1]["metrics"]["ops_per_s"]["median"] += 1
    assert problems(doc, "BENCH_bounds-wide.json") == [
        "point 1: ops_per_s median 1785.16116 is not 1784.161160"
    ]


def test_a_missing_metric_is_caught(doc):
    del doc["points"][0]["metrics"]["setup_s"]
    assert problems(doc, "BENCH_bounds-wide.json") == ["point 0: metric setup_s missing"]


def test_a_metric_in_another_unit_is_caught(doc):
    doc["points"][0]["metrics"]["peak_rss_mb"]["unit"] = "kB"
    assert problems(doc, "BENCH_bounds-wide.json") == ["point 0: peak_rss_mb is in 'kB', 'lower' better"]


def test_seeds_and_runs_that_do_not_match_are_caught(doc):
    point = doc["points"][0]
    point["seeds"][1] = point["seeds"][0]
    point["ran_first_in_pair"].append(999)
    point["failed"].pop()
    found = problems(doc, "BENCH_bounds-wide.json")
    assert [p.split(":")[1].split()[0] for p in found] == ["repeated", "9", "ran_first_in_pair"]


def test_a_short_commit_and_a_misnamed_file_are_caught(doc):
    doc["points"][0]["commit"] = doc["points"][0]["commit"][:12]
    found = problems(doc, "BENCH_bounds-grid.json")
    assert found[0] == "BENCH_bounds-grid.json holds workload 'bounds-wide'"
    assert found[1].startswith("point 0: commit ") and len(found) == 2


def test_an_unknown_workload_is_caught(doc):
    benchmark = copy.deepcopy(BENCHMARK)
    benchmark["workloads"] = [w for w in benchmark["workloads"] if w["name"] != "bounds-wide"]
    assert problems(doc, "BENCH_bounds-wide.json", benchmark) == ["workload 'bounds-wide' is not one of the benchmark's"]
