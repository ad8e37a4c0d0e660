"""Cold start: what a `python -m seshadri` process loads, and what it prints.

Each test runs fresh interpreters with -S, so that no site hook preloads
modules, and -B, so that no bytecode is written.  The in-process tests
cannot see either property: by the time they run, pytest has loaded
every module of the package.
"""

import pytest
from conftest import run_python
from test_golden import CASES, GOLDEN

# Runs the package as `python -m` does (its __main__ runs as "__main__",
# not as seshadri.__main__), then reports every loaded module
# on stderr after the command has exited.
REPORT_MODULES = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('modules', *sorted(sys.modules), file=sys.stderr))\n"
    "runpy.run_module('seshadri', run_name='__main__', alter_sys=True)\n"
)


BASE = {"seshadri", "seshadri.cli", "seshadri.exact"}
PLANE = BASE | {"seshadri.inequalities", "seshadri.plane"}
WALK = BASE | {"seshadri.inequalities", "seshadri.walk"}
BOUND_LAYER = PLANE | {"seshadri.bounds", "seshadri.pell"}
ORACLE = WALK | {"seshadri.oracle"}

LOADS = {
    "bounds --k 35 --r 101 --very-ample": BOUND_LAYER,
    "bounds --surface custom:35,va --r 101": BOUND_LAYER | {"seshadri.catalog"},
    "pell --k 35": BASE | {"seshadri.pell"},
    "search --k 1 --r 5 --d-max 3": WALK,
    "verify --suite theorem --k-max 4 --r-max 4 --d-max 2 --m-max 4": ORACLE,
    "verify --suite han --s-max 4 --m-max 4": ORACLE,
    "verify --suite k3 --k-max 4 --r-max 4 --d-max 2": ORACLE,
    "threshold --r 10 --k-cap 10000": BOUND_LAYER,
    "p2-table --r-max 9": PLANE,
}


def loaded_modules(argv: list[str]) -> set[str]:
    proc = run_python("-S", "-B", "-c", REPORT_MODULES, *argv)
    assert proc.returncode == 0, proc.stderr
    last = proc.stderr.splitlines()[-1].split()
    assert last[0] == "modules"
    return set(last[1:])


@pytest.mark.parametrize("command", sorted(LOADS))
def test_each_subcommand_loads_only_its_own_modules(command):
    loaded = loaded_modules(command.split() + ["--format", "text"])
    assert {m for m in loaded if m.startswith("seshadri")} == LOADS[command]
    assert not {"json", "csv"} & loaded  # text output needs neither


def test_pell_loads_no_dataclasses():
    # PellSolution is a __slots__ class; the pell command's other modules
    # define no dataclass either.
    assert "dataclasses" not in loaded_modules(["pell", "--k", "35", "--format", "text"])


@pytest.mark.parametrize("command", ["p2-table --r-max 9", "search --k 1 --r 5 --d-max 3"])
def test_plane_and_walk_commands_load_no_dataclasses(command):
    # The plane values and the search are defined apart from the bound
    # layer's and the suites' dataclass records.
    assert "dataclasses" not in loaded_modules(command.split() + ["--format", "text"])


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_json_and_csv_load_only_for_their_own_format(fmt):
    loaded = loaded_modules(["pell", "--k", "35", "--format", fmt])
    assert {"json", "csv"} & loaded == ({fmt} - {"text"})


# Each subcommand in each format, with --surface and --all-digits, every
# verify suite, one usage error and one domain error.
COLD_CASES = [
    ("bounds-product-n2-minus-1", "text"),
    ("bounds-surface-custom", "json"),
    ("bounds-all-digits", "csv"),
    ("bounds-surface-p2", "text"),
    ("pell-proven", "text"),
    ("pell-conjectural", "json"),
    ("pell-proven", "csv"),
    ("search", "text"),
    ("search", "json"),
    ("search", "csv"),
    ("verify-theorem", "text"),
    ("verify-han", "json"),
    ("verify-k3", "csv"),
    ("threshold-global", "text"),
    ("threshold-window", "json"),
    ("threshold-none", "csv"),
    ("p2-table", "text"),
    ("p2-table", "json"),
    ("p2-table-one-row", "csv"),
    ("usage-error", "text"),
    ("domain-error", "json"),
]


@pytest.mark.parametrize("name,fmt", COLD_CASES, ids=[f"{n}.{f}" for n, f in COLD_CASES])
def test_cold_process_matches_its_golden_file(name, fmt):
    proc = run_python("-S", "-B", "-m", "seshadri", *CASES[name].split(), "--format", fmt)
    got = f"exit {proc.returncode}\n-- stderr\n{proc.stderr}-- stdout\n{proc.stdout}"
    assert got.encode() == (GOLDEN / f"{name}.{fmt}").read_bytes()
