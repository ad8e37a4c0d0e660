"""Cold start: what a `python -m seshadri` process prints, and what it loads.

Each argv runs one fresh interpreter with -S, so that no site hook preloads
modules, and -B, so that no bytecode is written; tests that read the same
argv share its run.  The in-process tests cannot see what a process loads:
by the time they run, pytest has loaded every module of the package.
"""

import functools

import pytest
from conftest import run_python
from test_golden import CASES, GOLDEN, transcript

# Runs the package as `python -m` does (its __main__ runs as "__main__",
# not as seshadri.__main__), then reports every loaded module on the last
# line of stderr after the command has exited.
REPORT_MODULES = (
    "import atexit, runpy, sys\n"
    "atexit.register(lambda: print('modules', *sorted(sys.modules), file=sys.stderr))\n"
    "runpy.run_module('seshadri', run_name='__main__', alter_sys=True)\n"
)


BASE = {"seshadri", "seshadri.cli", "seshadri.exact"}
PLANE = BASE | {"seshadri.inequalities", "seshadri.plane"}
WALK = BASE | {"seshadri.inequalities", "seshadri.walk"}
THRESHOLD = BASE | {"seshadri.inequalities", "seshadri.threshold"}
BOUND_LAYER = PLANE | THRESHOLD | {"seshadri.bounds", "seshadri.pell"}

# The package modules of each subcommand; --surface adds catalog.  Only
# bounds loads its prose, cli_bounds, and threshold loads no part of the
# bound layer but its own scan.
LOADS = {
    "bounds": BOUND_LAYER | {"seshadri.cli_bounds"},
    "threshold": THRESHOLD,
    "pell": BASE | {"seshadri.pell"},
    "search": WALK,
    "verify": WALK | {"seshadri.oracle"},
    "p2-table": PLANE,
}
# The subcommands whose result records are dataclasses.
LOADS_DATACLASSES = {"bounds", "threshold", "verify"}


@functools.cache
def cold_run(*argv: str) -> tuple[int, str, str, frozenset[str]]:
    """The exit code, stdout and stderr of `python -m seshadri *argv` in a
    fresh interpreter, and the modules it had loaded when it exited."""
    proc = run_python("-S", "-B", "-c", REPORT_MODULES, *argv)
    *stderr, report = proc.stderr.splitlines(keepends=True)
    tag, *modules = report.split()
    assert tag == "modules"
    return proc.returncode, proc.stdout, "".join(stderr), frozenset(modules)


def package_modules(argv: list[str]) -> set[str]:
    """The seshadri modules that argv's subcommand loads."""
    return LOADS[argv[0]] | ({"seshadri.catalog"} if "--surface" in argv else set())


# The rules again, on text runs of each subcommand; an argv that is also a
# cold case below shares its run.
COMMANDS = [
    "bounds --k 35 --r 101 --very-ample",
    "bounds --surface custom:35,va --r 101",
    "pell --k 35",
    "search --k 1 --r 5 --d-max 3",
    "verify --suite theorem --k-max 4 --r-max 4 --d-max 2 --m-max 4",
    "verify --suite han --s-max 4 --m-max 4",
    "verify --suite k3 --k-max 4 --r-max 4 --d-max 2",
    "threshold --r 10 --k-cap 10000",
    "p2-table --r-max 9",
]


def text_run_modules(command: str) -> frozenset[str]:
    code, _, err, loaded = cold_run(*command.split(), "--format", "text")
    assert code == 0, err
    return loaded


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_subcommand_loads_only_its_own_modules(command):
    loaded = text_run_modules(command)
    assert {m for m in loaded if m.startswith("seshadri")} == package_modules(command.split())
    assert not {"json", "csv"} & loaded  # text output needs neither


def test_pell_loads_no_dataclasses():
    # PellSolution is a __slots__ class; the pell command's other modules
    # define no dataclass either.
    assert "dataclasses" not in text_run_modules("pell --k 35")


@pytest.mark.parametrize("command", ["p2-table --r-max 9", "search --k 1 --r 5 --d-max 3"])
def test_plane_and_walk_commands_load_no_dataclasses(command):
    # The plane values and the search are defined apart from the bound
    # layer's and the suites' dataclass records.
    assert "dataclasses" not in text_run_modules(command)


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_json_and_csv_load_only_for_their_own_format(fmt):
    code, _, err, loaded = cold_run("pell", "--k", "35", "--format", fmt)
    assert code == 0, err
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
    argv = CASES[name].split() + ["--format", fmt]
    code, out, err, loaded = cold_run(*argv)
    assert transcript(code, out, err).encode() == (GOLDEN / f"{name}.{fmt}").read_bytes()

    assert {m for m in loaded if m.startswith("seshadri")} == package_modules(argv)
    assert ("dataclasses" in loaded) == (argv[0] in LOADS_DATACLASSES)
    # text output needs neither, and a run that prints no record loads neither
    assert {"json", "csv"} & loaded == ({fmt} - {"text"} if out else set())
