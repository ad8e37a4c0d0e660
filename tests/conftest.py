"""Session-wide test settings, and the launcher for fresh interpreters."""

import os
import subprocess
import sys
from pathlib import Path

from hypothesis import settings

# Derandomized, with no example database: every run draws the same
# examples, so a pass or failure repeats exactly.  No deadline, because
# the machines that run the suite differ in speed.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter run with args (flags first, such as -O or -S -B),
    importing seshadri from this checkout; its output is captured as text,
    and it is stopped after 60 s."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)
