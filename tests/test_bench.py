"""The benchmark's smoke run passes: every workload at toy size, at
both levels, so the tracer's hooks on the functions it patches run, not
only resolve (``test_surface.py``)."""

import subprocess
import sys
from pathlib import Path

from test_cli import run_env

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_run_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
                          capture_output=True, text=True, env=run_env(), cwd=ROOT,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"
