"""Every narrative script under demos/ runs to completion.

Each demo is copied into a temporary directory, so the artifacts it
writes next to itself land there, and runs with the source tree on
PYTHONPATH, as the CLI tests run the CLI.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import run_env

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, env=run_env(), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
