"""Every demo script runs to completion with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # the same warnings pytest turns into errors; any plot lands in tmp_path
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-W", "error::UserWarning",
         "-W", "error::DeprecationWarning", str(demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
