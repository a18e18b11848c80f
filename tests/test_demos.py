"""Every demo script, and the README's API example, runs to completion with
warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# the same warnings pytest turns into errors
WARNINGS_AS_ERRORS = ["-W", "error::RuntimeWarning", "-W", "error::UserWarning",
                      "-W", "error::DeprecationWarning"]


def _run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # any plot lands in tmp_path
    result = _run([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]


def test_readme_api_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Python API in one minute", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import recoilspec" in code
    result = _run(["-c", code], tmp_path)
    assert result.returncode == 0, result.stderr[-2000:]
