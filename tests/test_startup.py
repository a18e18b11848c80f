"""What start-up loads: scipy.optimize and the process pool are imported
only by the code paths that use them, and no path imports scipy.integrate.

Each test runs in a new interpreter, so that no earlier test has imported
the module it watches.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from recoilspec.radiation import composite_target_lineshape

ROOT = Path(__file__).resolve().parent.parent
WARNINGS_AS_ERRORS = ["-W", "error::RuntimeWarning", "-W", "error::UserWarning",
                      "-W", "error::DeprecationWarning"]
LAZY = ("scipy.optimize", "scipy.integrate", "concurrent.futures.process")


def _fresh(code: str, cwd: Path):
    """Run code in a new interpreter; returns the JSON of its last output line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, "-c",
                          textwrap.dedent(code)], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_leaves_out_lazy_modules(tmp_path):
    loaded = _fresh(f"""
        import json, sys
        import recoilspec.cli
        print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))
        """, tmp_path)
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["dynamics", "-p", "mg24_ca40"],
    ["widthcurve", "-p", "mgh24_ca40", "-w", "1", "-s", "scan.points=9",
     "-s", "widthcurve.tau_scaled=[500]", "-s", "scan.fit=numeric"],
], ids=lambda argv: argv[0])
def test_command_without_a_fit_leaves_out_scipy_optimize(argv, tmp_path):
    result = _fresh(f"""
        import json, sys
        from recoilspec import cli
        code = cli.main({[*argv, "-o", str(tmp_path / "x")]!r})
        print(json.dumps([code, "scipy.optimize" in sys.modules]))
        """, tmp_path)
    assert result == [0, False]


def test_fit_lorentzian_first_call_imports_its_solver(tmp_path):
    before, after, fit = _fresh("""
        import json, sys
        import numpy as np
        from recoilspec.scan_fit import fit_lorentzian
        before = "scipy.optimize" in sys.modules
        x = np.linspace(-5.0, 5.0, 41)
        res = fit_lorentzian(x, 1.0 - 0.4 / (1.0 + ((x - 0.3) / 0.75) ** 2))
        print(json.dumps([before, "scipy.optimize" in sys.modules,
                          [res.baseline, res.depth, res.center, res.fwhm]]))
        """, tmp_path)
    assert (before, after) == (False, True)
    assert fit == pytest.approx([1.0, 0.4, 0.3, 1.5], abs=1e-9)


def test_composite_lineshape_first_call_imports_its_root_finder(tmp_path):
    gamma, zeeman = 2 * np.pi * 41.8e6, 2 * np.pi * 30e6
    before, after, fwhm = _fresh(f"""
        import json, sys
        from recoilspec.radiation import composite_target_lineshape
        before = "scipy.optimize" in sys.modules
        _, fwhm = composite_target_lineshape({gamma!r}, 0.0, {zeeman!r})
        print(json.dumps([before, "scipy.optimize" in sys.modules, fwhm]))
        """, tmp_path)
    assert (before, after) == (False, True)
    assert fwhm == composite_target_lineshape(gamma, 0.0, zeeman)[1]


def test_spectrum_with_its_fit_leaves_out_scipy_integrate(tmp_path):
    # no path propagates with scipy.integrate; the Lorentzian fit loads
    # scipy.optimize only
    argv = ["spectrum", "-p", "mg24_ca40", "-w", "1", "-s", "scan.points=9",
            "-o", str(tmp_path / "x")]
    result = _fresh(f"""
        import json, sys
        from recoilspec import cli
        code = cli.main({argv!r})
        print(json.dumps([code, "scipy.optimize" in sys.modules,
                          "scipy.integrate" in sys.modules]))
        """, tmp_path)
    assert result == [0, True, False]
    fit = json.loads((tmp_path / "x_fit.json").read_text())["fit"]
    assert fit["mode"] == "lorentzian" and fit["fwhm_hz"] > 0
