"""What start-up loads: scipy.optimize, scipy.integrate and the process pool
are imported only by the code paths that use them.

Each test runs in a new interpreter, so that no earlier test has imported
the module it watches.
"""

import json
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import expm_populations
from recoilspec.presets import mg24_ca40
from recoilspec.radiation import composite_target_lineshape
from recoilspec.rate_engine import PopulationState, build_rate_matrix

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


def test_lsoda_fallback_first_call_imports_the_integrator(tmp_path):
    # a basis that cannot converge forces the fallback, as in test_rate_engine
    sc = replace(mg24_ca40(), n_ip_max=5, n_op_max=4)
    tau = 1.3e-3
    before, after, p = _fresh(f"""
        import json, sys, warnings
        from dataclasses import replace
        from recoilspec import rate_engine
        from recoilspec.presets import mg24_ca40
        from recoilspec.rate_engine import (LeakWarning, PopulationState,
                                            build_rate_matrix, evolve)
        rate_engine.KRYLOV_M_MAX = rate_engine.KRYLOV_M_START
        sc = replace(mg24_ca40(), n_ip_max=5, n_op_max=4)
        before = "scipy.integrate" in sys.modules
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LeakWarning)
            state = evolve(build_rate_matrix(sc, 0.0), PopulationState.ground(sc),
                           {tau!r})
        print(json.dumps([before, "scipy.integrate" in sys.modules,
                          state.to_vector().tolist()]))
        """, tmp_path)
    assert (before, after) == (False, True)
    exact = expm_populations(build_rate_matrix(sc, 0.0),
                             PopulationState.ground(sc).to_vector(), [tau])[:, 0]
    assert p == pytest.approx(exact, abs=1e-8)
