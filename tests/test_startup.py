"""What start-up loads.  Importing recoilspec loads no scipy module, and
neither does any command of either preset: the coupling table, the
Lorentzian line of a delta laser (every mg24_ca40 run), the narrow-line
Voigt of a Gaussian laser far broader than the line (every mgh24_ca40
run), the propagator and the Lorentzian fit are numpy alone.  A Gaussian
laser whose Voigt parameter y lies above radiation.NARROW_LINE_Y imports
scipy.special on its first rate; scipy.optimize is imported only by
composite_target_lineshape.  No path starts a process pool, and the
numeric width never loads numpy.ma.

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
LAZY = ("scipy.optimize", "scipy.integrate", "scipy.interpolate",
        "scipy.linalg", "scipy.sparse")
POOL = ("multiprocessing", "concurrent.futures.process")


def _fresh(code: str, cwd: Path):
    """Run code in a new interpreter; returns the JSON of its last output line."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, *WARNINGS_AS_ERRORS, "-c",
                          textwrap.dedent(code)], cwd=cwd, env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def _scipy(modules):
    return sorted(m for m in modules if m == "scipy" or m.startswith("scipy."))


def _command_scipy(argv, tmp_path):
    """Exit code of one command in a new interpreter, and the scipy modules
    it loaded."""
    code, loaded = _fresh(f"""
        import json, sys
        from recoilspec import cli
        code = cli.main({[*argv, "-o", str(tmp_path / "x")]!r})
        print(json.dumps([code, list(sys.modules)]))
        """, tmp_path)
    return code, _scipy(loaded)


def test_cli_import_leaves_out_lazy_modules(tmp_path):
    loaded = _fresh(f"""
        import json, sys
        import recoilspec.cli
        print(json.dumps([m for m in {LAZY!r} if m in sys.modules]))
        """, tmp_path)
    assert loaded == []


def test_import_loads_no_scipy(tmp_path):
    loaded = _fresh("""
        import json, sys
        import recoilspec
        print(json.dumps(list(sys.modules)))
        """, tmp_path)
    assert _scipy(loaded) == []


@pytest.mark.parametrize("argv", [
    ["dynamics", "-p", "mg24_ca40"],
    ["spectrum", "-p", "mg24_ca40", "-s", "scan.points=9"],
    ["reduced", "-p", "mg24_ca40", "-s", "scan.points=9"],
], ids=["dynamics", "spectrum", "reduced"])
def test_delta_laser_command_loads_no_scipy(argv, tmp_path):
    assert _command_scipy(argv, tmp_path) == (0, [])


@pytest.mark.parametrize("argv", [
    ["widthcurve", "-p", "mgh24_ca40", "-s", "scan.points=9",
     "-s", "widthcurve.tau_scaled=[500]", "-s", "scan.fit=numeric"],
    ["spectrum", "-p", "mgh24_ca40", "-s", "scan.points=9"],
    ["dynamics", "-p", "mgh24_ca40"],
    ["reduced", "-p", "mgh24_ca40", "-s", "scan.points=9"],
], ids=["widthcurve", "spectrum", "dynamics", "reduced"])
def test_gaussian_laser_command_loads_no_scipy(argv, tmp_path):
    # the MgH lasers (y ~ 1e-7) take the numpy narrow-line Voigt
    assert _command_scipy(argv, tmp_path) == (0, [])


def test_gaussian_laser_above_narrow_bound_imports_scipy_special(tmp_path):
    # a 10 MHz laser on the 41.8 MHz Mg line has y = 3.5, so its Voigt
    # comes from scipy.special, imported on the first rate and not before
    before, after, y = _fresh("""
        import json, sys
        import numpy as np
        from recoilspec.presets import mg24_ca40
        from recoilspec.radiation import LaserField, base_rate
        sc = mg24_ca40()
        laser = LaserField(intensity=1.0, fwhm=2 * np.pi * 10e6)
        before = "scipy.special" in sys.modules
        base_rate(laser, sc.line, 0.0)
        y = sc.line.gamma_t / 2 / (laser.sigma * np.sqrt(2))
        print(json.dumps([before, "scipy.special" in sys.modules, y]))
        """, tmp_path)
    assert (before, after) == (False, True)
    assert y == pytest.approx(3.5, rel=0.01)


@pytest.mark.parametrize("argv", [
    ["dynamics", "-p", "mg24_ca40"],
    ["widthcurve", "-p", "mgh24_ca40", "-s", "scan.points=9",
     "-s", "widthcurve.tau_scaled=[500]", "-s", "scan.fit=numeric"],
    ["spectrum", "-p", "mg24_ca40", "-s", "scan.points=9"],
    ["widthcurve", "-p", "mg24_ca40", "-s", "scan.points=9",
     "-s", "widthcurve.tau_scaled=[2.23]", "-s", "scan.fit=lorentzian"],
    ["spectrum", "-p", "mg24_ca40", "-w", "3", "-s", "scan.points=9"],
    ["widthcurve", "-p", "mgh24_ca40", "-w", "3", "-s", "scan.points=9",
     "-s", "widthcurve.tau_scaled=[500]", "-s", "scan.fit=numeric"],
], ids=["dynamics", "widthcurve", "spectrum", "widthcurve-lorentzian",
        "spectrum-w3", "widthcurve-w3"])
def test_command_leaves_out_scipy_optimize(argv, tmp_path):
    # and starts no process pool: every scan runs in this process, and -w
    # is accepted and has no effect
    result = _fresh(f"""
        import json, sys
        from recoilspec import cli
        code = cli.main({[*argv, "-o", str(tmp_path / "x")]!r})
        print(json.dumps([code, "scipy.optimize" in sys.modules,
                          [m for m in {POOL!r} if m in sys.modules]]))
        """, tmp_path)
    assert result == [0, False, []]


def test_fit_lorentzian_leaves_out_scipy_optimize(tmp_path):
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
    assert (before, after) == (False, False)
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
    # no path propagates with scipy.integrate, and the Lorentzian fit is
    # numpy alone
    argv = ["spectrum", "-p", "mg24_ca40", "-s", "scan.points=9",
            "-o", str(tmp_path / "x")]
    result = _fresh(f"""
        import json, sys
        from recoilspec import cli
        code = cli.main({argv!r})
        print(json.dumps([code, "scipy.optimize" in sys.modules,
                          "scipy.integrate" in sys.modules]))
        """, tmp_path)
    assert result == [0, False, False]
    fit = json.loads((tmp_path / "x_fit.json").read_text())["fit"]
    assert fit["mode"] == "lorentzian" and fit["fwhm_hz"] > 0


def test_numeric_widthcurve_leaves_out_numpy_ma(tmp_path):
    # the numeric width's baseline is the middle of the sorted edge points;
    # np.median would import numpy.ma on its first call (about 12 ms)
    argv = ["widthcurve", "-p", "mgh24_ca40", "-s", "scan.points=9",
            "-s", "widthcurve.tau_scaled=[500]", "-o", str(tmp_path / "x")]
    result = _fresh(f"""
        import json, sys
        from recoilspec import cli
        code = cli.main({argv!r})
        print(json.dumps([code, "numpy.ma" in sys.modules]))
        """, tmp_path)
    assert result == [0, False]
