"""The benchmark's output checks must reject perturbed outputs.

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_checks.py

Spectrum and dynamics checks are exercised on real cli outputs on a small
motional grid (6 x 6), where dense expm is instant; the width-curve check
on the stored oracle widths.
"""

import csv
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
from recoilspec import cli  # noqa: E402
from run import Spans, named  # noqa: E402
from workloads import MGH_TAU_SCALED, WORKLOADS  # noqa: E402

SMALL_GRID = ["-s", "scenario.n_ip_max=5", "-s", "scenario.n_op_max=5"]
MHZ = 1e6


def run_cli(workload, tmp_path):
    prefix = tmp_path / "op0"
    argv = WORKLOADS[workload]["argv"] + SMALL_GRID + ["-o", str(prefix)]
    code = cli.main(argv)
    assert code in (0, 3)
    config = cli.load_config(sets=["preset=mg24_ca40"] + SMALL_GRID[1::2])
    return prefix, cli.build_scenario(config)


def perturb_csv(path, row, column, delta):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[row][column] = repr(float(rows[row][column]) + delta)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture(scope="module")
def spectrum_output(tmp_path_factory):
    return run_cli("mg-spectrum-serial", tmp_path_factory.mktemp("spectrum"))


@pytest.fixture(scope="module")
def dynamics_output(tmp_path_factory):
    return run_cli("mg-dynamics", tmp_path_factory.mktemp("dynamics"))


def test_spectrum_check_accepts_program_output(spectrum_output):
    prefix, scenario = spectrum_output
    refs = check.spectrum_references(seed=7, scenario=scenario)
    assert check.check_spectrum(prefix, 0, refs) == []


def test_spectrum_check_rejects_asymmetric_spectrum(spectrum_output):
    prefix, _ = spectrum_output
    cols = check.read_csv(f"{prefix}.csv")
    d, f = cols["detuning_hz"], cols["fluorescence_probability"].copy()
    assert check.spectrum_shape_errors(d, f) == []
    f[3] += 1e-6
    errors = check.spectrum_shape_errors(d, f)
    assert any("mirror-symmetric" in e for e in errors)


def test_spectrum_check_rejects_off_centre_minimum():
    d = np.linspace(-150e6, 150e6, 21)
    f = 1.0 - 0.3 / (1.0 + (d / 25e6) ** 2)
    f[10] += 0.2          # symmetric, but the dip centre is now a bump
    assert any("minimum" in e for e in check.spectrum_shape_errors(d, f))


@pytest.mark.parametrize("spot", [0, 1])
def test_spectrum_check_rejects_population_off_by_1e_6(tmp_path, spectrum_output,
                                                       spot):
    prefix, scenario = spectrum_output
    refs = check.spectrum_references(seed=7, scenario=scenario)
    copy = tmp_path / "op0"
    for suffix in (".csv", "_fit.json"):
        Path(f"{copy}{suffix}").write_bytes(Path(f"{prefix}{suffix}").read_bytes())
    row = list(refs)[spot]         # resonance, then the off-resonant spot check
    perturb_csv(f"{copy}.csv", row, "P_01", 1e-6)
    errors = check.check_spectrum(copy, 0, refs)
    assert any("dense expm" in e for e in errors)


def test_dynamics_check_accepts_program_output(dynamics_output):
    prefix, scenario = dynamics_output
    refs = check.dynamics_references(scenario=scenario)
    assert check.check_dynamics(prefix, 0, refs) == []


@pytest.mark.parametrize("row", [0, -1])
def test_dynamics_check_rejects_population_off_by_1e_6(tmp_path, dynamics_output,
                                                       row):
    prefix, scenario = dynamics_output
    refs = check.dynamics_references(scenario=scenario)
    copy = tmp_path / "op0"
    Path(f"{copy}.csv").write_bytes(Path(f"{prefix}.csv").read_bytes())
    perturb_csv(f"{copy}.csv", row, "p_excited_00", 1e-6)
    errors = check.check_dynamics(copy, 0, refs)
    assert any("dense expm" in e for e in errors)


def test_dynamics_check_rejects_rising_ground_population(dynamics_output):
    prefix, _ = dynamics_output
    cols = check.read_csv(f"{prefix}.csv")
    cols["P_00"][10] = cols["P_00"][9] + 1e-9
    assert any("P_00" in e for e in check.dynamics_shape_errors(cols))


# depths of the program's MgH curve at the workload's scaled times
MGH_DEPTHS = [0.1479, 0.3249, 0.3939, 0.3995]


def test_widthcurve_check_accepts_oracle_widths():
    exact = check.oracle_widths_hz()
    assert check.widthcurve_errors(MGH_TAU_SCALED, exact + 0.4 * MHZ,
                                   MGH_DEPTHS, exact) == []


@pytest.mark.parametrize("shift", [3 * MHZ, -3 * MHZ])
def test_widthcurve_check_rejects_widths_shifted_by_3_mhz(shift):
    exact = check.oracle_widths_hz()
    errors = check.widthcurve_errors(MGH_TAU_SCALED, exact + shift, MGH_DEPTHS,
                                     exact)
    assert any("oracle" in e for e in errors)


def test_widthcurve_check_rejects_accelerating_or_saturated_depths():
    exact = check.oracle_widths_hz()
    assert check.widthcurve_errors(MGH_TAU_SCALED, exact,
                                   [0.1, 0.11, 0.15, 0.4], exact)
    assert check.widthcurve_errors(MGH_TAU_SCALED, exact,
                                   [0.3, 0.8, 0.99, 1.0], exact)


def test_widthcurve_check_wants_leak_code_exactly_when_flagged(tmp_path):
    exact = check.oracle_widths_hz()
    prefix = tmp_path / "op0"
    with open(f"{prefix}.csv", "w") as fh:
        fh.write("label,tau_scaled,tau_spec_s,fwhm_hz,depth,"
                 "max_leaked_probability,leak_flag\n")
        for tau, width, depth, flag in zip(MGH_TAU_SCALED, exact, MGH_DEPTHS,
                                           [0, 0, 0, 1]):
            fh.write(f"scan,{tau},0.01,{float(width)!r},{depth},0.0,{flag}\n")
    assert check.check_widthcurve(prefix, 3, exact) == []
    assert any("exit code" in e for e in check.check_widthcurve(prefix, 0, exact))


def test_span_self_and_inclusive_times():
    spans = Spans([["cli.main", "cli", 0.0, 10.0, None],
                   ["rate_engine.evolve", "rate_engine", 1.0, 5.0, 0],
                   ["radiation.base_rate", "radiation", 2.0, 3.0, 1],
                   ["radiation.base_rate", "radiation", 2.2, 2.5, 2]])
    assert spans.self_time(named("cli.main")) == pytest.approx(6.0)
    assert spans.self_time(named("rate_engine.evolve")) == pytest.approx(3.0)
    assert spans.inclusive(named("radiation.base_rate")) == pytest.approx(1.0)
    assert spans.calls(named("radiation.base_rate")) == 2
