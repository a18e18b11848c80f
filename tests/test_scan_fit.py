from dataclasses import replace

import numpy as np
import pytest

from recoilspec import rate_engine
from recoilspec.presets import mg24_ca40
from recoilspec.radiation import base_rate
from recoilspec.rate_engine import LeakWarning
from recoilspec.scan_fit import (FitError, SpectrumRecord, _lorentzian_dip,
                                 _lorentzian_dip_jac, _scan, fit_lorentzian,
                                 numeric_fwhm_depth, readout_spectrum,
                                 width_depth_curves)


def lorentzian_dip(x, baseline, depth, center, w):
    return baseline - depth * (w / 2) ** 2 / ((x - center) ** 2 + (w / 2) ** 2)


W_TRUE = 2 * np.pi * 41.8e6
GRID = np.linspace(-2 * np.pi * 150e6, 2 * np.pi * 150e6, 81)


# --------------------------------------------------------------------------
# fitting on synthetic data
# --------------------------------------------------------------------------

def test_exact_lorentzian_recovered():
    y = lorentzian_dip(GRID, 1.0, 0.4, 0.0, W_TRUE)
    res = fit_lorentzian(GRID, y)
    assert res.baseline == pytest.approx(1.0, rel=1e-6)
    assert res.depth == pytest.approx(0.4, rel=1e-6)
    assert abs(res.center) <= 1e-6 * W_TRUE
    assert res.fwhm == pytest.approx(W_TRUE, rel=1e-6)


def test_offcenter_dip_recovered():
    center = 2 * np.pi * 23e6
    y = lorentzian_dip(GRID, 0.93, 0.21, center, 0.7 * W_TRUE)
    res = fit_lorentzian(GRID, y)
    assert res.center == pytest.approx(center, rel=1e-6)
    assert res.fwhm == pytest.approx(0.7 * W_TRUE, rel=1e-6)


def test_noisy_lorentzian_recovered_within_5pc():
    rng = np.random.default_rng(42)
    ok = 0
    for _ in range(5):
        y = lorentzian_dip(GRID, 1.0, 0.4, 0.0, W_TRUE)
        y = y + rng.uniform(-0.01, 0.01, size=y.size)
        res = fit_lorentzian(GRID, y)
        if (abs(res.depth - 0.4) < 0.05 * 0.4
                and abs(res.fwhm - W_TRUE) < 0.05 * W_TRUE
                and abs(res.baseline - 1.0) < 0.05):
            ok += 1
    assert ok >= 4


def test_fit_idempotent():
    y = lorentzian_dip(GRID, 1.0, 0.4, 0.0, W_TRUE)
    first = fit_lorentzian(GRID, y)
    p = [first.baseline, first.depth, first.center, first.fwhm]
    second = fit_lorentzian(GRID, y, p0=p)
    assert second.baseline == pytest.approx(first.baseline, abs=1e-10)
    assert second.depth == pytest.approx(first.depth, abs=1e-10)
    assert second.center == pytest.approx(first.center, abs=1e-10 * W_TRUE)
    assert second.fwhm == pytest.approx(first.fwhm, rel=1e-10)


def test_dip_jacobian_matches_central_differences():
    params = np.array([0.93, 0.21, 2 * np.pi * 23e6, 0.7 * W_TRUE])
    want = np.empty((GRID.size, 4))
    for k in range(4):
        h = 1e-6 * abs(params[k])
        up, down = params.copy(), params.copy()
        up[k] += h
        down[k] -= h
        want[:, k] = (_lorentzian_dip(GRID, up) - _lorentzian_dip(GRID, down)) / (2 * h)
    got = _lorentzian_dip_jac(GRID, params)
    assert np.allclose(got, want, rtol=1e-6, atol=1e-6 * np.abs(want).max(axis=0))


def test_fit_rejects_degenerate_input():
    with pytest.raises(FitError):
        fit_lorentzian(GRID, np.ones_like(GRID))
    with pytest.raises(FitError):
        fit_lorentzian(GRID[:5], np.zeros(5))


def test_numeric_matches_fit_on_lorentzian():
    y = lorentzian_dip(GRID, 1.0, 0.4, 0.0, W_TRUE)
    fwhm, depth = numeric_fwhm_depth(GRID, y)
    spacing = GRID[1] - GRID[0]
    assert abs(fwhm - W_TRUE) < spacing
    assert depth == pytest.approx(0.4, abs=0.01)


def test_numeric_gaussian_dip_width():
    sigma = 2 * np.pi * 20e6
    y = 1.0 - 0.5 * np.exp(-GRID**2 / (2 * sigma**2))
    fwhm, depth = numeric_fwhm_depth(GRID, y)
    spacing = GRID[1] - GRID[0]
    assert abs(fwhm - np.sqrt(8 * np.log(2)) * sigma) < spacing
    assert depth == pytest.approx(0.5, abs=0.01)


def test_numeric_requires_resolved_dip():
    # scan covers only one flank: the far crossing runs off the grid
    x = np.linspace(-4 * W_TRUE, 0.0, 41)
    y = lorentzian_dip(x, 1.0, 0.4, 0.5 * W_TRUE, W_TRUE)
    with pytest.raises(ValueError, match="widen"):
        numeric_fwhm_depth(x, y)


def test_record_input_paths():
    y = lorentzian_dip(GRID, 1.0, 0.4, 0.0, W_TRUE)
    records = [SpectrumRecord(detuning=d, fluorescence=v,
                              marginal=np.zeros((1, 1)), leaked=0.0)
               for d, v in zip(GRID, y)]
    assert fit_lorentzian(records).fwhm == pytest.approx(W_TRUE, rel=1e-6)
    assert numeric_fwhm_depth(records)[1] == pytest.approx(0.4, abs=0.01)


# --------------------------------------------------------------------------
# scans on the physical engine
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_scan_scenario():
    return replace(mg24_ca40(heat_ip=0.0, heat_op=0.0),
                   n_ip_max=9, n_op_max=9)


def test_far_detuned_point_stays_bright(small_scan_scenario):
    far = np.array([-25 * W_TRUE, 25 * W_TRUE])
    records = readout_spectrum(small_scan_scenario, far, tau_spec=1.3e-3)
    for r in records:
        assert r.fluorescence > 1.0 - 1e-3
        assert r.leaked < 1e-6


def test_spectrum_symmetry_without_heating(small_scan_scenario):
    grid = np.array([-3e8, -1e8, 1e8, 3e8])
    records = readout_spectrum(small_scan_scenario, grid, tau_spec=6.5e-4)
    assert records[2].fluorescence == pytest.approx(records[1].fluorescence,
                                                    abs=1e-6)
    assert records[3].fluorescence == pytest.approx(records[0].fluorescence,
                                                    abs=1e-6)


def test_worker_pool_matches_serial(small_scan_scenario):
    # odd grid through zero: the pool gets a singleton mirror group and pairs
    grid = np.linspace(-2e8, 2e8, 7)
    assert grid[3] == 0.0
    serial = readout_spectrum(small_scan_scenario, grid, tau_spec=2e-4)
    pooled = readout_spectrum(small_scan_scenario, grid, tau_spec=2e-4,
                              workers=2)
    for a, b in zip(serial, pooled):
        assert b.fluorescence == pytest.approx(a.fluorescence, abs=1e-12)
        assert b.marginal == pytest.approx(a.marginal, abs=1e-12)


# --------------------------------------------------------------------------
# the scan core: one propagation per |detuning| serves every pulse time
# --------------------------------------------------------------------------

SCAN_GRID = np.linspace(-2 * np.pi * 150e6, 2 * np.pi * 150e6, 21)
SCAN_TAUS = [2e-4, 6.5e-4, 1.3e-3]


@pytest.fixture
def propagations(monkeypatch):
    """Counts calls of the engine's propagator from here to the test's end."""
    calls = []
    integrate = rate_engine._integrate

    def counting(*args, **kwargs):
        calls.append(args[2])
        return integrate(*args, **kwargs)

    monkeypatch.setattr(rate_engine, "_integrate", counting)
    return calls


def scan(scenario, detunings, tau_specs):
    return _scan(scenario, detunings, tau_specs, pulses=None, leak_survival=0.5,
                 workers=1)


def test_symmetric_grid_one_propagation_per_magnitude(small_scan_scenario,
                                                     propagations):
    per_tau = scan(small_scan_scenario, SCAN_GRID, SCAN_TAUS)
    assert len(propagations) == 11
    for times in propagations:
        assert list(times) == SCAN_TAUS
    assert len(per_tau) == len(SCAN_TAUS)
    for records in per_tau:
        assert [r.detuning for r in records] == list(SCAN_GRID)
        for left, right in zip(records, records[::-1]):
            assert left.fluorescence == right.fluorescence
            assert np.array_equal(left.marginal, right.marginal)
            assert left.leaked == right.leaked


def test_asymmetric_grid_solves_every_magnitude(small_scan_scenario,
                                                propagations):
    grid = [-3e8, -1e8, 2e8]
    records = readout_spectrum(small_scan_scenario, grid, tau_spec=6.5e-4)
    assert len(propagations) == 3
    assert [r.detuning for r in records] == grid


def test_all_pulse_times_match_separate_scans(small_scan_scenario):
    together = scan(small_scan_scenario, SCAN_GRID, SCAN_TAUS)
    for tau, records in zip(SCAN_TAUS, together):
        alone = readout_spectrum(small_scan_scenario, SCAN_GRID, tau)
        for a, b in zip(alone, records):
            assert b.detuning == a.detuning
            assert b.fluorescence == pytest.approx(a.fluorescence, abs=1e-8)
            assert b.marginal == pytest.approx(a.marginal, abs=1e-8)
            assert b.leaked == pytest.approx(a.leaked, abs=1e-8)


def test_width_curve_matches_per_tau_spectra(small_scan_scenario):
    sc = small_scan_scenario
    taus = [1.0, 2.23, 4.0]
    rows = width_depth_curves([("mg", sc)], taus, SCAN_GRID, fit="numeric")
    r_res = base_rate(sc.laser, sc.line, 0.0, "absorption")
    for ts, row in zip(taus, rows):
        assert row.tau_scaled == ts
        assert row.tau_spec == ts / r_res
        fwhm, depth = numeric_fwhm_depth(
            readout_spectrum(sc, SCAN_GRID, ts / r_res))
        assert row.fwhm == pytest.approx(fwhm, rel=1e-6)
        assert row.depth == pytest.approx(depth, abs=1e-8)


def test_width_curve_keeps_input_order_of_pulse_times(small_scan_scenario,
                                                      propagations):
    entries = [("mg", small_scan_scenario)]
    mixed = width_depth_curves(entries, [4.0, 1.0, 4.0], SCAN_GRID,
                               fit="numeric")
    assert len(propagations) == 11
    ordered = width_depth_curves(entries, [1.0, 4.0], SCAN_GRID, fit="numeric")
    assert [r.tau_scaled for r in mixed] == [4.0, 1.0, 4.0]
    assert mixed == [ordered[1], ordered[0], ordered[1]]


def test_width_curves_collapse_across_intensities(mg_scenario):
    # equal scaled time, different intensities: nearly the same dip width
    entries = []
    for sat in (1.34e-6, 6.68e-6, 2.00e-5):
        entries.append((f"{sat:g}", mg24_ca40(intensity_sat_units=sat)))
    grid = np.linspace(-2 * np.pi * 120e6, 2 * np.pi * 120e6, 33)
    rows = width_depth_curves(entries, [2.23], grid, fit="lorentzian")
    widths = [r.fwhm for r in rows]
    assert max(widths) / min(widths) < 1.10
    depths = [r.depth for r in rows]
    assert max(depths) / min(depths) < 1.25  # heating spreads the depths more
    for r in rows:
        assert 0.0 <= r.depth <= 1.0


def test_physical_fit_bounds(small_scan_scenario):
    grid = np.linspace(-2 * np.pi * 150e6, 2 * np.pi * 150e6, 21)
    res = fit_lorentzian(readout_spectrum(small_scan_scenario, grid,
                                          tau_spec=6.5e-4))
    assert 0.0 <= res.depth <= 1.0
    # the data is a probability; the free baseline may overshoot 1 only by
    # its extrapolation slack (the physical wings are fatter than Lorentzian)
    assert res.baseline <= 1.0 + 1e-3
    assert res.fwhm > 0.0


def test_leak_flags_propagate():
    tiny = replace(mg24_ca40(), n_ip_max=3, n_op_max=3)
    grid = np.array([0.0, 2 * np.pi * 30e6, 2 * np.pi * 300e6])
    with pytest.warns(LeakWarning):
        records = readout_spectrum(tiny, grid, tau_spec=5.3e-3)
    assert records[0].leak_flag
    assert not records[2].leak_flag


def test_width_curve_flags_leaky_points():
    tiny = replace(mg24_ca40(), n_ip_max=3, n_op_max=3)
    grid = np.linspace(-2 * np.pi * 150e6, 2 * np.pi * 150e6, 21)
    rows = width_depth_curves([("tiny", tiny)], [9.1], grid, fit="lorentzian")
    assert rows[0].flagged
    assert rows[0].max_leaked > tiny.leak_warn_fraction
