import contextlib
import logging
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lorentzian_least_squares
from recoilspec import rate_engine, scan_fit
from recoilspec.presets import mg24_ca40, mgh24_ca40
from recoilspec.radiation import base_rate
from recoilspec.rate_engine import (LeakWarning, PopulationState,
                                    build_rate_matrix, evolve_series,
                                    scaled_time)
from recoilspec.readout import fluorescence_probability, pi_pulse
from recoilspec.scan_fit import (FitError, SpectrumRecord, _initial_guess,
                                 _lorentzian_dip, _lorentzian_dip_jac,
                                 _rate_groups, _scan,
                                 fit_lorentzian, numeric_fwhm_depth,
                                 readout_spectrum, width_depth_curves)


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


def test_fit_rejects_non_finite_data():
    y = lorentzian_dip(GRID, 1.0, 0.4, 0.0, W_TRUE)
    for bad in (np.where(GRID == GRID[40], np.nan, y), np.where(GRID > 0, np.inf, y)):
        with pytest.raises(FitError, match="finite"):
            fit_lorentzian(GRID, bad)
    with pytest.raises(FitError, match="finite"):
        fit_lorentzian(np.append(GRID[:-1], np.nan), y)


def test_fit_from_a_flat_start_raises():
    # depth 0 leaves the centre and width columns of the Jacobian at zero
    y = lorentzian_dip(GRID, 1.0, 0.4, 0.0, W_TRUE)
    with pytest.raises(FitError, match="singular"):
        fit_lorentzian(GRID, y, p0=[1.0, 0.0, 0.0, W_TRUE])


def test_fit_raises_at_its_evaluation_cap(monkeypatch):
    # iterations counts residual evaluations: a cap of exactly that many
    # still converges, one fewer raises
    rng = np.random.default_rng(42)
    y = lorentzian_dip(GRID, 1.0, 0.4, 0.0, W_TRUE) + rng.uniform(-0.01, 0.01, GRID.size)
    res = fit_lorentzian(GRID, y)
    assert 1 < res.iterations <= scan_fit.MAX_FIT_EVALS
    monkeypatch.setattr(scan_fit, "MAX_FIT_EVALS", res.iterations)
    assert fit_lorentzian(GRID, y).center == res.center
    monkeypatch.setattr(scan_fit, "MAX_FIT_EVALS", res.iterations - 1)
    with pytest.raises(FitError, match=f"no convergence in {res.iterations - 1} "):
        fit_lorentzian(GRID, y)


def assert_fit_matches_oracle(x, y):
    res = fit_lorentzian(x, y)
    want, oracle_norm = lorentzian_least_squares(x, y, _initial_guess(x, y))
    got = np.array([res.baseline, res.depth, res.center, res.fwhm])
    # centre and FWHM are measured against the FWHM
    assert np.all(np.abs(got - want) <= 1e-7 * np.abs(want[[0, 1, 3, 3]]))
    # stationarity, free of the oracle's own stopping error: the cost
    # gradient J^T r in parameter units, the Gauss-Newton step (J^T J)^-1 J^T r
    step = np.linalg.lstsq(_lorentzian_dip_jac(x, got), _lorentzian_dip(x, got) - y,
                           rcond=None)[0]
    assert np.all(np.abs(step) <= 1e-7 * np.abs(got[[0, 1, 3, 3]]))
    # a norm at the roundoff of the data has no relative digits to compare
    floor = 4 * np.finfo(float).eps * np.linalg.norm(y)
    assert res.residual_norm <= oracle_norm * (1 + 1e-10) + floor


def _synthetic_dips():
    rng = np.random.default_rng(42)
    exact = lorentzian_dip(GRID, 1.0, 0.4, 0.0, W_TRUE)
    return ([exact, lorentzian_dip(GRID, 0.93, 0.21, 2 * np.pi * 23e6, 0.7 * W_TRUE)]
            + [exact + rng.uniform(-0.01, 0.01, size=GRID.size) for _ in range(5)])


@pytest.mark.parametrize("y", _synthetic_dips(),
                         ids=["exact", "offcenter"] + [f"noisy{k}" for k in range(5)])
def test_fit_matches_least_squares_oracle_on_synthetic_dips(y):
    assert_fit_matches_oracle(GRID, y)


def test_fit_matches_least_squares_oracle_on_mg_spectra(mg_scenario):
    grid = np.linspace(-2 * np.pi * 150e6, 2 * np.pi * 150e6, 31)
    for records in _scan(mg_scenario, grid, [0.2e-3, 1.3e-3, 5e-3, 13e-3],
                         None):
        assert_fit_matches_oracle(grid, np.array([r.fluorescence for r in records]))


@settings(max_examples=60, deadline=None)
@given(points=st.integers(12, 81), baseline=st.floats(0.5, 1.0),
       depth=st.floats(0.05, 0.5), noise=st.floats(0.0, 0.1),
       width=st.floats(0.0, 1.0), center=st.floats(-0.25, 0.25),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fit_matches_least_squares_oracle_on_well_posed_dips(
        points, baseline, depth, noise, width, center, seed):
    # depth at least 10x the noise amplitude, FWHM from 2 grid spacings to
    # half the span, centre in the middle half of the span
    span = GRID[-1] - GRID[0]
    x = np.linspace(GRID[0], GRID[-1], points)
    fwhm = 2 * (x[1] - x[0]) + width * (span / 2 - 2 * (x[1] - x[0]))
    amplitude = noise * depth
    y = (lorentzian_dip(x, baseline, depth, center * span, fwhm)
         + np.random.default_rng(seed).uniform(-amplitude, amplitude, points))
    assert_fit_matches_oracle(x, y)


def _noisy_narrow_dips(count=400, seed=0):
    # FWHM of 2 to 4 grid spacings, noise 0.05 to 0.09 of the depth
    rng = np.random.default_rng(seed)
    span = GRID[-1] - GRID[0]
    for _ in range(count):
        x = np.linspace(GRID[0], GRID[-1], rng.integers(19, 31))
        depth = rng.uniform(0.05, 0.5)
        amplitude = rng.uniform(0.05, 0.09) * depth
        y = (lorentzian_dip(x, rng.uniform(0.5, 1.0), depth,
                            rng.uniform(-0.25, 0.25) * span,
                            rng.uniform(2.0, 4.0) * (x[1] - x[0]))
             + rng.uniform(-amplitude, amplitude, x.size))
        yield x, y


def test_fit_stops_at_stationarity_on_noisy_narrow_dips():
    # the undamped Gauss-Newton step left at the answer, in the diag(J^T J)
    # norm of the stopping rule: a damped step that a large lam has made
    # small does not show that the fit has arrived
    worst = 0.0
    for x, y in _noisy_narrow_dips():
        res = fit_lorentzian(x, y)
        got = np.array([res.baseline, res.depth, res.center, res.fwhm])
        jac = _lorentzian_dip_jac(x, got)
        normal = jac.T @ jac
        scale = np.sqrt(np.diag(normal))
        step = np.linalg.solve(normal, -jac.T @ (_lorentzian_dip(x, got) - y))
        worst = max(worst, np.linalg.norm(scale * step) / np.linalg.norm(scale * got))
    assert worst <= 10 * scan_fit.FIT_XTOL


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


def test_dip_measurements_sort_their_points_by_detuning():
    # the half-depth crossings and the fit's initial guess read the
    # detuning axis in order, so a shuffled grid must give the sorted
    # grid's answers, from arrays and from records alike
    y = lorentzian_dip(GRID, 1.0, 0.4, 2 * np.pi * 5e6, W_TRUE)
    order = np.random.default_rng(7).permutation(GRID.size)
    records = [SpectrumRecord(detuning=d, fluorescence=v,
                              marginal=np.zeros((1, 1)), leaked=0.0)
               for d, v in zip(GRID[order], y[order])]
    want = numeric_fwhm_depth(GRID, y)
    assert numeric_fwhm_depth(GRID[order], y[order]) == want
    assert numeric_fwhm_depth(records) == want
    fit = fit_lorentzian(GRID, y)
    for got in (fit_lorentzian(GRID[order], y[order]), fit_lorentzian(records)):
        assert (got.center, got.fwhm, got.depth, got.baseline) == \
            (fit.center, fit.fwhm, fit.depth, fit.baseline)
    with pytest.raises(ValueError, match="one length"):
        numeric_fwhm_depth(GRID, y[:-1])


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


# --------------------------------------------------------------------------
# the scan core: Leja nodes in the rate, one propagation each, serve every
# detuning and pulse time
# --------------------------------------------------------------------------

SCAN_GRID = np.linspace(-2 * np.pi * 150e6, 2 * np.pi * 150e6, 21)
SCAN_TAUS = [2e-4, 6.5e-4, 1.3e-3]


@contextlib.contextmanager
def counted_propagations():
    """Counts calls of the engine's propagator, with their pulse times."""
    calls = []
    integrate = rate_engine._integrate

    def counting(*args, **kwargs):
        calls.append(args[2])
        return integrate(*args, **kwargs)

    rate_engine._integrate = counting
    try:
        yield calls
    finally:
        rate_engine._integrate = integrate


@pytest.fixture
def propagations():
    """Counts calls of the engine's propagator from here to the test's end."""
    with counted_propagations() as calls:
        yield calls


def scan(scenario, detunings, tau_specs):
    return _scan(scenario, detunings, tau_specs, pulses=None)


def distinct_rates(scenario, detunings):
    return len(_rate_groups(np.array(
        [base_rate(scenario.laser, scenario.line, d) for d in detunings])))


def assert_direct(scenario, detunings, tau_specs, per_tau, tol=1e-9):
    """Every record against build_rate_matrix + evolve_series at its detuning."""
    times = np.unique(tau_specs)
    pulses = (pi_pulse(scenario.system, (0, -1)),)
    assert len(per_tau) == len(tau_specs)
    for i, detuning in enumerate(detunings):
        states = evolve_series(build_rate_matrix(scenario, detuning),
                               PopulationState.ground(scenario), times)
        for tau, records in zip(tau_specs, per_tau):
            want = states[int(np.searchsorted(times, tau))]
            got = records[i]
            assert got.detuning == detuning
            assert got.fluorescence == pytest.approx(
                fluorescence_probability(want, *pulses), abs=tol)
            assert got.marginal == pytest.approx(want.motional_marginal(),
                                                 abs=tol)
            assert got.leaked == pytest.approx(want.leaked, abs=tol)
            assert got.leak_flag == (got.leaked > scenario.leak_warn_fraction)


def test_symmetric_grid_one_propagation_per_magnitude(small_scan_scenario,
                                                     propagations, caplog):
    with caplog.at_level(logging.DEBUG, logger="recoilspec.scan_fit"):
        per_tau = scan(small_scan_scenario, SCAN_GRID, SCAN_TAUS)
    # 9 Leja nodes of the 11 distinct rates; the interpolant fills in 2
    assert len(propagations) == 9
    assert "11 distinct rates, 9 propagations" in caplog.text
    for times in propagations:
        assert list(times) == SCAN_TAUS
    assert len(per_tau) == len(SCAN_TAUS)
    for records in per_tau:
        assert [r.detuning for r in records] == list(SCAN_GRID)
        for left, right in zip(records, records[::-1]):
            assert left.fluorescence == right.fluorescence
            assert np.array_equal(left.marginal, right.marginal)
            assert left.leaked == right.leaked
    assert_direct(small_scan_scenario, SCAN_GRID, SCAN_TAUS, per_tau)


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
    r_res = base_rate(sc.laser, sc.line, 0.0)
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
    # 10 Leja nodes of the 11 distinct rates at these two pulse times
    assert len(propagations) == 10
    ordered = width_depth_curves(entries, [1.0, 4.0], SCAN_GRID, fit="numeric")
    assert [r.tau_scaled for r in mixed] == [4.0, 1.0, 4.0]
    assert mixed == [ordered[1], ordered[0], ordered[1]]
    taus = [row.tau_spec for row in ordered]
    assert_direct(small_scan_scenario, SCAN_GRID, taus, scan(
        small_scan_scenario, SCAN_GRID, taus))


def test_preset_scans_match_direct_propagation(mg_scenario, mgh_scenario,
                                               propagations):
    mg_grid = np.linspace(-2 * np.pi * 150e6, 2 * np.pi * 150e6, 31)
    mgh_grid = np.linspace(-2 * np.pi * 300e6, 2 * np.pi * 300e6, 51)
    mgh_taus = list(np.array([500, 2000, 6000, 16400])
                    / scaled_time(1.0, mgh_scenario))
    # the benchmark's two scans; a propagator that stops on fewer Krylov
    # vectors must not make the scans take more Leja nodes
    for sc, grid, taus, made in ((mg_scenario, mg_grid, [1.3e-3], 10),
                                 (mgh_scenario, mgh_grid, mgh_taus, 14)):
        propagations.clear()
        per_tau = scan(sc, grid, taus)
        assert len(propagations) == made
        assert made < distinct_rates(sc, grid)
        assert_direct(sc, grid, taus, per_tau)


@pytest.mark.parametrize("grid, made", [([], 0), ([1e8], 1), ([-1e8, 1e8], 1),
                                        ([0.0], 1)])
def test_scan_edge_cases(small_scan_scenario, propagations, grid, made):
    per_tau = scan(small_scan_scenario, grid, SCAN_TAUS)
    assert len(propagations) == made
    assert [[r.detuning for r in records] for records in per_tau] == \
        [list(grid)] * len(SCAN_TAUS)
    assert_direct(small_scan_scenario, grid, SCAN_TAUS, per_tau)
    if len(grid) == 2:
        assert per_tau[0][0].fluorescence == per_tau[0][1].fluorescence


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scan_rejects_non_finite_detunings(small_scan_scenario, propagations,
                                           bad):
    # a non-finite rate would make the rate range non-finite, and every
    # record would take one node's populations
    grid = 2 * np.pi * np.array([0.0, 30e6, 100e6, bad, np.nan])
    with pytest.raises(ValueError,
                       match=re.escape(f"detunings[3] = {bad} is not finite")):
        readout_spectrum(small_scan_scenario, grid, 1e-3)
    assert not propagations


_SMALL_GRIDS = {"mg": (replace(mg24_ca40(), n_ip_max=5, n_op_max=5), 20.0),
                "mgh": (replace(mgh24_ca40(), n_ip_max=5, n_op_max=5), 2e4)}


@pytest.mark.parametrize("name", sorted(_SMALL_GRIDS))
@settings(max_examples=15, deadline=None)
@given(detunings=st.lists(st.floats(-2 * np.pi * 300e6, 2 * np.pi * 300e6),
                          max_size=12),
       fractions=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=3))
def test_scan_matches_direct_propagation_on_a_small_grid(name, detunings,
                                                         fractions):
    sc, scaled_max = _SMALL_GRIDS[name]
    taus = list(np.array(fractions) * scaled_max / scaled_time(1.0, sc))
    with counted_propagations() as calls:
        per_tau = scan(sc, detunings, taus)
    assert len(calls) <= distinct_rates(sc, detunings)
    assert_direct(sc, detunings, taus, per_tau)


def test_width_curve_without_light_is_rejected(small_scan_scenario):
    # a dark laser has no resonant rate to turn a scaled time into seconds
    dark = small_scan_scenario.with_laser(intensity=0.0)
    with pytest.raises(ValueError, match="resonant absorption rate"):
        width_depth_curves([("dark", dark)], [1.0], SCAN_GRID)


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
