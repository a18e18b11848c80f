import time
import timeit
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from recoilspec.coupling import xi_mode_table
from recoilspec.presets import mg24_ca40
from recoilspec.radiation import base_rate
from recoilspec.rate_engine import (LeakWarning, PopulationState,
                                    build_rate_matrix, evolve, evolve_series,
                                    scaled_time)
from recoilspec.reduced_model import (ReducedRates, ThreeLevelState,
                                      evolve_reduced, reduced_rates,
                                      reduced_signal, reduced_spectrum)
from recoilspec.scan_fit import fit_lorentzian, readout_spectrum


def rates_matrix(r: ReducedRates) -> np.ndarray:
    return np.array([
        [-(r.g_to_e + r.g_to_aux), r.e_to_g, 0.0],
        [r.g_to_e, -(r.e_to_g + r.e_to_aux), 0.0],
        [r.g_to_aux, r.e_to_aux, 0.0],
    ])


# --------------------------------------------------------------------------
# rates
# --------------------------------------------------------------------------

def test_sideband_sums_from_completeness(mg_scenario):
    r = reduced_rates(mg_scenario, 0.0)
    x_ip, x_op = mg_scenario.laser_coupling()
    carrier = x_ip[0, mg_scenario.s_ip_max] * x_op[0, mg_scenario.s_op_max]
    r_abs = base_rate(mg_scenario.laser, mg_scenario.line, 0.0)
    want = r_abs * (1.0 - carrier) + mg_scenario.heat_ip + mg_scenario.heat_op
    assert r.g_to_aux == pytest.approx(want, rel=1e-12)
    # the same sideband weight from an explicit sum over s != 0
    eta_ip, eta_op = mg_scenario.laser_eta()
    t_ip = xi_mode_table(eta_ip, 0, 30)[0] ** 2
    t_op = xi_mode_table(eta_op, 0, 30)[0] ** 2
    explicit = 1.0 - t_ip[30] * t_op[30]
    explicit_sum = np.outer(t_ip, t_op).sum() - t_ip[30] * t_op[30]
    assert explicit_sum == pytest.approx(explicit, abs=1e-9)


def test_vanishing_recoil_reduces_to_two_levels():
    sc = mg24_ca40(heat_ip=0.0, heat_op=0.0)
    # stretch the wavelength so the recoil becomes negligible
    line = replace(sc.line, omega_t=sc.line.omega_t * 1e-4)
    sc = replace(sc, line=line, beam=replace(sc.beam, wavelength=279.6e-5))
    r = reduced_rates(sc, 0.0)
    assert r.g_to_aux < 1e-5 * r.g_to_e
    assert r.e_to_aux < 1e-5 * r.e_to_g


# --------------------------------------------------------------------------
# propagation
# --------------------------------------------------------------------------

# four random rate sets, then a generator with a repeated eigenvalue
_RATE_CASES = [pytest.param(ReducedRates(*np.exp(
    np.random.default_rng(seed).uniform(-2, 8, size=4))), id=str(seed))
    for seed in range(4)]
_RATE_CASES.append(pytest.param(ReducedRates(0.0, 0.0, 5.0, 5.0), id="degenerate"))


@pytest.mark.parametrize("r", _RATE_CASES)
def test_closed_form_matches_matrix_exponential(r):
    for t in (1e-6, 1e-3, 0.3):
        state = evolve_reduced(r, t)
        want = scipy.linalg.expm(rates_matrix(r) * t) @ np.array([1.0, 0.0, 0.0])
        got = np.array([state.p_g0, state.p_e0, state.p_aux])
        assert got == pytest.approx(want, abs=1e-10)


def test_probability_conserved_exactly():
    r = ReducedRates(g_to_e=1e3, e_to_g=2e3, g_to_aux=40.0, e_to_aux=70.0)
    for t in np.geomspace(1e-6, 1.0, 7):
        st = evolve_reduced(r, t)
        assert st.p_g0 + st.p_e0 + st.p_aux == pytest.approx(1.0, abs=1e-12)


def test_aux_is_absorbing():
    r = ReducedRates(g_to_e=0.0, e_to_g=0.0, g_to_aux=0.0, e_to_aux=0.0)
    st = evolve_reduced(r, 5.0, initial=(0.0, 0.0, 1.0))
    assert st.p_aux == 1.0


def test_signal_mapping():
    assert reduced_signal(ThreeLevelState(0.6, 0.4, 0.0)) == pytest.approx(1.0)
    assert reduced_signal(ThreeLevelState(0.0, 0.0, 1.0), contrast=0.5) == 0.5
    assert reduced_signal(ThreeLevelState(0.0, 0.0, 1.0), contrast=1.0) == 0.0
    with pytest.raises(ValueError):
        reduced_signal(ThreeLevelState(1.0, 0.0, 0.0), contrast=1.5)


# --------------------------------------------------------------------------
# agreement with the full engine
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def mg_full_spectrum(mg_scenario):
    grid = np.linspace(-2 * np.pi * 150e6, 2 * np.pi * 150e6, 41)
    tau = 2.23 / scaled_time(1.0, mg_scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakWarning)
        records = readout_spectrum(mg_scenario, grid, tau)
    return grid, tau, records


def test_ground_depletion_timescale_close_to_full_model(mg_scenario):
    rate = scaled_time(1.0, mg_scenario)
    times = np.array([1.0, 2.0, 3.0]) / rate
    matrix = build_rate_matrix(mg_scenario, 0.0)
    full = evolve_series(matrix, PopulationState.ground(mg_scenario), times)
    r = reduced_rates(mg_scenario, 0.0)
    for t, st in zip(times, full):
        p_full = st.motional_marginal()[0, 0]
        red = evolve_reduced(r, t)
        p_red = red.p_g0 + red.p_e0
        k_full = -np.log(p_full) / t
        k_red = -np.log(p_red) / t
        assert k_red == pytest.approx(k_full, rel=0.25)


def test_reduced_spectrum_width_close_to_full(mg_scenario, mg_full_spectrum):
    grid, tau, records = mg_full_spectrum
    full_fit = fit_lorentzian(records)
    red_fit = fit_lorentzian(reduced_spectrum(mg_scenario, grid, tau))
    assert red_fit.fwhm == pytest.approx(full_fit.fwhm, rel=0.30)


def test_reduced_model_is_much_faster(mg_scenario, mg_full_spectrum):
    grid, tau, _ = mg_full_spectrum
    # the full model is one propagation per distinct |detuning| (21 on this
    # grid), timed directly: a scan interpolates in the rate and propagates
    # fewer, so its time would fall with its interpolation, not the model
    ground = PopulationState.ground(mg_scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakWarning)
        t0 = time.perf_counter()
        for detuning in grid[grid.size // 2:]:
            evolve(build_rate_matrix(mg_scenario, detuning), ground, tau)
        full_elapsed = time.perf_counter() - t0
    # the best of five calls, as timeit takes it: one call of a few ms
    # is within the scheduler's noise
    red_elapsed = min(timeit.repeat(lambda: reduced_spectrum(mg_scenario, grid, tau),
                                    repeat=5, number=1))
    assert full_elapsed / red_elapsed > 100.0


def test_reduced_records_schema(mg_scenario):
    grid = np.linspace(-2 * np.pi * 100e6, 2 * np.pi * 100e6, 9)
    records = reduced_spectrum(mg_scenario, grid, 1e-4)
    for r in records:
        assert 0.0 <= r.fluorescence <= 1.0
        assert r.leaked == 0.0
        assert r.marginal.shape == mg_scenario.grid_shape
        assert r.marginal[0, 0] <= 1.0
