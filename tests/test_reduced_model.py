import time
import timeit
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import reduced_rates_completeness
from recoilspec.coupling import xi_mode_table
from recoilspec.ion_mechanics import lamb_dicke
from recoilspec.presets import mg24_ca40
from recoilspec.radiation import base_rate
from recoilspec.rate_engine import (LeakWarning, PopulationState,
                                    build_rate_matrix, evolve_series,
                                    scaled_time)
from recoilspec.reduced_model import (evolve_three_level, reduced_kernels,
                                      reduced_populations, reduced_signal,
                                      reduced_spectrum)
from recoilspec.scan_fit import fit_lorentzian, readout_spectrum

MHZ = 2 * np.pi * 1e6


def rates_matrix(g_to_e, e_to_g, g_to_aux, e_to_aux) -> np.ndarray:
    return np.array([
        [-(g_to_e + g_to_aux), e_to_g, 0.0],
        [g_to_e, -(e_to_g + e_to_aux), 0.0],
        [g_to_aux, e_to_aux, 0.0],
    ])


def collapsed_rates(scenario, detuning):
    """(g->e, e->g, g->aux, e->aux) from the collapsed engine kernels."""
    k3, c3 = reduced_kernels(scenario)
    g = base_rate(scenario.laser, scenario.line, detuning) * k3 + c3
    return g[1, 0], g[0, 1], g[2, 0], g[2, 1]


# --------------------------------------------------------------------------
# rates
# --------------------------------------------------------------------------

def test_sideband_sums_from_completeness(mg_scenario, mgh_scenario):
    # every rate past the sideband range goes to aux, so the collapse
    # keeps no truncation deficit and matches the completeness oracle
    for sc in (mg_scenario, mgh_scenario):
        for detuning in (0.0, 37 * MHZ, 300 * MHZ):
            got = collapsed_rates(sc, detuning)
            assert got == pytest.approx(reduced_rates_completeness(sc, detuning),
                                        rel=1e-12)
    # completeness itself, against an explicit sum over s != 0
    eta_ip, eta_op = lamb_dicke(mg_scenario.system, mg_scenario.beam, "target")
    t_ip = xi_mode_table(eta_ip, 0, 30)[0] ** 2
    t_op = xi_mode_table(eta_op, 0, 30)[0] ** 2
    explicit = 1.0 - t_ip[30] * t_op[30]
    explicit_sum = np.outer(t_ip, t_op).sum() - t_ip[30] * t_op[30]
    assert explicit_sum == pytest.approx(explicit, abs=1e-9)


def test_probability_conserved_exactly(mg_scenario, mgh_scenario):
    # every column of K3 and C3 sums to zero, aux is absorbing, and
    # every rate between different levels is >= 0
    off_diagonal = ~np.eye(3, dtype=bool)
    for sc in (mg_scenario, mgh_scenario):
        for kernel in reduced_kernels(sc):
            assert kernel.shape == (3, 3)
            assert np.abs(kernel.sum(axis=0)).max() <= 1e-15 * np.abs(kernel).max()
            assert np.all(kernel[:, 2] == 0.0)
            assert np.all(kernel[off_diagonal] >= 0.0)


def test_collapse_is_the_engine_on_a_one_state_grid(mg_scenario, mgh_scenario):
    # on a 1x1 grid the engine's states are g00, e00 and the leak row,
    # which is the aux level; the bound n_max >= 1 is bypassed after
    # construction, since the public scenario rejects this grid
    for sc in (mg_scenario, mgh_scenario):
        one = replace(sc)
        one.n_ip_max = one.n_op_max = 0
        k3, c3 = reduced_kernels(sc)
        for detuning in (0.0, 30 * MHZ):
            engine = build_rate_matrix(one, detuning).dense()
            collapsed = base_rate(sc.laser, sc.line, detuning) * k3 + c3
            assert collapsed == pytest.approx(
                engine, rel=1e-14, abs=1e-16 * np.abs(engine).max())


def test_vanishing_recoil_reduces_to_two_levels():
    sc = mg24_ca40(heat_ip=0.0, heat_op=0.0)
    # stretch the wavelength so the recoil becomes negligible
    line = replace(sc.line, omega_t=sc.line.omega_t * 1e-4)
    sc = replace(sc, line=line, beam=replace(sc.beam, wavelength=279.6e-5))
    g_e, e_g, g_aux, e_aux = collapsed_rates(sc, 0.0)
    assert g_aux < 1e-5 * g_e
    assert e_aux < 1e-5 * e_g


# --------------------------------------------------------------------------
# propagation
# --------------------------------------------------------------------------

# four random rate sets, then a generator with a repeated eigenvalue
_RATE_CASES = [pytest.param(np.exp(np.random.default_rng(seed).uniform(-2, 8, size=4)),
                            id=str(seed)) for seed in range(4)]
_RATE_CASES.append(pytest.param((0.0, 0.0, 5.0, 5.0), id="degenerate"))


@pytest.mark.parametrize("r", _RATE_CASES)
def test_closed_form_matches_matrix_exponential(r):
    # the pair's 2x2 exponential with aux as the remainder, against the
    # full 3x3 exponential
    g = rates_matrix(*r)
    for t in (1e-6, 1e-3, 0.3):
        want = expm(g * t) @ np.array([1.0, 0.0, 0.0])
        assert evolve_three_level(g, t) == pytest.approx(want, abs=1e-10)


def test_aux_is_absorbing(mg_scenario, mgh_scenario):
    st = evolve_three_level(rates_matrix(0.0, 0.0, 0.0, 0.0), 5.0, initial=(0.0, 0.0, 1.0))
    assert st[2] == 1.0
    # and under each preset's resonant generator from the collapsed kernels
    for sc in (mg_scenario, mgh_scenario):
        k3, c3 = reduced_kernels(sc)
        g = base_rate(sc.laser, sc.line, 0.0) * k3 + c3
        st = evolve_three_level(g, 1e-3, initial=(0.0, 0.0, 1.0))
        assert st.tolist() == [0.0, 0.0, 1.0]


@settings(max_examples=40, deadline=None)
@given(detuning=st.floats(0.0, 300 * MHZ), tau_scaled=st.floats(0.1, 20.0),
       contrast=st.floats(0.0, 1.0))
def test_reduced_populations_are_a_distribution(mg_scenario, detuning,
                                                tau_scaled, contrast):
    tau = tau_scaled / scaled_time(1.0, mg_scenario)
    p = reduced_populations(mg_scenario, [detuning, -detuning], tau)
    assert p.min() >= -1e-12
    assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12
    # the 3x3 exponential of the collapsed generator gives the same
    # populations, up to its scaling-and-squaring error at this stiffness
    k3, c3 = reduced_kernels(mg_scenario)
    rate = base_rate(mg_scenario.laser, mg_scenario.line, detuning)
    assert p[0] == pytest.approx(expm((rate * k3 + c3) * tau)[:, 0], abs=1e-9)
    plus, minus = reduced_spectrum(mg_scenario, [detuning, -detuning], tau, contrast)
    assert plus.fluorescence == pytest.approx(minus.fluorescence, abs=1e-12)
    assert 1.0 - contrast - 1e-12 <= plus.fluorescence <= 1.0 + 1e-12


def test_signal_mapping():
    assert reduced_signal((0.6, 0.4, 0.0)) == pytest.approx(1.0)
    assert reduced_signal((0.0, 0.0, 1.0), contrast=0.5) == 0.5
    assert reduced_signal((0.0, 0.0, 1.0), contrast=1.0) == 0.0
    with pytest.raises(ValueError):
        reduced_signal((1.0, 0.0, 0.0), contrast=1.5)


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
    k3, c3 = reduced_kernels(mg_scenario)
    g = base_rate(mg_scenario.laser, mg_scenario.line, 0.0) * k3 + c3
    for t, state in zip(times, full):
        p_full = state.motional_marginal()[0, 0]
        red = expm(g * t)[:, 0]
        p_red = red[0] + red[1]
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
    t0 = time.perf_counter()
    for detuning in grid[grid.size // 2:]:
        evolve_series(build_rate_matrix(mg_scenario, detuning), ground, [tau])
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
