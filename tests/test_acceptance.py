"""End-to-end acceptance checks with pinned tolerances.

Each test covers one numbered criterion and prints a PASS/FAIL line
(visible with `pytest -s`); the assertions carry the same tolerances.
Heavy detuning scans are shared through module-scoped fixtures.
"""

import time
import warnings

import numpy as np
import pytest

from recoilspec.coupling import xi_mode, xi_mode_table
from recoilspec.ion_mechanics import BeamGeometry, lamb_dicke
from recoilspec.presets import mg24_ca40, mgh24_ca40
from recoilspec.radiation import (composite_target_lineshape,
                                  effective_saturation_intensity)
from recoilspec.rate_engine import (LeakWarning, PopulationState,
                                    build_rate_matrix, evolve, evolve_series,
                                    scaled_time)
from recoilspec.readout import pi_pulse
from recoilspec.scan_fit import (fit_lorentzian, numeric_fwhm_depth,
                                 readout_spectrum, width_depth_curves)

from oracles import expm_populations, gaussian_profile_fwhm, xi_double_sum_mode

WORKERS = 2
GAMMA_MG = 2 * np.pi * 41.8e6
MHZ = 2 * np.pi * 1e6


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"acceptance {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def spectrum(scenario, detunings, tau_spec, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakWarning)
        return readout_spectrum(scenario, detunings, tau_spec,
                                workers=WORKERS, **kw)


# --------------------------------------------------------------------------
# 1. mode frequencies
# --------------------------------------------------------------------------

def test_criterion_1_mode_frequencies(mg_scenario, mgh_scenario):
    got = np.array([mg_scenario.system.omega_ip, mg_scenario.system.omega_op,
                    mgh_scenario.system.omega_ip, mgh_scenario.system.omega_op])
    want = 2 * np.pi * np.array([162.9e3, 300.2e3, 162.0e3, 295.7e3])
    err = np.abs(got / want - 1.0).max()
    report("1 (mode frequencies)", err < 1e-3, f"max deviation {err:.2e}")


# --------------------------------------------------------------------------
# 2. Lamb-Dicke parameters
# --------------------------------------------------------------------------

def test_criterion_2_lamb_dicke(mg_scenario, mgh_scenario):
    checks = [
        (lamb_dicke(mg_scenario.system, BeamGeometry(279.6e-9, 1.0), "target"),
         (0.42, 0.51)),
        (lamb_dicke(mg_scenario.system, mg_scenario.beam, "target"),
         (0.30, 0.36)),
        (lamb_dicke(mg_scenario.system, BeamGeometry(729e-9, 1.0), "readout"),
         (0.204, 0.0917)),
        (lamb_dicke(mgh_scenario.system, mgh_scenario.beam, "target"),
         (0.0136, 0.0159)),
        (lamb_dicke(mgh_scenario.system, BeamGeometry(729e-9, 1.0), "readout"),
         (0.203, 0.0949)),
    ]
    errs = [abs(g / w - 1.0) for got, want in checks for g, w in zip(got, want)]
    report("2 (Lamb-Dicke parameters)", max(errs) < 0.02,
           f"max deviation {max(errs):.2%} over {len(errs)} values")


# --------------------------------------------------------------------------
# 3. saturation intensities
# --------------------------------------------------------------------------

def test_criterion_3_saturation_intensities(mg_scenario, mgh_scenario):
    i_mg = effective_saturation_intensity(mg_scenario.line)
    i_mgh = effective_saturation_intensity(mgh_scenario.line,
                                           mgh_scenario.laser.sigma)
    err = max(abs(i_mg / 0.749e4 - 1.0), abs(i_mgh / 3.40 - 1.0))
    report("3 (saturation intensities)", err < 0.01,
           f"Mg {i_mg / 1e4:.4f} W/cm^2, MgH {i_mgh:.3f} W/m^2, max dev {err:.2%}")


# --------------------------------------------------------------------------
# 4. scaled times
# --------------------------------------------------------------------------

def test_criterion_4_scaled_times(mg_scenario, mgh_scenario):
    pairs = [(scaled_time(t, mg_scenario), want)
             for t, want in ((1.3e-3, 2.23), (3.6e-3, 6.2), (5.3e-3, 9.10))]
    pairs += [(scaled_time(t, mgh_scenario), want)
              for t, want in ((10e-3, 3280.0), (50e-3, 16400.0))]
    err = max(abs(g / w - 1.0) for g, w in pairs)
    report("4 (scaled times)", err < 0.02, f"max deviation {err:.2%}")


# --------------------------------------------------------------------------
# 5. composite lineshape
# --------------------------------------------------------------------------

def test_criterion_5_composite_lineshape():
    _, fwhm = composite_target_lineshape(GAMMA_MG, 2 * np.pi * 3e6,
                                         2 * np.pi * 6.1e6)
    err = abs(fwhm / (2 * np.pi * 42.5e6) - 1.0)
    report("5 (composite lineshape)", err < 0.02,
           f"FWHM {fwhm / (2 * np.pi * 1e6):.2f} MHz vs 42.5 MHz")


# --------------------------------------------------------------------------
# 6. line-limit of the fitted width at vanishing scaled time
# --------------------------------------------------------------------------

def _extrapolate_to_zero(tau_values, widths):
    slope, intercept = np.polyfit(tau_values, widths, 1)
    return intercept


@pytest.fixture(scope="module")
def mg_small_tau_widths(mg_scenario):
    grid = np.linspace(-2 * np.pi * 120e6, 2 * np.pi * 120e6, 101)
    taus = np.array([0.1, 0.2])
    t0 = time.perf_counter()
    widths = []
    for ts in taus:
        records = spectrum(mg_scenario, grid, ts / scaled_time(1.0, mg_scenario))
        widths.append(fit_lorentzian(records).fwhm)
    return taus, np.array(widths), time.perf_counter() - t0


def test_criterion_6_mg_width_limit(mg_scenario, mg_small_tau_widths):
    taus, widths, elapsed = mg_small_tau_widths
    w0 = _extrapolate_to_zero(taus, widths)
    err = abs(w0 / GAMMA_MG - 1.0)
    ok = err < 0.05 and elapsed < 300.0
    report("6 (Mg width limit)", ok,
           f"extrapolated FWHM {w0 / (2 * np.pi * 1e6):.2f} MHz vs 41.8 MHz, "
           f"{elapsed:.0f} s for 2 x 101-point scans")


@pytest.mark.parametrize("gamma_l_hz", [10e6, 50e6, 100e6])
def test_criterion_6_mgh_width_limit(gamma_l_hz):
    scenario = mgh24_ca40(laser_fwhm=2 * np.pi * gamma_l_hz)
    grid = np.linspace(-3 * 2 * np.pi * gamma_l_hz, 3 * 2 * np.pi * gamma_l_hz, 101)
    taus = np.array([100.0, 300.0])
    t0 = time.perf_counter()
    widths = []
    for ts in taus:
        records = spectrum(scenario, grid, ts / scaled_time(1.0, scenario))
        widths.append(numeric_fwhm_depth(records)[0])
    elapsed = time.perf_counter() - t0
    w0 = _extrapolate_to_zero(taus, np.array(widths))
    err = abs(w0 / (2 * np.pi * gamma_l_hz) - 1.0)
    ok = err < 0.20 and elapsed < 300.0
    report(f"6 (MgH width limit, {gamma_l_hz / 1e6:.0f} MHz laser)", ok,
           f"extrapolated FWHM {w0 / (2 * np.pi * 1e6):.2f} MHz vs "
           f"{gamma_l_hz / 1e6:.0f} MHz, {elapsed:.0f} s")


# --------------------------------------------------------------------------
# 7. structural figure checks
# --------------------------------------------------------------------------

def test_criterion_7a_ground_state_monotone(mg_scenario, mgh_scenario):
    details = []
    ok = True
    for name, sc, t_max in (("Mg", mg_scenario, 5.3e-3),
                            ("MgH", mgh_scenario, 50e-3)):
        times = np.linspace(t_max / 12, t_max, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LeakWarning)
            states = evolve_series(build_rate_matrix(sc, 0.0),
                                   PopulationState.ground(sc), times)
        p00 = np.array([st.motional_marginal()[0, 0] for st in states])
        ok &= bool(np.all(np.diff(p00) < 0))
        details.append(f"{name} p00 {p00[0]:.3f}->{p00[-1]:.3f}")
        # excited motional states grow linearly at early times
        early = np.array([1e-3, 2e-3]) * t_max
        s_early = evolve_series(build_rate_matrix(sc, 0.0),
                                PopulationState.ground(sc), early)
        p01 = [st.motional_marginal()[0, 1] for st in s_early]
        ok &= abs(p01[1] / p01[0] - 2.0) < 0.15
    report("7a (monotone ground-state depletion)", ok, "; ".join(details))


@pytest.fixture(scope="module")
def mg_saturated_spectrum(mg_scenario):
    grid = np.linspace(-2 * np.pi * 150e6, 2 * np.pi * 150e6, 51)
    tau = 9.10 / scaled_time(1.0, mg_scenario)
    return grid, spectrum(mg_scenario, grid, tau)


def test_criterion_7b_dip_fills_in(mg_saturated_spectrum):
    grid, records = mg_saturated_spectrum
    fluor = np.array([r.fluorescence for r in records])
    p01 = np.array([r.marginal[0, 1] for r in records])
    i_center = int(np.argmin(np.abs(grid)))
    no_bump = bool(np.all(fluor[i_center] <= fluor + 1e-12))
    population_dips = p01[i_center] < 0.8 * p01.max()
    report("7b (no central bump in fluorescence)", no_bump and population_dips,
           f"P_gr(0) = {fluor[i_center]:.3f} is the minimum; "
           f"p01(0)/p01_max = {p01[i_center] / p01.max():.2f}")


@pytest.fixture(scope="module")
def mg_width_curve(mg_scenario):
    grid = np.linspace(-2 * np.pi * 150e6, 2 * np.pi * 150e6, 51)
    taus = [1.0, 2.23, 4.0, 6.2, 9.1]
    rows = width_depth_curves([("mg", mg_scenario)], taus, grid,
                              fit="lorentzian", workers=WORKERS)
    return np.array(taus), rows


@pytest.fixture(scope="module")
def mgh_width_curve(mgh_scenario):
    grid = np.linspace(-2 * np.pi * 300e6, 2 * np.pi * 300e6, 51)
    taus = [500.0, 2000.0, 6000.0, 16400.0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakWarning)
        rows = width_depth_curves([("mgh", mgh_scenario)], taus, grid,
                                  fit="numeric", workers=WORKERS)
    return np.array(taus), rows


def _linear_r2(x, y):
    coef = np.polyfit(x, y, 1)
    resid = y - np.polyval(coef, x)
    return 1.0 - (resid @ resid) / ((y - y.mean()) @ (y - y.mean()))


def _curve_checks(taus, rows):
    """Widths grow; depths rise with falling slope and stay below 1."""
    fwhm = np.array([r.fwhm for r in rows])
    depth = np.array([r.depth for r in rows])
    slopes = np.diff(depth) / np.diff(taus)
    ok = (bool(np.all(np.diff(fwhm) > 0))
          and bool(np.all(slopes > 0)) and bool(np.all(np.diff(slopes) < 0))
          and depth[-1] < 1.0)
    return ok, fwhm, depth


def test_criterion_7c_mg_curve(mg_width_curve):
    taus, rows = mg_width_curve
    ok, fwhm, depth = _curve_checks(taus, rows)
    r2 = _linear_r2(taus, fwhm)
    report("7c (Mg width growth, depth saturation)", ok and r2 > 0.95,
           f"FWHM R^2 {r2:.3f}, depth saturates at {depth[-1]:.2f}")


def test_criterion_7c_mgh_curve(mgh_scenario, mgh_width_curve):
    # With a Gaussian laser far broader than the line, the signal at
    # detuning delta is the resonant signal at intensity scaled by
    # exp(-delta^2 / 2 sigma_L^2), so once the depth saturates the width
    # grows like sqrt(ln tau), not linearly (a straight line through the
    # exact widths has R^2 0.888).  The scan widths are judged against
    # that exact law instead (oracles.gaussian_profile_fwhm), within 2 MHz,
    # a sixth of the 12 MHz grid spacing.
    # The 16400 point leaks 13.0% at resonance on the 20x20 grid and is
    # flagged; raising n_max from 19 to 27 cuts the leak to 3.7% while the
    # exact FWHM moves 100.68 -> 100.71 MHz (84.99 -> 85.01 at 6000) and
    # the depth 0.3995 -> 0.3991, so the truncation does not shape the curve.
    taus, rows = mgh_width_curve
    ok, fwhm, depth = _curve_checks(taus, rows)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakWarning)
        exact = np.array([gaussian_profile_fwhm(mgh_scenario, t) for t in taus])
    worst = np.abs(fwhm - exact).max()
    ok = ok and worst < 2.0 * MHZ
    points = ", ".join(f"{w / MHZ:.1f}/{e / MHZ:.1f} MHz leak {r.max_leaked:.3f}"
                       for w, e, r in zip(fwhm, exact, rows))
    report("7c (MgH width growth, depth saturation)", ok,
           f"scan/exact FWHM {points}; worst |diff| {worst / MHZ:.2f} MHz, "
           f"depth saturates at {depth[-1]:.2f}")


def test_criterion_7d_two_pulse_contrast(mg_scenario):
    scenario = mg24_ca40(intensity_sat_units=1.3e-5)
    grid = np.linspace(-2 * np.pi * 150e6, 2 * np.pi * 150e6, 41)
    pulse_op = pi_pulse(scenario.system, (0, -1))
    pulse_ip = pi_pulse(scenario.system, (-1, 0))
    single = spectrum(scenario, grid, 1.6e-3, pulses=(pulse_op,))
    double = spectrum(scenario, grid, 1.6e-3, pulses=(pulse_op, pulse_ip))
    d1 = fit_lorentzian(single).depth
    d2 = fit_lorentzian(double).depth
    gain = d2 / d1 - 1.0
    report("7d (two-pulse contrast gain)", 0.30 < gain < 0.70,
           f"depth {d1:.3f} -> {d2:.3f}, +{gain:.0%}")


# --------------------------------------------------------------------------
# 8. oracle equivalences
# --------------------------------------------------------------------------

def test_criterion_8_oracles(mg_scenario):
    # coupling amplitudes: Laguerre polynomials vs factorial double sum
    worst = 0.0
    for eta in (0.30, 0.36, 0.204, 0.0917):
        for n in range(26):
            for s in range(-6, 7):
                if n + s < 0:
                    continue
                diff = abs(xi_mode(eta, n, s) - xi_double_sum_mode(eta, n, s))
                worst = max(worst, diff)
    ok = worst < 1e-10
    # sideband completeness
    comp = abs(1.0 - (xi_mode_table(0.51, 5, 40)[5] ** 2).sum())
    ok &= comp < 1e-6
    # emission-coefficient completeness on the Mg grid
    d_table = mg_scenario.d_table()
    d_err = max(abs(1.0 - d_table[i, j].sum())
                for i in range(6) for j in range(6))
    ok &= d_err < 1e-5
    # the Krylov propagator vs dense matrix exponential on an 8x8 grid
    from dataclasses import replace
    small = replace(mg_scenario, n_ip_max=7, n_op_max=7)
    matrix = build_rate_matrix(small, 2 * np.pi * 10e6)
    ground = PopulationState.ground(small)
    exact = expm_populations(matrix, ground.to_vector(), [1.3e-3])[:, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakWarning)
        got = evolve(matrix, ground, 1.3e-3).to_vector()
    int_err = np.abs(got - exact).max()
    ok &= int_err < 1e-8
    # probability conservation along a full-scenario trajectory
    times = np.linspace(5.3e-4, 5.3e-3, 6)
    states = evolve_series(build_rate_matrix(mg_scenario, 0.0),
                           PopulationState.ground(mg_scenario), times)
    cons_err = max(abs(st.total() - 1.0) for st in states)
    ok &= cons_err < 1e-7
    report("8 (oracle equivalences)", ok,
           f"xi {worst:.1e}, completeness {comp:.1e}, D {d_err:.1e}, "
           f"integrator {int_err:.1e}, conservation {cons_err:.1e}")


# --------------------------------------------------------------------------
# 9. scaled-time collapse
# --------------------------------------------------------------------------

def test_criterion_9_scaled_time_collapse():
    base = mg24_ca40(intensity_sat_units=6.54e-6, heat_ip=0.0, heat_op=0.0)
    double = mg24_ca40(intensity_sat_units=2 * 6.54e-6, heat_ip=0.0, heat_op=0.0)
    tau = 1.3e-3
    s1 = evolve(build_rate_matrix(base, 0.0, include_spontaneous=False),
                PopulationState.ground(base), tau)
    s2 = evolve(build_rate_matrix(double, 0.0, include_spontaneous=False),
                PopulationState.ground(double), tau / 2)
    err = max(np.abs(s1.p - s2.p).max(), abs(s1.leaked - s2.leaked))
    report("9 (scaled-time collapse)", err < 1e-6,
           f"max state difference {err:.2e}")
