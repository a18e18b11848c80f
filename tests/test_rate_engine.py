import json
import logging
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

import recoilspec
from recoilspec import cli, rate_engine
from recoilspec.coupling import xi_mode_table
from recoilspec.presets import mg24_ca40, mgh24_ca40
from recoilspec.ion_mechanics import BeamGeometry, lamb_dicke
from recoilspec.radiation import EmissionPattern, TransitionLine, base_rate
from recoilspec.rate_engine import (PopulationState, build_rate_matrix,
                                    evolve_series, scaled_time)
from recoilspec.reduced_model import reduced_kernels
from recoilspec.scan_fit import readout_spectrum

from oracles import (expm_populations, generator_loop, heating_kernel_loop,
                     heating_only_state, in_grid_block, sphere_d_table,
                     xi_double_sum_mode)


def small_mg(n_max=7, **kw):
    return replace(mg24_ca40(**kw), n_ip_max=n_max, n_op_max=n_max)


# --------------------------------------------------------------------------
# generator structure
# --------------------------------------------------------------------------

def test_dark_cold_trap_gives_zero_generator():
    sc = small_mg(intensity_sat_units=0.0, heat_ip=0.0, heat_op=0.0)
    matrix = build_rate_matrix(sc, 0.0, include_spontaneous=False)
    assert abs(matrix.dense()).max() == 0.0


def test_nan_detuning_is_rejected_and_an_infinite_one_is_dark():
    # a NaN rate would run the propagator to its basis limit before failing
    sc = small_mg(n_max=3)
    with pytest.raises(ValueError, match="detuning nan "):
        build_rate_matrix(sc, np.nan)
    dark = build_rate_matrix(small_mg(n_max=3, intensity_sat_units=0.0), 0.0)
    for detuning in (np.inf, -np.inf):
        matrix = build_rate_matrix(sc, detuning)
        assert matrix.rates[:2] == (0.0, 0.0)
        assert np.array_equal(matrix.dense(), dark.dense())


def test_build_rate_matrix_allocates_no_square(mg_scenario):
    # the generator is the scenario's cached jump blocks and three rates; a
    # (2 n_mot + 1)^2 array per detuning would take 5.1 MB on this 20x20 grid
    build_rate_matrix(mg_scenario, 0.0)  # the scenario caches its blocks
    tracemalloc.start()
    try:
        build_rate_matrix(mg_scenario, 2 * np.pi * 20e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_leak_row_collects_out_of_grid_flow():
    sc = small_mg(n_max=2)
    gen = build_rate_matrix(sc, 0.0).dense()
    leak = sc.leak_index
    assert gen[leak].sum() > 0.0          # something routes off-grid
    assert np.all(gen[:, leak] == 0.0)    # and the leak row is absorbing


@pytest.mark.parametrize("include_spontaneous", [True, False])
@pytest.mark.parametrize("detuning_mhz", [0.0, 30.0, -30.0])
@pytest.mark.parametrize("make", [mg24_ca40, mgh24_ca40])
def test_generator_matches_state_by_state_oracle(make, detuning_mhz,
                                                 include_spontaneous):
    # r K + C against a loop over states and sidebands in which absorption
    # and stimulated emission each have their own rate and channel scale
    sc = make(n_ip_max=2, n_op_max=3, s_ip_max=2, s_op_max=3)
    detuning = 2 * np.pi * detuning_mhz * 1e6
    built = build_rate_matrix(sc, detuning, include_spontaneous).dense()
    oracle = generator_loop(sc, detuning, include_spontaneous)
    assert np.abs(built - oracle).max() <= 1e-12 * np.abs(oracle).max()


# small grids of both presets, each with a delta and a 50 MHz Gaussian laser
_MIRROR_SCENARIOS = {
    f"{name}-{laser}": replace(make(), n_ip_max=5, n_op_max=4).with_laser(
        fwhm=2 * np.pi * 50e6 if laser == "gaussian" else 0.0)
    for name, make in (("mg", mg24_ca40), ("mgh", mgh24_ca40))
    for laser in ("delta", "gaussian")}


@pytest.mark.parametrize("name", sorted(_MIRROR_SCENARIOS))
@settings(max_examples=25, deadline=None)
@given(detuning=st.floats(0.0, 2 * np.pi * 500e6))
def test_generator_even_in_detuning(name, detuning):
    # scan_fit gives a detuning and its mirror image one record; that is exact
    # only while the generator is even in the detuning, bit for bit
    sc = _MIRROR_SCENARIOS[name]
    plus = build_rate_matrix(sc, detuning).dense()
    minus = build_rate_matrix(sc, -detuning).dense()
    assert np.array_equal(plus, minus)


# --------------------------------------------------------------------------
# toy-grid oracle: 2 internal x 2 motional states, one active mode
# --------------------------------------------------------------------------

# state indices of the active subspace on the 2x2 toy grid (frozen ip mode):
# g(0,0), g(0,1), e(0,0), e(0,1), leak
_TOY_ACTIVE = [0, 1, 4, 5, 8]


def _frozen_ip_scenario(r_abs_over_stim=1.0, eta_op=0.3):
    """Scenario whose in-phase mode is frozen to its carrier.

    With a 2x2 grid and no in-phase coupling, the dynamics started in
    g(0,0) lives on four states plus the leak row, which the tests solve
    independently from the double-sum couplings.  The tests build the
    generator without spontaneous emission.
    """
    from dataclasses import replace
    sc = mg24_ca40(intensity_sat_units=1e-6, heat_ip=0.0, heat_op=0.0)
    line = TransitionLine(omega_t=sc.line.omega_t, gamma_t=sc.line.gamma_t,
                          absorption_scale=0.5 * r_abs_over_stim,
                          stimulated_scale=0.5)
    sc = replace(sc, line=line, n_ip_max=1, n_op_max=1, s_ip_max=1, s_op_max=1)
    frozen = np.zeros((2, 3))
    frozen[:, 1] = 1.0  # carrier only, both n
    sc._cache["xi2"] = (frozen, xi_mode_table(eta_op, 1, 1) ** 2)
    return sc


def _stimulated_rate(sc):
    """Resonant stimulated-emission rate: rho times the absorption base rate."""
    rho = sc.line.stimulated_scale / sc.line.absorption_scale
    return rho * base_rate(sc.laser, sc.line, 0.0)


def _toy_oracle_generator(sc, eta_op):
    """Hand-built generator on the active subspace, from oracle couplings.

    Each laser channel's weight past s = +-1 (1 less the weights kept)
    goes to the leak row along with the off-grid jump (0,1) -> (0,2)."""
    c = [abs(xi_double_sum_mode(eta_op, n, 0)) ** 2 for n in (0, 1)]
    x01 = abs(xi_double_sum_mode(eta_op, 0, 1)) ** 2
    y12 = abs(xi_double_sum_mode(eta_op, 1, 1)) ** 2
    past = [1.0 - c[0] - x01, 1.0 - x01 - c[1] - y12]
    r_a = base_rate(sc.laser, sc.line, 0.0)
    r_s = _stimulated_rate(sc)
    g = np.zeros((5, 5))
    # order: g(0,0), g(0,1), e(0,0), e(0,1), leak
    for src, dst, rate in [
            (0, 2, r_a * c[0]), (0, 3, r_a * x01), (0, 4, r_a * past[0]),
            (1, 2, r_a * x01), (1, 3, r_a * c[1]),
            (1, 4, r_a * (y12 + past[1])),
            (2, 0, r_s * c[0]), (2, 1, r_s * x01), (2, 4, r_s * past[0]),
            (3, 0, r_s * x01), (3, 1, r_s * c[1]),
            (3, 4, r_s * (y12 + past[1]))]:
        g[dst, src] += rate
        g[src, src] -= rate
    return g


def test_toy_grid_matches_hand_built_generator():
    sc = _frozen_ip_scenario(eta_op=0.3)
    built = build_rate_matrix(sc, 0.0, include_spontaneous=False).dense()
    oracle = _toy_oracle_generator(sc, 0.3)
    got = built[np.ix_(_TOY_ACTIVE, _TOY_ACTIVE)]
    assert got == pytest.approx(oracle, rel=1e-10, abs=1e-8)
    # nothing flows from the active subspace into the frozen one
    inactive = [i for i in range(9) if i not in _TOY_ACTIVE]
    assert abs(built[np.ix_(inactive, _TOY_ACTIVE)]).max() == 0.0


def test_toy_grid_quasistationary_state():
    # long-time in-grid distribution = dominant eigenvector of the oracle
    sc = _frozen_ip_scenario(eta_op=0.3)
    oracle = _toy_oracle_generator(sc, 0.3)[:4, :4]
    vals, vecs = np.linalg.eig(oracle)
    lead = vecs[:, np.argmax(vals.real)].real
    lead = lead / lead.sum()
    matrix = build_rate_matrix(sc, 0.0, include_spontaneous=False)
    state = PopulationState.ground(sc)
    # the slowest relaxation is motional mixing at the sideband rate
    t_relax = 150.0 / _stimulated_rate(sc)
    final = expm_populations(matrix, state.to_vector(), [t_relax])[:, 0]
    in_grid = final[_TOY_ACTIVE[:4]]
    assert in_grid / in_grid.sum() == pytest.approx(lead, abs=1e-8)


def test_toy_grid_detailed_balance_ratio():
    # small recoil, negligible leak: stationary excited/ground ratio on every
    # edge approaches R_abs / R_stim
    ratio = 0.5
    sc = _frozen_ip_scenario(r_abs_over_stim=ratio, eta_op=0.02)
    matrix = build_rate_matrix(sc, 0.0, include_spontaneous=False)
    t_relax = 80.0 / _stimulated_rate(sc)
    p = expm_populations(matrix, PopulationState.ground(sc).to_vector(),
                         [t_relax])[:, 0]
    # the open boundary skews the balance at O(|xi(1->2)|^2 / carrier)
    assert p[4] / p[0] == pytest.approx(ratio, rel=2e-3)   # e(0,0) / g(0,0)
    assert p[5] / p[1] == pytest.approx(ratio, rel=1e-2)   # e(0,1) / g(0,1)


# --------------------------------------------------------------------------
# evolution
# --------------------------------------------------------------------------

def test_zero_generator_keeps_state():
    sc = small_mg(intensity_sat_units=0.0, heat_ip=0.0, heat_op=0.0)
    matrix = build_rate_matrix(sc, 0.0, include_spontaneous=False)
    state = PopulationState.ground(sc)
    out = evolve_series(matrix, state, [1.0])[0]
    assert out.p == pytest.approx(state.p, abs=1e-12)
    assert out.leaked == 0.0


def test_heating_ladder_first_order():
    sc = small_mg(intensity_sat_units=0.0, heat_ip=0.0, heat_op=1.7)
    matrix = build_rate_matrix(sc, 0.0, include_spontaneous=False)
    t = 1e-4
    out = evolve_series(matrix, PopulationState.ground(sc), [t])[0]
    assert out.p[0, 0, 1] == pytest.approx(1.7 * t, rel=1e-3)
    sc2 = small_mg(intensity_sat_units=0.0, heat_ip=14.0, heat_op=0.0)
    out2 = evolve_series(build_rate_matrix(sc2, 0.0, include_spontaneous=False),
                         PopulationState.ground(sc2), [t])[0]
    assert out2.p[0, 1, 0] == pytest.approx(14.0 * t, rel=1e-2)


@pytest.mark.parametrize("heat_ip,heat_op", [(14.0, 1.7), (14.0, 0.0),
                                             (0.0, 1.7), (0.0, 0.0)])
def test_heating_kernel_matches_loop_oracle(heat_ip, heat_op):
    # unequal grid bounds expose any mix-up of the two modes; a dark laser
    # without spontaneous emission leaves the heating ladder alone
    sc = replace(mg24_ca40(intensity_sat_units=0.0), n_ip_max=4, n_op_max=6,
                 heat_ip=heat_ip, heat_op=heat_op)
    got = build_rate_matrix(sc, 0.0, include_spontaneous=False).dense()
    want = heating_kernel_loop(sc).toarray()
    assert np.array_equal(got, want)


def test_dark_heated_grid_is_a_poisson_product():
    # the closed form that criterion 7c's oracle takes for the signal with
    # the laser off, against the dense exponential of the whole generator
    sc = replace(mgh24_ca40(heat_ip=1e3, heat_op=1.3e3),
                 n_ip_max=5, n_op_max=4).with_laser(intensity=0.0)
    ground = PopulationState.ground(sc).to_vector()
    for t in (1e-4, 1.3e-3, 5e-3):
        exact = expm_populations(build_rate_matrix(sc, 0.0), ground, [t])[:, 0]
        closed = heating_only_state(sc, t).to_vector()
        assert np.abs(closed - exact).max() <= 1e-14


def test_probability_conserved_along_trajectory(mg_scenario):
    matrix = build_rate_matrix(mg_scenario, 0.0)
    times = np.linspace(1.3e-4, 1.3e-3, 6)
    for st in evolve_series(matrix, PopulationState.ground(mg_scenario), times):
        assert abs(st.total() - 1.0) < 1e-7
        assert st.p.min() >= 0.0


def test_ground_state_monotone_on_resonance(mg_scenario):
    matrix = build_rate_matrix(mg_scenario, 0.0)
    times = np.linspace(2.65e-4, 5.3e-3, 12)
    states = evolve_series(matrix, PopulationState.ground(mg_scenario), times)
    p00 = np.array([st.motional_marginal()[0, 0] for st in states])
    assert np.all(np.diff(p00) < 0.0)


def test_scaled_time_collapse():
    # all rates proportional to the base rate: (I, tau) == (2I, tau/2)
    sc1 = small_mg(intensity_sat_units=6.54e-6, heat_ip=0.0, heat_op=0.0)
    sc2 = small_mg(intensity_sat_units=2 * 6.54e-6, heat_ip=0.0, heat_op=0.0)
    tau = 1.3e-3
    s1 = evolve_series(build_rate_matrix(sc1, 0.0, include_spontaneous=False),
                       PopulationState.ground(sc1), [tau])[0]
    s2 = evolve_series(build_rate_matrix(sc2, 0.0, include_spontaneous=False),
                       PopulationState.ground(sc2), [tau / 2])[0]
    assert s2.p == pytest.approx(s1.p, abs=1e-6)
    assert s2.leaked == pytest.approx(s1.leaked, abs=1e-6)


def test_detuning_symmetry(mg_scenario):
    delta = 2 * np.pi * 30e6
    sp = evolve_series(build_rate_matrix(mg_scenario, delta),
                       PopulationState.ground(mg_scenario), [1.3e-3])[0]
    sm = evolve_series(build_rate_matrix(mg_scenario, -delta),
                       PopulationState.ground(mg_scenario), [1.3e-3])[0]
    assert sp.p == pytest.approx(sm.p, abs=1e-12)


def test_krylov_matches_dense_expm_on_small_mg_grid():
    sc = small_mg()  # 8 x 8 grid
    matrix = build_rate_matrix(sc, 2 * np.pi * 10e6)
    state = PopulationState.ground(sc)
    tau = 1.3e-3
    krylov = evolve_series(matrix, state, [tau])[0]
    exact = expm_populations(matrix, state.to_vector(), [tau])[:, 0]
    assert krylov.to_vector() == pytest.approx(exact, abs=1e-8)


# small grids of both presets; pulse times up to 20 scaled units for Mg+
# (tau_spec 12 ms) and 20000 for MgH+ (61 ms), the ranges the model is used in
_KRYLOV_CASES = {"mg": (replace(mg24_ca40(), n_ip_max=5, n_op_max=4), 20.0),
                 "mgh": (replace(mgh24_ca40(), n_ip_max=4, n_op_max=6), 2e4)}


@pytest.mark.parametrize("name", sorted(_KRYLOV_CASES))
@settings(max_examples=15, deadline=None)
@given(detuning=st.floats(0.0, 2 * np.pi * 200e6),
       t_max=st.floats(0.02, 1.0),
       fractions=st.lists(st.floats(1e-5, 1.0), min_size=1, max_size=6),
       from_zero=st.booleans())
def test_krylov_matches_matrix_exponential(name, detuning, t_max, fractions,
                                           from_zero):
    sc, scaled_max = _KRYLOV_CASES[name]
    tau_max = t_max * scaled_max / scaled_time(1.0, sc)
    # strictly increasing, spanning at least two decades, ending at tau_max
    fractions = np.unique(np.concatenate([fractions, [1e-2, 1.0]]))
    times = tau_max * (np.concatenate([[0.0], fractions]) if from_zero
                       else fractions)
    matrix = build_rate_matrix(sc, detuning)
    p0 = PopulationState.ground(sc).to_vector()
    got = rate_engine._integrate(matrix, p0, times)
    exact = expm_populations(matrix, p0, times)
    assert np.abs(got - exact).max() <= 1e-9
    assert np.abs(got.sum(axis=0) - 1.0).max() <= 1e-9
    assert got.min() >= -rate_engine.NEGATIVE_TOLERANCE


# runs in which nearly everything leaks: small Mg grids far beyond the
# scaled times in use, and MgH up to 1e6; pulse times span two decades or
# a quarter of the run
_LEAKED_GRIDS = {"mg-6x5": (replace(mg24_ca40(), n_ip_max=5, n_op_max=4),
                            (100, 300, 1000, 3000)),
                 "mg-10x10": (replace(mg24_ca40(), n_ip_max=9, n_op_max=9),
                              (100, 300, 1000, 3000)),
                 "mgh-5x7": (replace(mgh24_ca40(), n_ip_max=4, n_op_max=6),
                             (2e4, 1e5, 1e6))}
_LEAKED_SPANS = {"0.01-1": (0.01, 0.1, 1.0), "0.25-1": (0.25, 0.5, 1.0)}


@pytest.mark.parametrize("span", sorted(_LEAKED_SPANS))
@pytest.mark.parametrize("detuning_mhz", [0.0, 30.0])
@pytest.mark.parametrize("name, tau_scaled", [
    (name, tau) for name, (_, taus) in _LEAKED_GRIDS.items() for tau in taus])
def test_fully_leaked_runs_converge_on_krylov(name, tau_scaled, detuning_mhz,
                                              span):
    # the leak is taken by conservation, so a run that has lost almost all
    # of its population to the leak row still converges on the Krylov basis
    sc = _LEAKED_GRIDS[name][0]
    times = (tau_scaled / scaled_time(1.0, sc)) * np.array(_LEAKED_SPANS[span])
    matrix = build_rate_matrix(sc, 2 * np.pi * detuning_mhz * 1e6)
    p0 = PopulationState.ground(sc).to_vector()
    got = rate_engine._integrate(matrix, p0, times)
    assert np.abs(got - expm_populations(matrix, p0, times)).max() <= 1e-9


def test_fully_leaked_state_is_unchanged():
    sc = small_mg()
    matrix = build_rate_matrix(sc, 2 * np.pi * 10e6)
    state = PopulationState(p=np.zeros((2,) + sc.grid_shape), leaked=1.0)
    got = evolve_series(matrix, state, [0.0, 1.3e-4, 1.3e-3])
    for g in got:
        assert np.array_equal(g.to_vector(), state.to_vector())


def test_initial_leak_is_kept():
    # the leak is the initial total less the in-grid total, not 1 less it
    sc = small_mg()
    matrix = build_rate_matrix(sc, 2 * np.pi * 10e6)
    state = PopulationState(p=0.75 * PopulationState.ground(sc).p, leaked=0.25)
    times = [1.3e-5, 1.3e-4, 1.3e-3]
    got = evolve_series(matrix, state, times)
    want = expm_populations(matrix, state.to_vector(), times)
    for k, g in enumerate(got):
        assert np.abs(g.to_vector() - want[:, k]).max() <= 1e-9
        assert g.leaked >= 0.25


def test_leak_never_below_its_initial_value():
    # here the in-grid total comes back 1.6e-10 above 1, inside the
    # propagation tolerance; the true leak is 8.6e-12, and taking it as
    # 1 less the in-grid total alone gave a negative population
    sc = mg24_ca40(intensity_sat_units=1.34e-6)
    matrix = build_rate_matrix(sc, 2 * np.pi * 127.5e6)
    state = PopulationState.ground(sc)
    tau = 9.1 / scaled_time(1.0, sc)
    got = evolve_series(matrix, state, [tau])[0]
    want = expm_populations(matrix, state.to_vector(), [tau])[:, 0]
    assert np.abs(got.to_vector() - want).max() <= 1e-9
    assert got.leaked >= 0.0


def test_resonant_mg_propagation_stops_at_16_vectors(mg_scenario, caplog):
    # two basis sizes are compared every KRYLOV_M_STEP vectors from
    # KRYLOV_M_START; checked every 8 from 16, this propagation took 24
    matrix = build_rate_matrix(mg_scenario, 0.0)
    with caplog.at_level(logging.DEBUG, logger="recoilspec.rate_engine"):
        evolve_series(matrix, PopulationState.ground(mg_scenario), [1.3e-3])
    sizes = [int(m) for m in re.findall(r"krylov: m = (\d+)", caplog.text)]
    assert len(sizes) == 1 and sizes[0] <= 16


def test_unconverged_krylov_basis_raises(monkeypatch, tmp_path, capsys):
    # with the cap at the first basis size no two sizes can be compared,
    # so the estimate never converges
    sc = small_mg()
    matrix = build_rate_matrix(sc, 2 * np.pi * 10e6)
    monkeypatch.setattr(rate_engine, "KRYLOV_M_MAX", rate_engine.KRYLOV_M_START)
    with pytest.raises(RuntimeError,
                       match="no two Krylov basis sizes .* at detuning 1e\\+07 Hz"):
        evolve_series(matrix, PopulationState.ground(sc), [1.3e-4, 1.3e-3])
    # through the command line the same failure is a numeric failure
    code = cli.main(["dynamics", "-s", "scenario.n_ip_max=5",
                     "-s", "scenario.n_op_max=4", "-s", "dynamics.detuning_hz=1e7",
                     "-o", str(tmp_path / "d")])
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: no two Krylov basis sizes")
    assert "at detuning 1e+07 Hz" in err


def test_negative_krylov_population_raises(monkeypatch):
    # move 5e-10 of probability off an empty state: the result converges
    # and conserves probability, but its check rejects it as negative
    sc = small_mg()
    matrix = build_rate_matrix(sc, 2 * np.pi * 10e6)
    state = PopulationState.ground(sc)
    tau = 1.3e-3
    exact = expm_populations(matrix, state.to_vector(), [tau])[:, 0]
    empty, full = int(np.argmin(exact)), int(np.argmax(exact))
    series = rate_engine._krylov_series

    def skewed(*args):
        p = series(*args)
        p[empty] -= 5e-10
        p[full] += 5e-10
        return p

    monkeypatch.setattr(rate_engine, "_krylov_series", skewed)
    with pytest.raises(RuntimeError,
                       match="negative population -.* at detuning 1e\\+07 Hz"):
        evolve_series(matrix, state, [tau])


def test_traced_run_counts_one_propagation(tmp_path):
    # benchmarks/traced.py counts propagations through rate_engine._integrate
    # and rebinds rate_engine.solve_ivp; a traced dynamics run makes one
    traced = Path(__file__).resolve().parents[1] / "benchmarks" / "traced.py"
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(Path(recoilspec.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, str(traced), "--mode", "full", "--spans", str(spans),
         "--", "dynamics", "-p", "mg24_ca40", "-s", "dynamics.points=3",
         "-s", "scenario.n_ip_max=4", "-s", "scenario.n_op_max=4",
         "-o", str(tmp_path / "d")], env=env, capture_output=True, text=True)
    assert out.returncode in (cli.EXIT_OK, cli.EXIT_LEAK), out.stderr
    assert json.loads(spans.read_text())["counts"]["propagations"] == 1


# --------------------------------------------------------------------------
# the shift-and-invert solve: elimination of the ground block
# --------------------------------------------------------------------------

# small grids of both presets at their pulse scales, and one with heating
# near 1e3/s, so that the ladder in the ground block is far from negligible
_SOLVER_CASES = {
    "mg": (replace(mg24_ca40(), n_ip_max=5, n_op_max=4), 1.3e-3),
    "mgh": (replace(mgh24_ca40(), n_ip_max=4, n_op_max=6), 50e-3),
    "mg-heated": (replace(mg24_ca40(heat_ip=1e3, heat_op=1.3e3),
                          n_ip_max=5, n_op_max=4), 1.3e-3),
    "mg-28x28": (replace(mg24_ca40(), n_ip_max=27, n_op_max=27), 1.3e-3)}


@pytest.mark.parametrize("detuning", [0.0, 2 * np.pi * 60e6])
@pytest.mark.parametrize("name", sorted(_SOLVER_CASES))
def test_shift_invert_solver_matches_dense_solve(name, detuning):
    sc, tau = _SOLVER_CASES[name]
    n = sc.leak_index  # the solver works on the in-grid states
    matrix = build_rate_matrix(sc, detuning)
    shift = rate_engine.KRYLOV_SHIFT * tau
    a = np.eye(n) - shift * matrix.dense()[:n, :n]
    b = np.random.default_rng(5).random(n)
    got = rate_engine._shift_invert_solver(matrix, shift)(b)
    want = np.linalg.solve(a, b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(a @ got - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("detuning", [0.0, 2 * np.pi * 60e6])
@pytest.mark.parametrize("name", sorted(_SOLVER_CASES))
def test_ground_block_is_the_heating_ladder(name, detuning):
    # only heating keeps the internal state, so the ground block is one
    # uniform diagonal plus the upward ladder of each mode; the solver
    # rests on that (_ladder_solve substitutes down the grid rows, and
    # _ground_solve runs the same row recurrence by doubling, which needs
    # one row block and one c_ip step shared by every grid row), and a new
    # g -> g process must change this test on purpose
    sc, _ = _SOLVER_CASES[name]
    n_mot, n_op = sc.n_motional, sc.n_op_max + 1
    block = build_rate_matrix(sc, detuning).dense()[:n_mot, :n_mot]
    ladder = np.zeros((n_mot, n_mot))
    src = np.arange(n_mot)
    up_ip = src[src // n_op < sc.n_ip_max]
    up_op = src[src % n_op < sc.n_op_max]
    ladder[up_ip + n_op, up_ip] = sc.heat_ip
    ladder[up_op + 1, up_op] = sc.heat_op
    assert np.array_equal(block - np.diag(np.diag(block)), ladder)
    assert np.all(np.diag(block) == block[0, 0])


# the ground block on its own: every solver case, a non-square grid, no
# heating, and MgH far off resonance at its longest pulse, with the
# preset's heating and with heating that makes the ladders, c_ip + c_op,
# 0.95 of the diagonal d
_MGH_LONGEST_TAU = 16400 / scaled_time(1.0, mgh24_ca40())
_GROUND_CASES = {
    **_SOLVER_CASES,
    "mg-6x9": (replace(mg24_ca40(), n_ip_max=5, n_op_max=8), 1.3e-3),
    "mg-unheated": (replace(mg24_ca40(heat_ip=0.0, heat_op=0.0),
                            n_ip_max=5, n_op_max=8), 1.3e-3),
    "mgh-longest": (mgh24_ca40(), _MGH_LONGEST_TAU),
    "mgh-longest-heated": (mgh24_ca40(heat_ip=4e3, heat_op=3e3),
                           _MGH_LONGEST_TAU)}


@pytest.mark.parametrize("detuning", [0.0, 2 * np.pi * 60e6,
                                      2 * np.pi * 600e6])
@pytest.mark.parametrize("name", sorted(_GROUND_CASES))
def test_ground_solve_matches_dense_solve(name, detuning):
    # each solve applies A_gg^-1 through the powers the factorization built
    sc, tau = _GROUND_CASES[name]
    n_g = sc.n_motional
    matrix = build_rate_matrix(sc, detuning)
    shift = rate_engine.KRYLOV_SHIFT * tau
    rate_engine._shift_invert_solver(matrix, shift)
    a_gg = np.eye(n_g) - shift * matrix.dense()[:n_g, :n_g]
    b = np.random.default_rng(n_g).random(n_g)
    got = rate_engine._ground_solve(rate_engine._workspace, b)
    want = np.linalg.solve(a_gg, b)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


# the longest MgH pulse at 600 MHz, with heating that makes the ladders
# 0.95 of A_gg's diagonal; n_ip = 9 takes four doubling steps, n_ip = 2 one
@example(preset=mgh24_ca40, n_ip=9, n_op=3, ladder=0.95, ip_share=0.5,
         detuning=2 * np.pi * 600e6,
         shift=rate_engine.KRYLOV_SHIFT * _MGH_LONGEST_TAU)
@example(preset=mg24_ca40, n_ip=2, n_op=10, ladder=0.95, ip_share=1.0,
         detuning=0.0, shift=6.5e-5)
@settings(max_examples=25, deadline=None)
@given(preset=st.sampled_from([mg24_ca40, mgh24_ca40]),
       n_ip=st.integers(2, 10), n_op=st.integers(2, 10),
       ladder=st.floats(0.0, 0.95), ip_share=st.floats(0.0, 1.0),
       detuning=st.floats(0.0, 2 * np.pi * 600e6),
       shift=st.floats(1e-6, rate_engine.KRYLOV_SHIFT * _MGH_LONGEST_TAU))
def test_solver_matches_dense_solve_on_random_grids(
        preset, n_ip, n_op, ladder, ip_share, detuning, shift):
    # _ground_solve doubles ceil(log2 n_ip) times, a count that changes as
    # n_ip crosses 2, 4 and 8.  ladder is (c_ip + c_op) / d, the share of
    # A_gg's diagonal d = 1 + shift (r + h) that the two heating ladders
    # take, c = shift h; ip_share of h heats the ip mode
    base = preset()
    rate = base_rate(base.laser, base.line, detuning)
    heat = ladder * (1.0 + shift * rate) / (shift * (1.0 - ladder))
    sc = replace(preset(heat_ip=ip_share * heat,
                        heat_op=(1.0 - ip_share) * heat),
                 n_ip_max=n_ip - 1, n_op_max=n_op - 1)
    n, n_g = sc.leak_index, sc.n_motional
    matrix = build_rate_matrix(sc, detuning)
    a = np.eye(n) - shift * matrix.dense()[:n, :n]
    b = np.random.default_rng(n).random(n)
    solve = rate_engine._shift_invert_solver(matrix, shift)
    got = rate_engine._ground_solve(rate_engine._workspace, b[:n_g])
    want = np.linalg.solve(a[:n_g, :n_g], b[:n_g])
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
    want = np.linalg.solve(a, b)
    assert np.linalg.norm(solve(b) - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("n", [20, 36])
def test_workspace_holds_about_two_ground_squares(n):
    # S (n_g^2) and the factor's scratch (n_g^2 / 2), with the Krylov
    # basis and the ground block's row powers: about 2 n_g^2 doubles at
    # 20x20 and less at 36x36.  A second n_g x n_g operator kept for the
    # solves, such as A_gg^-1 or A_gg^-1 A_ge, would not fit
    n_g = n * n
    ws = rate_engine._Workspace((n, n))
    held = sum(a.nbytes for a in vars(ws).values()
               if isinstance(a, np.ndarray) and a.base is None)
    assert held <= 2.25 * n_g ** 2 * 8


def test_solver_whose_buffers_were_taken_raises():
    # every factorization is built in one workspace per grid shape; an
    # earlier solver must not answer from buffers a later one overwrote
    sc, tau = _SOLVER_CASES["mg"]
    n = sc.leak_index
    shift = rate_engine.KRYLOV_SHIFT * tau
    b = np.random.default_rng(5).random(n)
    first = rate_engine._shift_invert_solver(build_rate_matrix(sc, 0.0), shift)
    first(b)
    matrix = build_rate_matrix(sc, 2 * np.pi * 60e6)
    second = rate_engine._shift_invert_solver(matrix, shift)
    with pytest.raises(RuntimeError, match="taken"):
        first(b)
    want = np.linalg.solve(np.eye(n) - shift * matrix.dense()[:n, :n], b)
    assert np.linalg.norm(second(b) - want) <= 1e-12 * np.linalg.norm(want)


def test_alternating_grid_shapes_match_dense_solve():
    # the workspace is replaced whenever the grid shape changes
    cases = [(mg24_ca40(), 1.3e-3), (replace(mg24_ca40(), n_ip_max=5, n_op_max=8),
                                     1.3e-3),
             (mg24_ca40(), 1.3e-3), _SOLVER_CASES["mg-28x28"]]
    for sc, tau in cases:
        n = sc.leak_index
        shift = rate_engine.KRYLOV_SHIFT * tau
        matrix = build_rate_matrix(sc, 2 * np.pi * 20e6)
        b = np.random.default_rng(n).random(n)
        got = rate_engine._shift_invert_solver(matrix, shift)(b)
        want = np.linalg.solve(np.eye(n) - shift * matrix.dense()[:n, :n], b)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), sc.grid_shape


# A propagation after the first on a grid allocates no n_mot^2 array.
# With glibc's default malloc settings, fresh 20x20 arrays would be
# faulted in from the OS each time: about 1700 minor faults, and a
# tracemalloc peak of 7.7 MB.  What is left is numpy's 64 KB ufunc
# buffers and the small Krylov matrices (0.15-0.45 MB).
PROPAGATION_FAULTS = 64
PROPAGATION_PEAK_BYTES = 512 * 1024

_PROPAGATION_PROBE = """
import json, resource, tracemalloc
import numpy as np
from recoilspec.presets import mg24_ca40, mgh24_ca40
from recoilspec.rate_engine import (PopulationState, build_rate_matrix,
                                    evolve_series, scaled_time)
out = {}
for name, sc in (("mg", mg24_ca40()), ("mgh", mgh24_ca40())):
    times = ([1.3e-3] if name == "mg" else
             [t / scaled_time(1.0, sc) for t in (500, 2000, 6000, 16400)])
    ground = PopulationState.ground(sc)
    evolve_series(build_rate_matrix(sc, 2 * np.pi * 40e6), ground, times)
    matrix = build_rate_matrix(sc, 2 * np.pi * 20e6)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evolve_series(matrix, ground, times)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    matrix = build_rate_matrix(sc, 0.0)
    tracemalloc.start()
    evolve_series(matrix, ground, times)
    out[name] = (faults, tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def propagation_costs():
    # a fresh interpreter with glibc's default malloc settings
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = str(Path(recoilspec.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", _PROPAGATION_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("name", ["mg", "mgh"])
def test_second_propagation_faults_in_no_fresh_memory(propagation_costs, name):
    faults, peak = propagation_costs[name]
    assert faults <= PROPAGATION_FAULTS
    assert peak < PROPAGATION_PEAK_BYTES


_KRON_CASES = {"mg": mg24_ca40, "mgh": mgh24_ca40,
               "mg-6x9": lambda: replace(mg24_ca40(), n_ip_max=5, n_op_max=8)}


@pytest.mark.parametrize("name", sorted(_KRON_CASES))
def test_laser_block_is_the_kronecker_product_of_its_mode_factors(name):
    # the solver applies the laser block per mode, as P_ip kron P_op with
    # P[m, n] = |xi(n, m - n)|^2; built from the full weight table
    # |xi_ip|^2 |xi_op|^2, the block must be that product bit for bit
    sc = _KRON_CASES[name]()
    p_ip, p_op = sc.jump_blocks()[0]
    x_ip, x_op = sc.laser_coupling()
    for p, x in ((p_ip, x_ip), (p_op, x_op)):
        s = x.shape[1] // 2
        m, n = np.indices(p.shape)
        assert np.array_equal(p, np.where(abs(m - n) <= s,
                                          x[n, np.clip(m - n + s, 0, 2 * s)], 0))
    block = in_grid_block(np.einsum("au,bv->abuv", x_ip, x_op))
    assert np.array_equal(np.kron(p_ip, p_op), block)
    matrix = build_rate_matrix(sc, 0.0)
    n = sc.n_motional
    assert np.array_equal(matrix.dense()[n:2 * n, :n], matrix.rates[0] * block)


def kronecker_sum(d_ip, d_op):
    return sum(np.kron(a, b) for a, b in zip(d_ip, d_op))


_D_CASES = {**_KRON_CASES,
            "mg-36x36": lambda: replace(mg24_ca40(), n_ip_max=35, n_op_max=35),
            "mgh-36x36": lambda: replace(mgh24_ca40(), n_ip_max=35, n_op_max=35)}


@pytest.fixture(scope="module", params=sorted(_D_CASES))
def d_case(request):
    # a scenario, its D factors and the in-grid block of its D table
    sc = _D_CASES[request.param]()
    return sc, sc.jump_blocks()[1], in_grid_block(sc.d_table())


def test_d_factors_match_the_in_grid_block_of_the_d_table(d_case):
    # D is kept as its quadrature's Kronecker pairs; their sum is the
    # in-grid block of the four-index table that dtable writes
    sc, (d_ip, d_op), block = d_case
    assert d_ip.shape[1:] == (sc.n_ip_max + 1,) * 2
    assert d_op.shape[1:] == (sc.n_op_max + 1,) * 2
    assert len(d_ip) <= 32  # at most the folded rule's 32 distinct nodes
    assert np.abs(kronecker_sum(d_ip, d_op) - block).max() <= 1e-14


def test_d_factor_truncation_error_is_the_dropped_singular_values(d_case):
    # the Kronecker terms are orthogonal, so cutting the sum after k' pairs
    # errs by the root-sum-square of the singular values s_j = |A_j| |B_j|
    # of the pairs dropped, and by those _kronecker_factors itself dropped:
    # fewer than 32 - k, each at most D_RANK_RTOL s_0
    sc, (d_ip, d_op), block = d_case
    k = len(d_ip)
    sigma = (np.linalg.norm(d_ip, axis=(1, 2))
             * np.linalg.norm(d_op, axis=(1, 2)))
    assert np.all(np.diff(sigma) <= 0.0)
    cut = rate_engine.D_RANK_RTOL * sigma[0] * np.sqrt(32 - k)
    roundoff = 64 * np.finfo(float).eps * np.linalg.norm(block)
    for kept in range(k + 1):
        err = np.linalg.norm(block - kronecker_sum(d_ip[:kept], d_op[:kept]))
        dropped = np.sqrt(np.sum(sigma[kept:] ** 2))
        assert dropped - roundoff <= err <= np.hypot(dropped, cut) + roundoff


@pytest.mark.parametrize("kind", ["isotropic", "pi", "sigma", "mg_mixed"])
def test_d_factors_match_the_sphere_quadrature(kind):
    sc = replace(mg24_ca40(), pattern=EmissionPattern(kind), n_ip_max=6,
                 n_op_max=5, s_ip_max=4, s_op_max=5)
    eta_z = lamb_dicke(sc.system, BeamGeometry(sc.line.wavelength, 1.0),
                       "target")
    want = in_grid_block(sphere_d_table(kind, *eta_z, (6, 5), (4, 5)))
    assert np.abs(kronecker_sum(*sc.jump_blocks()[1]) - want).max() <= 1e-12


@pytest.mark.parametrize("n", [20, 36])
def test_scenario_cache_holds_no_motional_square(n):
    # after the jump blocks are built the scenario keeps per-mode factors
    # and tables only, all of them together a quarter of one dense block
    # at most (32 D pairs at 20x20 would take 0.64 of the quarter)
    sc = replace(mg24_ca40(), n_ip_max=n - 1, n_op_max=n - 1)
    sc.jump_blocks()

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)
    held = list(arrays(list(sc._cache.values())))
    assert held and max(a.size for a in held) < sc.n_motional ** 2
    assert sum(a.size for a in held) <= sc.n_motional ** 2 / 4


@pytest.mark.parametrize("n", [5, 37, 301, 1296])
def test_block_factor_solve_matches_dense_solve(n):
    # random column-diagonally-dominant M-matrices like S: off-diagonals
    # <= 0 over several decades, column sums >= 1; 37 is below
    # BLOCK_INVERSE_LEAF, so both halves are inverted directly.  The
    # factor works in place, in the n (n + 1) / 2 scratch entries it needs
    rng = np.random.default_rng(n)
    off = -rng.random((n, n)) * (rng.random((n, n)) < 0.2)
    off *= 10.0 ** rng.uniform(-3, 2, n)
    np.fill_diagonal(off, 0.0)
    a = off + np.diag(1.0 + rng.random(n) - off.sum(axis=0))
    b = rng.random(n)
    factors = rate_engine._block_factor(a.copy(), np.empty(n * (n + 1) // 2))
    got = rate_engine._block_solve(factors, b)
    want = np.linalg.solve(a, b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# the full Mg+ preset (its 20x20 grid) on resonance and at 20 MHz
@example(preset=mg24_ca40, intensity_sat_units=6.54e-6, heat_ip=14.0,
         heat_op=1.7, n_ip_max=19, n_op_max=19, s_ip_max=5, s_op_max=6,
         detuning=0.0, shift=6.5e-5)
@example(preset=mg24_ca40, intensity_sat_units=6.54e-6, heat_ip=14.0,
         heat_op=1.7, n_ip_max=19, n_op_max=19, s_ip_max=5, s_op_max=6,
         detuning=2 * np.pi * 20e6, shift=6.5e-5)
@settings(max_examples=25, deadline=None)
@given(preset=st.sampled_from([mg24_ca40, mgh24_ca40]),
       intensity_sat_units=st.floats(1e-8, 1e3),
       heat_ip=st.floats(0.0, 1e5), heat_op=st.floats(0.0, 1e5),
       n_ip_max=st.integers(1, 9), n_op_max=st.integers(1, 9),
       s_ip_max=st.integers(1, 6), s_op_max=st.integers(1, 6),
       detuning=st.floats(0.0, 2 * np.pi * 600e6),
       shift=st.floats(1e-10, 1e-1))
def test_shifted_generator_is_a_column_dominant_m_matrix(
        preset, intensity_sat_units, heat_ip, heat_op, n_ip_max, n_op_max,
        s_ip_max, s_op_max, detuning, shift):
    # the whole generator, leak row included, conserves probability: its
    # columns sum to zero, the leak column is zero and no jump rate is
    # negative.  _block_factor eliminates without pivoting; that needs
    # I - shift G to have off-diagonals <= 0 and column sums >= 1 (to
    # roundoff)
    sc = replace(preset(intensity_sat_units=intensity_sat_units,
                        heat_ip=heat_ip, heat_op=heat_op),
                 n_ip_max=n_ip_max, n_op_max=n_op_max,
                 s_ip_max=s_ip_max, s_op_max=s_op_max)
    n = sc.leak_index
    gen = build_rate_matrix(sc, detuning).dense()
    assert np.all(gen[:, n] == 0.0)
    assert (gen - np.diag(np.diag(gen))).min() >= 0.0
    scale = np.abs(gen).sum(axis=0)
    assert np.all(np.abs(gen.sum(axis=0)) <= 64 * np.finfo(float).eps * scale)
    a = np.eye(n) - shift * gen[:n, :n]
    assert (a - np.diag(np.diag(a))).max() <= 0.0
    roundoff = 64 * np.finfo(float).eps * np.abs(a).sum(axis=0)
    assert np.all(a.sum(axis=0) >= 1.0 - roundoff)


@settings(max_examples=25, deadline=None)
@given(preset=st.sampled_from([mg24_ca40, mgh24_ca40]),
       n_max=st.tuples(st.integers(1, 9), st.integers(1, 9)),
       s_max=st.tuples(st.integers(1, 6), st.integers(1, 6)),
       growth=st.tuples(*[st.integers(0, 4)] * 4).filter(any),
       detuning=st.floats(0.0, 2 * np.pi * 100e6),
       tau=st.floats(1e-5, 13e-3))
def test_growing_the_grid_never_lowers_an_in_grid_population(
        preset, n_max, s_max, growth, detuning, tau):
    # every rate that the grid or the sideband range does not keep goes to
    # the leak row, so the in-grid populations are lower bounds of the
    # untruncated model (finite-state projection) that rise as n_ip_max,
    # n_op_max, s_ip_max or s_op_max grows
    sc = replace(preset(), n_ip_max=n_max[0], n_op_max=n_max[1],
                 s_ip_max=s_max[0], s_op_max=s_max[1])
    grown = replace(sc, n_ip_max=n_max[0] + growth[0],
                    n_op_max=n_max[1] + growth[1],
                    s_ip_max=s_max[0] + growth[2], s_op_max=s_max[1] + growth[3])
    small, large = (evolve_series(build_rate_matrix(s, detuning),
                                  PopulationState.ground(s), [tau])[0].p
                    for s in (sc, grown))
    n_ip, n_op = sc.grid_shape
    drop = small - large[:, :n_ip, :n_op]
    assert drop.max() <= rate_engine.ATOL + rate_engine.RTOL


@st.composite
def small_scenarios(draw, heated=True):
    """Either preset on a grid up to 8x8, with heating up to 1e3 per
    second in each mode (unless heated is False) and the laser intensity
    a tenth to ten times the preset's."""
    heat = (draw(st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)))
            if heated else (0.0, 0.0))
    sc = replace(draw(st.sampled_from([mg24_ca40, mgh24_ca40]))(
        heat_ip=heat[0], heat_op=heat[1]),
        n_ip_max=draw(st.integers(1, 7)), n_op_max=draw(st.integers(1, 7)))
    return sc.with_laser(intensity=draw(st.floats(0.1, 10.0)) * sc.laser.intensity)


def scaled_times(sc, tau_scaled):
    # three pulse times, a decade and a half apart, up to tau_scaled
    return tau_scaled / scaled_time(1.0, sc) * np.array([0.03, 0.3, 1.0])


_detunings = st.floats(0.0, 2 * np.pi * 300e6)
_tau_scaled = st.floats(0.1, 2e4)


@settings(max_examples=25, deadline=None)
@given(sc=small_scenarios(), detuning=_detunings, tau_scaled=_tau_scaled,
       seed=st.integers(0, 2**32 - 1), leaked=st.floats(0.0, 0.5))
def test_propagation_is_non_negative_and_conserves_its_total(
        sc, detuning, tau_scaled, seed, leaked):
    # from a random in-grid state with some population already leaked,
    # every sampled state is non-negative and, with its leak, keeps the
    # initial total.  The leak is taken by conservation and never falls,
    # so the total fails only where the in-grid total rises above what
    # the initial leak leaves: a generator that creates probability
    p = np.random.default_rng(seed).random((2,) + sc.grid_shape)
    initial = PopulationState(p=p * (1.0 - leaked) / p.sum(), leaked=leaked)
    states = evolve_series(build_rate_matrix(sc, detuning), initial,
                           scaled_times(sc, tau_scaled))
    for state in states:
        assert min(state.p.min(), state.leaked) >= 0.0
        assert abs(state.total() - initial.total()) <= (rate_engine.ATOL
                                                        + rate_engine.RTOL)


@settings(max_examples=25, deadline=None)
@given(sc=small_scenarios(), detuning=_detunings, tau_scaled=_tau_scaled)
def test_propagation_is_even_in_the_detuning(sc, detuning, tau_scaled):
    # the laser lineshape is even, so the generator and every population
    # are the same at +detuning and -detuning
    times = scaled_times(sc, tau_scaled)
    plus, minus = ([s.to_vector() for s in evolve_series(
        build_rate_matrix(sc, d), PopulationState.ground(sc), times)]
        for d in (detuning, -detuning))
    assert np.abs(np.subtract(plus, minus)).max() <= (rate_engine.ATOL
                                                      + rate_engine.RTOL)


@settings(max_examples=25, deadline=None)
@given(sc=small_scenarios(heated=False), detuning=_detunings,
       tau_scaled=_tau_scaled)
def test_equal_scaled_times_coincide_without_emission_and_heating(
        sc, detuning, tau_scaled):
    # with neither spontaneous emission nor heating the generator is r K
    # alone, so doubling the intensity (and r with it) and halving the
    # pulse time gives the same populations
    doubled = sc.with_laser(intensity=2.0 * sc.laser.intensity)
    times = scaled_times(sc, tau_scaled)
    once, twice = ([s.to_vector() for s in evolve_series(
        build_rate_matrix(s, detuning, include_spontaneous=False),
        PopulationState.ground(s), t)]
        for s, t in ((sc, times), (doubled, times / 2.0)))
    assert np.abs(np.subtract(once, twice)).max() <= (rate_engine.ATOL
                                                      + rate_engine.RTOL)


# --------------------------------------------------------------------------
# the numpy matrix exponential, against scipy's
# --------------------------------------------------------------------------

def _expm_error(got, want):
    return np.abs(got - want).sum(axis=-2).max() / np.abs(want).sum(axis=-2).max()


# The stiff matrices of the propagator and of the reduced model have
# 1-norms up to 6e6 and take 10-20 squarings.  There scipy's own answer
# is up to 3e-11 (Krylov) and 1e-10 (the 2x2 blocks at 13 ms) from a
# 40-digit reference, so two implementations agree no closer than that
STIFF_EXPM_RTOL = 3e-10


@pytest.mark.parametrize("m", [1, 2, 3, 8, 24, 50, 80])
@pytest.mark.parametrize("norm", [1e-3, 1e-1, 1.0, 30.0, 1e3, 1e4])
def test_expm_matches_scipy_on_random_matrices(m, norm):
    rng = np.random.default_rng(m)
    # a rate generator (off-diagonals >= 0, columns summing to zero), a
    # symmetric matrix shifted so that its largest eigenvalue is zero, and
    # at moderate norms a general matrix: none of their exponentials
    # underflows to zero or overflows
    gen = rng.random((m, m))
    np.fill_diagonal(gen, 0.0)
    gen -= np.diag(gen.sum(axis=0))
    sym = rng.standard_normal((m, m))
    sym += sym.T
    sym -= np.linalg.eigvalsh(sym)[-1] * np.eye(m)
    cases = [gen, sym] + ([rng.standard_normal((m, m))] if norm <= 30 else [])
    for a in cases:
        scale = np.abs(a).sum(axis=0).max()
        a = a * norm / scale if scale > 0 else a
        assert _expm_error(rate_engine.expm(a), scipy_expm(a)) <= 1e-12


@pytest.mark.parametrize("name", sorted(_SOLVER_CASES))
def test_expm_matches_scipy_on_krylov_matrices(name, monkeypatch):
    # every t G_m the propagator exponentiates on a resonant run
    sc, tau = _SOLVER_CASES[name]
    seen = []

    def recording(a):
        seen.append(a.copy())
        return expm(a)

    expm = rate_engine.expm
    monkeypatch.setattr(rate_engine, "expm", recording)
    times = tau * np.array([0.01, 0.3, 1.0])
    rate_engine._integrate(build_rate_matrix(sc, 0.0),
                           PopulationState.ground(sc).to_vector(), times)
    checked = 0
    for stack in seen:
        for a in stack[np.isfinite(stack).all(axis=(1, 2))]:
            assert _expm_error(expm(a), scipy_expm(a)) <= STIFF_EXPM_RTOL
            checked += 1
    assert checked >= 2 * len(times)


def test_expm_matches_scipy_on_reduced_generators():
    # the batched 2x2 blocks of evolve_three_level at the Mg+ stiffness
    sc = mg24_ca40()
    k3, c3 = reduced_kernels(sc)
    rates = [base_rate(sc.laser, sc.line, 2 * np.pi * f)
             for f in np.linspace(0.0, 150e6, 31)]
    blocks = np.array([r * k3 + c3 for r in rates])[:, :2, :2]
    for tau in (1.3e-4, 1.3e-3, 13e-3):
        got = rate_engine.expm(blocks * tau)
        for g, b in zip(got, blocks * tau):
            assert _expm_error(g, scipy_expm(b)) <= STIFF_EXPM_RTOL


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, 1e300])
def test_expm_of_non_finite_or_overflowing_input_is_non_finite(entry):
    a = np.array([[entry, 1.0], [0.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = rate_engine.expm(np.stack([a, np.eye(2)]))
    assert not np.isfinite(got[0]).all()
    assert got[1] == pytest.approx(np.e * np.eye(2), rel=1e-15)


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("2", "2")])
def test_import_pins_openblas_to_one_thread(preset, expected):
    # recoilspec defaults OpenBLAS to one thread; a value already set wins
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(Path(recoilspec.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import recoilspec, os; print(os.environ['OPENBLAS_NUM_THREADS'])"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == expected


def test_leak_warning_raised():
    # a leak is reported on the results only: on a grid that leaks past
    # its threshold the propagation and the scan carry it, and with every
    # warning an error neither raises one
    sc = small_mg(n_max=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matrix = build_rate_matrix(sc, 0.0)
        state = evolve_series(matrix, PopulationState.ground(sc), [5.3e-3])[-1]
        records = readout_spectrum(
            sc, 2 * np.pi * np.linspace(-50e6, 50e6, 5), 5.3e-3)
    assert state.leaked > sc.leak_warn_fraction
    assert records[2].leaked == pytest.approx(state.leaked, abs=1e-9)
    assert records[2].leak_flag
    assert all(r.leak_flag == (r.leaked > sc.leak_warn_fraction) for r in records)


def test_evolve_input_validation(mg_scenario):
    matrix = build_rate_matrix(mg_scenario, 0.0)
    good = PopulationState.ground(mg_scenario)
    with pytest.raises(ValueError):
        evolve_series(matrix, good, [-1.0])
    bad = PopulationState(p=good.p * 0.5)
    with pytest.raises(ValueError):
        evolve_series(matrix, bad, [1e-4])
    with pytest.raises(ValueError):
        evolve_series(matrix, good, [2e-3, 1e-3])
    # non-finite, scalar or 2-D times fail before anything is propagated
    for times in ([1e-4, np.nan], [np.nan], [1e-4, np.inf], 1e-4,
                  [[1e-4, 2e-4]], []):
        with pytest.raises(ValueError, match="times must be"):
            evolve_series(matrix, good, times)
    # a state on another grid fails before anything is propagated
    small, large = small_mg(n_max=2), small_mg(n_max=4)
    for sc, other in ((large, small), (small, large)):
        shapes = (re.escape(str((2,) + other.grid_shape)) + ".*"
                  + re.escape(str((2,) + sc.grid_shape)))
        with pytest.raises(ValueError, match=shapes):
            evolve_series(build_rate_matrix(sc, 0.0),
                          PopulationState.ground(other), [1e-4])


def test_initial_internal_state_nearly_irrelevant(mgh_scenario):
    # starting in the upper transition state changes the motional outcome
    # only marginally (one extra recoil's worth at most)
    tau = 3000 / scaled_time(1.0, mgh_scenario)
    matrix = build_rate_matrix(mgh_scenario, 0.0)
    p = np.zeros((2,) + mgh_scenario.grid_shape)
    p[1, 0, 0] = 1.0  # start excited instead of ground
    from_excited = evolve_series(matrix, PopulationState(p=p), [tau])[0]
    from_ground = evolve_series(matrix, PopulationState.ground(mgh_scenario), [tau])[0]
    assert from_excited.motional_marginal()[0, 0] == pytest.approx(
        from_ground.motional_marginal()[0, 0], rel=0.02)


def test_scenario_validation():
    from dataclasses import replace
    sc = mg24_ca40()
    with pytest.raises(ValueError):
        replace(sc, n_ip_max=0)
    with pytest.raises(ValueError):
        small_mg(heat_ip=-1.0)
    with pytest.raises(ValueError):
        replace(sc, s_ip_max=0)


def test_scaled_time_examples(mg_scenario, mgh_scenario):
    assert scaled_time(1.3e-3, mg_scenario) == pytest.approx(2.23, rel=0.02)
    assert scaled_time(5.3e-3, mg_scenario) == pytest.approx(9.10, rel=0.02)
    assert scaled_time(50e-3, mgh_scenario) == pytest.approx(16400, rel=0.02)


def test_with_laser_shares_tables(mg_scenario):
    doubled = mg_scenario.with_laser(intensity=2 * mg_scenario.laser.intensity)
    assert doubled._cache is mg_scenario._cache
    assert doubled.laser.intensity == pytest.approx(
        2 * mg_scenario.laser.intensity)
