import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recoilspec
from recoilspec import cli, rate_engine
from recoilspec.coupling import xi_mode_table
from recoilspec.presets import mg24_ca40, mgh24_ca40
from recoilspec.radiation import TransitionLine, base_rate
from recoilspec.rate_engine import (LeakWarning, PopulationState,
                                    _heating_kernel, build_rate_matrix, evolve,
                                    evolve_series, scaled_time)

from oracles import (expm_populations, generator_loop, heating_kernel_loop,
                     xi_double_sum_mode)


def small_mg(n_max=7, **kw):
    return replace(mg24_ca40(**kw), n_ip_max=n_max, n_op_max=n_max)


# --------------------------------------------------------------------------
# generator structure
# --------------------------------------------------------------------------

def test_dark_cold_trap_gives_zero_generator():
    sc = small_mg(intensity_sat_units=0.0, heat_ip=0.0, heat_op=0.0)
    matrix = build_rate_matrix(sc, 0.0, include_spontaneous=False)
    assert abs(matrix.generator).max() == 0.0


def test_columns_sum_to_zero(mg_scenario):
    matrix = build_rate_matrix(mg_scenario, 2 * np.pi * 20e6)
    col_sums = np.asarray(matrix.generator.sum(axis=0)).ravel()
    scale = abs(matrix.generator.diagonal()).max()
    assert np.abs(col_sums).max() < 1e-12 * scale


def test_off_diagonal_rates_nonnegative(mg_scenario):
    gen = build_rate_matrix(mg_scenario, 0.0).generator.toarray()
    off = gen - np.diag(np.diag(gen))
    assert off.min() >= 0.0


def test_leak_row_collects_out_of_grid_flow():
    sc = small_mg(n_max=2)
    gen = build_rate_matrix(sc, 0.0).generator.toarray()
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
    # scan_fit solves a detuning and its mirror image once; that is exact
    # only while the generator is even in the detuning, bit for bit
    sc = _MIRROR_SCENARIOS[name]
    plus = build_rate_matrix(sc, detuning).generator.toarray()
    minus = build_rate_matrix(sc, -detuning).generator.toarray()
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
    independently from the double-sum couplings.
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
    sc._cache["d"] = np.zeros((2, 2, 3, 3))  # spontaneous emission off
    return sc


def _stimulated_rate(sc):
    """Resonant stimulated-emission rate: rho times the absorption base rate."""
    rho = sc.line.stimulated_scale / sc.line.absorption_scale
    return rho * base_rate(sc.laser, sc.line, 0.0)


def _toy_oracle_generator(sc, eta_op):
    """Hand-built generator on the active subspace, from oracle couplings."""
    c = [abs(xi_double_sum_mode(eta_op, n, 0)) ** 2 for n in (0, 1)]
    x01 = abs(xi_double_sum_mode(eta_op, 0, 1)) ** 2
    y12 = abs(xi_double_sum_mode(eta_op, 1, 1)) ** 2
    r_a = base_rate(sc.laser, sc.line, 0.0)
    r_s = _stimulated_rate(sc)
    g = np.zeros((5, 5))
    # order: g(0,0), g(0,1), e(0,0), e(0,1), leak
    for src, dst, rate in [
            (0, 2, r_a * c[0]), (0, 3, r_a * x01),
            (1, 2, r_a * x01), (1, 3, r_a * c[1]), (1, 4, r_a * y12),
            (2, 0, r_s * c[0]), (2, 1, r_s * x01),
            (3, 0, r_s * x01), (3, 1, r_s * c[1]), (3, 4, r_s * y12)]:
        g[dst, src] += rate
        g[src, src] -= rate
    return g


def test_toy_grid_matches_hand_built_generator():
    sc = _frozen_ip_scenario(eta_op=0.3)
    built = build_rate_matrix(sc, 0.0).generator.toarray()
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
    matrix = build_rate_matrix(sc, 0.0)
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
    matrix = build_rate_matrix(sc, 0.0)
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
    out = evolve(matrix, state, 1.0)
    assert out.p == pytest.approx(state.p, abs=1e-12)
    assert out.leaked == 0.0


def test_heating_ladder_first_order():
    sc = small_mg(intensity_sat_units=0.0, heat_ip=0.0, heat_op=1.7)
    matrix = build_rate_matrix(sc, 0.0, include_spontaneous=False)
    t = 1e-4
    out = evolve(matrix, PopulationState.ground(sc), t)
    assert out.p[0, 0, 1] == pytest.approx(1.7 * t, rel=1e-3)
    sc2 = small_mg(intensity_sat_units=0.0, heat_ip=14.0, heat_op=0.0)
    out2 = evolve(build_rate_matrix(sc2, 0.0, include_spontaneous=False),
                  PopulationState.ground(sc2), t)
    assert out2.p[0, 1, 0] == pytest.approx(14.0 * t, rel=1e-2)


@pytest.mark.parametrize("heat_ip,heat_op", [(14.0, 1.7), (14.0, 0.0),
                                             (0.0, 1.7), (0.0, 0.0)])
def test_heating_kernel_matches_loop_oracle(heat_ip, heat_op):
    # unequal grid bounds expose any mix-up of the two modes
    sc = replace(mg24_ca40(), n_ip_max=4, n_op_max=6, heat_ip=heat_ip,
                 heat_op=heat_op)
    got = _heating_kernel(sc).toarray()
    want = heating_kernel_loop(sc).toarray()
    assert np.array_equal(got, want)


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
    s1 = evolve(build_rate_matrix(sc1, 0.0, include_spontaneous=False),
                PopulationState.ground(sc1), tau)
    s2 = evolve(build_rate_matrix(sc2, 0.0, include_spontaneous=False),
                PopulationState.ground(sc2), tau / 2)
    assert s2.p == pytest.approx(s1.p, abs=1e-6)
    assert s2.leaked == pytest.approx(s1.leaked, abs=1e-6)


def test_detuning_symmetry(mg_scenario):
    delta = 2 * np.pi * 30e6
    sp = evolve(build_rate_matrix(mg_scenario, delta),
                PopulationState.ground(mg_scenario), 1.3e-3)
    sm = evolve(build_rate_matrix(mg_scenario, -delta),
                PopulationState.ground(mg_scenario), 1.3e-3)
    assert sp.p == pytest.approx(sm.p, abs=1e-12)


@pytest.mark.parametrize("method", ["krylov"])  # the one propagator
def test_adaptive_integrators_match_matrix_exponential(method):
    sc = small_mg()  # 8 x 8 grid
    matrix = build_rate_matrix(sc, 2 * np.pi * 10e6)
    state = PopulationState.ground(sc)
    tau = 1.3e-3
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakWarning)
        adaptive = evolve(matrix, state, tau)
    exact = expm_populations(matrix, state.to_vector(), [tau])[:, 0]
    assert adaptive.to_vector() == pytest.approx(exact, abs=1e-8)


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
    with pytest.warns(LeakWarning):
        got = evolve_series(matrix, state, [0.0, 1.3e-4, 1.3e-3])
    for g in got:
        assert np.array_equal(g.to_vector(), state.to_vector())


def test_initial_leak_is_kept():
    # the leak is the initial total less the in-grid total, not 1 less it
    sc = small_mg()
    matrix = build_rate_matrix(sc, 2 * np.pi * 10e6)
    state = PopulationState(p=0.75 * PopulationState.ground(sc).p, leaked=0.25)
    times = [1.3e-5, 1.3e-4, 1.3e-3]
    with pytest.warns(LeakWarning):
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
    got = evolve(matrix, state, tau)
    want = expm_populations(matrix, state.to_vector(), [tau])[:, 0]
    assert np.abs(got.to_vector() - want).max() <= 1e-9
    assert got.leaked >= 0.0


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
        evolve(matrix, state, tau)


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
                          n_ip_max=5, n_op_max=4), 1.3e-3)}


@pytest.mark.parametrize("detuning", [0.0, 2 * np.pi * 60e6])
@pytest.mark.parametrize("name", sorted(_SOLVER_CASES))
def test_shift_invert_solver_matches_dense_solve(name, detuning):
    sc, tau = _SOLVER_CASES[name]
    n = sc.leak_index  # the solver takes the in-grid block
    gen = build_rate_matrix(sc, detuning).generator[:n, :n]
    shift = rate_engine.KRYLOV_SHIFT * tau
    a = np.eye(gen.shape[0]) - shift * gen.toarray()
    b = np.random.default_rng(5).random(gen.shape[0])
    got = rate_engine._shift_invert_solver(gen, shift)(b)
    want = np.linalg.solve(a, b)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(a @ got - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("detuning", [0.0, 2 * np.pi * 60e6])
@pytest.mark.parametrize("name", sorted(_SOLVER_CASES))
def test_ground_block_is_the_heating_ladder(name, detuning):
    # only heating keeps the internal state, so the ground block is the
    # diagonal plus the upward ladder of each mode; the solver's speed rests
    # on that (its LU has no fill), and a new g -> g process must change
    # this test on purpose
    sc, _ = _SOLVER_CASES[name]
    n_mot, n_op = sc.n_motional, sc.n_op_max + 1
    block = build_rate_matrix(sc, detuning).generator[:n_mot, :n_mot].toarray()
    ladder = np.zeros((n_mot, n_mot))
    src = np.arange(n_mot)
    up_ip = src[src // n_op < sc.n_ip_max]
    up_op = src[src % n_op < sc.n_op_max]
    ladder[up_ip + n_op, up_ip] = sc.heat_ip
    ladder[up_op + 1, up_op] = sc.heat_op
    assert np.array_equal(block - np.diag(np.diag(block)), ladder)


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
    sc = small_mg(n_max=3)
    matrix = build_rate_matrix(sc, 0.0)
    with pytest.warns(LeakWarning):
        evolve(matrix, PopulationState.ground(sc), 5.3e-3)


def test_evolve_input_validation(mg_scenario):
    matrix = build_rate_matrix(mg_scenario, 0.0)
    good = PopulationState.ground(mg_scenario)
    with pytest.raises(ValueError):
        evolve(matrix, good, -1.0)
    bad = PopulationState(p=good.p * 0.5)
    with pytest.raises(ValueError):
        evolve(matrix, bad, 1e-4)
    with pytest.raises(ValueError):
        evolve_series(matrix, good, [2e-3, 1e-3])


def test_initial_internal_state_nearly_irrelevant(mgh_scenario):
    # starting in the upper transition state changes the motional outcome
    # only marginally (one extra recoil's worth at most)
    tau = 3000 / scaled_time(1.0, mgh_scenario)
    matrix = build_rate_matrix(mgh_scenario, 0.0)
    p = np.zeros((2,) + mgh_scenario.grid_shape)
    p[1, 0, 0] = 1.0  # start excited instead of ground
    from_excited = evolve(matrix, PopulationState(p=p), tau)
    from_ground = evolve(matrix, PopulationState.ground(mgh_scenario), tau)
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
