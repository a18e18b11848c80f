from dataclasses import replace

import numpy as np
import pytest

from recoilspec import readout
from recoilspec.coupling import xi_mode_table
from recoilspec.ion_mechanics import BeamGeometry, lamb_dicke
from recoilspec.rate_engine import PopulationState
from recoilspec.readout import (ReadoutPulse, fluorescence_probability,
                                pi_pulse, pi_time)

from oracles import xi_double_sum

ETA_IP_R = 0.204
ETA_OP_R = 0.0917
OMEGA_0 = 2 * np.pi * 10e3
GRID = (20, 20)


def shelved(state, *pulses):
    """Probability that the pulses shelve the readout ion."""
    return 1.0 - fluorescence_probability(state, *pulses)


def make_state(populations, leaked=0.0):
    """State with given {(n_ip, n_op): prob} on a 20x20 grid, target ground."""
    p = np.zeros((2,) + GRID)
    for (n_ip, n_op), val in populations.items():
        p[0, n_ip, n_op] = val
    return PopulationState(p=p, leaked=leaked)


@pytest.fixture
def op_pulse():
    pulse = ReadoutPulse(sideband=(0, -1), omega_0=OMEGA_0, duration=0.0,
                         eta_ip=ETA_IP_R, eta_op=ETA_OP_R)
    return replace(pulse, duration=pi_time(pulse))


@pytest.fixture
def ip_pulse():
    pulse = ReadoutPulse(sideband=(-1, 0), omega_0=OMEGA_0, duration=0.0,
                         eta_ip=ETA_IP_R, eta_op=ETA_OP_R)
    return replace(pulse, duration=pi_time(pulse))


def test_pi_time_value(op_pulse):
    want = np.pi / (OMEGA_0 * abs(xi_double_sum(ETA_IP_R, ETA_OP_R, 0, 1, 0, -1)))
    assert op_pulse.duration == pytest.approx(want, rel=1e-12)


def test_pi_time_scales_inversely_with_rabi(op_pulse):
    double = replace(op_pulse, omega_0=2 * OMEGA_0)
    assert pi_time(double) == pytest.approx(op_pulse.duration / 2, rel=1e-12)


def test_pi_time_requires_coupling():
    dead = ReadoutPulse(sideband=(0, -1), omega_0=OMEGA_0, duration=0.0,
                        eta_ip=ETA_IP_R, eta_op=0.0)
    with pytest.raises(ValueError):
        pi_time(dead)


def test_ground_state_cannot_be_shelved(op_pulse):
    state = make_state({(0, 0): 1.0})
    assert shelved(state, op_pulse) == 0.0
    assert fluorescence_probability(state, op_pulse) == pytest.approx(1.0)


def test_reference_state_fully_shelved(op_pulse):
    state = make_state({(0, 1): 1.0})
    assert shelved(state, op_pulse) == pytest.approx(1.0, abs=1e-12)


def test_mixed_state_shelving_from_coupling_ratio(op_pulse):
    state = make_state({(0, 1): 0.5, (0, 2): 0.5})
    xi_ref = abs(xi_double_sum(ETA_IP_R, ETA_OP_R, 0, 1, 0, -1))
    xi_21 = abs(xi_double_sum(ETA_IP_R, ETA_OP_R, 0, 2, 0, -1))
    want = 0.5 + 0.5 * np.sin(np.pi / 2 * xi_21 / xi_ref) ** 2
    assert shelved(state, op_pulse) == pytest.approx(want, rel=1e-12)


def test_complement_consistency(op_pulse):
    rng = np.random.default_rng(7)
    p = rng.random((2,) + GRID)
    leaked = 0.05
    p *= (1 - leaked) / p.sum()
    state = PopulationState(p=p, leaked=leaked)
    # the grid and the leak row share the unit probability between
    # fluorescence and shelving: the signal lies in [0, 1] and, summed
    # state by state, equals the weighted per-state survival
    fluor = fluorescence_probability(state, op_pulse)
    omega = OMEGA_0 * np.abs([[xi_double_sum(ETA_IP_R, ETA_OP_R, i, j, 0, -1)
                               for j in range(GRID[1])] for i in range(GRID[0])])
    per_state = np.cos(omega * op_pulse.duration / 2.0) ** 2
    want = (per_state * state.motional_marginal()).sum() + 0.5 * leaked
    assert fluor == pytest.approx(want, abs=1e-12)
    assert 0.0 <= fluor <= 1.0


def test_detuned_shelving_matches_resonant_at_zero(op_pulse):
    state = make_state({(0, 1): 0.4, (1, 2): 0.6})
    tiny = replace(op_pulse, detuning=1e-9)
    assert shelved(state, tiny) == pytest.approx(
        shelved(state, op_pulse), abs=1e-12)
    off = replace(op_pulse, detuning=1e3)
    assert abs(shelved(state, off) - shelved(state, op_pulse)) > 1e-6


def test_detuning_suppresses_shelving(op_pulse):
    state = make_state({(0, 1): 1.0})
    omega_ref = OMEGA_0 * abs(xi_double_sum(ETA_IP_R, ETA_OP_R, 0, 1, 0, -1))
    way_off = replace(op_pulse, detuning=20 * omega_ref)
    assert shelved(state, way_off) < 0.01


def test_detuned_pulse_matches_generalized_rabi_sum(op_pulse, ip_pulse):
    # explicit per-state sum of the generalized Rabi formula, both pulses
    # detuned, leaked population surviving each pulse with probability 1/2
    populations = {(0, 1): 0.3, (1, 2): 0.2, (2, 0): 0.15, (3, 3): 0.15}
    state = make_state(populations, leaked=0.2)
    op = replace(op_pulse, detuning=2 * np.pi * 700.0)
    ip = replace(ip_pulse, detuning=-2 * np.pi * 1500.0)
    want = 0.5 ** 2 * 0.2
    for (n_ip, n_op), prob in populations.items():
        survive = prob
        for pulse in (op, ip):
            s_ip, s_op = pulse.sideband
            if n_ip + s_ip < 0 or n_op + s_op < 0:
                continue
            omega = OMEGA_0 * abs(xi_double_sum(ETA_IP_R, ETA_OP_R, n_ip, n_op,
                                                s_ip, s_op))
            w = np.sqrt(omega ** 2 + pulse.detuning ** 2)
            survive *= 1.0 - omega ** 2 / w ** 2 * np.sin(w * pulse.duration / 2) ** 2
        want += survive
    got = fluorescence_probability(state, op, ip)
    assert got == pytest.approx(want, abs=1e-12)


def test_rejects_no_pulses():
    state = make_state({(0, 1): 0.5}, leaked=0.5)
    with pytest.raises(ValueError):
        fluorescence_probability(state)


def test_high_n_population_fluoresces_near_half(op_pulse):
    # spread over many high motional states the sin^2 terms average out
    # towards 1/2; the finite-grid value bunches a little above it because
    # the sideband Rabi frequency rolls over with n
    populations = {(i, j): 1.0 for i in range(8, 20) for j in range(8, 20)}
    norm = len(populations)
    state = make_state({k: v / norm for k, v in populations.items()})
    fluor = fluorescence_probability(state, op_pulse)
    assert fluor == pytest.approx(0.5, abs=0.15)
    # far below the full fluorescence of a cold crystal
    assert fluor < 0.75


def test_leaked_population_fluoresces_at_half(op_pulse):
    state = make_state({}, leaked=1.0)
    assert fluorescence_probability(state, op_pulse) == pytest.approx(0.5)


def test_rabi_map_built_once_per_pulse(op_pulse, monkeypatch):
    builds = []

    def counting_table(*args):
        builds.append(args)
        return xi_mode_table(*args)

    monkeypatch.setattr(readout, "xi_mode_table", counting_table)
    readout._rabi_map.cache_clear()
    state = make_state({(0, 0): 0.5, (0, 1): 0.5})
    first = fluorescence_probability(state, op_pulse)
    assert fluorescence_probability(state, op_pulse) == first
    assert len(builds) == 2  # one table per mode
    assert not readout._rabi_map(op_pulse, GRID).flags.writeable


def test_two_pulse_ground_state(op_pulse, ip_pulse):
    state = make_state({(0, 0): 1.0})
    assert fluorescence_probability(state, op_pulse, ip_pulse) == pytest.approx(1.0)


def test_two_pulse_catches_ip_excitation(op_pulse, ip_pulse):
    # (1,0) survives the op pulse untouched, then the ip pulse shelves it
    state = make_state({(1, 0): 1.0})
    assert fluorescence_probability(state, op_pulse) == pytest.approx(1.0)
    assert fluorescence_probability(state, op_pulse, ip_pulse) == pytest.approx(
        0.0, abs=1e-12)


def test_two_pulse_never_exceeds_single(op_pulse, ip_pulse):
    rng = np.random.default_rng(13)
    for _ in range(5):
        p = rng.random((2,) + GRID)
        leaked = rng.random() * 0.1
        p *= (1 - leaked) / p.sum()
        state = PopulationState(p=p, leaked=leaked)
        single = fluorescence_probability(state, op_pulse)
        double = fluorescence_probability(state, op_pulse, ip_pulse)
        assert double <= single + 1e-12
        assert 0.0 <= double <= 1.0
        assert 0.0 <= single <= 1.0


def test_signal_independent_of_carrier_rabi(op_pulse):
    # pi-pulse normalization: only Rabi-frequency ratios enter the signal
    rng = np.random.default_rng(3)
    p = rng.random((2,) + GRID)
    p /= p.sum()
    state = PopulationState(p=p)
    fast = ReadoutPulse(sideband=(0, -1), omega_0=7 * OMEGA_0, duration=0.0,
                        eta_ip=ETA_IP_R, eta_op=ETA_OP_R)
    fast = replace(fast, duration=pi_time(fast))
    assert fluorescence_probability(state, fast) == pytest.approx(
        fluorescence_probability(state, op_pulse), rel=1e-12)


def test_pi_pulse_factory(mg_scenario):
    pulse = pi_pulse(mg_scenario.system, (0, -1))
    eta = lamb_dicke(mg_scenario.system, BeamGeometry(729e-9), "readout")
    assert pulse.eta_ip == pytest.approx(0.204, rel=0.02)
    assert pulse.eta_op == pytest.approx(0.0917, rel=0.02)
    assert pulse.eta_ip == eta[0] and pulse.eta_op == eta[1]
    assert pulse.duration > 0


def test_pulse_validation():
    with pytest.raises(ValueError):
        ReadoutPulse(sideband=(0, -1), omega_0=OMEGA_0, duration=-1.0,
                     eta_ip=0.2, eta_op=0.1)
    with pytest.raises(ValueError):
        ReadoutPulse(sideband=(0, -1), omega_0=-5.0, duration=0.0,
                     eta_ip=0.2, eta_op=0.1)
