"""Red-sideband shelving readout of the motional state distribution.

After the spectroscopy pulse, a resolved sideband pi-pulse on the readout
ion maps motional excitation onto shelving; the detected fluorescence is
proportional to the probability of remaining in the readout ground state.
Both are computed analytically from the per-state Rabi frequencies.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .coupling import xi, xi_mode_table
from .ion_mechanics import BeamGeometry, TwoIonSystem, lamb_dicke
from .rate_engine import PopulationState


@dataclass(frozen=True)
class ReadoutPulse:
    """One resolved-sideband pulse on the readout ion.

    sideband is the addressed motional jump (s_ip, s_op), e.g. (0, -1)
    for the first red sideband of the out-of-phase mode.  omega_0 is the
    carrier Rabi angular frequency; detuning is measured from the
    addressed sideband.  eta_ip / eta_op are the readout-ion Lamb-Dicke
    parameters.
    """
    sideband: tuple[int, int]
    omega_0: float
    duration: float
    eta_ip: float
    eta_op: float
    detuning: float = 0.0

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError("pulse duration must be >= 0")
        if self.omega_0 < 0:
            raise ValueError("carrier Rabi frequency must be >= 0")


def readout_lamb_dicke(system: TwoIonSystem, wavelength: float = 729e-9,
                       axial_projection: float = 1.0) -> tuple[float, float]:
    """Readout-ion Lamb-Dicke parameters for the shelving beam."""
    return lamb_dicke(system, BeamGeometry(wavelength, axial_projection), "readout")


def pi_time(pulse: ReadoutPulse) -> float:
    """Duration of a pi-pulse on the pulse's reference transition.

    The reference motional state holds exactly one quantum in each mode
    the sideband de-excites (e.g. (0,1) for sideband (0,-1)), so
    tau = pi / (omega_0 |xi_ref|).
    """
    s_ip, s_op = pulse.sideband
    n_ref = (max(-s_ip, 0), max(-s_op, 0))
    amp = abs(xi(pulse.eta_ip, pulse.eta_op, n_ref[0], n_ref[1], s_ip, s_op))
    if pulse.omega_0 * amp == 0.0:
        raise ValueError("reference Rabi frequency vanishes; no pi-time exists")
    return float(np.pi / (pulse.omega_0 * amp))


def pi_pulse(system: TwoIonSystem, sideband: tuple[int, int] = (0, -1),
             omega_0: float = 2.0 * np.pi * 10e3,
             wavelength: float = 729e-9) -> ReadoutPulse:
    """Resonant readout pulse with its duration set to the pi-time."""
    eta_ip, eta_op = readout_lamb_dicke(system, wavelength)
    pulse = ReadoutPulse(sideband=sideband, omega_0=omega_0, duration=0.0,
                         eta_ip=eta_ip, eta_op=eta_op)
    return replace(pulse, duration=pi_time(pulse))


@lru_cache
def _rabi_map(pulse: ReadoutPulse, grid_shape: tuple[int, int]) -> np.ndarray:
    """Per-motional-state Rabi frequency Omega(n_ip, n_op) for the pulse.

    A scan reads out every detuning with the same pulse, so maps are
    cached; they are returned read-only because the cache shares them.
    """
    s_ip, s_op = pulse.sideband
    t_ip = xi_mode_table(pulse.eta_ip, grid_shape[0] - 1, abs(s_ip) if s_ip else 1)
    t_op = xi_mode_table(pulse.eta_op, grid_shape[1] - 1, abs(s_op) if s_op else 1)
    col_ip = t_ip[:, t_ip.shape[1] // 2 + s_ip]
    col_op = t_op[:, t_op.shape[1] // 2 + s_op]
    omega = pulse.omega_0 * np.abs(np.outer(col_ip, col_op))
    omega.setflags(write=False)
    return omega


def _shelve_map(pulse: ReadoutPulse, grid_shape: tuple[int, int]) -> np.ndarray:
    """Shelving probability per motional state (generalized Rabi formula)."""
    omega = _rabi_map(pulse, grid_shape)
    det2 = pulse.detuning**2
    gen = np.sqrt(det2 + omega**2)
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(gen > 0.0, omega**2 / np.maximum(gen**2, 1e-300), 0.0)
    return frac * np.sin(gen * pulse.duration / 2.0) ** 2


def shelving_probability(state: PopulationState, pulse: ReadoutPulse,
                         leak_survival: float = 0.5) -> float:
    """Probability that the readout pulse shelves the readout ion.

    Summed over the motional grid, marginalized over the target internal
    state.  Population that leaked off the grid is treated as shelving
    with probability 1 - leak_survival (high-n average 1/2 by default).
    """
    shelve = _shelve_map(pulse, state.p.shape[1:])
    return float((shelve * state.motional_marginal()).sum()
                 + (1.0 - leak_survival) * state.leaked)


def fluorescence_probability(state: PopulationState, pulse: ReadoutPulse,
                             leak_survival: float = 0.5) -> float:
    """Probability of remaining in the fluorescing readout ground state.

    Resonant fast path (requires pulse.detuning == 0); this is the
    simulated detected signal.
    """
    if pulse.detuning != 0.0:
        raise ValueError("fluorescence fast path requires a resonant pulse")
    omega = _rabi_map(pulse, state.p.shape[1:])
    survive = 1.0 - np.sin(omega * pulse.duration / 2.0) ** 2
    return float((survive * state.motional_marginal()).sum()
                 + leak_survival * state.leaked)


def two_pulse_fluorescence(state: PopulationState, pulse_op: ReadoutPulse,
                           pulse_ip: ReadoutPulse,
                           leak_survival: float = 0.5) -> float:
    """Fluorescence after consecutive pi-pulses addressing both modes.

    Population shelved by the first pulse leaves the readout ground state
    and is not addressed by the second; unshelved population keeps its
    motional state, so per state the survival factors multiply.  Leaked
    population keeps one leak_survival factor per pulse.
    """
    shape = state.p.shape[1:]
    survive = np.ones(shape)
    for pulse in (pulse_op, pulse_ip):
        if pulse.detuning != 0.0:
            raise ValueError("two-pulse readout assumes resonant pulses")
        omega = _rabi_map(pulse, shape)
        survive = survive * (1.0 - np.sin(omega * pulse.duration / 2.0) ** 2)
    return float((survive * state.motional_marginal()).sum()
                 + leak_survival**2 * state.leaked)
