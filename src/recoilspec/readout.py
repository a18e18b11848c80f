"""Red-sideband shelving readout of the motional state distribution.

After the spectroscopy pulse, one or more resolved sideband pulses on the
readout ion map motional excitation onto shelving; the detected
fluorescence is proportional to the probability of remaining in the
readout ground state.  It is computed analytically from the per-state
Rabi frequencies.
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
    cols = [xi_mode_table(eta, n - 1, abs(s))[:, abs(s) + s] for eta, n, s
            in zip((pulse.eta_ip, pulse.eta_op), grid_shape, pulse.sideband)]
    omega = pulse.omega_0 * np.abs(np.outer(*cols))
    omega.setflags(write=False)
    return omega


def fluorescence_probability(state: PopulationState, *pulses: ReadoutPulse,
                             leak_survival: float = 0.5) -> float:
    """Probability of remaining in the fluorescing readout ground state.

    This is the simulated detected signal after the pulses, applied in
    turn.  Population shelved by one pulse leaves the readout ground
    state and is not addressed by the next; unshelved population keeps
    its motional state, so per motional state the survival factors
    1 - (Omega/W)^2 sin^2(W t / 2), W = hypot(Omega, detuning), multiply.
    Population that leaked off the grid survives each pulse with
    probability leak_survival (high-n average 1/2 by default).
    """
    if not pulses:
        raise ValueError("the readout needs at least one pulse")
    if not 0.0 <= leak_survival <= 1.0:
        raise ValueError("leak_survival must lie in [0, 1]")
    shape = state.p.shape[1:]
    survive = np.ones(shape)
    for pulse in pulses:
        omega = _rabi_map(pulse, shape)
        gen = np.hypot(omega, pulse.detuning)
        frac = np.divide(omega, gen, out=np.zeros(shape), where=gen > 0.0) ** 2
        survive = survive * (1.0 - frac * np.sin(gen * pulse.duration / 2.0) ** 2)
    return float((survive * state.motional_marginal()).sum()
                 + leak_survival ** len(pulses) * state.leaked)
