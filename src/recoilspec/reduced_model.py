"""Fast three-level approximation of the full motional-grid dynamics.

The signal is essentially the surviving motional ground-state population,
so the grid collapses to three levels: the two transition states at
motional ground, plus one absorbing auxiliary level fed by every photon
process (or heating event) that changes the motional state.  Solving a
3x3 linear system per detuning is orders of magnitude faster than the
full engine and reproduces the gross spectral features.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .rate_engine import SpectroscopyScenario
from .radiation import base_rate
from .scan_fit import SpectrumRecord


@dataclass(frozen=True)
class ThreeLevelState:
    p_g0: float
    p_e0: float
    p_aux: float

    def __post_init__(self):
        for v in (self.p_g0, self.p_e0, self.p_aux):
            if v < -1e-12:
                raise ValueError("negative population")
        if abs(self.p_g0 + self.p_e0 + self.p_aux - 1.0) > 1e-9:
            raise ValueError("three-level state not normalized")


@dataclass(frozen=True)
class ReducedRates:
    """Rates (1/s) of the three-level system; aux is absorbing."""
    g_to_e: float
    e_to_g: float
    g_to_aux: float
    e_to_aux: float


def reduced_rates(scenario: SpectroscopyScenario, detuning: float) -> ReducedRates:
    """Collapse the full rate structure onto the three-level picture.

    Carrier transitions keep the pair coupled; every sideband process
    (absorption, stimulated or spontaneous emission changing n) plus
    heating feeds the auxiliary level.  Sideband sums use completeness:
    sum over s != 0 of |xi|^2 equals 1 - |xi_carrier|^2.
    """
    x_ip, x_op = scenario.laser_coupling()
    carrier = float(x_ip[0, scenario.s_ip_max] * x_op[0, scenario.s_op_max])
    d00 = float(scenario.d_table()[0, 0, scenario.s_ip_max, scenario.s_op_max])
    line = scenario.line
    r_abs = base_rate(scenario.laser, line, detuning)
    r_stim = r_abs * line.stimulated_scale / line.absorption_scale
    heat = scenario.heat_ip + scenario.heat_op
    return ReducedRates(
        g_to_e=r_abs * carrier,
        e_to_g=r_stim * carrier + line.gamma_t * d00,
        g_to_aux=r_abs * (1.0 - carrier) + heat,
        e_to_aux=r_stim * (1.0 - carrier) + line.gamma_t * (1.0 - d00) + heat,
    )


def evolve_reduced(rates: ReducedRates, duration: float,
                   initial: tuple[float, float, float] = (1.0, 0.0, 0.0)
                   ) -> ThreeLevelState:
    """Exact propagation of the three-level populations.

    The g/e pair evolves under its 2x2 generator through a matrix
    exponential; the auxiliary level takes up the rest.
    """
    a, b = rates.g_to_e, rates.e_to_g
    la, lb = rates.g_to_aux, rates.e_to_aux
    m = np.array([[-(a + la), b], [a, -(b + lb)]])
    p0 = np.asarray(initial[:2], dtype=float)
    p = expm(m * duration) @ p0
    p = np.clip(p, 0.0, None)
    aux = initial[2] + (p0.sum() - p.sum())
    return ThreeLevelState(p_g0=float(p[0]), p_e0=float(p[1]), p_aux=float(aux))


def reduced_signal(state: ThreeLevelState, contrast: float = 0.5) -> float:
    """Map the three-level populations onto a fluorescence signal.

    The motional ground state fluoresces fully; auxiliary population
    fluoresces with probability 1 - contrast.  contrast 0.5 is the
    high-n shelving average, 1.0 the early-time single-sideband limit.
    """
    if not 0.0 <= contrast <= 1.0:
        raise ValueError("contrast must lie in [0, 1]")
    return float(state.p_g0 + state.p_e0 + (1.0 - contrast) * state.p_aux)


def reduced_spectrum(scenario: SpectroscopyScenario, detunings, tau_spec: float,
                     contrast: float = 0.5) -> list[SpectrumRecord]:
    """Three-level fluorescence spectrum in the same record format as scans.

    The motional marginal carries the ground-state population at (0,0);
    the auxiliary level has no grid position and is reported nowhere.
    """
    records = []
    shape = scenario.grid_shape
    for d in np.asarray(detunings, dtype=float):
        state = evolve_reduced(reduced_rates(scenario, d), tau_spec)
        marginal = np.zeros(shape)
        marginal[0, 0] = state.p_g0 + state.p_e0
        records.append(SpectrumRecord(
            detuning=float(d), fluorescence=reduced_signal(state, contrast),
            marginal=marginal, leaked=0.0))
    return records
