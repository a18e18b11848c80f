"""Fast three-level approximation of the full motional-grid dynamics.

The signal is essentially the surviving motional ground-state population,
so the grid collapses to three levels: the two transition states at
motional ground, plus one absorbing auxiliary level fed by every photon
process (or heating event) that changes the motional state.  The three-
level generator is the engine's own r(delta) K + C restricted to the
(g00, e00) rows and columns, with everything leaving them sent to the
auxiliary level, so the two models share every rate by construction.
A batch of dense 2x2 matrix exponentials is orders of magnitude
faster than the full engine and reproduces the gross spectral features.
"""

import numpy as np

from .rate_engine import SpectroscopyScenario, expm
from .radiation import base_rate
from .scan_fit import SpectrumRecord


def reduced_kernels(scenario: SpectroscopyScenario) -> tuple[np.ndarray, np.ndarray]:
    """The engine's kernels K and C collapsed onto (g00, e00, aux).

    Their entries between the two motional ground states are read from
    the scenario's jump blocks (SpectroscopyScenario.jump_blocks).  K
    holds absorption g00 -> e00 at the laser weight P_ip[0, 0] P_op[0, 0]
    and stimulated emission back at rho times it; its diagonal is -1 and
    -rho, since each laser channel's total weight is 1.  C holds
    spontaneous emission e00 -> g00 at Gamma_t D[0, 0], the sum over D's
    factor pairs of D_ip[j][0, 0] D_op[j][0, 0]; its diagonal is
    -h and -(Gamma_t + h), with h the sum of the two heating rates.  The
    aux row takes each column's remainder, so every column sums to zero,
    and the aux column is zero, so aux is absorbing.  The three-level
    generator at a detuning is base_rate(delta) K3 + C3.
    """
    (p_ip, p_op), (d_ip, d_op), (heat_ip, heat_op) = scenario.jump_blocks()
    line = scenario.line
    rho = line.stimulated_scale / line.absorption_scale
    stay = p_ip[0, 0] * p_op[0, 0]
    heat = heat_ip + heat_op
    kernels = ([[-1.0, rho * stay], [stay, -rho]],
               [[-heat, line.gamma_t * (d_ip[:, 0, 0] @ d_op[:, 0, 0])],
                [0.0, -(line.gamma_t + heat)]])
    out = np.zeros((2, 3, 3))
    out[:, :2, :2] = kernels
    out[:, 2, :2] = -out[:, :2, :2].sum(axis=1)
    return tuple(out)


def reduced_signal(p, contrast: float = 0.5) -> float:
    """Map the populations (g00, e00, aux) onto a fluorescence signal.

    The motional ground state fluoresces fully; auxiliary population
    fluoresces with probability 1 - contrast.  contrast 0.5 is the
    high-n shelving average, 1.0 the early-time single-sideband limit.
    """
    if not 0.0 <= contrast <= 1.0:
        raise ValueError("contrast must lie in [0, 1]")
    return float(p[0] + p[1] + (1.0 - contrast) * p[2])


def evolve_three_level(generators, tau: float, initial=(1.0, 0.0, 0.0)) -> np.ndarray:
    """Populations (g00, e00, aux) after tau under each 3x3 generator.

    aux is absorbing (zero column), so the pair (g00, e00) evolves by the
    matrix exponential of its own 2x2 block and aux holds the rest, as
    the engine's leak row does: the 3x3 exponential gives the same pair,
    but at the stiffness of the Mg+ line its populations sum to 1 only
    within 8e-11.  generators may carry leading batch axes.
    """
    p0 = np.asarray(initial, dtype=float)
    pair = expm(np.asarray(generators)[..., :2, :2] * tau) @ p0[:2]
    return np.concatenate([pair, p0.sum() - pair.sum(axis=-1, keepdims=True)], axis=-1)


def reduced_populations(scenario: SpectroscopyScenario, detunings,
                        tau_spec: float) -> np.ndarray:
    """Populations (g00, e00, aux) after tau_spec from g00, one row per detuning.

    One batched evolve_three_level of base_rate(delta) K3 + C3.
    """
    k3, c3 = reduced_kernels(scenario)
    rates = base_rate(scenario.laser, scenario.line,
                      np.asarray(detunings, dtype=float))
    return evolve_three_level(rates[:, None, None] * k3 + c3, tau_spec)


def reduced_spectrum(scenario: SpectroscopyScenario, detunings, tau_spec: float,
                     contrast: float = 0.5) -> list[SpectrumRecord]:
    """Three-level fluorescence spectrum in the same record format as scans.

    The motional marginal carries the ground-state population at (0,0);
    the auxiliary level has no grid position and is reported nowhere.
    """
    detunings = np.asarray(detunings, dtype=float)
    records = []
    for d, p in zip(detunings, reduced_populations(scenario, detunings, tau_spec)):
        marginal = np.zeros(scenario.grid_shape)
        marginal[0, 0] = p[0] + p[1]
        records.append(SpectrumRecord(
            detuning=float(d), fluorescence=reduced_signal(p, contrast),
            marginal=marginal, leaked=0.0))
    return records
