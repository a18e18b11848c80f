"""Independent reference implementations used to pin expected test values.

These deliberately avoid the code paths they check: couplings come from
the explicit factorial double sum, mode data from direct diagonalization
of the mass-weighted Hessian, spectral overlaps from fine-grid
trapezoid integration, split-line widths from a dense-grid half-maximum
search, time evolution from the dense matrix exponential of the
generator (the reference for the library's Krylov and LSODA paths),
laser-broadened dip widths from resonant dense matrix exponentials
instead of a detuning scan, and the heating ladder from an explicit loop
over grid states.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import gammaln

from recoilspec.radiation import base_rate
from recoilspec.rate_engine import PopulationState, build_rate_matrix
from recoilspec.readout import fluorescence_probability, pi_pulse


def xi_double_sum_mode(eta: float, n: int, s: int) -> complex:
    """Single-mode coupling amplitude from the explicit double-sum form."""
    n_fin = n + s
    if n_fin < 0:
        return 0.0 + 0.0j
    n_lo, n_hi = min(n, n_fin), max(n, n_fin)
    a = abs(s)
    total = 0.0 + 0.0j
    for m in range(n_lo + 1):
        log_num = 0.5 * (gammaln(n_lo + 1) + gammaln(n_hi + 1))
        log_den = gammaln(m + 1) + gammaln(m + a + 1) + gammaln(n_lo - m + 1)
        total += (1j * eta) ** (2 * m + a) * np.exp(log_num - log_den)
    return np.exp(-eta * eta / 2.0) * total


def xi_double_sum(eta_ip, eta_op, n_ip, n_op, s_ip, s_op) -> complex:
    return (xi_double_sum_mode(eta_ip, n_ip, s_ip)
            * xi_double_sum_mode(eta_op, n_op, s_op))


def hessian_mode_data(mu: float, omega_z: float):
    """Mode frequencies and mass-weighted eigenvectors by brute force.

    The axial potential of two equal-charge ions has identical curvature
    k = m_r omega_z^2 at both sites and Coulomb coupling -k/2 ... writing
    the mass-weighted Hessian explicitly and diagonalizing it:

        A = omega_z^2 [[2, -1/sqrt(mu)], [-1/sqrt(mu), 2/mu]]

    Returns (omega_ip, omega_op, b_ip (readout, target), b_op).
    """
    a = omega_z**2 * np.array([[2.0, -1.0 / np.sqrt(mu)],
                               [-1.0 / np.sqrt(mu), 2.0 / mu]])
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals)
    omega = np.sqrt(vals[order])
    b_ip = vecs[:, order[0]]
    b_op = vecs[:, order[1]]
    return omega[0], omega[1], b_ip, b_op


def overlap_trapezoid(gamma_t: float, sigma_l: float, delta: float,
                      span_widths: float = 60.0, n: int = 400001) -> float:
    """Lorentzian x Gaussian overlap on a dense uniform grid."""
    width = gamma_t + sigma_l
    lo = min(0.0, delta) - span_widths * width
    hi = max(0.0, delta) + span_widths * width
    u = np.linspace(lo, hi, n)
    lor = (gamma_t / (2.0 * np.pi)) / (u**2 + gamma_t**2 / 4.0)
    gau = np.exp(-(u - delta) ** 2 / (2.0 * sigma_l**2)) / (np.sqrt(2.0 * np.pi) * sigma_l)
    return float(np.trapezoid(lor * gau, u))


def split_lorentzian_fwhm(gamma: float, splitting: float,
                          n: int = 2000001) -> float:
    """FWHM of the average of two Lorentzians (FWHM gamma) at +-splitting/2.

    The profile is tabulated on a dense uniform grid over [0, splitting +
    3 gamma]; the peak is the grid maximum and the outer half-maximum
    crossing is interpolated linearly between grid neighbours.
    """
    x = np.linspace(0.0, splitting + 3.0 * gamma, n)
    hw2 = gamma**2 / 4.0
    y = 1.0 / ((x - splitting / 2.0) ** 2 + hw2) + 1.0 / ((x + splitting / 2.0) ** 2 + hw2)
    half = y.max() / 2.0
    i = np.nonzero(y >= half)[0][-1]
    crossing = x[i] + (y[i] - half) / (y[i] - y[i + 1]) * (x[i + 1] - x[i])
    return float(2.0 * crossing)


def expm_populations(matrix, p0: np.ndarray, times) -> np.ndarray:
    """expm(G t) p0 for each t, by dense matrix exponential; (n_states, len(times)).

    Exact up to roundoff and independent of the library's propagators;
    affordable on small grids and for single resonant solves.
    """
    dense = matrix.generator.toarray()
    return np.column_stack([expm(dense * float(t)) @ p0 for t in times])


def gaussian_profile_fwhm(scenario, tau_scaled: float) -> float:
    """Readout-dip FWHM (rad/s) of a Gaussian-laser, narrow-line scenario.

    When the laser is far broader than the transition, absorption and
    stimulated emission both scale with the laser profile
    g(delta) = exp(-delta^2 / 2 sigma_L^2) while spontaneous emission and
    heating do not depend on delta.  The signal at detuning delta is then
    F(g(delta)), where F(g) is the resonant fluorescence with the laser
    intensity scaled by g.  The dip reaches half depth where
    F(g) = (F(0) + F(1)) / 2, so the FWHM is 2 sigma_L sqrt(2 ln(1/g_half)).
    Each F(g) is one dense matrix exponential on resonance; no detuning
    scan, lineshape evaluation or dip measurement is involved.  Defaults
    match readout_spectrum: pi-pulse on the (0, -1) sideband, leak
    survival 1/2.
    """
    laser, line = scenario.laser, scenario.line
    # r(delta) ~ g(delta) up to the Lorentzian part of the Voigt overlap,
    # a relative error of order Gamma_t / Gamma_L: 9.4e-5 of the peak at
    # this bound, 4.7e-8 for the MgH preset
    if not line.gamma_t < 1e-4 * laser.fwhm:
        raise ValueError("oracle holds only for a Gaussian laser much broader "
                         "than the transition")
    tau_spec = tau_scaled / base_rate(laser, line, 0.0, "absorption")
    pulse = pi_pulse(scenario.system, (0, -1))
    ground = PopulationState.ground(scenario)
    cache = {}

    def signal(g):
        if g not in cache:
            scaled = scenario.with_laser(intensity=g * laser.intensity)
            matrix = build_rate_matrix(scaled, 0.0)
            p = expm_populations(matrix, ground.to_vector(), [tau_spec])[:, 0]
            state = PopulationState.from_vector(np.clip(p, 0.0, None),
                                                matrix.grid_shape)
            cache[g] = fluorescence_probability(state, pulse)
        return cache[g]

    half = 0.5 * (signal(0.0) + signal(1.0))
    g_half = brentq(lambda g: signal(g) - half, 0.0, 1.0, xtol=1e-7)
    return 2.0 * laser.sigma * np.sqrt(2.0 * np.log(1.0 / g_half))


def heating_kernel_loop(scenario) -> sp.csc_matrix:
    """Heating ladder generator built one grid state at a time.

    Each motional state of either internal block moves up one quantum in
    a mode at that mode's heating rate; a jump past the grid edge goes to
    the leak row.
    """
    n_ip = scenario.n_ip_max + 1
    n_op = scenario.n_op_max + 1
    n_mot = n_ip * n_op
    leak = scenario.leak_index
    rows, cols, data = [], [], []
    for block in (0, 1):
        for i in range(n_ip):
            for j in range(n_op):
                src = block * n_mot + i * n_op + j
                for rate, di, dj in ((scenario.heat_ip, 1, 0), (scenario.heat_op, 0, 1)):
                    if rate == 0.0:
                        continue
                    ii, jj = i + di, j + dj
                    dest = (block * n_mot + ii * n_op + jj
                            if ii < n_ip and jj < n_op else leak)
                    rows += [dest, src]
                    cols += [src, src]
                    data += [rate, -rate]
    n = scenario.n_states
    return sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsc()
