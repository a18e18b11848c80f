"""Independent reference implementations used to pin expected test values.

These deliberately avoid the code paths they check: couplings come from
the explicit factorial double sum, mode data from direct diagonalization
of the mass-weighted Hessian, spectral overlaps from fine-grid
trapezoid integration, split-line widths from a dense-grid half-maximum
search, emission coefficients from the full dipole patterns integrated
over the sphere in (theta, phi), time evolution from the dense matrix
exponential of the generator (the reference for the library's Krylov
propagator), laser-broadened dip widths from resonant dense matrix
exponentials instead of a detuning scan, the heating ladder from an
explicit loop over grid states, and the whole rate generator from a loop
over grid states and sidebands with every rate written out.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.optimize import brentq
from scipy.special import gammaln, voigt_profile

from recoilspec.constants import C, HBAR
from recoilspec.ion_mechanics import BeamGeometry, lamb_dicke
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


def dipole_pattern(kind: str, theta, phi):
    """Angular density W(theta, phi) (1/sr) of spontaneous photons.

    theta is measured from the crystal axis z; the pi and sigma dipoles
    have their quantization axis along y, and mg_mixed is 2/3 pi plus
    1/3 sigma.
    """
    theta, phi = np.broadcast_arrays(np.asarray(theta, float), np.asarray(phi, float))
    s2 = (np.sin(theta) * np.sin(phi)) ** 2
    pi = 3.0 / (8.0 * np.pi) * (1.0 - s2)
    sigma = 3.0 / (16.0 * np.pi) * (1.0 + s2)
    return {"isotropic": np.full_like(s2, 1.0 / (4.0 * np.pi)),
            "pi": pi, "sigma": sigma,
            "mg_mixed": (2.0 / 3.0) * pi + (1.0 / 3.0) * sigma}[kind]


def sphere_d_table(kind: str, eta_ip_z: float, eta_op_z: float,
                   n_max: tuple[int, int], s_max: tuple[int, int],
                   n_theta: int = 48, n_phi: int = 12) -> np.ndarray:
    """Emission coefficients D by a 2-D quadrature over the sphere.

    Gauss-Legendre in cos(theta) times a uniform grid in phi, weighting
    |xi|^2 from the factorial double sum at the axial recoil
    eta_z cos(theta) of each direction by dipole_pattern; same index
    layout as radiation.emission_coefficients.
    """
    nodes, wts = np.polynomial.legendre.leggauss(n_theta)
    phi = np.arange(n_phi) * 2.0 * np.pi / n_phi
    theta = np.arccos(nodes)[:, None]
    w = wts[:, None] * (2.0 * np.pi / n_phi) * dipole_pattern(kind, theta, phi)

    def table(eta_z, n_hi, s_hi):
        return np.array([[[abs(xi_double_sum_mode(eta_z * c, n, s)) ** 2
                           for s in range(-s_hi, s_hi + 1)]
                          for n in range(n_hi + 1)] for c in nodes])

    return np.einsum("kj,kau,kbv->abuv", w, table(eta_ip_z, n_max[0], s_max[0]),
                     table(eta_op_z, n_max[1], s_max[1]))


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
    tau_spec = tau_scaled / base_rate(laser, line, 0.0)
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


def generator_loop(scenario, detuning: float,
                   include_spontaneous: bool = True) -> np.ndarray:
    """Dense rate generator built one grid state and one sideband at a time.

    Absorption g(n) -> e(n+s) and stimulated emission e(n) -> g(n+s) run
    at their own rate B (3 I / c) V(detuning) times their channel scale,
    with V the Voigt overlap of laser and line and B = pi^2 c^3 Gamma_t /
    (hbar w_t^3), times |xi|^2 from the factorial double sum; spontaneous
    emission e(n) -> g(n+s) runs at Gamma_t times D from sphere_d_table,
    and heating comes from heating_kernel_loop.  A destination past the
    grid edge is the leak row, and each diagonal entry balances its
    column.
    """
    laser, line = scenario.laser, scenario.line
    n_ip, n_op = scenario.grid_shape
    s_ip, s_op = scenario.s_ip_max, scenario.s_op_max
    n_mot = n_ip * n_op
    leak = scenario.leak_index
    b_coef = np.pi**2 * C**3 * line.gamma_t / (HBAR * line.omega_t**3)
    rho_eff = 3.0 * laser.intensity / C * voigt_profile(detuning, laser.sigma,
                                                         line.gamma_t / 2.0)
    r_abs = b_coef * rho_eff * line.absorption_scale
    r_stim = b_coef * rho_eff * line.stimulated_scale
    eta_ip, eta_op = scenario.laser_eta()
    d = None
    if include_spontaneous:
        eta_z = lamb_dicke(scenario.system, BeamGeometry(line.wavelength, 1.0),
                           "target")
        d = sphere_d_table(scenario.pattern.kind, *eta_z, (n_ip - 1, n_op - 1),
                           (s_ip, s_op))
    g = heating_kernel_loop(scenario).toarray()
    for i in range(n_ip):
        for j in range(n_op):
            for u in range(-s_ip, s_ip + 1):
                for v in range(-s_op, s_op + 1):
                    if i + u < 0 or j + v < 0:
                        continue
                    xi2 = abs(xi_double_sum(eta_ip, eta_op, i, j, u, v)) ** 2
                    jumps = [(0, 1, r_abs * xi2), (1, 0, r_stim * xi2)]
                    if d is not None:
                        d_jump = d[i, j, s_ip + u, s_op + v]
                        jumps.append((1, 0, line.gamma_t * d_jump))
                    in_grid = i + u < n_ip and j + v < n_op
                    for src_block, dest_block, rate in jumps:
                        src = src_block * n_mot + i * n_op + j
                        dest = (dest_block * n_mot + (i + u) * n_op + j + v
                                if in_grid else leak)
                        g[dest, src] += rate
                        g[src, src] -= rate
    return g
