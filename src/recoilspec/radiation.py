"""Light-field machinery: lineshapes, rates, and emission-recoil tables.

Covers the spectral overlap of a laser line with the target transition
(effective spectral energy density), the absorption base rate and the
saturation intensities derived from it, emission patterns for spontaneous
decay as densities in cos(theta), and the direction-averaged recoil
coefficients D that weight spontaneous emission on each motional sideband.

The overlap is a Voigt profile, evaluated in numpy for a delta laser (the
Lorentzian) and for a laser far broader than the line (an expansion in
the Voigt parameter y up to NARROW_LINE_Y, which covers every MgH+
laser); only a Gaussian laser with a larger y imports scipy.special.
"""

from dataclasses import dataclass

import numpy as np

from .constants import C, HBAR
from .coupling import xi_mode_table
from .ion_mechanics import BeamGeometry, TwoIonSystem, lamb_dicke


class QuadratureError(RuntimeError):
    """A numerical integral failed its refinement convergence check."""


@dataclass(frozen=True)
class TransitionLine:
    """Target transition: center, natural width, level-structure scales.

    gamma_t is the natural FWHM decay rate (rad/s).  The scales are the
    squared Clebsch-Gordan / sub-level-averaging factors multiplying the
    two-level absorption and stimulated-emission base rates; they stay
    attached to the line rather than being folded into the saturation
    intensity formulas.
    """
    omega_t: float
    gamma_t: float
    absorption_scale: float = 1.0
    stimulated_scale: float = 1.0

    def __post_init__(self):
        if self.omega_t <= 0:
            raise ValueError("transition frequency must be positive")
        if self.gamma_t <= 0:
            raise ValueError("natural linewidth must be positive")
        for name in ("absorption_scale", "stimulated_scale"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {v}")

    @classmethod
    def from_wavelength(cls, wavelength: float, gamma_t: float, **kw):
        return cls(omega_t=2.0 * np.pi * C / wavelength, gamma_t=gamma_t, **kw)

    @property
    def wavelength(self) -> float:
        return 2.0 * np.pi * C / self.omega_t


@dataclass(frozen=True)
class LaserField:
    """Spectroscopy light field.

    fwhm is the spectral FWHM Gamma_L = sqrt(8 ln 2) * sigma_L in rad/s
    of a Gaussian line; zero selects the delta-line (monochromatic) limit.
    """
    intensity: float            # W/m^2
    fwhm: float = 0.0           # rad/s

    def __post_init__(self):
        if self.intensity < 0:
            raise ValueError("intensity must be >= 0")
        if self.fwhm < 0:
            raise ValueError("laser fwhm must be >= 0")

    @property
    def sigma(self) -> float:
        """Gaussian standard deviation sigma_L in rad/s."""
        return self.fwhm / np.sqrt(8.0 * np.log(2.0))


# ---------------------------------------------------------------------------
# lineshapes and spectral overlap
# ---------------------------------------------------------------------------

# The narrow-line branch of _voigt serves y = gamma / (sigma sqrt 2) up to
# NARROW_LINE_Y, where its O(y^3) remainder is below 1e-12 relative.
NARROW_LINE_Y = 1e-6
# Rybicki's sum for Dawson's integral: step h and the odd offsets n' it
# sums over; the terms left out are below exp(-64).
_DAWSON_H = 0.2
_DAWSON_N = np.arange(-39.0, 40.0, 2.0)
# beyond |x| = 6, 2 x F(x) - 1 is its asymptotic series, cut at the
# smallest term at x = 6 (k = 36, 2.3e-14 of the sum); larger x cut smaller
_ASYMPTOTIC_X = 6.0
_ASYMPTOTIC_TERMS = 36


def _dawson(x):
    """Dawson's integral F(x) = exp(-x^2) int_0^x exp(t^2) dt for x >= 0.

    Rybicki's sum (G. B. Rybicki, Computers in Physics 3 (1989) 85):
    F(x) = pi^(-1/2) sum over odd n' of exp(-(x' - n' h)^2) / (n' + n0),
    with x = n0 h + x' and n0 h the even multiple of h nearest x.
    """
    x = np.asarray(x, dtype=float)
    n0 = 2.0 * np.rint(x / (2.0 * _DAWSON_H))
    shifted = (x - n0 * _DAWSON_H)[..., None] - _DAWSON_N * _DAWSON_H
    terms = np.exp(-shifted * shifted) / (_DAWSON_N + n0[..., None])
    return terms.sum(axis=-1) / np.sqrt(np.pi)


def _narrow_voigt(delta, sigma, gamma):
    """Voigt profile to O(y^2) in y = gamma / (sigma sqrt 2), even in delta.

    Re w(x + iy) = exp(-x^2) (1 - y^2 (2x^2 - 1)) + (2y / sqrt pi)(2x F(x) - 1)
    with x = |delta| / (sigma sqrt 2) and F Dawson's integral.  For
    |x| > 6 the y^2 term is below 1e-17 of the rest and is left out, and
    2x F(x) - 1 is its asymptotic series sum_k (2k - 1)!! / (2x^2)^k.
    """
    scale = sigma * np.sqrt(2.0)
    x = np.abs(np.atleast_1d(np.asarray(delta, dtype=float))) / scale
    y = gamma / scale
    wing = 2.0 * y / np.sqrt(np.pi)     # the weight of 2x F(x) - 1
    re_w = np.empty_like(x)
    near = x <= _ASYMPTOTIC_X
    if near.any():
        xn = x[near]
        x2 = xn * xn
        re_w[near] = (np.exp(-x2) * (1.0 - y * y * (2.0 * x2 - 1.0))
                      + wing * (2.0 * xn * _dawson(xn) - 1.0))
    if not near.all():
        xf = x[~near]
        u = 0.5 / xf / xf          # 1 / (2x^2), and 0 at x = inf
        series = np.zeros_like(xf)
        for k in range(_ASYMPTOTIC_TERMS, 0, -1):
            series = (2 * k - 1) * u * (1.0 + series)
        # exp(-x min(x, 30)) is exp(-x^2), both 0 past x = 30, and never
        # forms x^2 itself, which overflows for huge |delta|
        re_w[~near] = np.exp(-xf * np.minimum(xf, 30.0)) + wing * series
    return (re_w / (scale * np.sqrt(np.pi))).reshape(np.shape(delta))


def _voigt(delta, sigma, gamma):
    """Voigt profile: a Lorentzian of HWHM gamma convolved with a Gaussian
    of rms width sigma, at a detuning or an array of them.

    Three branches, by y = gamma / (sigma sqrt 2).  sigma = 0 leaves the
    Lorentzian, in the expression scipy.special.voigt_profile evaluates
    for it.  y <= NARROW_LINE_Y (a laser far broader than the line, such
    as every MgH+ laser) takes the numpy expansion in _narrow_voigt: it
    is within 3.1e-14 relative of voigt_profile for the 10-100 MHz MgH+
    lasers over +-600 MHz, and within 7.4e-14 over +-60 sigma at the
    bound.  Only a larger y imports scipy.special.voigt_profile.
    """
    if sigma == 0:
        return gamma / np.pi / (delta * delta + gamma * gamma)
    if gamma / (sigma * np.sqrt(2.0)) <= NARROW_LINE_Y:
        return _narrow_voigt(delta, sigma, gamma)
    from scipy.special import voigt_profile
    return voigt_profile(delta, sigma, gamma)


def effective_spectral_density(laser: LaserField, line: TransitionLine,
                               detuning=0.0):
    """Spectral energy density (J s / m^3) the transition sees.

    (3 I_L / c) times the overlap of the transition Lorentzian with the
    laser line, for a laser centered `detuning` rad/s from resonance.
    That overlap is the Voigt profile; a delta laser (sigma_L = 0) gives
    the bare Lorentzian.  A scalar detuning gives a float, an array of
    them an array.
    """
    overlap = _voigt(detuning, laser.sigma, line.gamma_t / 2.0)
    density = 3.0 * laser.intensity / C * np.asarray(overlap)
    return density if density.ndim else float(density)


def saturation_intensity(line: TransitionLine, sigma_L: float = 0.0) -> float:
    """Two-level saturation intensity in W/m^2 (no level-structure scales).

    hbar w_t^3 / (3 pi^2 c^2 V(0)), with V(0) the resonant Voigt overlap of
    the transition Lorentzian and a Gaussian laser of rms width sigma_L, so
    that the resonant base rate is Gamma_t I_L / I_sat at every laser
    width.  A delta laser (sigma_L = 0) gives hbar w_t^3 Gamma_t /
    (6 pi c^2); a laser much broader than the line approaches
    sqrt(2) hbar w_t^3 sigma_L / (3 pi^(3/2) c^2).
    """
    if sigma_L < 0:
        raise ValueError(f"sigma_L must be >= 0, got {sigma_L}")
    peak = _voigt(0.0, sigma_L, line.gamma_t / 2.0)
    return float(HBAR * line.omega_t**3 / (3.0 * np.pi**2 * C**2 * peak))


def effective_saturation_intensity(line: TransitionLine,
                                   sigma_L: float = 0.0) -> float:
    """Saturation intensity including the level-structure absorption scale.

    This is the quantity laser intensities are usually quoted against:
    the intensity at which the actual resonant absorption rate (with its
    Clebsch-Gordan scaling) equals Gamma_t.
    """
    return saturation_intensity(line, sigma_L) / line.absorption_scale


def base_rate(laser: LaserField, line: TransitionLine, detuning):
    """Absorption base rate r (1/s) at a detuning, or at an array of them.

    r = B * rho_eff(detuning) * absorption_scale with B = pi^2 c^3
    Gamma_t / (hbar w_t^3); multiply by |xi|^2 per sideband to get
    transition rates.  Stimulated emission runs at
    r * stimulated_scale / absorption_scale.  On resonance r equals
    Gamma_t * (I_L / I_sat) * absorption_scale with the unscaled
    two-level I_sat.
    """
    b_coef = np.pi**2 * C**3 * line.gamma_t / (HBAR * line.omega_t**3)
    density = effective_spectral_density(laser, line, detuning)
    return b_coef * density * line.absorption_scale


# ---------------------------------------------------------------------------
# spontaneous-emission geometry
# ---------------------------------------------------------------------------

# The recoil sees a photon's direction only through c = cos(theta), its
# projection on the crystal axis z, so a pattern is its density in c: the
# azimuthal average a + b c^2 of the dipole pattern, with 2a + 2b/3 = 1.
# The pi and sigma dipoles have their quantization axis along y; mg_mixed
# is 2/3 pi + 1/3 sigma.
_PATTERNS = {
    "isotropic": (1.0 / 2.0, 0.0),
    "pi": (3.0 / 8.0, 3.0 / 8.0),
    "sigma": (9.0 / 16.0, -3.0 / 16.0),
    "mg_mixed": (7.0 / 16.0, 3.0 / 16.0),
}


@dataclass(frozen=True)
class EmissionPattern:
    """Angular distribution of spontaneous photons, by named kind."""
    kind: str = "isotropic"

    def __post_init__(self):
        if self.kind not in _PATTERNS:
            raise ValueError(f"unknown emission pattern {self.kind!r}")

    def density(self, cos_theta):
        """Probability density of c = cos(theta) on [-1, 1], theta from z."""
        a, b = _PATTERNS[self.kind]
        c = np.asarray(cos_theta, dtype=float)
        return a + b * c * c


def _d_table_once(pattern, eta_ip_z, eta_op_z, n_max, s_max, n_theta):
    nodes, wts = np.polynomial.legendre.leggauss(n_theta)
    # a photon at cos(theta) = c recoils with eta_z * c along the axis
    t_ip = xi_mode_table(eta_ip_z * nodes, n_max[0], s_max[0]) ** 2
    t_op = xi_mode_table(eta_op_z * nodes, n_max[1], s_max[1]) ** 2
    return np.einsum("k,kau,kbv->abuv", wts * pattern.density(nodes),
                     t_ip, t_op, optimize=True)


def emission_coefficients(pattern: EmissionPattern, line: TransitionLine,
                          system: TwoIonSystem,
                          n_max: tuple[int, int] = (19, 19),
                          s_max: tuple[int, int] = (5, 6),
                          n_theta: int = 32,
                          rtol: float = 1e-6) -> np.ndarray:
    """Sideband emission coefficients D on a motional grid.

    D[n_ip, n_op, s_ip_max + s_ip, s_op_max + s_op] is the probability
    that a spontaneously emitted photon changes the motional state from
    (n_ip, n_op) to (n_ip + s_ip, n_op + s_op): the average of |xi|^2
    over the pattern's density in cos(theta), with the axial recoil
    scaling as cos(theta).  Summed over an unbounded sideband range every
    row would add to 1.

    Quadrature is Gauss-Legendre in cos(theta); one refinement doubling
    serves as the convergence check.
    """
    # Lamb-Dicke parameters of a photon emitted straight along z
    eta_z = lamb_dicke(system, BeamGeometry(line.wavelength, 1.0), "target")
    coarse = _d_table_once(pattern, *eta_z, n_max, s_max, n_theta)
    fine = _d_table_once(pattern, *eta_z, n_max, s_max, 2 * n_theta)
    err = np.max(np.abs(fine - coarse))
    if err > rtol:
        raise QuadratureError(
            f"emission-coefficient quadrature changed by {err:.2e} on refinement "
            f"(tolerance {rtol:.0e}); raise n_theta")
    return fine


# ---------------------------------------------------------------------------
# composite target lineshape (Doppler + Zeeman broadening)
# ---------------------------------------------------------------------------

def composite_target_lineshape(gamma_t: float, doppler_fwhm: float = 0.0,
                               zeeman_splitting: float = 0.0):
    """Effective target line profile and its FWHM (all rad/s).

    Equal-weight average of two Doppler-broadened Lorentzians centered
    at +-zeeman_splitting/2.  Returns (profile, fwhm) where profile maps
    detuning from the unshifted center to spectral density.  The FWHM is
    twice the outer half-maximum crossing of the numeric profile.
    """
    # imported here, not at start-up: no command calls this function
    from scipy.optimize import brentq, minimize_scalar

    if gamma_t <= 0:
        raise ValueError("gamma_t must be positive")
    if doppler_fwhm < 0 or zeeman_splitting < 0:
        raise ValueError("broadening widths must be >= 0")
    sigma_d = doppler_fwhm / np.sqrt(8.0 * np.log(2.0))
    half = zeeman_splitting / 2.0

    def profile(delta):
        return 0.5 * (_voigt(delta - half, sigma_d, gamma_t / 2.0)
                      + _voigt(delta + half, sigma_d, gamma_t / 2.0))

    # the peak lies in [0, half]: at 0 for a small splitting, near half
    # for a large one and strictly between them when the splitting is
    # comparable to the component width
    x_peak = 0.0
    if half > 0:
        res = minimize_scalar(lambda x: -profile(x), bounds=(0.0, half),
                              method="bounded", options={"xatol": 1e-8 * half})
        x_peak = max((0.0, half, res.x), key=profile)
    target = profile(x_peak) / 2.0
    # beyond x_peak + Gamma_t + Gamma_D + splitting both components are
    # past their own FWHM, so the profile is below half its peak there
    outer = x_peak + gamma_t + doppler_fwhm + zeeman_splitting
    crossing = brentq(lambda x: profile(x) - target, x_peak, outer)
    return profile, float(2.0 * crossing)
