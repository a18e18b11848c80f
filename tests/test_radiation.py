import io

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import voigt_profile

from recoilspec.constants import C, HBAR
from recoilspec.ion_mechanics import TwoIonSystem
from recoilspec.presets import CA40, MG24, OMEGA_Z_DEFAULT
from recoilspec.radiation import (EmissionPattern, LaserField, QuadratureError,
                                  TransitionLine, base_rate,
                                  composite_target_lineshape,
                                  effective_saturation_intensity,
                                  effective_spectral_density,
                                  emission_coefficients, lineshape_value,
                                  saturation_intensity, solid_angle_norm,
                                  write_d_table_csv)

from oracles import overlap_trapezoid, split_lorentzian_fwhm

GAMMA_MG = 2 * np.pi * 41.8e6
GAMMA_MGH = 2 * np.pi * 2.50


@pytest.fixture(scope="module")
def mg_line():
    return TransitionLine.from_wavelength(279.6e-9, GAMMA_MG,
                                          absorption_scale=2 / 3,
                                          stimulated_scale=2 / 3)


@pytest.fixture(scope="module")
def mgh_line():
    return TransitionLine.from_wavelength(6.17e-6, GAMMA_MGH,
                                          absorption_scale=1 / 9,
                                          stimulated_scale=1 / 3)


# --------------------------------------------------------------------------
# lineshapes
# --------------------------------------------------------------------------

def test_lorentzian_peak_and_halfwidth():
    gamma = 2 * np.pi * 10e6
    peak = lineshape_value("lorentzian", 0.0, 0.0, gamma)
    assert peak == pytest.approx(2.0 / (np.pi * gamma), rel=1e-14)
    assert lineshape_value("lorentzian", gamma / 2, 0.0, gamma) == pytest.approx(
        peak / 2, rel=1e-14)


def test_gaussian_peak():
    sigma = 2 * np.pi * 4e6
    assert lineshape_value("gaussian", 0.0, 0.0, sigma) == pytest.approx(
        1.0 / (np.sqrt(2 * np.pi) * sigma), rel=1e-14)


@pytest.mark.parametrize("kind,width", [("lorentzian", 2 * np.pi * 41.8e6),
                                        ("gaussian", 2 * np.pi * 21e6)])
def test_lineshapes_normalized(kind, width):
    # the Lorentzian tail out to X leaves Gamma/(pi X); reach 1e-8 analytically
    span = 6.4e7 * width if kind == "lorentzian" else 15 * width
    breaks = [s * width for k in range(0, 28) for s in (-2.0**k, 2.0**k)]
    points = sorted({0.0, *(b for b in breaks if -span < b < span)})
    val, _ = quad(lambda w: lineshape_value(kind, w, 0.0, width),
                  -span, span, points=points, limit=500)
    assert val == pytest.approx(1.0, abs=1e-8)


def test_lineshape_rejects_bad_input():
    with pytest.raises(ValueError):
        lineshape_value("lorentzian", 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        lineshape_value("boxcar", 0.0, 0.0, 1.0)


# --------------------------------------------------------------------------
# effective spectral density
# --------------------------------------------------------------------------

def test_delta_laser_on_resonance(mg_line):
    laser = LaserField(intensity=1.0)
    want = (3.0 / C) * 2.0 / (np.pi * mg_line.gamma_t)
    assert effective_spectral_density(laser, mg_line) == pytest.approx(want, rel=1e-12)


def test_narrow_transition_limit_is_laser_peak():
    # transition much narrower than the laser: density is the Gaussian peak
    line = TransitionLine.from_wavelength(6.17e-6, GAMMA_MGH)
    laser = LaserField(intensity=2.5, fwhm=2 * np.pi * 50e6)
    want = 3.0 * 2.5 / C / (np.sqrt(2 * np.pi) * laser.sigma)
    assert effective_spectral_density(laser, line) == pytest.approx(want, rel=1e-6)


def test_general_convolution_matches_grid_oracle(mg_line):
    gamma = mg_line.gamma_t
    cases = [(10 * gamma, (0.0, 3 * gamma), 1e-6),
             (2.0 * np.sqrt(8 * np.log(2)) * gamma, (0.0, gamma, 5 * gamma), 1e-9)]
    for fwhm, deltas, rel in cases:
        laser = LaserField(intensity=1.0, fwhm=fwhm)
        for delta in deltas:
            got = effective_spectral_density(laser, mg_line, delta)
            want = 3.0 / C * overlap_trapezoid(gamma, laser.sigma, delta)
            assert got == pytest.approx(want, rel=rel)


def test_overlap_symmetric_in_detuning(mg_line):
    laser = LaserField(intensity=1.0, fwhm=2 * mg_line.gamma_t)
    plus = effective_spectral_density(laser, mg_line, 1.7 * mg_line.gamma_t)
    minus = effective_spectral_density(laser, mg_line, -1.7 * mg_line.gamma_t)
    assert plus == pytest.approx(minus, rel=1e-9)


def test_general_path_agrees_with_limit_forms(mg_line):
    # evaluating the full convolution in a strongly lopsided regime must
    # land on the corresponding single-lineshape limit
    narrow_laser_fwhm = 1e-5 * np.sqrt(8 * np.log(2)) * mg_line.gamma_t
    laser = LaserField(intensity=1.0, fwhm=narrow_laser_fwhm)
    got = effective_spectral_density(laser, mg_line, 0.3 * mg_line.gamma_t) * C / 3.0
    want = lineshape_value("lorentzian", 0.3 * mg_line.gamma_t, 0.0, mg_line.gamma_t)
    assert got == pytest.approx(want, rel=1e-4)


@pytest.mark.parametrize("delta_over_sigma", [0.0, 3.0])
def test_density_continuous_across_width_ratio(mgh_line, delta_over_sigma):
    # no regime threshold: a 1e-9 step in the laser width around
    # Gamma_t = 1e-4 Gamma_L moves the density smoothly
    densities = []
    for step in (-1e-9, 1e-9):
        laser = LaserField(intensity=1.0, fwhm=1e4 * mgh_line.gamma_t * (1 + step))
        densities.append(effective_spectral_density(
            laser, mgh_line, delta_over_sigma * laser.sigma))
    assert abs(densities[1] / densities[0] - 1.0) < 1e-6


def test_zero_width_configurations_rejected():
    with pytest.raises(ValueError):
        LaserField(intensity=1.0, fwhm=-1.0)
    with pytest.raises(ValueError):
        TransitionLine(omega_t=1e15, gamma_t=0.0)


# --------------------------------------------------------------------------
# saturation intensities and base rates
# --------------------------------------------------------------------------

def test_mg_saturation_intensity(mg_line):
    # two-level value times 1.5 from the 2/3 level-structure scale
    eff = effective_saturation_intensity(mg_line)
    assert eff == pytest.approx(0.749e4, rel=0.01)
    bare = saturation_intensity(mg_line)
    assert eff == pytest.approx(bare / mg_line.absorption_scale, rel=1e-14)


def test_mgh_saturation_intensity(mgh_line):
    sigma = 2 * np.pi * 50e6 / np.sqrt(8 * np.log(2))
    eff = effective_saturation_intensity(mgh_line, sigma)
    assert eff == pytest.approx(3.40, rel=0.01)
    # affine in the laser width: equal steps in sigma_L give equal steps
    i1, i2, i3 = (saturation_intensity(mgh_line, k * sigma) for k in (1, 2, 3))
    assert i3 - i2 == pytest.approx(i2 - i1, rel=1e-12)
    # and proportional to it up to the Lorentzian part of the line,
    # sqrt(2 / pi) (Gamma_t / 2) / (2 sigma_L) = 2.3e-8 here
    assert i2 == pytest.approx(2 * i1, rel=1e-7)


def _isat_closed_forms(line, sigma_l):
    """The two limits of the saturation intensity, hbar w^3 over c^2 times
    Gamma_t / (6 pi) for a delta laser, sqrt(2) sigma_L / (3 pi^1.5) for a
    laser much broader than the line."""
    w3 = HBAR * line.omega_t ** 3 / C ** 2
    return (w3 * line.gamma_t / (6 * np.pi),
            np.sqrt(2) * w3 * sigma_l / (3 * np.pi ** 1.5))


@pytest.mark.parametrize("which", ["mg", "mgh"])
def test_saturation_intensity_continuous_in_laser_width(which, mg_line,
                                                        mgh_line):
    line = mg_line if which == "mg" else mgh_line
    delta_form, _ = _isat_closed_forms(line, 0.0)
    assert saturation_intensity(line) == pytest.approx(delta_form, rel=1e-14)
    # Gamma_L -> 0+ joins the delta-laser value, quadratically in sigma_L
    for ratio in (1e-3, 1e-6, 1e-9):
        got = saturation_intensity(line, ratio * line.gamma_t)
        assert got == pytest.approx(delta_form, rel=5.0 * ratio ** 2 + 1e-14)
    # a laser much broader than the line gives the Gaussian closed form,
    # to the relative size of the Lorentzian part
    for ratio in (1e4, 1e6, 1e8):
        sigma_l = ratio * line.gamma_t
        _, broad_form = _isat_closed_forms(line, sigma_l)
        assert saturation_intensity(line, sigma_l) == pytest.approx(
            broad_form, rel=1.0 / ratio)


def test_saturation_intensity_argument_errors(mg_line):
    with pytest.raises(ValueError):
        saturation_intensity(mg_line, -1.0)


def test_mg_resonant_base_rate(mg_line):
    intensity = 6.54e-6 * effective_saturation_intensity(mg_line)
    laser = LaserField(intensity=intensity)
    rate = base_rate(laser, mg_line, 0.0, "absorption")
    assert rate == pytest.approx(mg_line.gamma_t * 6.54e-6, rel=1e-9)
    assert rate == pytest.approx(1.72e3, rel=0.01)
    assert rate * 1.3e-3 == pytest.approx(2.23, rel=0.01)


def test_mgh_resonant_base_rate(mgh_line):
    sigma = 2 * np.pi * 50e6 / np.sqrt(8 * np.log(2))
    laser = LaserField(intensity=2.08e4 * effective_saturation_intensity(
        mgh_line, sigma), fwhm=2 * np.pi * 50e6)
    rate = base_rate(laser, mgh_line, 0.0, "absorption")
    assert rate * 10e-3 == pytest.approx(3280, rel=0.02)
    # stimulated channel carries scale 1/3 instead of 1/9
    assert base_rate(laser, mgh_line, 0.0, "stimulated") == pytest.approx(
        3 * rate, rel=1e-12)


def test_zero_intensity_gives_zero_rate(mg_line):
    laser = LaserField(intensity=0.0)
    assert base_rate(laser, mg_line, 0.0, "absorption") == 0.0


def test_base_rate_definition_consistency(mg_line):
    # R(resonance) * I_sat / I_L = Gamma_t * channel_scale
    laser = LaserField(intensity=3.3)
    for channel, scale in (("absorption", mg_line.absorption_scale),
                           ("stimulated", mg_line.stimulated_scale)):
        rate = base_rate(laser, mg_line, 0.0, channel)
        assert rate * saturation_intensity(mg_line) / 3.3 == pytest.approx(
            mg_line.gamma_t * scale, rel=1e-12)


# --------------------------------------------------------------------------
# emission patterns and recoil coefficients
# --------------------------------------------------------------------------

def test_isotropic_weight():
    pat = EmissionPattern("isotropic")
    assert pat.weight(0.3, 1.2) == pytest.approx(1 / (4 * np.pi))


def test_pi_pattern_broadside():
    pat = EmissionPattern("pi")
    # directions with sin(theta) sin(phi) = 0 see the full dipole lobe
    assert pat.weight(np.pi / 2, 0.0) == pytest.approx(3 / (8 * np.pi))
    assert pat.weight(0.0, 1.0) == pytest.approx(3 / (8 * np.pi))


@pytest.mark.parametrize("kind", ["isotropic", "pi", "sigma", "mg_mixed"])
def test_patterns_normalized(kind):
    assert solid_angle_norm(EmissionPattern(kind)) == pytest.approx(1.0, abs=1e-6)


def test_unknown_pattern_rejected():
    with pytest.raises(ValueError):
        EmissionPattern("cardioid")
    with pytest.raises(ValueError):
        EmissionPattern("custom")


@pytest.fixture(scope="module")
def mg_system():
    return TwoIonSystem(target=MG24, readout=CA40, omega_z=OMEGA_Z_DEFAULT)


@pytest.fixture(scope="module")
def mg_d_table(mg_line, mg_system):
    return emission_coefficients(EmissionPattern("mg_mixed"), mg_line, mg_system,
                                 n_max=(7, 7), s_max=(5, 6))


def test_d_entries_are_probabilities(mg_d_table):
    assert mg_d_table.min() >= 0.0
    assert mg_d_table.max() <= 1.0 + 1e-12


def test_d_rows_sum_to_one(mg_d_table):
    for n_ip in range(6):
        for n_op in range(6):
            assert mg_d_table[n_ip, n_op].sum() == pytest.approx(1.0, abs=1e-5)


def test_d_symmetric_under_path_reversal(mg_d_table):
    # D for n -> n+s equals D for n+s -> n
    assert mg_d_table[0, 0, 5 + 1, 6] == pytest.approx(
        mg_d_table[1, 0, 5 - 1, 6], rel=1e-12)
    assert mg_d_table[2, 3, 5 + 2, 6 - 1] == pytest.approx(
        mg_d_table[4, 2, 5 - 2, 6 + 1], rel=1e-12)


def test_zero_recoil_limit(mg_system):
    # an absurdly long wavelength carries no recoil: only s = 0 survives
    line = TransitionLine.from_wavelength(1.0, gamma_t=1.0)
    table = emission_coefficients(EmissionPattern("isotropic"), line, mg_system,
                                  n_max=(3, 3), s_max=(2, 2))
    carrier = table[:, :, 2, 2]
    assert carrier == pytest.approx(np.ones((4, 4)), abs=1e-10)
    table[:, :, 2, 2] = 0.0
    assert np.abs(table).max() < 1e-10


def test_quadrature_convergence_failure_reported(mg_line, mg_system):
    with pytest.raises(QuadratureError):
        emission_coefficients(EmissionPattern("mg_mixed"), mg_line, mg_system,
                              n_max=(7, 7), s_max=(3, 3), n_theta=2, n_phi=4)


def test_single_node_quadrature_reported(mg_line, mg_system):
    # one Gauss-Legendre node still gives a 3-D xi table, so the coarse
    # pass reaches the refinement check instead of failing in einsum
    with pytest.raises(QuadratureError):
        emission_coefficients(EmissionPattern("mg_mixed"), mg_line, mg_system,
                              n_max=(7, 7), s_max=(3, 3), n_theta=1, n_phi=4)


def test_d_table_csv_export(mg_d_table):
    buf = io.StringIO()
    write_d_table_csv(mg_d_table, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n_ip,n_op,s_ip,s_op,D"
    assert len(lines) == 1 + mg_d_table.size
    # flat row order is (n_ip, n_op, s_ip, s_op); spot-check one entry
    n_ip, n_op, s_ip, s_op, val = lines[1 + 6 * 13 + 6].split(",")
    assert (int(n_ip), int(n_op), int(s_ip), int(s_op)) == (0, 0, 1, 0)
    assert float(val) == pytest.approx(mg_d_table[0, 0, 5 + 1, 6 + 0], rel=1e-10)


# --------------------------------------------------------------------------
# composite lineshape
# --------------------------------------------------------------------------

def test_composite_reduces_to_natural_width():
    _, fwhm = composite_target_lineshape(GAMMA_MG, 0.0, 0.0)
    assert fwhm == pytest.approx(GAMMA_MG, rel=1e-9)


def test_composite_mg_effective_width():
    _, fwhm = composite_target_lineshape(GAMMA_MG, 2 * np.pi * 3e6,
                                         2 * np.pi * 6.1e6)
    assert fwhm / (2 * np.pi) == pytest.approx(42.5e6, rel=0.02)


def test_composite_gaussian_dominated_limit():
    gamma = 2 * np.pi * 0.1e6
    doppler = 2 * np.pi * 30e6
    _, fwhm = composite_target_lineshape(gamma, doppler, 0.0)
    assert fwhm == pytest.approx(doppler, rel=0.05)


def test_composite_profile_matches_voigt_oracle():
    doppler = 2 * np.pi * 3e6
    zeeman = 2 * np.pi * 6.1e6
    profile, _ = composite_target_lineshape(GAMMA_MG, doppler, zeeman)
    sigma = doppler / np.sqrt(8 * np.log(2))
    for delta in (0.0, GAMMA_MG / 3, GAMMA_MG):
        want = 0.5 * (voigt_profile(delta - zeeman / 2, sigma, GAMMA_MG / 2)
                      + voigt_profile(delta + zeeman / 2, sigma, GAMMA_MG / 2))
        assert profile(delta) == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("splitting", [1.0, 2.0])
def test_composite_split_width_matches_grid_oracle(splitting):
    # splittings comparable to Gamma_t put the peak strictly between the
    # line center and the component centers
    _, fwhm = composite_target_lineshape(1.0, 0.0, splitting)
    assert fwhm == pytest.approx(split_lorentzian_fwhm(1.0, splitting), rel=1e-6)


def test_composite_rejects_bad_widths():
    with pytest.raises(ValueError):
        composite_target_lineshape(0.0)
    with pytest.raises(ValueError):
        composite_target_lineshape(GAMMA_MG, -1.0, 0.0)
