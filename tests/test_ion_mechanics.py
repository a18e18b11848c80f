import numpy as np
import pytest

from recoilspec.constants import CA40_U, MG24_U, ion_mass_kg
from recoilspec.ion_mechanics import (BeamGeometry, IonSpecies, TwoIonSystem,
                                      lamb_dicke, mode_eigenvectors,
                                      mode_frequencies)
from recoilspec.presets import CA40, MG24, MGH24, OMEGA_Z_DEFAULT

from oracles import hessian_mode_data

MU_MG_CA = ion_mass_kg(MG24_U) / ion_mass_kg(CA40_U)


def test_equal_mass_limit():
    wz = 2 * np.pi * 100e3
    w_ip, w_op = mode_frequencies(1.0, wz)
    assert w_ip == pytest.approx(wz, rel=1e-14)
    assert w_op == pytest.approx(np.sqrt(3.0) * wz, rel=1e-14)


def test_mg_ca_mode_frequencies():
    w_ip, w_op = mode_frequencies(MU_MG_CA, OMEGA_Z_DEFAULT)
    assert w_ip / (2 * np.pi) == pytest.approx(162.9e3, rel=1e-3)
    assert w_op / (2 * np.pi) == pytest.approx(300.2e3, rel=1e-3)


def test_mgh_ca_mode_frequencies():
    mu = MGH24.mass / CA40.mass
    w_ip, w_op = mode_frequencies(mu, OMEGA_Z_DEFAULT)
    assert w_ip / (2 * np.pi) == pytest.approx(162.0e3, rel=1e-3)
    assert w_op / (2 * np.pi) == pytest.approx(295.7e3, rel=1e-3)


@pytest.mark.parametrize("mu", np.geomspace(0.1, 10.0, 13).tolist())
def test_frequencies_match_hessian_oracle(mu):
    wz = 2 * np.pi * 147.9e3
    w_ip, w_op = mode_frequencies(mu, wz)
    o_ip, o_op, _, _ = hessian_mode_data(mu, wz)
    assert w_ip == pytest.approx(o_ip, rel=1e-12)
    assert w_op == pytest.approx(o_op, rel=1e-12)
    assert w_op > w_ip > 0


@pytest.mark.parametrize("mu", [0.3, 0.6, 1.0, 2.0])
def test_eigenvectors_normalized_and_match_oracle(mu):
    b_ip_r, b_ip_t, b_op_r, b_op_t = mode_eigenvectors(mu)
    assert b_ip_r**2 + b_ip_t**2 == pytest.approx(1.0, abs=1e-14)
    assert b_op_r**2 + b_op_t**2 == pytest.approx(1.0, abs=1e-14)
    _, _, o_ip, o_op = hessian_mode_data(mu, 1.0)
    assert sorted(np.abs([b_ip_r, b_ip_t])) == pytest.approx(
        sorted(np.abs(o_ip)), rel=1e-12)
    assert sorted(np.abs([b_op_r, b_op_t])) == pytest.approx(
        sorted(np.abs(o_op)), rel=1e-12)


def test_equal_mass_eigenvectors_symmetric():
    b_ip_r, b_ip_t, _, _ = mode_eigenvectors(1.0)
    assert abs(b_ip_r) == pytest.approx(1 / np.sqrt(2), rel=1e-14)
    assert abs(b_ip_t) == pytest.approx(1 / np.sqrt(2), rel=1e-14)


def test_swapping_species_preserves_frequency_set():
    # same trap curvature: the lone-ion frequency of the new readout ion
    # rescales by sqrt of the mass ratio
    wz = 2 * np.pi * 147.9e3
    mu = MU_MG_CA
    direct = mode_frequencies(mu, wz)
    swapped = mode_frequencies(1.0 / mu, wz / np.sqrt(mu))
    assert swapped[0] == pytest.approx(direct[0], rel=1e-12)
    assert swapped[1] == pytest.approx(direct[1], rel=1e-12)


def test_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        mode_frequencies(-1.0, 1.0)
    with pytest.raises(ValueError):
        mode_frequencies(1.0, 0.0)
    with pytest.raises(ValueError):
        mode_eigenvectors(0.0)
    with pytest.raises(ValueError):
        IonSpecies(mass=-1e-26)
    with pytest.raises(ValueError):
        BeamGeometry(wavelength=279.6e-9, axial_projection=1.5)


@pytest.fixture(scope="module")
def mg_ca_system():
    return TwoIonSystem(target=MG24, readout=CA40, omega_z=OMEGA_Z_DEFAULT)


@pytest.fixture(scope="module")
def mgh_ca_system():
    return TwoIonSystem(target=MGH24, readout=CA40, omega_z=OMEGA_Z_DEFAULT)


def test_system_derived_fields(mg_ca_system):
    s = mg_ca_system
    assert s.omega_op > s.omega_ip > 0
    assert s.b_ip_r**2 + s.b_ip_t**2 == pytest.approx(1.0, abs=1e-14)


def test_mg_lamb_dicke_values(mg_ca_system):
    along_z = BeamGeometry(279.6e-9, 1.0)
    eta = lamb_dicke(mg_ca_system, along_z, "target")
    assert eta[0] == pytest.approx(0.42, rel=0.02)
    assert eta[1] == pytest.approx(0.51, rel=0.02)
    at_45 = BeamGeometry(279.6e-9, 1 / np.sqrt(2))
    eta45 = lamb_dicke(mg_ca_system, at_45, "target")
    assert eta45[0] == pytest.approx(eta[0] / np.sqrt(2), rel=1e-12)
    assert eta45[0] == pytest.approx(0.30, rel=0.02)
    assert eta45[1] == pytest.approx(0.36, rel=0.02)


def test_readout_ion_lamb_dicke_values(mg_ca_system, mgh_ca_system):
    beam = BeamGeometry(729e-9, 1.0)
    eta = lamb_dicke(mg_ca_system, beam, "readout")
    assert eta[0] == pytest.approx(0.204, rel=0.02)
    assert eta[1] == pytest.approx(0.0917, rel=0.02)
    eta = lamb_dicke(mgh_ca_system, beam, "readout")
    assert eta[0] == pytest.approx(0.203, rel=0.02)
    assert eta[1] == pytest.approx(0.0949, rel=0.02)


def test_mgh_lamb_dicke_values(mgh_ca_system):
    beam = BeamGeometry(6.17e-6, 1 / np.sqrt(2))
    eta = lamb_dicke(mgh_ca_system, beam, "target")
    assert eta[0] == pytest.approx(0.0136, rel=0.02)
    assert eta[1] == pytest.approx(0.0159, rel=0.02)


def test_lamb_dicke_scales_inverse_sqrt_frequency():
    base = TwoIonSystem(target=MG24, readout=CA40, omega_z=OMEGA_Z_DEFAULT)
    stiffer = TwoIonSystem(target=MG24, readout=CA40, omega_z=4 * OMEGA_Z_DEFAULT)
    beam = BeamGeometry(279.6e-9, 1.0)
    for a, b in zip(lamb_dicke(base, beam, "target"),
                    lamb_dicke(stiffer, beam, "target")):
        assert b == pytest.approx(a / 2.0, rel=1e-12)


def test_lamb_dicke_rejects_unknown_ion(mg_ca_system):
    with pytest.raises(ValueError):
        lamb_dicke(mg_ca_system, BeamGeometry(729e-9, 1.0), "spectator")
