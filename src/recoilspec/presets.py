"""Ready-made scenarios: Mg+ / Ca+ and MgH+ / Ca+ crystals.

mg24_ca40: the broad 280 nm electronic transition of Mg-24 probed by a
narrow (delta-line) laser, sympathetically cooled by Ca-40; mixed
pi/sigma emission pattern, both channel scales 2/3.

mgh24_ca40: the narrow 6.17 um rovibrational transition of MgH-24
probed by a broad Gaussian laser; isotropic emission, stimulated scale
1/3 and absorption scale 1/9 (Larmor averaging over the lower
sub-levels), tighter sideband truncation.
"""

import numpy as np

from .constants import CA40_U, H1_U, MG24_U, ion_mass_kg
from .ion_mechanics import BeamGeometry, IonSpecies, TwoIonSystem
from .radiation import (EmissionPattern, LaserField, TransitionLine,
                        effective_saturation_intensity)
from .rate_engine import SpectroscopyScenario

MG24 = IonSpecies(mass=ion_mass_kg(MG24_U), label="Mg24+")
CA40 = IonSpecies(mass=ion_mass_kg(CA40_U), label="Ca40+")
MGH24 = IonSpecies(mass=ion_mass_kg(MG24_U + H1_U), label="MgH24+")

OMEGA_Z_DEFAULT = 2.0 * np.pi * 147.9e3   # lone Ca+ axial frequency, rad/s
READOUT_WAVELENGTH = 729e-9               # Ca+ quadrupole shelving transition

HEAT_IP_DEFAULT = 14.0   # 1/s, measured trap heating rates
HEAT_OP_DEFAULT = 1.7


def mg24_ca40(intensity_sat_units: float = 6.54e-6,
              omega_z: float = OMEGA_Z_DEFAULT,
              heat_ip: float = HEAT_IP_DEFAULT,
              heat_op: float = HEAT_OP_DEFAULT,
              axial_projection: float = 1.0 / np.sqrt(2.0)) -> SpectroscopyScenario:
    """Mg-24 target, Ca-40 readout, transition-broadened regime.

    intensity_sat_units is the laser intensity in units of the effective
    saturation intensity (level-structure scaling included), the way
    intensities are usually quoted for this system.
    """
    system = TwoIonSystem(target=MG24, readout=CA40, omega_z=omega_z)
    line = TransitionLine.from_wavelength(279.6e-9, gamma_t=2.0 * np.pi * 41.8e6,
                                          absorption_scale=2.0 / 3.0,
                                          stimulated_scale=2.0 / 3.0)
    intensity = intensity_sat_units * effective_saturation_intensity(line)
    return SpectroscopyScenario(
        system=system, line=line,
        laser=LaserField(intensity=intensity),
        beam=BeamGeometry(wavelength=279.6e-9, axial_projection=axial_projection),
        pattern=EmissionPattern("mg_mixed"),
        s_ip_max=5, s_op_max=6,
        heat_ip=heat_ip, heat_op=heat_op)


def mgh24_ca40(laser_fwhm: float = 2.0 * np.pi * 50e6,
               intensity_sat_units: float = 2.08e4,
               omega_z: float = OMEGA_Z_DEFAULT,
               heat_ip: float = HEAT_IP_DEFAULT,
               heat_op: float = HEAT_OP_DEFAULT,
               axial_projection: float = 1.0 / np.sqrt(2.0)) -> SpectroscopyScenario:
    """MgH-24 target, Ca-40 readout, laser-broadened regime.

    laser_fwhm is the Gaussian spectral FWHM in rad/s; the saturation
    intensity scales with it, so intensity_sat_units refers to the
    effective saturation intensity at this width.
    """
    system = TwoIonSystem(target=MGH24, readout=CA40, omega_z=omega_z)
    line = TransitionLine.from_wavelength(6.17e-6, gamma_t=2.0 * np.pi * 2.50,
                                          absorption_scale=1.0 / 9.0,
                                          stimulated_scale=1.0 / 3.0)
    sigma = laser_fwhm / np.sqrt(8.0 * np.log(2.0))
    intensity = intensity_sat_units * effective_saturation_intensity(line, sigma)
    return SpectroscopyScenario(
        system=system, line=line,
        laser=LaserField(intensity=intensity, fwhm=laser_fwhm),
        beam=BeamGeometry(wavelength=6.17e-6, axial_projection=axial_projection),
        pattern=EmissionPattern("isotropic"),
        s_ip_max=3, s_op_max=3,
        heat_ip=heat_ip, heat_op=heat_op)


PRESETS = {
    "mg24_ca40": mg24_ca40,
    "mgh24_ca40": mgh24_ca40,
}
