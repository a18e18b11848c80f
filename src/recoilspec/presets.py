"""Scenario construction: explicit physics, plus rows of preset values.

build() makes every scenario from explicit physics in SI units and rad/s.
A preset is a row of values for it (ROWS); mg24_ca40(**kw) and
mgh24_ca40(**kw) are build() called with their row, kw winning.

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

MG24 = IonSpecies(mass=ion_mass_kg(MG24_U))
CA40 = IonSpecies(mass=ion_mass_kg(CA40_U))
MGH24 = IonSpecies(mass=ion_mass_kg(MG24_U + H1_U))

OMEGA_Z_DEFAULT = 2.0 * np.pi * 147.9e3   # lone Ca+ axial frequency, rad/s


def build(*, target_mass: float, readout_mass: float, wavelength: float,
          gamma_t: float, pattern: str, absorption_scale: float = 1.0,
          stimulated_scale: float = 1.0, intensity_sat_units: float = 0.0,
          intensity: float | None = None, laser_fwhm: float = 0.0,
          omega_z: float = OMEGA_Z_DEFAULT,
          axial_projection: float = np.sqrt(0.5),
          heat_ip: float = 14.0, heat_op: float = 1.7,
          **fields) -> SpectroscopyScenario:
    """A two-ion scenario from explicit physics.

    Masses in kg, wavelength in m, gamma_t, laser_fwhm and omega_z in
    rad/s, heating rates in 1/s (the defaults are measured trap rates).
    The laser is Gaussian with FWHM laser_fwhm, or a delta line when it
    is 0.  intensity (W/m^2) wins over intensity_sat_units, which counts
    in effective saturation intensities at this laser width.  Further
    keywords (n_ip_max, n_op_max, s_ip_max, s_op_max, leak_warn_fraction)
    are SpectroscopyScenario fields.
    """
    line = TransitionLine.from_wavelength(wavelength, gamma_t=gamma_t,
                                          absorption_scale=absorption_scale,
                                          stimulated_scale=stimulated_scale)
    laser = LaserField(intensity=0.0, fwhm=laser_fwhm)
    if intensity is None:
        intensity = intensity_sat_units * effective_saturation_intensity(line, laser.sigma)
    return SpectroscopyScenario(
        system=TwoIonSystem(target=IonSpecies(target_mass),
                            readout=IonSpecies(readout_mass), omega_z=omega_z),
        line=line, laser=LaserField(intensity=intensity, fwhm=laser_fwhm),
        beam=BeamGeometry(wavelength, axial_projection),
        pattern=EmissionPattern(pattern),
        heat_ip=heat_ip, heat_op=heat_op, **fields)


ROWS = {
    "mg24_ca40": dict(
        target_mass=MG24.mass, readout_mass=CA40.mass, wavelength=279.6e-9,
        gamma_t=2.0 * np.pi * 41.8e6, pattern="mg_mixed",
        absorption_scale=2.0 / 3.0, stimulated_scale=2.0 / 3.0,
        intensity_sat_units=6.54e-6, s_ip_max=5, s_op_max=6),
    "mgh24_ca40": dict(
        target_mass=MGH24.mass, readout_mass=CA40.mass, wavelength=6.17e-6,
        gamma_t=2.0 * np.pi * 2.50, pattern="isotropic",
        absorption_scale=1.0 / 9.0, stimulated_scale=1.0 / 3.0,
        intensity_sat_units=2.08e4, laser_fwhm=2.0 * np.pi * 50e6,
        s_ip_max=3, s_op_max=3),
}
"""Each preset's values for build(); what a row leaves out takes build's default."""

COMMAND_ROWS = {
    "mgh24_ca40": {"scan.span_hz": 600e6, "scan.fit": "numeric",
                   "dynamics.t_max_s": 0.05},
}
"""Each preset's command-line values (scan.*, dynamics.*), by config key; the
Mg+ commands use their fallbacks.  MgH+ runs its dynamics to 50 ms, scaled
time about 16400, the longest pulse of its width curve."""


def mg24_ca40(**kw) -> SpectroscopyScenario:
    """Mg-24 target, Ca-40 readout, transition-broadened regime."""
    return build(**{**ROWS["mg24_ca40"], **kw})


def mgh24_ca40(**kw) -> SpectroscopyScenario:
    """MgH-24 target, Ca-40 readout, laser-broadened regime (50 MHz laser)."""
    return build(**{**ROWS["mgh24_ca40"], **kw})


PRESETS = {
    "mg24_ca40": mg24_ca40,
    "mgh24_ca40": mgh24_ca40,
}

DEFAULT_PRESET = "mg24_ca40"   # the command line's default
