"""Axial normal modes and Lamb-Dicke parameters of a two-ion crystal.

Two singly charged ions in a common harmonic potential along z share two
axial normal modes, in-phase (ip) and out-of-phase (op).  Given the mass
ratio and the axial frequency of a lone readout ion, this module computes
the mode frequencies, the mass-weighted eigenvector components for each
ion, and the Lamb-Dicke parameters for a beam of given wavelength and
projection onto the crystal axis.
"""

from dataclasses import dataclass, field

import numpy as np

from .constants import HBAR


@dataclass(frozen=True)
class IonSpecies:
    """A single ion: mass in kg."""
    mass: float

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError(f"ion mass must be positive, got {self.mass}")


@dataclass(frozen=True)
class BeamGeometry:
    """A plane-wave beam: wavelength (m) and |k.z|/|k| in [0, 1].

    A beam along the crystal axis has axial_projection 1; a 45 degree
    beam has 1/sqrt(2).
    """
    wavelength: float
    axial_projection: float = 1.0

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if not 0.0 <= self.axial_projection <= 1.0:
            raise ValueError("axial_projection must lie in [0, 1]")

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi / self.wavelength


def mode_frequencies(mu: float, omega_z: float) -> tuple[float, float]:
    """Axial mode angular frequencies (omega_ip, omega_op) in rad/s.

    Parameters
    ----------
    mu : target/readout mass ratio (dimensionless, > 0)
    omega_z : axial angular frequency of a lone readout ion, rad/s

    For mu = 1 this reduces to (omega_z, sqrt(3) omega_z).
    """
    if mu <= 0:
        raise ValueError("mass ratio must be positive")
    if omega_z <= 0:
        raise ValueError("omega_z must be positive")
    root = np.sqrt(1.0 - 1.0 / mu + 1.0 / mu**2)
    omega_ip = omega_z * np.sqrt(1.0 + 1.0 / mu - root)
    omega_op = omega_z * np.sqrt(1.0 + 1.0 / mu + root)
    return float(omega_ip), float(omega_op)


def mode_eigenvectors(mu: float) -> tuple[float, float, float, float]:
    """Mass-weighted eigenvector components (b_ip_r, b_ip_t, b_op_r, b_op_t).

    Each mode's pair is normalized: b_r**2 + b_t**2 = 1.
    """
    if mu <= 0:
        raise ValueError("mass ratio must be positive")
    s = np.sqrt(mu * mu - mu + 1.0)
    r_ip = (-mu + 1.0 + s) / np.sqrt(mu)
    r_op = (-mu + 1.0 - s) / np.sqrt(mu)
    b_ip_r = r_ip / np.sqrt(1.0 + r_ip**2)
    b_ip_t = 1.0 / np.sqrt(1.0 + r_ip**2)
    b_op_r = r_op / np.sqrt(1.0 + r_op**2)
    b_op_t = 1.0 / np.sqrt(1.0 + r_op**2)
    return float(b_ip_r), float(b_ip_t), float(b_op_r), float(b_op_t)


@dataclass(frozen=True)
class TwoIonSystem:
    """Target + readout ion crystal with derived mode data.

    omega_z is the axial angular frequency (rad/s) the readout ion would
    have alone in the trap.  Mode frequencies and eigenvector components
    are derived on construction.
    """
    target: IonSpecies
    readout: IonSpecies
    omega_z: float
    omega_ip: float = field(init=False)
    omega_op: float = field(init=False)
    b_ip_r: float = field(init=False)
    b_ip_t: float = field(init=False)
    b_op_r: float = field(init=False)
    b_op_t: float = field(init=False)

    def __post_init__(self):
        if self.omega_z <= 0:
            raise ValueError("omega_z must be positive")
        mu = self.mass_ratio
        omega_ip, omega_op = mode_frequencies(mu, self.omega_z)
        b_ip_r, b_ip_t, b_op_r, b_op_t = mode_eigenvectors(mu)
        object.__setattr__(self, "omega_ip", omega_ip)
        object.__setattr__(self, "omega_op", omega_op)
        object.__setattr__(self, "b_ip_r", b_ip_r)
        object.__setattr__(self, "b_ip_t", b_ip_t)
        object.__setattr__(self, "b_op_r", b_op_r)
        object.__setattr__(self, "b_op_t", b_op_t)

    @property
    def mass_ratio(self) -> float:
        """mu = m_target / m_readout."""
        return self.target.mass / self.readout.mass


def lamb_dicke(system: TwoIonSystem, beam: BeamGeometry,
               ion: str = "target") -> tuple[float, float]:
    """Lamb-Dicke parameters (eta_ip, eta_op) of one ion for a given beam.

    eta_mode = k * projection * |b_mode,ion| * sqrt(hbar / (2 m_ion omega_mode))
    """
    if ion == "target":
        mass = system.target.mass
        b_ip, b_op = system.b_ip_t, system.b_op_t
    elif ion == "readout":
        mass = system.readout.mass
        b_ip, b_op = system.b_ip_r, system.b_op_r
    else:
        raise ValueError(f"ion must be 'target' or 'readout', got {ion!r}")
    kz = beam.wavenumber * beam.axial_projection
    eta_ip = kz * abs(b_ip) * np.sqrt(HBAR / (2.0 * mass * system.omega_ip))
    eta_op = kz * abs(b_op) * np.sqrt(HBAR / (2.0 * mass * system.omega_op))
    return float(eta_ip), float(eta_op)
