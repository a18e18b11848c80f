"""Two-ion normal modes and Lamb-Dicke parameters.

Walks through the mechanical side of the simulator: the axial mode
frequencies of a mixed-species crystal, the mass-weighted eigenvector
components, and the Lamb-Dicke parameters seen by the spectroscopy and
readout beams.
"""

import numpy as np

from recoilspec import BeamGeometry, TwoIonSystem, lamb_dicke, mode_frequencies
from recoilspec.presets import CA40, MG24, MGH24, OMEGA_Z_DEFAULT

kHz = 2 * np.pi * 1e3

# ---- mode frequencies for both crystals -----------------------------------
for name, target in (("Mg24+", MG24), ("MgH24+", MGH24)):
    system = TwoIonSystem(target=target, readout=CA40, omega_z=OMEGA_Z_DEFAULT)
    print(f"{name} + Ca40+  (mass ratio {system.mass_ratio:.4f})")
    print(f"  in-phase     {system.omega_ip / kHz:8.1f} kHz")
    print(f"  out-of-phase {system.omega_op / kHz:8.1f} kHz")
    print(f"  eigenvectors |b_ip| = ({abs(system.b_ip_r):.3f}, {abs(system.b_ip_t):.3f})"
          f"  |b_op| = ({abs(system.b_op_r):.3f}, {abs(system.b_op_t):.3f})  (readout, target)")

# ---- how the mode structure changes with the mass ratio --------------------
print("\nmode frequencies vs mass ratio (units of omega_z):")
for mu in (0.25, 0.5, 1.0, 2.0, 4.0):
    w_ip, w_op = mode_frequencies(mu, 1.0)
    print(f"  mu = {mu:4.2f}:  {w_ip:.4f}  {w_op:.4f}")

# ---- Lamb-Dicke parameters --------------------------------------------------
mg_system = TwoIonSystem(target=MG24, readout=CA40, omega_z=OMEGA_Z_DEFAULT)
mgh_system = TwoIonSystem(target=MGH24, readout=CA40, omega_z=OMEGA_Z_DEFAULT)

print("\nLamb-Dicke parameters (eta_ip, eta_op):")
for label, system, beam, ion in [
        ("Mg target, 280 nm along z      ", mg_system, BeamGeometry(279.6e-9, 1.0), "target"),
        ("Mg target, 280 nm at 45 degrees", mg_system, BeamGeometry(279.6e-9, 2**-0.5), "target"),
        ("Ca readout, 729 nm along z     ", mg_system, BeamGeometry(729e-9, 1.0), "readout"),
        ("MgH target, 6.17 um at 45 deg  ", mgh_system, BeamGeometry(6.17e-6, 2**-0.5), "target"),
        ("Ca readout (MgH crystal)       ", mgh_system, BeamGeometry(729e-9, 1.0), "readout"),
]:
    eta = lamb_dicke(system, beam, ion)
    print(f"  {label}: {eta[0]:.4f}, {eta[1]:.4f}")

# the recoil coupling weakens in stiffer traps: eta ~ 1/sqrt(omega)
print("\neta_op of the Mg target vs trap frequency:")
for scale in (0.5, 1.0, 2.0, 4.0):
    system = TwoIonSystem(target=MG24, readout=CA40, omega_z=scale * OMEGA_Z_DEFAULT)
    eta = lamb_dicke(system, BeamGeometry(279.6e-9, 1.0), "target")
    print(f"  omega_z x {scale:3.1f}: eta_op = {eta[1]:.4f}")
