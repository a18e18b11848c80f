"""Sideband coupling factors and spontaneous-emission recoil tables.

Shows the coupling amplitude |xi| between motional states for laser
recoil, its Lamb-Dicke approximation, the emission patterns as densities
in cos(theta) about the trap axis, and the direction-averaged emission
coefficients D that distribute spontaneous decays over sidebands.
"""

import numpy as np

from recoilspec import EmissionPattern, xi, xi_lamb_dicke, xi_mode_table
from recoilspec.presets import mg24_ca40

# ---- coupling strength vs sideband order -----------------------------------
eta_ip, eta_op = 0.30, 0.36   # Mg spectroscopy beam at 45 degrees
print("|xi| from the motional ground state (n_ip = n_op = 0):")
print("  s_op:   " + "  ".join(f"{s:+d}    " for s in range(0, 4)))
for s_ip in range(0, 4):
    row = [abs(xi(eta_ip, eta_op, 0, 0, s_ip, s_op)) for s_op in range(0, 4)]
    print(f"  s_ip={s_ip:+d} " + "  ".join(f"{v:.4f}" for v in row))

# unitarity: couplings out of any state exhaust the population
table = xi_mode_table(eta_op, 4, 25) ** 2
print("\nsum over sidebands of |xi_mode|^2 (should be 1):",
      ", ".join(f"n={n}: {table[n].sum():.8f}" for n in range(5)))

# the Lamb-Dicke first-order formula against the exact amplitude
print("\nLamb-Dicke approximation quality at eta = 0.05:")
for n in range(3):
    exact = abs(xi(0.05, 0.0, n, 0, 1, 0))
    approx = xi_lamb_dicke(0.05, 0.0, n, 0, 1, 0)
    print(f"  n={n}: exact {exact:.5f}  first-order {approx:.5f}"
          f"  ({abs(approx / exact - 1):.2%} off)")

# ---- emission patterns -------------------------------------------------------
# the recoil sees the photon direction only through c = cos(theta), its
# projection on the trap axis; each pattern is a density a + b c^2 in c
nodes, weights = np.polynomial.legendre.leggauss(4)
print("\nemission patterns as densities in cos(theta):")
for kind in ("isotropic", "pi", "sigma", "mg_mixed"):
    pattern = EmissionPattern(kind)
    w0, w1, w_1 = pattern.density([0.0, 1.0, -1.0])
    print(f"  {kind:9s}: c = 0 {w0:.4f}, c = +1 {w1:.4f}, c = -1 {w_1:.4f},"
          f" integral {weights @ pattern.density(nodes):.6f}")

# ---- D coefficients for the Mg scenario -------------------------------------
scenario = mg24_ca40()
d = scenario.d_table()
s_ip, s_op = scenario.s_ip_max, scenario.s_op_max
print("\nspontaneous-emission coefficients D from (0,0):")
print(f"  carrier         {d[0, 0, s_ip, s_op]:.4f}")
print(f"  op +1 sideband  {d[0, 0, s_ip, s_op + 1]:.4f}")
print(f"  ip +1 sideband  {d[0, 0, s_ip + 1, s_op]:.4f}")
print(f"  ip+op +1 both   {d[0, 0, s_ip + 1, s_op + 1]:.5f}")
print(f"  row sum         {d[0, 0].sum():.6f}")
print("\nrecoil-free fraction D(carrier) vs motional state:")
for n in range(0, 10, 3):
    print(f"  n_ip = n_op = {n}: {d[n, n, s_ip, s_op]:.4f}")
