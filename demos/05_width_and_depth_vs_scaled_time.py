"""Signal width and depth as functions of the scaled pulse time.

The dip width starts at the underlying line profile (natural linewidth
for the Mg case, laser linewidth for MgH) and broadens with scaled time,
while the depth saturates below one.  Curves taken at different laser
intensities nearly collapse when plotted against scaled time.
"""

# recoilspec before numpy: importing it sets OpenBLAS to one thread
from recoilspec import width_depth_curves
from recoilspec.presets import mg24_ca40, mgh24_ca40

import numpy as np

MHz = 2 * np.pi * 1e6

# ---- Mg: Lorentzian-fitted widths, three intensities -------------------------
grid = np.linspace(-150 * MHz, 150 * MHz, 41)
entries = [(f"{sat:g} Isat", mg24_ca40(intensity_sat_units=sat))
           for sat in (1.34e-6, 6.68e-6, 2.00e-5)]
rows = width_depth_curves(entries, [1.0, 2.23, 4.0, 9.1], grid,
                          fit="lorentzian")
print("Mg: Lorentzian fit of the readout dip")
print("  intensity     tau_scaled  FWHM/MHz  depth")
for r in rows:
    print(f"  {r.label:12s} {r.tau_scaled:9.2f}  {r.fwhm / MHz:8.1f}  {r.depth:.3f}")

by_tau = {}
for r in rows:
    by_tau.setdefault(r.tau_scaled, []).append(r.fwhm)
print("  width spread across intensities at fixed scaled time:")
for tau, widths in sorted(by_tau.items()):
    print(f"    tau_scaled {tau:5.2f}: {max(widths) / min(widths) - 1:.2%}")

# ---- MgH: numeric widths (the dips are not Lorentzian) ------------------------
grid = np.linspace(-300 * MHz, 300 * MHz, 41)
rows = width_depth_curves([("50 MHz laser", mgh24_ca40())],
                          [500.0, 2000.0, 6000.0, 16400.0], grid,
                          fit="numeric")
print("\nMgH: numeric width/depth of the readout dip")
print("  tau_scaled  FWHM/MHz  depth   max leak")
for r in rows:
    flag = "  (grid leak above 1%)" if r.flagged else ""
    print(f"  {r.tau_scaled:9.0f}  {r.fwhm / MHz:8.1f}  {r.depth:.3f}  "
          f"{r.max_leaked:.4f}{flag}")
print("  width starts at the 50 MHz laser linewidth and grows sub-linearly")
