"""The fast three-level approximation against the full motional engine.

Collapsing all motional excitation into one absorbing auxiliary level
turns each detuning into a 3x3 linear problem: the engine's generator
r K + C kept on the two motional ground states, with everything that
leaves them sent to the auxiliary level.  The reduced spectrum
tracks the full simulation's width well and runs orders of magnitude
faster, which makes it handy for scouting scan parameters.
"""

import time

# recoilspec before numpy: importing it sets OpenBLAS to one thread
from recoilspec import (fit_lorentzian, readout_spectrum, reduced_kernels,
                        reduced_spectrum, scaled_time)
from recoilspec.presets import mg24_ca40

import numpy as np

MHz = 2 * np.pi * 1e6
scenario = mg24_ca40()
rate = scaled_time(1.0, scenario)

# the three-level generator on resonance, over (g00, e00, aux)
k3, c3 = reduced_kernels(scenario)
g = rate * k3 + c3
print("reduced rates on resonance (1/s):")
print(f"  ground(0,0) <-> excited(0,0): {g[1, 0]:8.1f} / {g[0, 1]:.3g}")
print(f"  into the auxiliary level:     {g[2, 0]:8.1f} (from g), "
      f"{g[2, 1]:.3g} (from e)")

grid = np.linspace(-150 * MHz, 150 * MHz, 41)
tau = 2.23 / rate

t0 = time.perf_counter()
full = readout_spectrum(scenario, grid, tau)
t_full = time.perf_counter() - t0

t0 = time.perf_counter()
fast = reduced_spectrum(scenario, grid, tau, contrast=0.5)
t_fast = time.perf_counter() - t0

fit_full = fit_lorentzian(full)
fit_fast = fit_lorentzian(fast)
print(f"\nfull engine:   FWHM {fit_full.fwhm / MHz:6.1f} MHz, "
      f"depth {fit_full.depth:.3f}  ({t_full:5.1f} s)")
print(f"reduced model: FWHM {fit_fast.fwhm / MHz:6.1f} MHz, "
      f"depth {fit_fast.depth:.3f}  ({t_fast * 1e3:5.1f} ms)")
print(f"speedup x{t_full / t_fast:.0f}")

print("\ncontrast parameter sweeps the assumed readout efficiency:")
for kappa in (0.5, 0.75, 1.0):
    fit = fit_lorentzian(reduced_spectrum(scenario, grid, tau, contrast=kappa))
    print(f"  contrast {kappa:.2f}: depth {fit.depth:.3f}")
