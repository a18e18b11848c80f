"""Fluorescence readout spectra and the two-pulse contrast gain.

Scans the spectroscopy laser across resonance, maps the final motional
distribution onto the shelving readout, and fits the dip.  At long pulse
times the (0,1) population spectrum develops a central depletion dip
while the fluorescence signal stays smooth: higher motional states fill
it in.  Addressing both modes with consecutive pi-pulses deepens the dip
by roughly half.
"""

# recoilspec before numpy: importing it sets OpenBLAS to one thread
from recoilspec import fit_lorentzian, readout_spectrum, scaled_time
from recoilspec.presets import mg24_ca40
from recoilspec.readout import pi_pulse

import numpy as np

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

MHz = 2 * np.pi * 1e6
scenario = mg24_ca40()
grid = np.linspace(-150 * MHz, 150 * MHz, 61)
rate = scaled_time(1.0, scenario)

# ---- spectra at two pulse lengths -------------------------------------------
spectra = {}
for tau_scaled in (2.23, 9.10):
    records = readout_spectrum(scenario, grid, tau_scaled / rate)
    fit = fit_lorentzian(records)
    spectra[tau_scaled] = records
    print(f"tau_scaled = {tau_scaled}: FWHM {fit.fwhm / MHz:6.1f} MHz "
          f"(natural linewidth 41.8), depth {fit.depth:.3f}")
    center = records[len(records) // 2]
    print(f"  at resonance: P_gr = {center.fluorescence:.3f}, "
          f"P(0,1) = {center.marginal[0, 1]:.3f}, leak = {center.leaked:.4f}")

# the central (0,1) depletion that the readout signal hides
records = spectra[9.10]
p01 = np.array([r.marginal[0, 1] for r in records])
print(f"\n(0,1) population at resonance {p01[len(p01) // 2]:.3f} "
      f"vs its off-resonance maximum {p01.max():.3f}")

# ---- one vs two shelving pulses ----------------------------------------------
strong = mg24_ca40(intensity_sat_units=1.3e-5)
pulse_op = pi_pulse(strong.system, (0, -1))
pulse_ip = pi_pulse(strong.system, (-1, 0))
single = readout_spectrum(strong, grid, 1.6e-3, pulses=(pulse_op,))
double = readout_spectrum(strong, grid, 1.6e-3, pulses=(pulse_op, pulse_ip))
d1 = fit_lorentzian(single).depth
d2 = fit_lorentzian(double).depth
print(f"\ntwo-pulse readout: depth {d1:.3f} -> {d2:.3f} "
      f"(+{d2 / d1 - 1:.0%} contrast)")

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 4))
    for tau_scaled, recs in spectra.items():
        ax.plot(grid / MHz, [r.fluorescence for r in recs],
                label=f"tau_scaled = {tau_scaled}")
    ax.plot(grid / MHz, [r.fluorescence for r in double], "--",
            label="two-pulse, tau_scaled = 5.6")
    ax.set_xlabel("laser detuning (MHz)")
    ax.set_ylabel("fluorescence probability")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo04_readout_spectra.png", dpi=120)
    print("plot -> demo04_readout_spectra.png")
