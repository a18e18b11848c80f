"""Motional-state population dynamics under resonant driving.

Reproduces the population-vs-time picture for both flagship scenarios:
the broad Mg transition driven by a narrow laser, and the narrow MgH
transition driven by a broad laser.  The motional ground state drains
monotonically while low excited states rise, saturate, and spread.
"""

# recoilspec before numpy: importing it sets OpenBLAS to one thread
from recoilspec import (PopulationState, build_rate_matrix, evolve_series,
                        scaled_time)
from recoilspec.presets import mg24_ca40, mgh24_ca40

import numpy as np

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:      # plotting is optional sugar
    plt = None

STATES = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


def run(name, scenario, t_max, n_steps=40):
    times = np.linspace(t_max / n_steps, t_max, n_steps)
    matrix = build_rate_matrix(scenario, detuning=0.0)
    states = evolve_series(matrix, PopulationState.ground(scenario), times)
    rate = scaled_time(1.0, scenario)
    print(f"\n{name}: resonant drive for {t_max * 1e3:.1f} ms "
          f"(scaled time {t_max * rate:.3g})")
    print("  t/ms  tau_scaled " + " ".join(f"P{i}{j}  " for i, j in STATES) + "leak")
    for k in (n_steps // 8, n_steps // 3, n_steps - 1):
        marg = states[k].motional_marginal()
        cols = " ".join(f"{marg[i, j]:.3f}" for i, j in STATES)
        print(f"  {times[k] * 1e3:5.2f} {times[k] * rate:9.3g}  {cols} {states[k].leaked:.4f}")
    if plt is not None:
        fig, ax = plt.subplots(figsize=(6, 4))
        for i, j in STATES:
            ax.plot(times * 1e3, [s.motional_marginal()[i, j] for s in states],
                    label=f"({i},{j})")
        ax.set_xlabel("spectroscopy pulse time (ms)")
        ax.set_ylabel("population")
        ax.legend(ncol=3, fontsize=8)
        ax.set_title(name)
        fig.tight_layout()
        out = f"demo03_{name.split()[0].lower()}_dynamics.png"
        fig.savefig(out, dpi=120)
        print(f"  plot -> {out}")


run("Mg on-resonance dynamics", mg24_ca40(), t_max=5.3e-3)
run("MgH on-resonance dynamics (50 MHz laser)", mgh24_ca40(), t_max=50e-3)
