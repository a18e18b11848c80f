"""The benchmark's workloads: recoilspec command lines and what each delivers.

Standard library only, so that run.py, which times the commands, can import
it without pulling numpy or scipy into its own process.
"""

MG_SPECTRUM_POINTS = 31                  # over the preset's 300 MHz span
MGH_POINTS = 51                          # over the preset's 600 MHz span
MGH_TAU_SCALED = [500, 2000, 6000, 16400]
DYNAMICS_POINTS = 60                     # cli default, up to 5.3 ms

WORKLOADS = {
    "mg-spectrum-serial": {
        "argv": ["spectrum", "-p", "mg24_ca40", "-w", "1",
                 "-s", f"scan.points={MG_SPECTRUM_POINTS}"],
        "points": MG_SPECTRUM_POINTS,
        # the same scan at the cli's default worker count (all cores)
        "parallel_argv": ["spectrum", "-p", "mg24_ca40",
                          "-s", f"scan.points={MG_SPECTRUM_POINTS}"],
        "preset": "mg24_ca40",
        "first_detuning_hz": -150e6,
    },
    "mgh-widthcurve": {
        "argv": ["widthcurve", "-p", "mgh24_ca40", "-w", "1",
                 "-s", f"scan.points={MGH_POINTS}",
                 "-s", "widthcurve.tau_scaled=" + str(MGH_TAU_SCALED).replace(" ", "")],
        "points": MGH_POINTS * len(MGH_TAU_SCALED),
        "preset": "mgh24_ca40",
        "first_detuning_hz": -300e6,
    },
    "mg-dynamics": {
        "argv": ["dynamics", "-p", "mg24_ca40"],
        "points": DYNAMICS_POINTS,
        "preset": "mg24_ca40",
        "first_detuning_hz": 0.0,
    },
}

# The leak code of the cli: the run is complete and every output is written,
# but some population left the truncated motional grid.
EXIT_LEAK = 3
