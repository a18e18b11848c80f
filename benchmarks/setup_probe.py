"""Time one set-up of a workload in a fresh interpreter.

    python3 benchmarks/setup_probe.py <preset> <first_detuning_hz>

Set-up is the import of recoilspec (numpy and scipy with it), the preset
build, and the assembly of the first rate generator, which builds the
coupling tables, the emission-coefficient table with its refinement check
and the kernels.  Prints the seconds taken on the last line.
"""

import time

t0 = time.perf_counter()

import math  # noqa: E402
import sys  # noqa: E402

import recoilspec  # noqa: E402


def main() -> None:
    preset, detuning_hz = sys.argv[1], float(sys.argv[2])
    scenario = recoilspec.presets.PRESETS[preset]()
    recoilspec.build_rate_matrix(scenario, 2 * math.pi * detuning_hz)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
