"""Recompute the stored oracle widths of the mgh-widthcurve workload.

    PYTHONPATH=src python3 benchmarks/oracle_widths.py

For each scaled pulse time of the workload it evaluates
tests/oracles.py::gaussian_profile_fwhm on the mgh24_ca40 preset (resonant
dense matrix exponentials and a root search, no detuning scan) and writes
benchmarks/oracle_widths.json.  It takes about a minute, which is why the
benchmark reads the stored file instead of recomputing it on every run.
"""

import json
import sys
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import numpy as np  # noqa: E402

from oracles import gaussian_profile_fwhm  # noqa: E402
from recoilspec import presets  # noqa: E402
from recoilspec.rate_engine import LeakWarning  # noqa: E402
from workloads import MGH_TAU_SCALED  # noqa: E402

ORACLE_PATH = HERE / "oracle_widths.json"


def main() -> None:
    scenario = presets.mgh24_ca40()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakWarning)
        widths = [gaussian_profile_fwhm(scenario, t) / (2 * np.pi)
                  for t in MGH_TAU_SCALED]
    payload = {"preset": "mgh24_ca40", "tau_scaled": MGH_TAU_SCALED,
               "fwhm_hz": widths,
               "source": "tests/oracles.py::gaussian_profile_fwhm"}
    ORACLE_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {ORACLE_PATH.name}: "
          + ", ".join(f"{w / 1e6:.3f} MHz" for w in widths))


if __name__ == "__main__":
    main()
