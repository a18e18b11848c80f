"""Check the outputs of benchmark operations against independent computations.

    python3 benchmarks/check.py <workload> --seed N PREFIX:EXIT_CODE ...

Each PREFIX is the output prefix one `recoilspec` command was given, and
EXIT_CODE is how it ended.  Prints one JSON object, {"errors": [[...], ...]},
with the list of failed checks per operation (empty when it passed).

The references are made apart from the scan path, once per call:

- mg-spectrum-serial: fluorescence in [0, 1]; f(d) = f(-d) to 1e-9; the
  minimum at d = 0; at d = 0 and at one off-resonant grid detuning (chosen
  by the seed) the written populations agree with a dense scipy.linalg.expm
  propagation of the same generator to 1e-7.
- mgh-widthcurve: every FWHM within 2 MHz of
  tests/oracles.py::gaussian_profile_fwhm (stored in oracle_widths.json by
  oracle_widths.py); widths rise; depths rise with falling slope and stay
  below 1; exit code 3 exactly when a point is flagged for leakage.
- mg-dynamics: the motional ground-state population P_00 falls strictly;
  no population is negative; the first and last output times agree with
  dense expm to 1e-7.
"""

import argparse
import ctypes
import csv
import json
import os
import platform
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from scipy.linalg import expm  # noqa: E402

from recoilspec import presets  # noqa: E402
from recoilspec.rate_engine import (PopulationState,  # noqa: E402
                                    build_rate_matrix)
from workloads import (DYNAMICS_POINTS, EXIT_LEAK, MG_SPECTRUM_POINTS,  # noqa: E402
                       MGH_TAU_SCALED, WORKLOADS)

ORACLE_PATH = HERE / "oracle_widths.json"

MHZ = 1e6
SYMMETRY_TOL = 1e-9
POPULATION_TOL = 1e-7
WIDTH_TOL_HZ = 2.0 * MHZ

MG_SPAN_HZ = 300e6
MG_TAU_SPEC = 1.3e-3
DYN_T_MAX = 5.3e-3

# the nine motional populations the cli writes, as in recoilspec.cli
MARGINAL_STATES = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
                   (1, 2), (2, 1), (2, 2)]
MARGINAL_COLUMNS = [f"P_{i}{j}" for i, j in MARGINAL_STATES]
SPECTRUM_COLUMNS = ["leaked_probability", *MARGINAL_COLUMNS]
DYNAMICS_COLUMNS = ["leaked_probability", "p_ground_00", "p_excited_00",
                    *MARGINAL_COLUMNS]


def read_csv(path):
    """Columns of a cli CSV file: numeric ones as float arrays, others as lists."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"{path} holds no rows")
    cols = {}
    for key in rows[0]:
        values = [r[key] for r in rows]
        try:
            cols[key] = np.array([float(v) for v in values])
        except ValueError:
            cols[key] = values
    return cols


# ---------------------------------------------------------------------------
# references, independent of the scan and the integrators
# ---------------------------------------------------------------------------

def expm_populations(scenario, detuning, t, columns):
    """Written-column values of the state exp(G t) p0, by dense expm."""
    matrix = build_rate_matrix(scenario, detuning)
    p0 = PopulationState.ground(scenario).to_vector()
    state = PopulationState.from_vector(expm(matrix.dense() * t) @ p0,
                                        scenario.grid_shape)
    marginal = state.motional_marginal()
    values = {"leaked_probability": state.leaked,
              "p_ground_00": state.p[0, 0, 0], "p_excited_00": state.p[1, 0, 0]}
    values.update({c: marginal[i, j]
                   for c, (i, j) in zip(MARGINAL_COLUMNS, MARGINAL_STATES)})
    return {c: float(values[c]) for c in columns}


def mg_spectrum_grid():
    half = 2 * np.pi * MG_SPAN_HZ / 2
    return np.linspace(-half, half, MG_SPECTRUM_POINTS)


def spectrum_spot_indices(seed):
    """Resonance and one off-resonant grid index, the latter chosen by seed."""
    centre = MG_SPECTRUM_POINTS // 2
    off = [k for k in range(MG_SPECTRUM_POINTS) if k != centre]
    return [centre, random.Random(seed).choice(off)]


def spectrum_references(seed, scenario=None):
    scenario = scenario or presets.mg24_ca40()
    grid = mg_spectrum_grid()
    return {k: expm_populations(scenario, grid[k], MG_TAU_SPEC,
                                SPECTRUM_COLUMNS)
            for k in spectrum_spot_indices(seed)}


def dynamics_times():
    return np.linspace(0.0, DYN_T_MAX, DYNAMICS_POINTS + 1)[1:]


def dynamics_references(scenario=None):
    scenario = scenario or presets.mg24_ca40()
    times = dynamics_times()
    return {k: expm_populations(scenario, 0.0, times[k], DYNAMICS_COLUMNS)
            for k in (0, DYNAMICS_POINTS - 1)}


def oracle_widths_hz():
    data = json.loads(ORACLE_PATH.read_text())
    if data["preset"] != "mgh24_ca40" or data["tau_scaled"] != MGH_TAU_SCALED:
        raise ValueError(f"{ORACLE_PATH.name} does not match the workload; "
                         "rerun oracle_widths.py")
    return np.array(data["fwhm_hz"])


# ---------------------------------------------------------------------------
# checks: each returns a list of error strings, empty when the output passes;
# check_* take (output prefix, exit code, reference)
# ---------------------------------------------------------------------------

def population_errors(cols, row, reference, where):
    errors = []
    for column, want in reference.items():
        got = float(cols[column][row])
        if not abs(got - want) <= POPULATION_TOL:
            errors.append(f"{where}: {column} = {got!r}, dense expm gives "
                          f"{want!r} (|diff| {abs(got - want):.2e} > "
                          f"{POPULATION_TOL:g})")
    return errors


def spectrum_shape_errors(detuning_hz, fluorescence):
    """Range, mirror symmetry and position of the minimum of a spectrum."""
    d = np.asarray(detuning_hz, dtype=float)
    f = np.asarray(fluorescence, dtype=float)
    errors = []
    if not (np.all(f >= 0.0) and np.all(f <= 1.0)):
        errors.append(f"fluorescence leaves [0, 1]: [{f.min()!r}, {f.max()!r}]")
    atol = 1e-6 * np.abs(d).max()
    if not np.allclose(d, -d[::-1], rtol=0.0, atol=atol):
        errors.append("detuning grid is not mirror-symmetric")
    asym = np.abs(f - f[::-1]).max()
    if not asym <= SYMMETRY_TOL:
        errors.append(f"spectrum is not mirror-symmetric: max |f(d) - f(-d)| "
                      f"= {asym:.2e} > {SYMMETRY_TOL:g}")
    centre = int(np.argmin(np.abs(d)))
    if abs(d[centre]) > atol or not np.all(f[centre] < np.delete(f, centre)):
        errors.append("the minimum of the spectrum is not at zero detuning")
    return errors


def check_spectrum(prefix, exit_code, references):
    cols = read_csv(f"{prefix}.csv")
    json.loads(Path(f"{prefix}_fit.json").read_text())
    d_hz = cols["detuning_hz"]
    errors = spectrum_shape_errors(d_hz, cols["fluorescence_probability"])
    grid_hz = mg_spectrum_grid() / (2 * np.pi)
    if d_hz.shape != grid_hz.shape or not np.allclose(d_hz, grid_hz, rtol=1e-12,
                                                      atol=1e-3):
        return errors + ["detuning grid differs from the workload's"]
    for k, reference in references.items():
        errors += population_errors(cols, k, reference,
                                    f"detuning {d_hz[k] / MHZ:+.1f} MHz")
    return errors


def widthcurve_errors(tau_scaled, fwhm_hz, depth, exact_hz):
    """Width law against the oracle; monotone widths; saturating depths."""
    taus = np.asarray(tau_scaled, dtype=float)
    fwhm = np.asarray(fwhm_hz, dtype=float)
    depth = np.asarray(depth, dtype=float)
    errors = []
    if not np.array_equal(taus, np.asarray(MGH_TAU_SCALED, dtype=float)):
        return [f"scaled times {taus.tolist()} differ from {MGH_TAU_SCALED}"]
    worst = np.abs(fwhm - exact_hz).max()
    if not worst <= WIDTH_TOL_HZ:
        errors.append(f"FWHM off the Gaussian-profile oracle by "
                      f"{worst / MHZ:.2f} MHz > {WIDTH_TOL_HZ / MHZ:g} MHz")
    if not np.all(np.diff(fwhm) > 0):
        errors.append("widths do not rise with scaled time")
    slopes = np.diff(depth) / np.diff(taus)
    if not (np.all(slopes > 0) and np.all(np.diff(slopes) < 0)):
        errors.append("depths do not rise with falling slope")
    if not np.all(depth < 1.0):
        errors.append("a depth reaches 1")
    return errors


def check_widthcurve(prefix, exit_code, exact_hz):
    cols = read_csv(f"{prefix}.csv")
    errors = widthcurve_errors(cols["tau_scaled"], cols["fwhm_hz"],
                               cols["depth"], exact_hz)
    flagged = bool(np.any(cols["leak_flag"] != 0))
    if flagged != (exit_code == EXIT_LEAK):
        errors.append(f"exit code {exit_code} does not match the leak flags")
    return errors


def dynamics_shape_errors(cols):
    errors = []
    if not np.all(np.diff(cols["P_00"]) < 0):
        errors.append("P_00 does not fall strictly")
    low = min(cols[c].min() for c in DYNAMICS_COLUMNS)
    if low < 0.0:
        errors.append(f"negative population {low!r}")
    return errors


def check_dynamics(prefix, exit_code, references):
    cols = read_csv(f"{prefix}.csv")
    times = dynamics_times()
    if cols["t_s"].shape != times.shape or not np.allclose(cols["t_s"], times,
                                                           rtol=1e-12, atol=0):
        return ["output times differ from the workload's"]
    errors = dynamics_shape_errors(cols)
    for k, reference in references.items():
        errors += population_errors(cols, k, reference,
                                    f"t = {times[k] * 1e3:.4f} ms")
    return errors


def check_operations(workload, seed, operations):
    """Errors per (prefix, exit code); the reference is built once."""
    if workload == "mg-spectrum-serial":
        check, reference = check_spectrum, spectrum_references(seed)
    elif workload == "mgh-widthcurve":
        check, reference = check_widthcurve, oracle_widths_hz()
    elif workload == "mg-dynamics":
        check, reference = check_dynamics, dynamics_references()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    results = []
    for prefix, code in operations:
        try:
            results.append(check(prefix, code, reference))
        except (OSError, ValueError, KeyError) as exc:
            results.append([f"unreadable output: {exc}"])
    return results


def openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads")
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and "numpy" in line}
        for lib in map(ctypes.CDLL, sorted(libs)):
            for name in names:
                if hasattr(lib, name):
                    return int(getattr(lib, name)())
    except OSError:
        pass
    return None


def machine():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": openblas_threads()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("operations", nargs="+", metavar="PREFIX:EXIT_CODE")
    args = parser.parse_args()
    operations = []
    for item in args.operations:
        prefix, code = item.rsplit(":", 1)
        operations.append((prefix, int(code)))
    errors = check_operations(args.workload, args.seed, operations)
    print(json.dumps({"errors": errors, "machine": machine()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
