"""Configuration-driven command line: scenario files in, CSV/JSON out.

Commands
--------
modes       mode frequencies, Lamb-Dicke parameters, saturation intensity
dynamics    motional population time series on (or off) resonance
spectrum    readout fluorescence spectrum across a detuning grid + fit
widthcurve  signal FWHM and depth versus scaled pulse time
reduced     three-level fast-model spectrum
dtable      spontaneous-emission coefficient table

Configs are JSON (nested key/value); CLI --set key=value flags override
file values, and every run writes the merged config next to its outputs
so results can be reproduced bit for bit.  A scenario.* or scan.* key
left null takes the preset's value, else the built-in default.

Exit codes: 0 ok, 1 usage/config error, 2 numeric failure, 3 leak
threshold exceeded (outputs still written).
"""

import argparse
import copy
import ctypes
import json
import math
import os
import sys
import warnings

import numpy as np

from . import presets
from .constants import ion_mass_kg
from .radiation import QuadratureError, effective_saturation_intensity
from .rate_engine import (LeakWarning, PopulationState, SpectroscopyScenario,
                          build_rate_matrix, evolve_series, scaled_time)
from .readout import pi_pulse, readout_lamb_dicke
from .reduced_model import reduced_spectrum
from .scan_fit import (FitError, fit_lorentzian, numeric_fwhm_depth,
                       readout_spectrum, width_depth_curves)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
EXIT_LEAK = 3


class ConfigError(ValueError):
    pass


DEFAULT_CONFIG = {
    "preset": presets.DEFAULT_PRESET,
    "scenario": {
        # null = the preset's value, else presets.build's default
        "omega_z_hz": None,
        "heat_ip": None,
        "heat_op": None,
        "axial_projection": None,
        "intensity_sat_units": None,
        "intensity_w_m2": None,
        "laser_fwhm_hz": None,
        "n_ip_max": None,
        "n_op_max": None,
        "s_ip_max": None,
        "s_op_max": None,
        "leak_warn_fraction": None,
        "absorption_scale": None,
        "stimulated_scale": None,
        # required when preset is null
        "target_mass_u": None,
        "readout_mass_u": None,
        "transition_wavelength_m": None,
        "gamma_t_hz": None,
        "pattern": None,
    },
    "readout": {
        "wavelength_m": 729e-9,
        "omega_0_hz": 10e3,
        "two_pulse": False,
        "leak_survival": 0.5,
    },
    "scan": {
        "span_hz": None,          # null = the preset's value, else 300 MHz
        "points": 101,
        "tau_spec_s": 1.3e-3,
        "tau_scaled": None,       # overrides tau_spec_s when set
        "fit": None,              # null = the preset's value, else lorentzian
    },
    "dynamics": {
        "t_max_s": 5.3e-3,
        "points": 60,
        "detuning_hz": 0.0,
    },
    "widthcurve": {
        "tau_scaled": [1.0, 2.23, 4.0, 6.2, 9.1],
        "intensities_sat_units": None,   # null = just the scenario intensity
        "laser_fwhms_hz": None,
    },
    "reduced": {
        "contrast": 0.5,
    },
    "workers": 0,                 # 0 = all logical cores
}


def _angular(hz: float) -> float:
    return 2 * np.pi * hz


# scenario.* keys whose presets.build keyword differs, with the conversion
# from config units (Hz, u) to SI and rad/s
_BUILD_KEYWORDS = {
    "omega_z_hz": ("omega_z", _angular),
    "laser_fwhm_hz": ("laser_fwhm", _angular),
    "gamma_t_hz": ("gamma_t", _angular),
    "intensity_w_m2": ("intensity", None),
    "target_mass_u": ("target_mass", ion_mass_kg),
    "readout_mass_u": ("readout_mass", ion_mass_kg),
    "transition_wavelength_m": ("wavelength", None),
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{where} must be a mapping")
            out[key] = _merge(base[key], val, where)
        else:
            out[key] = val
    return out


def _parse_set(expr: str):
    if "=" not in expr:
        raise ConfigError(f"--set expects key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw  # bare strings are fine
    node = val
    for part in reversed(key.strip().split(".")):
        node = {part: node}
    return node


def load_config(path=None, sets=()) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {path} is not valid JSON: {exc}")
        _require(isinstance(data, dict), f"config {path} must hold a JSON object")
        cfg = _merge(cfg, data)
    for expr in sets:
        cfg = _merge(cfg, _parse_set(expr))
    _validate(cfg)
    return cfg


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


# a key that is set takes its default's type, or for a null default the
# type _NULL_DEFAULT_TYPES names, else a number; an int is also a float,
# but a bool is no number, and a number (or a list item) must be finite
_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               list: "a list", str: "a string"}
_NULL_DEFAULT_TYPES = {"scenario.pattern": str, "scan.fit": str,
                       "widthcurve.intensities_sat_units": list,
                       "widthcurve.laser_fwhms_hz": list,
                       **dict.fromkeys(["scenario.n_ip_max", "scenario.n_op_max",
                                        "scenario.s_ip_max", "scenario.s_op_max"], int)}

# the range of a number, or of each item of a list
_POSITIVE = (lambda v: v > 0, "be > 0")
_UNIT = (lambda v: 0 <= v <= 1, "lie in [0, 1]")
_RANGES = {"scan.points": (lambda v: v >= 8, "be >= 8"),
           "dynamics.points": (lambda v: v >= 1, "be >= 1"),
           "workers": (lambda v: v >= 0, "be >= 0"),
           "widthcurve.laser_fwhms_hz": (lambda v: v >= 0, "be >= 0"),
           "readout.leak_survival": _UNIT, "reduced.contrast": _UNIT,
           **dict.fromkeys(["scan.span_hz", "scan.tau_spec_s", "scan.tau_scaled",
                            "dynamics.t_max_s", "widthcurve.tau_scaled",
                            "widthcurve.intensities_sat_units",
                            "readout.omega_0_hz", "readout.wavelength_m"], _POSITIVE)}


def _check_types(cfg: dict, default: dict, path: str = "") -> None:
    for key, dflt in default.items():
        where, value = path + key, cfg[key]
        if isinstance(dflt, dict):
            _check_types(value, dflt, where + ".")
        elif where != "preset" and (value, dflt) != (None, None):
            kind = _NULL_DEFAULT_TYPES.get(where, float) if dflt is None else type(dflt)
            _require(isinstance(value, (int, float) if kind is float else kind)
                     and isinstance(value, bool) == (kind is bool),
                     f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
            items = value if kind is list else [value]
            _require(not any(isinstance(v, float) and not math.isfinite(v)
                             for v in items),
                     f"{where} must be finite, got {value!r}")


def _validate(cfg: dict) -> None:
    _check_types(cfg, DEFAULT_CONFIG)
    _require(cfg["preset"] in (None, *presets.PRESETS),
             f"preset must be one of {sorted(presets.PRESETS)} or null")
    for where, (holds, condition) in _RANGES.items():
        section, _, key = where.rpartition(".")
        value = (cfg[section] if section else cfg)[key]
        for v in value if isinstance(value, list) else [value]:
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            _require(value is None or number and holds(v),
                     f"{where} must {condition}, got {v!r}")
    sc = cfg["scenario"]
    _require(not (sc["intensity_sat_units"] is not None
                  and sc["intensity_w_m2"] is not None),
             "set intensity_sat_units or intensity_w_m2, not both")
    wc = cfg["widthcurve"]
    _require(not (wc["intensities_sat_units"] and wc["laser_fwhms_hz"]),
             "set widthcurve.intensities_sat_units or laser_fwhms_hz, not both")
    if cfg["preset"] is None:
        for key in ("target_mass_u", "readout_mass_u", "transition_wavelength_m",
                    "gamma_t_hz", "pattern"):
            _require(sc[key] is not None,
                     f"scenario.{key} is required when preset is null")
    _require(cfg["scan"]["fit"] in (None, "lorentzian", "numeric"),
             "scan.fit must be null, lorentzian or numeric")


def build_scenario(cfg: dict) -> SpectroscopyScenario:
    """A scenario.* key that is set wins, then the preset's row, then the
    default of presets.build."""
    kwargs = dict(presets.ROWS.get(cfg["preset"], {}))
    for key, value in cfg["scenario"].items():
        if value is not None:
            name, convert = _BUILD_KEYWORDS.get(key, (key, None))
            kwargs[name] = convert(value) if convert else value
    return presets.build(**kwargs)


def _scan_setting(cfg: dict, key: str, default):
    """scan.<key> if set, else the preset's value, else default."""
    value = cfg["scan"][key]
    if value is None:
        value = presets.SCAN_ROWS.get(cfg["preset"], {}).get(key, default)
    return value


def _resolve_tau_spec(cfg: dict, scenario: SpectroscopyScenario) -> float:
    scan = cfg["scan"]
    if scan["tau_scaled"] is None:
        return scan["tau_spec_s"]
    rate = scaled_time(1.0, scenario)
    _require(rate > 0, f"scan.tau_scaled: resonant absorption rate {rate!r} must be > 0")
    return scan["tau_scaled"] / rate


def _detuning_grid(cfg: dict) -> np.ndarray:
    span = _scan_setting(cfg, "span_hz", 300e6)
    half = 2 * np.pi * span / 2.0
    return np.linspace(-half, half, cfg["scan"]["points"])


def _workers(cfg: dict) -> int:
    return cfg["workers"] or (os.cpu_count() or 1)


def _readout_pulses(cfg: dict, scenario: SpectroscopyScenario):
    ro = cfg["readout"]
    omega_0 = 2 * np.pi * ro["omega_0_hz"]
    sidebands = [(0, -1), (-1, 0)] if ro["two_pulse"] else [(0, -1)]
    return tuple(pi_pulse(scenario.system, sb, omega_0, ro["wavelength_m"])
                 for sb in sidebands)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path, payload):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_MARGINAL_STATES = [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0),
                    (1, 2), (2, 1), (2, 2)]
_MARGINAL_HEADER = [f"P_{i}{j}" for i, j in _MARGINAL_STATES]


def _spectrum_rows(records, model: str):
    for r in records:
        yield ([r.detuning / (2 * np.pi), r.fluorescence, r.leaked,
                int(r.leak_flag), model]
               + [r.marginal[i, j] for i, j in _MARGINAL_STATES])


_SPECTRUM_HEADER = (["detuning_hz", "fluorescence_probability",
                     "leaked_probability", "leak_flag", "model"]
                    + _MARGINAL_HEADER)


def _write_gnuplot(prefix: str, csv_path: str, xlabel: str, ylabel: str,
                   xcol: int, ycol: int) -> None:
    with open(prefix + ".gp", "w") as fh:
        fh.write(f"""set datafile separator ','
set xlabel '{xlabel}'
set ylabel '{ylabel}'
set key off
plot '{os.path.basename(csv_path)}' using {xcol}:{ycol} with linespoints
""")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_modes(cfg, scenario, prefix, args):
    sys_ = scenario.system
    eta_t = scenario.laser_eta()
    eta_r = readout_lamb_dicke(sys_, cfg["readout"]["wavelength_m"])
    isat = effective_saturation_intensity(scenario.line, scenario.laser.sigma)
    # the saturation intensity is set by the wider of the two lines
    regime = "laser" if scenario.laser.fwhm > scenario.line.gamma_t else "transition"
    report = {
        "mass_ratio": sys_.mass_ratio,
        "omega_ip_hz": sys_.omega_ip / (2 * np.pi),
        "omega_op_hz": sys_.omega_op / (2 * np.pi),
        "eigenvector_b_ip_readout": sys_.b_ip_r,
        "eigenvector_b_ip_target": sys_.b_ip_t,
        "eigenvector_b_op_readout": sys_.b_op_r,
        "eigenvector_b_op_target": sys_.b_op_t,
        "eta_ip_target": eta_t[0],
        "eta_op_target": eta_t[1],
        "eta_ip_readout": eta_r[0],
        "eta_op_readout": eta_r[1],
        "saturation_regime": regime,
        "saturation_intensity_w_m2": isat,
        "intensity_w_m2": scenario.laser.intensity,
        "intensity_sat_units": scenario.laser.intensity / isat if isat else None,
    }
    print(f"mode frequencies: ip {report['omega_ip_hz'] / 1e3:.1f} kHz, "
          f"op {report['omega_op_hz'] / 1e3:.1f} kHz")
    print(f"target Lamb-Dicke: eta_ip {eta_t[0]:.4f}, eta_op {eta_t[1]:.4f}")
    print(f"readout Lamb-Dicke: eta_ip {eta_r[0]:.4f}, eta_op {eta_r[1]:.4f}")
    print(f"saturation intensity ({regime}): {isat:.4g} W/m^2")
    _write_json(prefix + ".json", {"report": report, "config": cfg})
    return EXIT_OK


def _cmd_dynamics(cfg, scenario, prefix, args):
    dyn = cfg["dynamics"]
    times = np.linspace(0.0, dyn["t_max_s"], dyn["points"] + 1)[1:]
    matrix = build_rate_matrix(scenario, 2 * np.pi * dyn["detuning_hz"])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LeakWarning)
        states = evolve_series(matrix, PopulationState.ground(scenario), times)
    rate = scaled_time(1.0, scenario)
    rows = []
    for t, st in zip(times, states):
        marg = st.motional_marginal()
        rows.append([t, t * rate, st.leaked, st.p[0, 0, 0], st.p[1, 0, 0]]
                    + [marg[i, j] for i, j in _MARGINAL_STATES])
    header = (["t_s", "tau_scaled", "leaked_probability",
               "p_ground_00", "p_excited_00"] + _MARGINAL_HEADER)
    csv_path = prefix + ".csv"
    _write_csv(csv_path, header, rows)
    if args.plot_script:
        _write_gnuplot(prefix, csv_path, "t (s)", "population", 1, 6)
    print(f"wrote {csv_path} ({len(rows)} time points)")
    return EXIT_LEAK if states[-1].leaked > scenario.leak_warn_fraction else EXIT_OK


def _cmd_spectrum(cfg, scenario, prefix, args, model="full"):
    detunings = _detuning_grid(cfg)
    tau_spec = _resolve_tau_spec(cfg, scenario)
    if model == "reduced":
        records = reduced_spectrum(scenario, detunings, tau_spec,
                                   contrast=cfg["reduced"]["contrast"])
    else:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LeakWarning)
            records = readout_spectrum(
                scenario, detunings, tau_spec,
                pulses=_readout_pulses(cfg, scenario),
                leak_survival=cfg["readout"]["leak_survival"],
                workers=_workers(cfg))
    csv_path = prefix + ".csv"
    _write_csv(csv_path, _SPECTRUM_HEADER, _spectrum_rows(records, model))
    fit_mode = _scan_setting(cfg, "fit", "lorentzian")
    fit_payload = {"fit": None, "fit_error": None, "tau_spec_s": tau_spec,
                   "tau_scaled": scaled_time(tau_spec, scenario), "model": model,
                   "config": cfg}
    try:
        if fit_mode == "numeric":
            fwhm, depth = numeric_fwhm_depth(records)
            fit_payload["fit"] = {"mode": "numeric", "fwhm_hz": fwhm / (2 * np.pi),
                                  "depth": depth}
        else:
            res = fit_lorentzian(records)
            fit_payload["fit"] = {
                "mode": "lorentzian", "center_hz": res.center / (2 * np.pi),
                "fwhm_hz": res.fwhm / (2 * np.pi), "depth": res.depth,
                "baseline": res.baseline, "residual_norm": res.residual_norm,
                "covariance_diag": list(res.covariance),
                "iterations": res.iterations}
    except (FitError, ValueError) as exc:
        fit_payload["fit_error"] = str(exc)
    _write_json(prefix + "_fit.json", fit_payload)
    if args.plot_script:
        _write_gnuplot(prefix, csv_path, "detuning (Hz)", "fluorescence", 1, 2)
    leak = any(r.leak_flag for r in records)
    if fit_payload["fit"]:
        f = fit_payload["fit"]
        print(f"{model} spectrum: FWHM {f['fwhm_hz'] / 1e6:.2f} MHz, "
              f"depth {f['depth']:.3f} -> {csv_path}")
    else:
        print(f"{model} spectrum written to {csv_path}; fit failed: "
              f"{fit_payload['fit_error']}")
    return EXIT_LEAK if leak else EXIT_OK


def _cmd_widthcurve(cfg, scenario, prefix, args):
    wc = cfg["widthcurve"]
    entries = []
    if wc["intensities_sat_units"]:
        isat = effective_saturation_intensity(scenario.line, scenario.laser.sigma)
        for s in wc["intensities_sat_units"]:
            entries.append((f"I={s:g}Isat", scenario.with_laser(intensity=s * isat)))
    elif wc["laser_fwhms_hz"]:
        sc = cfg["scenario"]
        for f in wc["laser_fwhms_hz"]:
            sub = dict(cfg, scenario=dict(sc, laser_fwhm_hz=f))
            entries.append((f"GammaL={f / 1e6:g}MHz", build_scenario(sub)))
    else:
        entries.append(("scan", scenario))
    fit_mode = _scan_setting(cfg, "fit", "lorentzian")
    rows = width_depth_curves(entries, wc["tau_scaled"], _detuning_grid(cfg),
                              fit=fit_mode,
                              pulses=_readout_pulses(cfg, scenario),
                              leak_survival=cfg["readout"]["leak_survival"],
                              workers=_workers(cfg))
    csv_path = prefix + ".csv"
    _write_csv(csv_path,
               ["label", "tau_scaled", "tau_spec_s", "fwhm_hz", "depth",
                "max_leaked_probability", "leak_flag"],
               [[r.label, r.tau_scaled, r.tau_spec, r.fwhm / (2 * np.pi),
                 r.depth, r.max_leaked, int(r.flagged)] for r in rows])
    if args.plot_script:
        _write_gnuplot(prefix, csv_path, "tau_scaled", "FWHM (Hz)", 2, 4)
    print(f"wrote {csv_path} ({len(rows)} points)")
    return EXIT_LEAK if any(r.flagged for r in rows) else EXIT_OK


def _cmd_dtable(cfg, scenario, prefix, args):
    table = scenario.d_table()
    s_ip, s_op = scenario.s_ip_max, scenario.s_op_max
    csv_path = prefix + ".csv"
    _write_csv(csv_path, ["n_ip", "n_op", "s_ip", "s_op", "D"],
               ([a, b, i - s_ip, j - s_op, table[a, b, i, j]]
                for a, b, i, j in np.ndindex(table.shape)))
    print(f"wrote {csv_path} ({table.size} coefficients)")
    return EXIT_OK


_COMMANDS = {
    "modes": _cmd_modes,
    "dynamics": _cmd_dynamics,
    "spectrum": _cmd_spectrum,
    "widthcurve": _cmd_widthcurve,
    "reduced": lambda cfg, sc, prefix, args: _cmd_spectrum(cfg, sc, prefix, args,
                                                           model="reduced"),
    "dtable": _cmd_dtable,
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recoilspec",
        description="Photon-recoil spectroscopy simulator for two-ion crystals")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("-c", "--config", help="JSON config file")
    parser.add_argument("-p", "--preset", help="scenario preset name")
    parser.add_argument("-s", "--set", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a config entry (dotted keys, JSON values)")
    parser.add_argument("-o", "--output", default=None,
                        help="output path prefix (default out/<command>)")
    parser.add_argument("-w", "--workers", type=int, default=None,
                        help="worker processes for detuning scans")
    parser.add_argument("--plot-script", action="store_true",
                        help="also emit a gnuplot script next to the CSV")
    parser.add_argument("--print-config", action="store_true",
                        help="print the merged config and exit")
    return parser


# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> None:
    """Keep memory freed by the numerics in the process for reuse.

    Every propagation allocates and frees dense blocks of about 1.3 MB.
    glibc's dynamic thresholds hand them back to the OS and the next
    propagation faults them in again: `spectrum -p mg24_ca40 -w 1` at 31
    points took 50k minor page faults, whose cost varies with the load on
    the host.  Fixed thresholds keep blocks under 32 MB on the heap and
    trim it only past 128 MB free.  Forked workers inherit them.  A malloc
    setting in the environment wins; without glibc's mallopt this does
    nothing.
    """
    if "GLIBC_TUNABLES" in os.environ or any(k.startswith("MALLOC_")
                                             for k in os.environ):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 128 << 20)


def main(argv=None) -> int:
    _keep_freed_memory()
    args = make_parser().parse_args(argv)
    try:
        sets = list(args.set)
        if args.preset:
            sets.insert(0, f"preset={args.preset}")
        if args.workers is not None:
            sets.append(f"workers={args.workers}")
        cfg = load_config(args.config, sets)
        scenario = build_scenario(cfg)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.print_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return EXIT_OK
    prefix = args.output or os.path.join("out", args.command)
    try:
        code = _COMMANDS[args.command](cfg, scenario, prefix, args)
    except (FitError, QuadratureError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # a value only the command checks, or a failed width
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    _write_json(prefix + "_config.json", cfg)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
