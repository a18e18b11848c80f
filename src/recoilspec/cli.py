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
so results can be reproduced bit for bit.  SCHEMA holds one row per
key.  A scenario.* key, scan.span_hz or scan.fit left null takes the
preset's value, else the built-in default; a null scan.tau_scaled means
scan.tau_spec_s is used.

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
from typing import NamedTuple

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


class Key(NamedTuple):
    """One config key: its default, the checks of a set value, how it is read."""
    default: object = None
    kind: type | None = float   # a set value's type; None: only check applies
    check: tuple | None = None  # (holds, "be > 0, got {!r}"): the value or each item
    build: tuple | None = None  # scenario.*: presets.build keyword and conversion
    fallback: object = None     # scan.*: used when neither the key nor the preset is set
    nonempty: bool = False      # a list that must hold an item


def _angular(hz: float) -> float:
    return 2 * np.pi * hz


_POSITIVE = (lambda v: v > 0, "be > 0, got {!r}")
_UNIT = (lambda v: 0 <= v <= 1, "lie in [0, 1], got {!r}")

# a scenario.* key left null takes the preset's value, else presets.build's
# default; build converts config units (Hz, u) to SI and rad/s
SCHEMA = {
    "preset": Key(presets.DEFAULT_PRESET, None,
                  (lambda v: v in tuple(presets.PRESETS),
                   f"be one of {sorted(presets.PRESETS)} or null")),
    "scenario.omega_z_hz": Key(build=("omega_z", _angular)),
    "scenario.heat_ip": Key(),
    "scenario.heat_op": Key(),
    "scenario.axial_projection": Key(),
    "scenario.intensity_sat_units": Key(),
    "scenario.intensity_w_m2": Key(build=("intensity", None)),
    "scenario.laser_fwhm_hz": Key(build=("laser_fwhm", _angular)),
    "scenario.n_ip_max": Key(kind=int),
    "scenario.n_op_max": Key(kind=int),
    "scenario.s_ip_max": Key(kind=int),
    "scenario.s_op_max": Key(kind=int),
    "scenario.leak_warn_fraction": Key(),
    "scenario.absorption_scale": Key(),
    "scenario.stimulated_scale": Key(),
    # required when preset is null
    "scenario.target_mass_u": Key(build=("target_mass", ion_mass_kg)),
    "scenario.readout_mass_u": Key(build=("readout_mass", ion_mass_kg)),
    "scenario.transition_wavelength_m": Key(build=("wavelength", None)),
    "scenario.gamma_t_hz": Key(build=("gamma_t", _angular)),
    "scenario.pattern": Key(kind=str),
    "readout.wavelength_m": Key(729e-9, check=_POSITIVE),
    "readout.omega_0_hz": Key(10e3, check=_POSITIVE),
    "readout.two_pulse": Key(False, bool),
    "readout.leak_survival": Key(0.5, check=_UNIT),
    "scan.span_hz": Key(check=_POSITIVE, fallback=300e6),
    "scan.points": Key(101, int, (lambda v: v >= 8, "be >= 8, got {!r}")),
    "scan.tau_spec_s": Key(1.3e-3, check=_POSITIVE),
    "scan.tau_scaled": Key(check=_POSITIVE),      # overrides tau_spec_s when set
    "scan.fit": Key(kind=str, check=(lambda v: v in ("lorentzian", "numeric"),
                                     "be null, lorentzian or numeric"),
                    fallback="lorentzian"),
    "dynamics.t_max_s": Key(5.3e-3, check=_POSITIVE),
    "dynamics.points": Key(60, int, (lambda v: v >= 1, "be >= 1, got {!r}")),
    "dynamics.detuning_hz": Key(0.0),
    "widthcurve.tau_scaled": Key([1.0, 2.23, 4.0, 6.2, 9.1], list, _POSITIVE,
                                 nonempty=True),
    # null = just the scenario intensity
    "widthcurve.intensities_sat_units": Key(kind=list, check=_POSITIVE),
    "widthcurve.laser_fwhms_hz": Key(kind=list,
                                     check=(lambda v: v >= 0, "be >= 0, got {!r}")),
    "reduced.contrast": Key(0.5, check=_UNIT),
    "workers": Key(0, int, (lambda v: v >= 0, "be >= 0, got {!r}")),  # 0 = all cores
}


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _nest(flat: dict) -> dict:
    """{"a.b": 1} -> {"a": {"b": 1}}"""
    out = {}
    for where, value in flat.items():
        *sections, key = where.split(".")
        node = out
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = value
    return out


def _override(flat: dict, data: dict, path: str = "") -> None:
    """Set the values of a nested mapping in a config keyed by dotted keys."""
    for key, val in data.items():
        where = path + key
        if where in SCHEMA:
            flat[where] = val
        elif not any(name.startswith(where + ".") for name in SCHEMA):
            raise ConfigError(f"unknown config key: {where}")
        elif not isinstance(val, dict):
            raise ConfigError(f"{where} must be a mapping")
        else:
            _override(flat, val, where + ".")


def _parse_set(expr: str):
    if "=" not in expr:
        raise ConfigError(f"--set expects key=value, got {expr!r}")
    key, raw = expr.split("=", 1)
    try:
        val = json.loads(raw)
    except json.JSONDecodeError:
        val = raw  # bare strings are fine
    return _nest({key.strip(): val})


def load_config(path=None, sets=()) -> dict:
    flat = {where: key.default for where, key in SCHEMA.items()}
    if path is not None:
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config {path} is not valid JSON: {exc}")
        _require(isinstance(data, dict), f"config {path} must hold a JSON object")
        _override(flat, data)
    for expr in sets:
        _override(flat, _parse_set(expr))
    _validate(flat)
    return copy.deepcopy(_nest(flat))


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number",
               list: "a list", str: "a string"}


def _validate(flat: dict) -> None:
    # a key that is set takes its row's type (an int is also a float, but a
    # bool is no number), and a number or a list item must be finite
    for where, key in SCHEMA.items():
        value = flat[where]
        if key.kind and (value, key.default) != (None, None):
            kind = key.kind
            _require(isinstance(value, (int, float) if kind is float else kind)
                     and isinstance(value, bool) == (kind is bool),
                     f"{where} must be {_TYPE_NAMES[kind]}, got {value!r}")
            items = value if kind is list else [value]
            _require(not any(isinstance(v, float) and not math.isfinite(v)
                             for v in items),
                     f"{where} must be finite, got {value!r}")
            _require(items or not key.nonempty, f"{where} must not be empty")
        if key.check and value is not None:
            holds, says = key.check
            for v in value if key.kind is list else [value]:
                # a list item must be a number, which the type check left open
                number = isinstance(v, (int, float)) and not isinstance(v, bool)
                _require((number or key.kind is not list) and holds(v),
                         f"{where} must " + says.format(v))
    _require(flat["scenario.intensity_sat_units"] is None
             or flat["scenario.intensity_w_m2"] is None,
             "set intensity_sat_units or intensity_w_m2, not both")
    _require(not (flat["widthcurve.intensities_sat_units"]
                  and flat["widthcurve.laser_fwhms_hz"]),
             "set widthcurve.intensities_sat_units or laser_fwhms_hz, not both")
    if flat["preset"] is None:
        for key in ("target_mass_u", "readout_mass_u", "transition_wavelength_m",
                    "gamma_t_hz", "pattern"):
            _require(flat["scenario." + key] is not None,
                     f"scenario.{key} is required when preset is null")


def build_scenario(cfg: dict) -> SpectroscopyScenario:
    """A scenario.* key that is set wins, then the preset's row, then the
    default of presets.build."""
    kwargs = dict(presets.ROWS.get(cfg["preset"], {}))
    for key, value in cfg["scenario"].items():
        if value is not None:
            name, convert = SCHEMA["scenario." + key].build or (key, None)
            kwargs[name] = convert(value) if convert else value
    return presets.build(**kwargs)


def _scan_setting(cfg: dict, key: str):
    """scan.<key> if set, else the preset's value, else the row's fallback."""
    value = cfg["scan"][key]
    if value is None:
        value = presets.SCAN_ROWS.get(cfg["preset"], {}).get(
            key, SCHEMA["scan." + key].fallback)
    return value


def _resolve_tau_spec(cfg: dict, scenario: SpectroscopyScenario) -> float:
    scan = cfg["scan"]
    if scan["tau_scaled"] is None:
        return scan["tau_spec_s"]
    rate = scaled_time(1.0, scenario)
    _require(rate > 0, f"scan.tau_scaled: resonant absorption rate {rate!r} must be > 0")
    return scan["tau_scaled"] / rate


def _detuning_grid(cfg: dict) -> np.ndarray:
    span = _scan_setting(cfg, "span_hz")
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
    fit_mode = _scan_setting(cfg, "fit")
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
    fit_mode = _scan_setting(cfg, "fit")
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
