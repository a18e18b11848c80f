import csv
import json
import os
import re
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from recoilspec import cli, presets
from recoilspec.cli import (EXIT_CONFIG, EXIT_LEAK, EXIT_OK, ConfigError,
                            build_scenario, load_config, main)
from recoilspec.constants import CA40_U, H1_U, MG24_U

FAST = ["-s", "scenario.n_ip_max=7", "-s", "scenario.n_op_max=7",
        "-s", "scan.points=9", "-s", "scan.span_hz=250e6",
        "-s", "scan.tau_spec_s=2e-4"]


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_modes_reports_known_frequencies(tmp_path, capsys):
    assert main(["modes", "-o", str(tmp_path / "m")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "162.9" in out and "300.2" in out
    report = json.loads((tmp_path / "m.json").read_text())["report"]
    assert report["omega_ip_hz"] == pytest.approx(162.9e3, rel=1e-3)
    assert report["omega_op_hz"] == pytest.approx(300.2e3, rel=1e-3)


# the merged config with nothing set, as the command line prints it
DEFAULT = {
    "preset": "mg24_ca40",
    "scenario": dict.fromkeys([
        "omega_z_hz", "heat_ip", "heat_op", "axial_projection",
        "intensity_sat_units", "intensity_w_m2", "laser_fwhm_hz", "n_ip_max",
        "n_op_max", "s_ip_max", "s_op_max", "leak_warn_fraction",
        "absorption_scale", "stimulated_scale", "target_mass_u", "readout_mass_u",
        "transition_wavelength_m", "gamma_t_hz", "pattern"]),
    "readout": {"wavelength_m": 7.29e-07, "omega_0_hz": 10000.0,
                "two_pulse": False},
    "scan": {"span_hz": None, "points": 101, "tau_spec_s": 0.0013,
             "tau_scaled": None, "fit": None},
    "dynamics": {"t_max_s": 0.0053, "points": 60, "detuning_hz": 0.0},
    "widthcurve": {"tau_scaled": [1.0, 2.23, 4.0, 6.2, 9.1],
                   "intensities_sat_units": None, "laser_fwhms_hz": None},
    "reduced": {"contrast": 0.5},
}


def flat_keys(cfg, path=""):
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from flat_keys(value, path + key + ".")
        else:
            yield path + key


def test_print_config_roundtrip(capsys):
    assert main(["spectrum", "--print-config", "-s", "scan.points=11"]) == EXIT_OK
    cfg = json.loads(capsys.readouterr().out)
    assert cfg == {**DEFAULT, "scan": {**DEFAULT["scan"], "points": 11}}


@pytest.mark.parametrize("key", list(flat_keys(DEFAULT)))
def test_value_of_the_wrong_type_names_its_key(key):
    # a string where a number, flag or list belongs; a number where a name does
    wrong = "5" if key in ("preset", "scenario.pattern", "scan.fit") else "abc"
    with pytest.raises(ConfigError, match=re.escape(key)):
        load_config(None, [f"{key}={wrong}"])


def test_readme_names_every_config_key():
    # the README's key table has one row per config key, in schema order
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = re.findall(r"^\| `([^`]+)` \|", readme, flags=re.MULTILINE)
    assert table == list(flat_keys(load_config()))


def test_invalid_config_fields_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"scan": {"points": 3}}))
    assert main(["spectrum", "-c", str(bad)]) == EXIT_CONFIG
    assert "scan.points" in capsys.readouterr().err
    bad.write_text(json.dumps({"typo_section": {}}))
    assert main(["modes", "-c", str(bad)]) == EXIT_CONFIG
    assert "typo_section" in capsys.readouterr().err
    assert main(["modes", "-s", "scenario.heat_ip=-1"]) == EXIT_CONFIG
    assert "scenario.heat_ip" in capsys.readouterr().err
    for fraction in ("2", "-1"):
        assert main(["modes", "-s", f"scenario.leak_warn_fraction={fraction}"]) \
            == EXIT_CONFIG
        assert "leak_warn_fraction" in capsys.readouterr().err
    bad.write_text("{not json")
    assert main(["modes", "-c", str(bad)]) == EXIT_CONFIG
    for top_level in ("[1, 2]", '"x"'):
        bad.write_text(top_level)
        assert main(["modes", "-c", str(bad)]) == EXIT_CONFIG
        assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("omega_z_hz", -5), ("heat_ip", -1), ("heat_op", -0.5),
    ("axial_projection", 2), ("axial_projection", -0.1),
    ("intensity_sat_units", -1), ("intensity_w_m2", -1), ("laser_fwhm_hz", -1),
    ("n_ip_max", 0), ("n_op_max", -1), ("s_ip_max", 0), ("s_op_max", 0),
    ("leak_warn_fraction", 2), ("absorption_scale", -1), ("absorption_scale", 0),
    ("stimulated_scale", 1.5), ("target_mass_u", -1), ("readout_mass_u", 0),
    ("transition_wavelength_m", -1), ("gamma_t_hz", -1),
])
def test_scenario_value_out_of_range_names_its_key(key, value, tmp_path, capsys):
    # the schema checks the range, before a physics constructor sees the
    # value in its own units
    argv = ["modes", "-s", f"scenario.{key}={value}", "-o", str(tmp_path / "x")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: scenario.{key} must ")


def test_unknown_preset_rejected(capsys):
    assert main(["modes", "-p", "he4_ca40"]) == EXIT_CONFIG
    assert "preset" in capsys.readouterr().err


def test_spectrum_outputs_and_rerun_identical(tmp_path):
    out1 = tmp_path / "a"
    assert main(["spectrum", "-o", str(out1), *FAST]) == EXIT_OK
    rows = read_csv(out1.with_suffix(".csv"))
    assert len(rows) == 9
    assert set(rows[0]) >= {"detuning_hz", "fluorescence_probability",
                            "leaked_probability", "model", "P_00"}
    fit = json.loads((tmp_path / "a_fit.json").read_text())
    assert fit["config"]["scan"]["points"] == 9
    assert fit["fit"]["fwhm_hz"] > 0
    # re-running from the emitted effective config reproduces the CSV exactly
    out2 = tmp_path / "b"
    assert main(["spectrum", "-c", str(tmp_path / "a_config.json"),
                 "-o", str(out2)]) == EXIT_OK
    assert out2.with_suffix(".csv").read_bytes() == \
        out1.with_suffix(".csv").read_bytes()


def test_dark_dynamics_stays_constant(tmp_path):
    out = tmp_path / "dyn"
    code = main(["dynamics", "-o", str(out),
                 "-s", "scenario.intensity_sat_units=0",
                 "-s", "scenario.heat_ip=0", "-s", "scenario.heat_op=0",
                 "-s", "dynamics.points=5", "-s", "dynamics.t_max_s=1e-3",
                 "-s", "scenario.n_ip_max=5", "-s", "scenario.n_op_max=5"])
    assert code == EXIT_OK
    rows = read_csv(out.with_suffix(".csv"))
    assert len(rows) == 5
    for row in rows:
        assert float(row["P_00"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["leaked_probability"]) == 0.0


def test_leak_breach_returns_status_but_writes_data(tmp_path):
    out = tmp_path / "leaky"
    code = main(["spectrum", "-o", str(out),
                 "-s", "scenario.n_ip_max=3", "-s", "scenario.n_op_max=3",
                 "-s", "scan.points=9", "-s", "scan.tau_spec_s=5.3e-3"])
    assert code == EXIT_LEAK
    rows = read_csv(out.with_suffix(".csv"))
    assert any(row["leak_flag"] == "1" for row in rows)


def test_reduced_command(tmp_path):
    out = tmp_path / "red"
    assert main(["reduced", "-o", str(out), "-s", "scan.points=11",
                 "-s", "scan.tau_spec_s=1.3e-3"]) == EXIT_OK
    rows = read_csv(out.with_suffix(".csv"))
    assert all(row["model"] == "reduced" for row in rows)


def test_dtable_command(tmp_path):
    out = tmp_path / "dt"
    sets = ["scenario.n_ip_max=2", "scenario.n_op_max=2"]
    assert main(["dtable", "-o", str(out), "-s", sets[0], "-s", sets[1]]) == EXIT_OK
    table = build_scenario(load_config(None, sets)).d_table()
    lines = out.with_suffix(".csv").read_text().splitlines()
    assert lines[0] == "n_ip,n_op,s_ip,s_op,D"
    assert len(lines) == 1 + table.size
    rows = [line.split(",") for line in lines[1:]]
    # flat row order is (n_ip, n_op, s_ip, s_op); spot-check one entry
    assert [int(v) for v in rows[6 * 13 + 6][:4]] == [0, 0, 1, 0]
    assert [[int(v) for v in row[:4]] for row in rows] == [
        [a, b, i - 5, j - 6] for a, b, i, j in np.ndindex(table.shape)]
    # D round-trips through the CSV
    assert np.array_equal([float(row[4]) for row in rows], table.ravel())
    assert table[0, 0].sum() == pytest.approx(1.0, abs=1e-5)


def test_widthcurve_command(tmp_path):
    out = tmp_path / "wc"
    code = main(["widthcurve", "-o", str(out), *FAST,
                 "-s", "widthcurve.tau_scaled=[1.0,2.23]"])
    assert code == EXIT_OK
    rows = read_csv(out.with_suffix(".csv"))
    assert len(rows) == 2
    assert float(rows[1]["fwhm_hz"]) > float(rows[0]["fwhm_hz"]) > 0


def test_widthcurve_intensity_sweep(tmp_path):
    out = tmp_path / "wci"
    code = main(["widthcurve", "-o", str(out), *FAST,
                 "-s", "widthcurve.tau_scaled=[2.23]",
                 "-s", "widthcurve.intensities_sat_units=[6.54e-6,1.3e-5]"])
    assert code == EXIT_OK
    rows = read_csv(out.with_suffix(".csv"))
    assert len(rows) == 2
    assert len({row["label"] for row in rows}) == 2
    widths = [float(row["fwhm_hz"]) for row in rows]
    assert max(widths) / min(widths) < 1.10  # scaled-time collapse


def test_two_pulse_readout_flag(tmp_path):
    single = tmp_path / "one"
    double = tmp_path / "two"
    assert main(["spectrum", "-o", str(single), *FAST]) == EXIT_OK
    assert main(["spectrum", "-o", str(double), *FAST,
                 "-s", "readout.two_pulse=true"]) == EXIT_OK
    d1 = json.loads((tmp_path / "one_fit.json").read_text())["fit"]["depth"]
    d2 = json.loads((tmp_path / "two_fit.json").read_text())["fit"]["depth"]
    assert d2 > d1


def test_gnuplot_script_emitted(tmp_path):
    out = tmp_path / "plot"
    assert main(["spectrum", "-o", str(out), "--plot-script", *FAST]) == EXIT_OK
    script = out.with_suffix(".gp").read_text()
    assert "plot" in script and "plot.csv" in script


def test_mgh_preset_via_flags(tmp_path):
    out = tmp_path / "mgh"
    assert main(["modes", "-p", "mgh24_ca40", "-o", str(out)]) == EXIT_OK
    report = json.loads((out.with_suffix(".json")).read_text())["report"]
    assert report["omega_op_hz"] == pytest.approx(295.7e3, rel=1e-3)
    assert report["saturation_intensity_w_m2"] == pytest.approx(3.40, rel=0.01)


MG_EXPLICIT = [
    "preset=null",
    f"scenario.target_mass_u={MG24_U!r}",
    f"scenario.readout_mass_u={CA40_U!r}",
    "scenario.transition_wavelength_m=279.6e-9",
    "scenario.gamma_t_hz=41.8e6",
    "scenario.pattern=mg_mixed",
    "scenario.intensity_sat_units=6.54e-6",
    "scenario.absorption_scale=0.6666666666666666",
    "scenario.stimulated_scale=0.6666666666666666",
]


def test_custom_scenario_without_preset():
    # an explicit config carrying a preset's row builds that preset's scenario:
    # the same line, laser, beam, pattern, sideband bounds and heating
    scenario = build_scenario(load_config(None, MG_EXPLICIT))
    assert scenario.system.omega_ip / (2 * np.pi) == pytest.approx(162.9e3, rel=1e-3)
    assert scenario == presets.mg24_ca40()
    # a laser width alone selects the Gaussian laser and its saturation regime
    cfg = load_config(None, [
        "preset=null",
        f"scenario.target_mass_u={MG24_U + H1_U!r}",
        f"scenario.readout_mass_u={CA40_U!r}",
        "scenario.transition_wavelength_m=6.17e-6", "scenario.gamma_t_hz=2.5",
        "scenario.laser_fwhm_hz=50e6", "scenario.pattern=isotropic",
        "scenario.intensity_sat_units=2.08e4",
        "scenario.absorption_scale=0.1111111111111111",
        "scenario.stimulated_scale=0.3333333333333333",
        "scenario.s_ip_max=3", "scenario.s_op_max=3",
    ])
    assert build_scenario(cfg) == presets.mgh24_ca40()
    for key in ("laser_shape", "target_label", "readout_label"):
        with pytest.raises(ConfigError, match=key):
            load_config(None, [f"scenario.{key}=x"])
    missing = ["preset=null", "scenario.target_mass_u=24.0"]
    with pytest.raises(ConfigError, match="readout_mass_u"):
        load_config(None, missing)


@pytest.mark.parametrize("sets, attr, expected", [
    (MG_EXPLICIT + ["scenario.heat_ip=30"], "heat_ip", 30.0),
    (["preset=mg24_ca40", "scenario.laser_fwhm_hz=1e6"], "laser.fwhm", 2 * np.pi * 1e6),
    (["preset=mg24_ca40", "scenario.gamma_t_hz=20e6"], "line.gamma_t", 2 * np.pi * 20e6),
    (["preset=mgh24_ca40", "scenario.gamma_t_hz=10"], "line.gamma_t", 2 * np.pi * 10),
    (["preset=mgh24_ca40", "scenario.absorption_scale=0.5"], "line.absorption_scale", 0.5),
    (["preset=mgh24_ca40", "scenario.intensity_w_m2=5.0"], "laser.intensity", 5.0),
])
def test_set_scenario_key_wins_over_preset(sets, attr, expected):
    assert attrgetter(attr)(build_scenario(load_config(None, sets))) == expected


@pytest.mark.parametrize("sets, span_hz, fit", [
    (["preset=mg24_ca40"], 300e6, "lorentzian"),
    (["preset=mgh24_ca40"], 600e6, "numeric"),
    (MG_EXPLICIT, 300e6, "lorentzian"),
    (["preset=mgh24_ca40", "scan.span_hz=50e6", "scan.fit=lorentzian"], 50e6,
     "lorentzian"),
], ids=["mg", "mgh", "explicit", "set"])
def test_null_scan_key_takes_the_preset_value_else_the_fallback(sets, span_hz, fit):
    cfg = load_config(None, sets)
    grid = cli._detuning_grid(cfg)
    assert grid[-1] - grid[0] == pytest.approx(2 * np.pi * span_hz, rel=1e-15)
    assert cli._scan_setting(cfg, "fit") == fit


def test_widthcurve_laser_widths_under_mg_preset(tmp_path):
    out = tmp_path / "wcl"
    code = main(["widthcurve", "-p", "mg24_ca40", "-o", str(out), *FAST,
                 "-s", "widthcurve.tau_scaled=[2.23]",
                 "-s", "widthcurve.laser_fwhms_hz=[1e6,200e6]"])
    assert code == EXIT_OK
    rows = read_csv(out.with_suffix(".csv"))
    assert [row["label"] for row in rows] == ["GammaL=1MHz", "GammaL=200MHz"]
    narrow, broad = (float(row["fwhm_hz"]) for row in rows)
    assert broad > 1.5 * narrow


@pytest.mark.parametrize("setting", ["integrator=lsoda", "workers=3"],
                         ids=["integrator", "workers"])
def test_integrator_is_not_a_config_key(setting, tmp_path, capsys):
    # rate_engine has one propagation path and a scan runs in one process:
    # neither the solver nor a worker count is a user setting
    key = setting.split("=")[0]
    assert key not in load_config()
    with pytest.raises(ConfigError, match=f"unknown config key: {key}"):
        load_config(None, [setting])
    assert main(["spectrum", "-o", str(tmp_path / "s"), *FAST,
                 "-s", setting]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_widthcurve_sweeps_one_key(tmp_path, capsys):
    # an intensity sweep would silently drop the laser widths
    with pytest.raises(ConfigError, match="not both"):
        load_config(None, ["widthcurve.intensities_sat_units=[1e-5]",
                           "widthcurve.laser_fwhms_hz=[5e6]"])
    out = tmp_path / "wc"
    assert main(["widthcurve", "-p", "mgh24_ca40", "-o", str(out), *FAST,
                 "-s", "widthcurve.intensities_sat_units=[1e-5]",
                 "-s", "widthcurve.laser_fwhms_hz=[5e6]"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "wc.csv").exists()


@pytest.mark.parametrize("argv", [
    ["widthcurve", "-p", "mgh24_ca40", "-s", "widthcurve.laser_fwhms_hz=[-1e6]"],
    ["widthcurve", "-s", "widthcurve.intensities_sat_units=[-1]"],
    ["widthcurve", "-s", "widthcurve.tau_scaled=[-1]"],
    ["spectrum", "-s", "scan.tau_spec_s=-1e-3"],
    ["spectrum", "-s", "scan.tau_scaled=-2"],
    ["dynamics", "-s", "dynamics.t_max_s=-1e-3"],
    ["dynamics", "-s", "dynamics.points=0"],
    ["spectrum", "-s", "scan.span_hz=0"],
    ["widthcurve", "-s", "widthcurve.tau_scaled=[0]"],
    ["widthcurve", "-s", "widthcurve.tau_scaled=[]"],
    ["reduced", "-s", "reduced.contrast=2"],
    # a value of the wrong type
    ["spectrum", "-s", "scan.points=abc"],
    ["spectrum", "-s", "scan.points=10.5"],
    ["dynamics", "-s", "dynamics.points=abc"],
    ["widthcurve", "-s", "widthcurve.tau_scaled=5"],
    ["widthcurve", "-s", "widthcurve.tau_scaled=[1,\"a\"]"],
    ["widthcurve", "-s", "widthcurve.laser_fwhms_hz=[true]"],
    ["widthcurve", "-s", "widthcurve.intensities_sat_units=[null]"],
    ["spectrum", "-s", "scan.tau_scaled=abc"],
    ["spectrum", "-s", "scan.span_hz=abc"],
    ["modes", "-s", "scenario.heat_ip=abc"],
    ["modes", "-s", "scenario.pattern=5"],
    ["modes", "-s", "readout.omega_0_hz=null"],
    ["spectrum", "-s", "readout.two_pulse=yes"],
    ["spectrum", "-s", "readout.two_pulse=1"],
    ["spectrum", "-s", "scan.points=true"],
    ["modes", "-s", "readout.omega_0_hz=true"],
    ["spectrum", "-s", "scenario.n_ip_max=2.5"],
    ["modes", "-s", "scenario.n_op_max=2.5"],
    ["spectrum", "-s", "scenario.s_ip_max=1.5"],
    ["modes", "-s", "scenario.s_op_max=1.5"],
    # a number that is not finite
    ["modes", "-s", "scenario.omega_z_hz=NaN"],
    ["modes", "-s", "scenario.intensity_sat_units=Infinity"],
    ["dynamics", "-s", "dynamics.detuning_hz=NaN"],
    ["dynamics", "-s", "scenario.heat_ip=NaN"],
    ["widthcurve", "-s", "widthcurve.tau_scaled=[1,Infinity]"],
    # a value outside the accepted set
    ["spectrum", "-s", "scan.fit=gaussian"],
    ["modes", "-s", "preset=[\"mg24_ca40\"]"],
], ids=lambda argv: argv[-1])
def test_bad_run_time_value_is_a_config_error(argv, tmp_path, capsys):
    assert main([*argv, "-o", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    # the config check names the key it rejects
    assert argv[-1].split("=")[0] in err


def test_type_error_inside_a_command_is_not_a_config_error(monkeypatch, tmp_path):
    # every config value is checked when it loads, so a TypeError in a
    # command is a fault of the program and keeps its traceback
    def broken(*args):
        raise TypeError("a fault in the command")
    monkeypatch.setitem(cli._COMMANDS, "modes", broken)
    with pytest.raises(TypeError, match="a fault in the command"):
        main(["modes", "-o", str(tmp_path / "m")])


def test_type_error_while_building_the_scenario_is_not_a_config_error(monkeypatch):
    # a config that loads builds its scenario without a TypeError, so one
    # raised there is a fault of the program and keeps its traceback
    def broken(cfg):
        raise TypeError("a fault in the builder")
    monkeypatch.setattr(cli, "build_scenario", broken)
    with pytest.raises(TypeError, match="a fault in the builder"):
        main(["modes"])


@pytest.mark.parametrize("argv, regime", [
    (["-p", "mg24_ca40"], "transition"),
    (["-p", "mg24_ca40", "-s", "scenario.laser_fwhm_hz=1e3"], "transition"),
    (["-p", "mg24_ca40", "-s", "scenario.laser_fwhm_hz=100e6"], "laser"),
    (["-p", "mgh24_ca40"], "laser"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_saturation_regime_is_the_wider_line(argv, regime, tmp_path, capsys):
    # a laser narrower than the transition leaves the run transition-limited
    assert main(["modes", *argv, "-o", str(tmp_path / "m")]) == EXIT_OK
    assert f"saturation intensity ({regime}):" in capsys.readouterr().out
    report = json.loads((tmp_path / "m.json").read_text())["report"]
    assert report["saturation_regime"] == regime


@pytest.mark.parametrize("argv", [
    ["spectrum", "-s", "scan.tau_scaled=2"],
    ["widthcurve"],
], ids=lambda argv: argv[0])
def test_scaled_time_without_light_is_a_config_error(argv, tmp_path, capsys):
    # a dark laser has no resonant rate to turn a scaled time into seconds
    assert main([*argv, "-s", "scenario.intensity_sat_units=0",
                 "-o", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "resonant absorption rate" in err
    assert not (tmp_path / "x.csv").exists()
