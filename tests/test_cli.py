import json
import os

import numpy as np
import pytest

from fwlab.cli import (EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, ConfigError,
                       main, parse_config_text)


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    return main([*args, "--out", str(out)]), out


def test_parse_config_text():
    cfg = parse_config_text("""
# comment
solver = fv
n = 256
T = 0.5          # trailing comment
dealias = true
eps_list = 1e-2,5e-3
name = peakon
""")
    assert cfg == {"solver": "fv", "n": 256, "T": 0.5, "dealias": True,
                   "eps_list": [0.01, 0.005], "name": "peakon"}
    with pytest.raises(ConfigError):
        parse_config_text("not a key value line")


def test_missing_config_is_usage_error(tmp_path):
    code, _ = run_cli(tmp_path, "simulate")
    assert code == EXIT_USAGE


def test_unknown_preset_lists_choices(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "simulate", "--preset", "nope")
    assert code == EXIT_USAGE
    assert "available" in capsys.readouterr().err


def test_missing_profile_is_usage_error(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("solver = fv\nn = 64\nT = 0.1\ndomain = torus\n")
    code, _ = run_cli(tmp_path, "simulate", "--config", str(cfgfile))
    assert code == EXIT_USAGE


def test_simulate_strong_torus(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        "solver = strong\ndomain = torus\nprofile = sine\n"
        "profile.amplitude = 0.2\nprofile.offset = 0.5\n"
        "n = 64\ndt = 1e-3\nT = 0.05\n")
    code, out = run_cli(tmp_path, "simulate", "--config", str(cfgfile))
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["overall_pass"]
    names = {c["check_name"] for c in report["checks"]}
    assert "mass_conservation" in names
    series = (out / "series.csv").read_text().splitlines()
    assert series[0] == "t,mass,l2,linf,m1,m2,xi1,xi2"
    snap = (out / "snapshot_final.csv").read_text().splitlines()
    assert snap[0] == "x,u"
    assert len(snap) == 65


def test_simulate_determinism(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        "solver = fv\ndomain = line\na = -10\nb = 10\nprofile = peakon\n"
        "n = 200\nT = 0.1\n")
    code1, out1 = run_cli(tmp_path / "r1", "simulate", "--config", str(cfgfile))
    code2, out2 = run_cli(tmp_path / "r2", "simulate", "--config", str(cfgfile))
    assert code1 == code2 == EXIT_OK
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()
    assert (out1 / "snapshot_final.csv").read_bytes() == \
        (out2 / "snapshot_final.csv").read_bytes()


def test_breaking_criterion_not_met(tmp_path):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("domain = torus\nprofile = sine\n"
                       "profile.amplitude = 0.3\nn = 128\n")
    code, out = run_cli(tmp_path, "breaking", "--config", str(cfgfile))
    assert code == EXIT_OK
    payload = json.loads((out / "breaking.json").read_text())
    assert payload["condition_met"] is False
    assert payload["t_star"] is None


def test_breaking_small_run(tmp_path):
    # scaled-down breaking run: same criterion logic, coarse grid
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        "domain = line\na = -8\nb = 8\nprofile = gaussian_derivative\n"
        "profile.beta = 2.0\nn = 4096\ndt = 1e-3\nT = 0.75\n"
        "stop_slope = 300\nadvect = upwind\nsnapshot_stride = 50\n")
    code, out = run_cli(tmp_path, "breaking", "--config", str(cfgfile))
    payload = json.loads((out / "breaking.json").read_text())
    assert payload["condition_met"] is True
    assert payload["t_star"] == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert payload["t_observed"] is not None
    assert payload["t_observed"] <= 0.70
    assert code == EXIT_OK


def test_verify_upjump_detects_inadmissible(tmp_path):
    # an inadmissible trajectory must make verify exit 1
    code, out = run_cli(tmp_path, "verify", "--preset", "upjump_adversarial",
                        "n=1000")
    assert code == EXIT_CHECK_FAILED
    entropy = json.loads((out / "entropy.json").read_text())
    assert entropy["kruzhkov_min"] <= -1e-3
    report = json.loads((out / "report.json").read_text())
    failed = {c["check_name"] for c in report["checks"] if not c["pass"]}
    assert "kruzhkov_residual" in failed


def test_wave_peakon(tmp_path):
    code, out = run_cli(tmp_path, "wave", "--preset", "wave_peakon", "n=4000")
    assert code == EXIT_OK
    defect = json.loads((out / "defect.json").read_text())
    assert abs(defect["c"] - 4.0 / 3.0) <= 0.01
    assert abs(defect["lambda1"]) <= 0.5
    prof = (out / "profile.csv").read_text().splitlines()
    assert prof[0] == "xi,v"


def test_wave_cusp_small_speed_exits_2(tmp_path):
    code, _ = run_cli(tmp_path, "wave", "--preset", "wave_cusp", "c=1.2")
    assert code == EXIT_USAGE


def test_wave_cusp(tmp_path):
    code, out = run_cli(tmp_path, "wave", "--preset", "wave_cusp")
    assert code == EXIT_OK
    defect = json.loads((out / "defect.json").read_text())
    assert defect["b"] == pytest.approx(3.0, rel=1e-12)
    assert defect["lambda1"] < -0.5
    assert defect["slope_jump"] == pytest.approx(-defect["lambda1"], rel=0.05)


def test_sweep_viscosity(tmp_path, monkeypatch):
    monkeypatch.setenv("FWLAB_THREADS", "2")
    code, out = run_cli(tmp_path, "sweep", "--preset", "viscosity_sweep",
                        "n=800", "T=0.25")
    assert code == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "eps,l1_distance"
    dists = [float(r.split(",")[1]) for r in rows[1:]]
    assert dists[0] > dists[1] > dists[2]


def test_sweep_resolution(tmp_path):
    code, out = run_cli(tmp_path, "sweep", "--preset", "convergence_peakon",
                        "n_list=500,1000,2000", "T=0.5")
    assert code == EXIT_OK
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "n,dt_mean,l1_err,order"
    assert len(rows) == 3


def test_exit_code_contract_on_check_failure(tmp_path):
    # an overflow-bound run must exit 1
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        "solver = strong\ndomain = torus\nprofile = sine\n"
        "profile.amplitude = 50.0\nn = 64\ndt = 0.5\nT = 5.0\ndealias = false\n"
        "stop_slope = 1e308\n")
    code, out = run_cli(tmp_path, "simulate", "--config", str(cfgfile))
    assert code == EXIT_CHECK_FAILED


@pytest.mark.parametrize("verb, preset, overrides, code, message", [
    # bad values and rejected configs are config errors naming the key
    ("simulate", "conservation_sine", ["T=1,2"], EXIT_USAGE, "T=[1, 2]"),
    ("simulate", "conservation_sine", ["T=0.25", "dt=0.1"], EXIT_USAGE,
     "T=0.25 is not an integer multiple of dt=0.1"),
    ("simulate", "conservation_sine", ["advect=sideways"], EXIT_USAGE,
     "advect"),
    ("simulate", "peakon_transport", ["n=abc"], EXIT_USAGE, "n='abc'"),
    ("simulate", "peakon_transport", ["cfl=1.5"], EXIT_USAGE, "cfl"),
    ("simulate", "peakon_transport", ["splitting=trotter"], EXIT_USAGE,
     "splitting"),
    ("breaking", "breaking_gaussian", ["n=abc"], EXIT_USAGE, "n='abc'"),
    ("verify", "l1_stability", ["n=abc"], EXIT_USAGE, "n='abc'"),
    ("verify", "riemann_entropy", ["kruzhkov_tol=tight"], EXIT_USAGE,
     "kruzhkov_tol='tight'"),
    ("wave", "wave_peakon", ["n=abc"], EXIT_USAGE, "n='abc'"),
    ("sweep", "viscosity_sweep", ["n=abc"], EXIT_USAGE, "n='abc'"),
    ("sweep", "convergence_peakon", ["n_list=500,abc"], EXIT_USAGE,
     "n_list='abc'"),
    # a step rejected while the run is in progress is not a config error
    ("simulate", "peakon_transport", ["dt=0.5"], EXIT_CHECK_FAILED,
     "time step too large"),
    # a misspelt key is rejected, not ignored
    ("simulate", "dispersion_mode1", ["dtt=5"], EXIT_USAGE,
     "unknown key 'dtt'"),
    ("simulate", "dispersion_mode1", ["lamda=2"], EXIT_USAGE,
     "unknown key 'lamda'"),
])
def test_config_error_exit_codes(tmp_path, capsys, verb, preset, overrides,
                                 code, message):
    got, _ = run_cli(tmp_path, verb, "--preset", preset, *overrides)
    assert got == code
    err = capsys.readouterr().err
    assert message in err
    assert ("config error" in err) == (code == EXIT_USAGE)
