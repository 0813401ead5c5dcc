import contextlib
import io
import json
import os
import typing
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwlab import FVConfig, StrongConfig, Thresholds
from fwlab.cli import (_KEYS, EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE,
                       ConfigError, Keys, _config_from, load_config, main,
                       parse_config_text)


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


def test_verify_reports_a_run_that_stops_short(tmp_path):
    # the strong run passes stop_slope = 20 at t ~ 0.39, before T = 0.5
    code, out = run_cli(tmp_path, "verify", "--preset", "riemann_entropy",
                        "solver=strong", "dt=1e-3", "n=800", "stop_slope=20")
    assert code == EXIT_CHECK_FAILED
    report = json.loads((out / "report.json").read_text())
    (check,) = [c for c in report["checks"] if c["check_name"] == "completed"]
    assert check["pass"] is False
    assert check["value"] == "slope_threshold"
    assert check["threshold"] == 0.5
    assert check["details"]["t_stop"] < 0.5


def test_verify_strong_stability_keeps_its_own_dt(tmp_path):
    # the fixed CFL step shared by the two FV runs is not forced on strong
    # runs, whose T need only be a multiple of StrongConfig's dt
    code, out = run_cli(tmp_path, "verify", "--preset", "l1_stability",
                        "solver=strong", "n=400", "T=0.25")
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert [c["check_name"] for c in report["checks"]] == [
        "l1_stability_ratio", "l1_growth"]


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


def test_wave_cusp_construction_failure_reports_one_check(tmp_path):
    # a window too narrow for the far field: the cusp is never built
    code, out = run_cli(tmp_path, "wave", "--preset", "wave_cusp",
                        "a=-2", "b=2", "n=800")
    assert code == EXIT_CHECK_FAILED
    report = json.loads((out / "report.json").read_text())
    assert [(c["check_name"], c["pass"]) for c in report["checks"]] == \
        [("construction", False)]
    assert not report["overall_pass"]
    assert not (out / "profile.csv").exists()
    assert not (out / "defect.json").exists()


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
    # a bool field takes only true/yes/on or false/no/off
    ("simulate", "dispersion_mode1", ["dealias=abc"], EXIT_USAGE,
     "dealias='abc'"),
    ("simulate", "peakon_transport", ["source_on=nope"], EXIT_USAGE,
     "source_on='nope'"),
    # every key a command reads itself goes through the same coercion
    ("wave", "wave_cusp", ["c=abc"], EXIT_USAGE, "c='abc'"),
    ("simulate", "peakon_transport", ["a=abc"], EXIT_USAGE, "a='abc'"),
    ("wave", "wave_peakon", ["b=abc"], EXIT_USAGE, "b='abc'"),
    ("verify", "l1_stability", ["bump_amplitude=abc"], EXIT_USAGE,
     "bump_amplitude='abc'"),
    ("verify", "riemann_entropy", ["lambdas=abc"], EXIT_USAGE,
     "lambdas='abc'"),
    ("sweep", "viscosity_sweep", ["eps_list=abc"], EXIT_USAGE,
     "eps_list='abc'"),
    ("wave", "wave_cusp", ["c=1,2"], EXIT_USAGE, "c=[1, 2]"),
    ("verify", "upjump_adversarial", ["jump_at=abc"], EXIT_USAGE,
     "jump_at='abc'"),
    ("verify", "upjump_adversarial", ["steps=0"], EXIT_USAGE, "steps=0"),
    ("verify", "upjump_adversarial", ["steps=-3"], EXIT_USAGE, "steps=-3"),
    # resolution-sweep grids must nest: each n a larger multiple of the last
    ("sweep", "convergence_peakon", ["n_list=3000,4000"], EXIT_USAGE,
     "n_list=[3000, 4000]"),
    ("sweep", "convergence_peakon", ["n_list=8000,4000"], EXIT_USAGE,
     "n_list=[8000, 4000]"),
    # a misspelt choice is rejected, not read as the default path
    ("verify", "l1_stability", ["check=stabilty"], EXIT_USAGE,
     "check='stabilty'"),
    ("verify", "upjump_adversarial", ["trajectory=upjmp"], EXIT_USAGE,
     "trajectory='upjmp'"),
    # an int field takes an int or an integral float, never truncating
    ("simulate", "peakon_transport", ["n=4000.7"], EXIT_USAGE, "n=4000.7"),
    ("simulate", "peakon_transport", ["snapshot_stride=2.5"], EXIT_USAGE,
     "snapshot_stride=2.5"),
    ("simulate", "peakon_transport", ["solver=strnog"], EXIT_USAGE,
     "solver='strnog'"),
    ("simulate", "peakon_transport", ["domain=tor"], EXIT_USAGE,
     "domain='tor'"),
    ("simulate", "peakon_transport", ["a=5", "b=-5"], EXIT_USAGE,
     "a=5.0, b=-5.0"),
    ("verify", "riemann_entropy", ["lambdas=,"], EXIT_USAGE, "lambdas=[]"),
    # the viscosity sweep needs positive, strictly descending eps values
    ("sweep", "viscosity_sweep", ["eps_list=1e-3,1e-2"], EXIT_USAGE,
     "eps_list=[0.001, 0.01]"),
    ("sweep", "viscosity_sweep", ["eps_list=-1"], EXIT_USAGE,
     "eps_list=[-1.0]"),
    ("verify", "upjump_adversarial", ["T=0"], EXIT_USAGE, "T=0.0"),
    ("verify", "upjump_adversarial", ["T=-1"], EXIT_USAGE, "T=-1.0"),
    # every verb refuses a grid below 4 cells before it starts
    ("wave", "wave_peakon", ["n=2"], EXIT_USAGE, "n=2"),
    ("wave", "wave_cusp", ["n=2"], EXIT_USAGE, "n=2"),
    ("verify", "upjump_adversarial", ["n=0"], EXIT_USAGE, "n=0"),
    ("sweep", "convergence_peakon", ["n_list=2,4"], EXIT_USAGE,
     "n_list=[2, 4]"),
    # a zero bump leaves v0 = u0: the stability ratio has nothing to measure
    ("verify", "l1_stability", ["bump_amplitude=0"], EXIT_USAGE,
     "bump_amplitude=0.0"),
    ("verify", "l1_stability", ["bump_radius=0"], EXIT_USAGE,
     "bump_radius=0.0"),
    # the blow-up time is read from the strong run's stop_slope
    ("breaking", "breaking_gaussian", ["solver=fv", "n=800"], EXIT_USAGE,
     "solver='fv'"),
    # the cusp jump fit needs 4 cells on each side within 0.05 of the cusp
    ("wave", "wave_cusp", ["n=400"], EXIT_USAGE, "n=400"),
    ("wave", "wave_cusp", ["n=4000"], EXIT_USAGE, "n=4000"),
    # a bump that no snapshot time lies inside would pass vacuously
    ("verify", "upjump_adversarial", ["n=400", "steps=1"], EXIT_CHECK_FAILED,
     "t0=0.25"),
    ("verify", "riemann_entropy", ["n=400", "snapshot_stride=50"],
     EXIT_CHECK_FAILED, "t0=0.25"),
    # the defect fit needs a cell in 0.1 < |xi| < 6
    ("wave", "wave_peakon", ["n=4"], EXIT_USAGE, "n=4, a=-30.0, b=30.0"),
    ("wave", "wave_peakon", ["a=10", "b=20"], EXIT_USAGE,
     "n=8000, a=10.0, b=20.0"),
])
def test_config_error_exit_codes(tmp_path, capsys, verb, preset, overrides,
                                 code, message):
    got, out = run_cli(tmp_path, verb, "--preset", preset, *overrides)
    assert got == code
    # a command that raises writes no report
    assert not list(out.rglob("report.json"))
    err = capsys.readouterr().err
    assert message in err
    assert ("config error" in err) == (code == EXIT_USAGE)


def _main_stderr(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# override keys: no '=' (it ends the key), no surrounding whitespace (load_config
# strips it) and no leading '-' (argparse would read an option)
_override_keys = st.text(st.characters(exclude_characters="=",
                                       exclude_categories=("Cs",)),
                         min_size=1, max_size=16).map(str.strip).filter(
    lambda k: k and not k.startswith("-"))


@settings(max_examples=25, deadline=None)
@given(key=_override_keys.filter(
    lambda k: k not in _KEYS and not k.startswith("profile.")))
def test_any_unknown_key_exits_2(tmp_path_factory, key):
    code, err = _main_stderr(["simulate", "--preset", "dispersion_mode1",
                              "--out", str(tmp_path_factory.mktemp("out")),
                              f"{key}=1"])
    assert code == EXIT_USAGE
    assert f"unknown key {key!r}" in err


def _numeric_fields(cls, preset):
    hints = typing.get_type_hints(cls)
    return [(preset, f.name) for f in fields(cls)
            if {int, float} & {hints[f.name], *typing.get_args(hints[f.name])}]


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


@settings(max_examples=25, deadline=None)
@given(target=st.sampled_from(_numeric_fields(StrongConfig, "conservation_sine")
                              + _numeric_fields(FVConfig, "peakon_transport")
                              # simulate reads no steps, c, n_list, ...: a
                              # known key is type-checked all the same
                              + _numeric_fields(Keys, "peakon_transport")),
       value=st.sampled_from(["yes", "true", "off", "abc", ""])
       | st.text(max_size=12).filter(lambda v: not _is_number(v.strip())))
def test_non_numeric_value_for_numeric_field_exits_2(tmp_path_factory, target,
                                                     value):
    preset, key = target
    code, err = _main_stderr(["simulate", "--preset", preset,
                              "--out", str(tmp_path_factory.mktemp("out")),
                              f"{key}={value}"])
    assert code == EXIT_USAGE
    assert "config error" in err
    assert f"{key}=" in err


def _finite(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


@st.composite
def _strong_configs(draw):
    dt = draw(_finite(min_value=1e-6, max_value=1.0))
    return StrongConfig(
        dt=dt, T=dt * draw(st.integers(1, 10 ** 6)),
        dealias=draw(st.booleans()),
        lambda_coeff=draw(_finite(min_value=0.0)),
        stop_slope=draw(_finite(min_value=0.0, exclude_min=True)),
        advect=draw(st.sampled_from(["central", "upwind"])),
        snapshot_stride=draw(st.integers(1, 10 ** 6)))


_fv_configs = st.builds(
    FVConfig,
    T=_finite(min_value=0.0, exclude_min=True),
    cfl=_finite(min_value=0.0, max_value=1.0, exclude_min=True),
    eps=_finite(min_value=0.0),
    source_splitting=st.sampled_from(["strang", "lie"]),
    dt=st.none() | _finite(min_value=0.0, exclude_min=True),
    source_on=st.booleans(),
    snapshot_stride=st.integers(1, 10 ** 6))


@settings(max_examples=25, deadline=None)
@given(config=_strong_configs() | _fv_configs)
def test_config_text_round_trip(config):
    text = "".join(f"{f.name} = {getattr(config, f.name)}\n"
                   for f in fields(config)
                   if getattr(config, f.name) is not None)
    assert _config_from(type(config), parse_config_text(text)) == config


_PRESETS = sorted(p.name[:-4] for p in
                  (resources.files("fwlab") / "presets").iterdir()
                  if p.name.endswith(".cfg"))


@pytest.mark.parametrize("preset", _PRESETS)
def test_shipped_preset_builds_its_configs(preset):
    # every shipped preset, as shipped, is a valid config: nothing is run
    cfg = load_config(None, preset, [])
    keys = _config_from(Keys, cfg)
    _config_from(Thresholds, cfg)
    solver_config = StrongConfig if keys.solver == "strong" else FVConfig
    assert isinstance(_config_from(solver_config, cfg), solver_config)
