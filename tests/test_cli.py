import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import typing
import warnings
from dataclasses import fields
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fwlab
from fwlab import (FVConfig, StrongConfig, Thresholds, cli,
                   conservation_report, line, run_fv, sample, torus,
                   trajectory)
from fwlab.cli import (_ALIASES, _KEYS, _TYPES, EXIT_CHECK_FAILED, EXIT_OK,
                       EXIT_USAGE, ConfigError, Keys, _config_from,
                       load_config, main, parse_config_text)
from fwlab.diagnostics import EntropyCheck
from fwlab.trajectory import drain, synthetic_trajectory


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    return main([*args, "--out", str(out)]), out


def _fwlab_env():
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cli_import_leaves_out_scipy():
    # every command imports fwlab.cli; scipy.linalg alone would add about
    # 26 MB and scipy.integrate about 23 MB more
    probe = ("import sys, fwlab.cli; "
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    done = subprocess.run([sys.executable, "-c", probe], env=_fwlab_env(),
                          check=True, capture_output=True, text=True)
    assert done.stdout.strip() == "[]"


def test_line_run_needs_no_scipy(tmp_path):
    # wave_peakon solves the line kernel; with scipy made unimportable it
    # still runs to exit 0
    probe = ("import sys; sys.modules['scipy'] = None; "
             "from fwlab.cli import main; "
             "sys.exit(main(['wave', '--preset', 'wave_peakon', "
             f"'--out', {str(tmp_path / 'out')!r}]))")
    done = subprocess.run([sys.executable, "-c", probe], env=_fwlab_env(),
                          capture_output=True, text=True)
    assert done.returncode == EXIT_OK, done.stderr
    assert (tmp_path / "out" / "report.json").is_file()


def test_line_runs_leave_out_numpy_fft(tmp_path):
    # only a torus operator binds numpy's pocketfft, so strong and FV runs on
    # the line never import numpy.fft; the torus run shows the probe sees it
    runs = [["simulate", "--preset", "breaking_gaussian", "n=512", "T=0.02"],
            ["simulate", "--preset", "peakon_transport", "n=400", "T=0.1"],
            ["simulate", "--preset", "conservation_sine", "n=64", "T=0.01"]]
    probe = ("import sys; from fwlab.cli import main; "
             "print([(main([*argv, '--out', sys.argv[1] + str(i)]), "
             f"'numpy.fft' in sys.modules) for i, argv in enumerate({runs!r})])")
    done = subprocess.run([sys.executable, "-c", probe, str(tmp_path / "out")],
                          env=_fwlab_env(), check=True, capture_output=True,
                          text=True)
    assert done.stdout.strip() == "[(0, False), (0, False), (0, True)]"


def test_parse_config_text():
    cfg = parse_config_text("""
# comment
solver = fv
n = 256
T = 0.5          # trailing comment
dealias = true
profile.center = 1,2
name = peakon
""")
    # no key splits on commas: a value that is no number keeps its text
    assert cfg == {"solver": "fv", "n": 256, "T": 0.5, "dealias": True,
                   "profile.center": "1,2", "name": "peakon"}
    with pytest.raises(ConfigError):
        parse_config_text("not a key value line")


def test_missing_config_is_usage_error(tmp_path):
    code, _ = run_cli(tmp_path, "simulate")
    assert code == EXIT_USAGE


def test_unknown_preset_lists_choices(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "simulate", "--preset", "nope")
    assert code == EXIT_USAGE
    assert "available" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--config", "no_such.cfg"], "cannot read config no_such.cfg"),
    (["simulate", "--preset", "peakon_transport", "n400"],
     "override must be key=value, got 'n400'"),
    (["simulate", "--preset", "peakon_transport", "profile.bogus=1"],
     "profile 'peakon' takes ['center'], not 'bogus'"),
    (["simulate", "--preset", "peakon_transport", "--bogus"],
     "unrecognized arguments: --bogus"),  # an argparse usage error
    (["simulate2", "--preset", "peakon_transport"], "invalid choice"),
])
def test_usage_errors_exit_2_without_report(tmp_path, capsys, argv, message):
    code, out = run_cli(tmp_path, *argv)
    assert code == EXIT_USAGE
    assert not out.exists()
    assert message in capsys.readouterr().err


def test_version_exits_0(tmp_path, capsys):
    code, out = run_cli(tmp_path, "--version")
    assert code == EXIT_OK
    assert not out.exists()
    assert capsys.readouterr().out.strip() == f"fwlab {fwlab.__version__}"


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
        "stop_slope = 300\nadvect = upwind\n")
    code, out = run_cli(tmp_path, "breaking", "--config", str(cfgfile))
    payload = json.loads((out / "breaking.json").read_text())
    assert payload["condition_met"] is True
    assert payload["t_star"] == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert payload["t_observed"] is not None
    assert payload["t_observed"] <= 0.70
    assert code == EXIT_OK


def _assert_entropy_passes_are_the_verdicts(out):
    # entropy.json's passes are the report's verdicts, not a second copy
    passes = json.loads((out / "entropy.json").read_text())["passes"]
    report = json.loads((out / "report.json").read_text())
    verdicts = {c["check_name"]: c["pass"] for c in report["checks"]}
    assert passes == {"weak": verdicts["weak_residual"],
                      "kruzhkov": verdicts["kruzhkov_residual"],
                      "oleinik": verdicts["oleinik_margin"]}


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
    _assert_entropy_passes_are_the_verdicts(out)  # weak and kruzhkov fail


def _torus_upjump_config(tmp_path) -> str:
    """A copy of the upjump_adversarial preset less a and b, which only the
    line reads; its runs override domain=torus."""
    text = (resources.files("fwlab") / "presets"
            / "upjump_adversarial.cfg").read_text()
    path = tmp_path / "upjump_torus.cfg"
    path.write_text("".join(row for row in text.splitlines(keepends=True)
                            if row.split("=")[0].strip() not in ("a", "b")))
    return str(path)


def test_verify_upjump_on_the_torus(tmp_path):
    # at the torus's centre, 0.5, both states are on the grid, and the
    # up-jump fails as it does on the line
    code, out = run_cli(tmp_path, "verify", "--config",
                        _torus_upjump_config(tmp_path), "n=1000",
                        "domain=torus")
    assert code == EXIT_CHECK_FAILED
    report = json.loads((out / "report.json").read_text())
    failed = {c["check_name"] for c in report["checks"] if not c["pass"]}
    assert "kruzhkov_residual" in failed
    _assert_entropy_passes_are_the_verdicts(out)  # kruzhkov and oleinik fail


@pytest.mark.parametrize("domain", [line(-20, 20), torus()],
                         ids=["line", "torus"])
def test_verify_upjump_sits_at_the_window_centre(tmp_path, domain):
    # the up-jump -1 -> +1 at (a + b)/2, snapshotted at T k/100 for k = 0 ..
    # 100: verify's checks and entropy.json are bit for bit those of the
    # entropy check drained from that field
    n, T = 1000, 0.5
    centre = (domain.a + domain.b) / 2
    check = EntropyCheck(domain, n, T)
    traj = drain(synthetic_trajectory(
        domain, n, T * np.arange(101) / 100,
        lambda x, t: np.where(x < centre, -1.0, 1.0)), check)
    rep = check.value()
    values = [rep.weak_residual_max, rep.kruzhkov_min, rep.oleinik_margin]
    code, out = run_cli(tmp_path, "verify", "check=upjump",
                        f"domain={domain.kind}", f"n={n}", f"T={T}")
    assert code == EXIT_CHECK_FAILED
    report = json.loads((out / "report.json").read_text())
    mass = [conservation_report(traj).mass_drift] if domain.periodic else []
    assert [c["value"] for c in report["checks"]] == values + mass
    entropy = json.loads((out / "entropy.json").read_text())
    assert [entropy["weak_residual_max"], entropy["kruzhkov_min"],
            entropy["oleinik_margin"]] == values


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
    # no residual is taken over a window the run never reached
    assert [c["check_name"] for c in report["checks"]] == ["completed"]
    assert not (out / "entropy.json").exists()


@pytest.mark.parametrize("T, t_stops", [
    (0.75, [0.3055, 0.3045]),  # both runs stop, v one step before u
    (0.305, [0.3045]),         # u reaches T, v stops one step before it
])
def test_verify_stability_reports_runs_that_stop_short(tmp_path, T, t_stops):
    # a stopped run's end snapshot falls off the stride, so the snapshot
    # times differ; each short run reports its failing completed check
    # alone, with no ratio over a window it never reached
    code, out = run_cli(tmp_path, "verify", "check=stability",
                        "solver=strong", "domain=line", "a=-8", "b=8",
                        "profile=gaussian_derivative", "profile.beta=2.0",
                        "n=512", "dt=5e-4", f"T={T}", "stop_slope=5",
                        "advect=upwind", "bump_amplitude=0.05")
    assert code == EXIT_CHECK_FAILED
    report = json.loads((out / "report.json").read_text())
    assert [(c["check_name"], c["pass"], c["value"], c["threshold"])
            for c in report["checks"]] == [
        ("completed", False, "slope_threshold", T)] * len(t_stops)
    assert [c["details"]["t_stop"] for c in report["checks"]] == \
        pytest.approx(t_stops, abs=1e-12)


def test_verify_strong_stability_keeps_its_own_dt(tmp_path):
    # the fixed CFL step shared by the two FV runs is not forced on strong
    # runs, whose T need only be a multiple of StrongConfig's dt
    code, out = run_cli(tmp_path, "verify", "--preset", "l1_stability",
                        "solver=strong", "n=400", "T=0.25")
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert [c["check_name"] for c in report["checks"]] == [
        "l1_stability_ratio", "l1_growth"]


def test_verify_fv_stability_steps_at_its_cfl(tmp_path):
    # the fixed step shared by the two FV runs is run_fv's own bound,
    # shock._dt_bound, at the speed 2 + max|u0|: a smaller cfl gives a
    # smaller step, not "time step too large"
    code, out = run_cli(tmp_path, "verify", "--preset", "l1_stability",
                        "cfl=0.1", "n=1000")
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert all(c["pass"] for c in report["checks"])


def test_verify_fv_stability_steps_at_the_viscous_limit(tmp_path):
    # with eps = 0.5 the viscous limit h / (max|u| + 2 eps / h) lies below
    # cfl h / (2 + max|u0|); the shared step is _dt_bound's, which takes both
    code, out = run_cli(tmp_path, "verify", "--preset", "l1_stability",
                        "eps=0.5", "n=400")
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert [(c["check_name"], c["pass"]) for c in report["checks"]] == [
        ("l1_stability_ratio", True), ("l1_growth", True)]


def test_fv_run_takes_a_dt_no_strong_run_could(tmp_path):
    # only the solver key's config is built: T = 1 is no multiple of dt
    code, _ = run_cli(tmp_path, "simulate", "--preset", "peakon_transport",
                      "dt=0.003", "n=400")
    assert code == EXIT_OK


@pytest.mark.parametrize("verb, preset, overrides", [
    ("simulate", "peakon_transport", ["n=400", "T=0.2"]),
    ("simulate", "conservation_sine", ["n=64", "T=0.1"]),
    ("breaking", "breaking_gaussian", ["n=4096", "dt=1e-3", "stop_slope=300"]),
])
def test_simulate_and_breaking_keep_only_the_ends(tmp_path, monkeypatch, verb,
                                                  preset, overrides):
    runs = []
    for name in ("run_strong", "run_fv"):
        def run(*args, real=getattr(cli, name), **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]
        monkeypatch.setattr(cli, name, run)
    code, _ = run_cli(tmp_path, verb, "--preset", preset, *overrides)
    assert code == EXIT_OK
    (traj,) = runs
    assert traj.times.size > 3
    assert len(traj.snapshots) == 2
    assert traj.snap_times.tolist() == [0.0, traj.t_stop]


@pytest.mark.parametrize("overrides, solver", [
    (["T=0.2"], "run_fv"),
    (["T=0.2", "solver=strong", "dt=1e-3"], "run_strong"),
    (["T=0.2"], "synthetic_trajectory"),
])
def test_verify_refuses_before_the_run(tmp_path, capsys, monkeypatch,
                                       overrides, solver):
    # T below every Oleinik time is known from the config alone
    def no_run(*args, **kwargs):
        raise AssertionError("the run was started")
    monkeypatch.setattr(cli, solver, no_run)
    # the up-jump reads none of riemann_entropy's solver and profile keys
    preset = {"synthetic_trajectory": "upjump_adversarial"}.get(
        solver, "riemann_entropy")
    code, out = run_cli(tmp_path, "verify", "--preset", preset, *overrides)
    assert code == EXIT_CHECK_FAILED
    assert not list(out.rglob("report.json"))
    assert "oleinik_times=(0.25, 0.5, 1.0)" in capsys.readouterr().err


def test_splitting_none_is_a_burgers_run(tmp_path):
    code, out = run_cli(tmp_path, "simulate", "--preset", "peakon_transport",
                        "n=400", "T=0.2", "splitting=none")
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["splitting"] == "none"
    # without the source the peakon is no traveling wave of speed 4/3
    assert code == EXIT_CHECK_FAILED
    assert [c["check_name"] for c in report["checks"] if not c["pass"]] == \
        ["peakon_speed"]
    u0 = sample("peakon", line(-20, 20), 400)
    burgers = run_fv(u0, FVConfig(T=0.2, source_splitting="none"))
    final = np.loadtxt(out / "snapshot_final.csv", delimiter=",", skiprows=1)
    assert np.array_equal(final[:, 1], burgers.snapshots[-1])


def test_verify_default_lambdas_are_the_riemann_presets_own(tmp_path,
                                                            monkeypatch):
    # max|u0| = 1 in both entropy presets, so the nine levels verify takes
    # from the data, across +-1.5 max|u0|, are the list both presets set
    # while lambdas was a key: the checks and entropy.json match bit for bit
    def results(levels):
        found = {}
        for preset in ("riemann_entropy", "upjump_adversarial"):
            code, out = run_cli(tmp_path / levels / preset, "verify",
                                "--preset", preset)
            report = json.loads((out / "report.json").read_text())
            found[preset] = (code, report["checks"],
                             (out / "entropy.json").read_bytes())
        return found
    derived = results("derived")
    former = [-1.5, -1.125, -0.75, -0.375, 0.0, 0.375, 0.75, 1.125, 1.5]
    monkeypatch.setattr(cli, "EntropyCheck",
                        partial(EntropyCheck, lambdas=former))
    assert results("former") == derived


def test_wave_peakon(tmp_path):
    code, out = run_cli(tmp_path, "wave", "--preset", "wave_peakon", "n=4000")
    assert code == EXIT_OK
    defect = json.loads((out / "defect.json").read_text())
    assert abs(defect["c"] - 4.0 / 3.0) <= 0.01
    assert abs(defect["lambda1"]) <= 0.5
    prof = (out / "profile.csv").read_text().splitlines()
    assert prof[0] == "xi,v"


def test_wave_cusp_small_speed_exits_2(tmp_path, capsys):
    # waves' rule for c, cusp_seed_slope's, applied before construction
    code, _ = run_cli(tmp_path, "wave", "--preset", "wave_cusp", "c=1.2")
    assert code == EXIT_USAGE
    assert "c=1.2, n=8000: cusp waves require c > 4/3" in capsys.readouterr().err


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


def test_sweep_viscosity(tmp_path):
    code, out = run_cli(tmp_path, "sweep", "--preset", "viscosity_sweep",
                        "n=800", "T=0.25")
    assert code == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "eps,l1_distance"
    dists = [float(r.split(",")[1]) for r in rows[1:]]
    assert dists[0] > dists[1] > dists[2]


def test_sweep_resolution(tmp_path):
    # the grids are n, 2n and 4n
    code, out = run_cli(tmp_path, "sweep", "--preset", "convergence_peakon",
                        "n=500", "T=0.5")
    assert code == EXIT_OK
    rows = (out / "convergence.csv").read_text().splitlines()
    assert rows[0] == "n,dt_mean,l1_err,order"
    assert len(rows) == 3
    # each row is the n, 2n pair of direct runs; 17 digits round-trip exactly
    dom = line(-20, 20)
    runs = [run_fv(sample("peakon", dom, n), FVConfig(T=0.5))
            for n in (500, 1000, 2000)]
    for row, coarse, fine in zip(rows[1:], runs, runs[1:]):
        n, dt_mean, l1_err, _ = row.split(",")
        fv = fine.snapshots[-1].reshape(-1, 2).mean(axis=1)
        assert int(n) == coarse.n
        assert float(dt_mean) == float(np.mean(coarse.dts))
        assert float(l1_err) == float(
            coarse.h * np.abs(coarse.snapshots[-1] - fv).sum())


def test_sweep_resolution_writes_the_n_list_bytes(tmp_path):
    # n=128 writes the bytes that n_list=128,256,512 wrote when the grids
    # were a list key
    code, out = run_cli(tmp_path, "sweep", "--preset", "convergence_peakon",
                        "n=128", "T=0.5")
    assert code == EXIT_OK
    assert (out / "convergence.csv").read_text() == (
        "n,dt_mean,l1_err,order\n"
        "128,0.10000000000000001,0.047117016915040992,nan\n"
        "256,0.055555555555555552,0.026237574438154776,0.84461384720448829\n")


@pytest.mark.parametrize("argv", [
    # the count before the run is 0.004 steps at speed 0, but the run steps
    # at max|u| near 4/3, about 5e9 steps
    ["simulate", "--preset", "peakon_transport", "n=16", "T=0.01",
     "cfl=1e-12"],
    ["sweep", "--preset", "convergence_peakon", "n=16", "T=1e6"],
])
def test_a_run_past_the_step_cap_exits_1(tmp_path, monkeypatch, argv):
    monkeypatch.setattr(trajectory, "MAX_STEPS", 1000)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _main_stderr([*argv, "--out", str(out)])
    assert code == EXIT_CHECK_FAILED
    assert re.fullmatch(r"fwlab: T=\S+: the run reached t=\S+ in 1000 steps, "
                        r"the most a run may take\n", err), err
    assert not out.exists()


def test_exit_code_contract_on_check_failure(tmp_path):
    # a run that overflows inside RK4's reach writes its report and exits 1
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text(
        "solver = strong\ndomain = torus\nprofile = sine\n"
        "profile.amplitude = 2e153\nprofile.wavenumber = 16\nn = 64\n"
        "dt = 1e-160\nT = 1e-159\ndealias = false\nstop_slope = 1e308\n")
    code, out = run_cli(tmp_path, "simulate", "--config", str(cfgfile))
    assert code == EXIT_CHECK_FAILED
    report = json.loads((out / "report.json").read_text())
    (check,) = [c for c in report["checks"] if c["check_name"] == "completed"]
    assert check["pass"] is False
    assert check["value"] == "overflow"


@pytest.mark.parametrize("verb, preset, overrides, code, message", [
    # bad values and rejected configs are config errors naming the key
    ("simulate", "conservation_sine", ["T=1,2"], EXIT_USAGE, "T='1,2'"),
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
    # the up-jump sits at the window's centre: jump_at is no key
    ("verify", "upjump_adversarial", ["jump_at=25"], EXIT_USAGE,
     "unknown key 'jump_at'"),
    ("wave", "wave_peakon", ["n=abc"], EXIT_USAGE, "n='abc'"),
    ("sweep", "viscosity_sweep", ["n=abc"], EXIT_USAGE, "n='abc'"),
    ("sweep", "convergence_peakon", ["n_list=500,abc"], EXIT_USAGE,
     "unknown key 'n_list'"),
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
    # the source step is set by splitting alone: source_on is no key
    ("simulate", "peakon_transport", ["source_on=false"], EXIT_USAGE,
     "unknown key 'source_on'"),
    # every key a command reads itself goes through the same coercion
    ("wave", "wave_cusp", ["c=abc"], EXIT_USAGE, "c='abc'"),
    ("simulate", "peakon_transport", ["a=abc"], EXIT_USAGE, "a='abc'"),
    ("wave", "wave_peakon", ["b=abc"], EXIT_USAGE, "b='abc'"),
    ("verify", "l1_stability", ["bump_amplitude=abc"], EXIT_USAGE,
     "bump_amplitude='abc'"),
    # the up-jump's 101 times are fixed: steps is no key, so its 8-GB
    # times array is never asked for
    ("verify", "upjump_adversarial", ["steps=1000000000"], EXIT_USAGE,
     "unknown key 'steps'"),
    ("sweep", "viscosity_sweep", ["eps_list=abc"], EXIT_USAGE,
     "unknown key 'eps_list'"),
    ("wave", "wave_cusp", ["c=1,2"], EXIT_USAGE, "c='1,2': expected float"),
    ("verify", "upjump_adversarial", ["jump_at=abc"], EXIT_USAGE,
     "unknown key 'jump_at'"),
    ("verify", "upjump_adversarial", ["steps=0"], EXIT_USAGE,
     "unknown key 'steps'"),
    ("verify", "upjump_adversarial", ["steps=-3"], EXIT_USAGE,
     "unknown key 'steps'"),
    # the resolution sweep's grids are n, 2n and 4n: n_list is no key
    ("sweep", "convergence_peakon", ["n_list=3000,4000"], EXIT_USAGE,
     "unknown key 'n_list'"),
    ("sweep", "convergence_peakon", ["n_list=8000,4000"], EXIT_USAGE,
     "unknown key 'n_list'"),
    # a misspelt choice is rejected, not read as the default path
    ("verify", "l1_stability", ["check=stabilty"], EXIT_USAGE,
     "check='stabilty'"),
    ("verify", "upjump_adversarial", ["check=upjmp"], EXIT_USAGE,
     "check='upjmp': verify takes one of ('entropy', 'stability', 'upjump')"),
    # an int field takes an int or an integral float, never truncating
    ("simulate", "peakon_transport", ["n=4000.7"], EXIT_USAGE, "n=4000.7"),
    ("verify", "l1_stability", ["snapshot_stride=2.5"], EXIT_USAGE,
     "snapshot_stride=2.5"),
    ("simulate", "peakon_transport", ["solver=strnog"], EXIT_USAGE,
     "solver='strnog'"),
    ("simulate", "peakon_transport", ["domain=tor"], EXIT_USAGE,
     "domain='tor'"),
    ("simulate", "peakon_transport", ["a=5", "b=-5"], EXIT_USAGE,
     "a=5.0, b=-5.0"),
    ("sweep", "viscosity_sweep", ["eps_list=,"], EXIT_USAGE,
     "unknown key 'eps_list'"),
    # the viscosity sweep's eps values halve from 1e-2: eps_list is no key
    ("sweep", "viscosity_sweep", ["eps_list=1e-3,1e-2"], EXIT_USAGE,
     "unknown key 'eps_list'"),
    ("sweep", "viscosity_sweep", ["eps_list=-1"], EXIT_USAGE,
     "unknown key 'eps_list'"),
    ("verify", "upjump_adversarial", ["T=0"], EXIT_USAGE, "T=0.0"),
    ("verify", "upjump_adversarial", ["T=-1"], EXIT_USAGE, "T=-1.0"),
    # every verb refuses a grid below 4 cells before it starts
    ("wave", "wave_peakon", ["n=2"], EXIT_USAGE, "n=2"),
    ("wave", "wave_cusp", ["n=2"], EXIT_USAGE, "n=2"),
    ("verify", "upjump_adversarial", ["n=0"], EXIT_USAGE, "n=0"),
    ("sweep", "convergence_peakon", ["n_list=2,4"], EXIT_USAGE,
     "unknown key 'n_list'"),
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
    # a bump that no snapshot time lies inside would pass vacuously (the
    # stride reaches one in the next row); steps=1 reached one from the
    # up-jump, but steps is no key
    ("verify", "upjump_adversarial", ["n=400", "steps=1"], EXIT_USAGE,
     "unknown key 'steps'"),
    ("verify", "riemann_entropy", ["n=400", "snapshot_stride=50"],
     EXIT_CHECK_FAILED, "t0=0.25"),
    # the defect fit needs a cell in 0.1 < |xi| < 6
    ("wave", "wave_peakon", ["n=4"], EXIT_USAGE, "n=4, a=-30.0, b=30.0"),
    ("wave", "wave_peakon", ["a=10", "b=20"], EXIT_USAGE,
     "n=8000, a=10.0, b=20.0"),
    # a non-finite float ran zero steps, overflowed or ran inviscid
    ("simulate", "conservation_sine", ["dt=inf"], EXIT_USAGE, "dt=inf"),
    ("simulate", "conservation_sine", ["T=inf"], EXIT_USAGE, "T=inf"),
    ("simulate", "peakon_transport", ["eps=nan"], EXIT_USAGE, "eps=nan"),
    ("verify", "upjump_adversarial", ["T=inf"], EXIT_USAGE, "T=inf"),
    ("sweep", "viscosity_sweep", ["eps_list=0.5,nan"], EXIT_USAGE,
     "unknown key 'eps_list'"),
    # a stride below 1 ran as stride 1
    ("verify", "l1_stability", ["snapshot_stride=0"], EXIT_USAGE,
     "snapshot_stride=0: expected at least 1"),
    ("verify", "riemann_entropy", ["snapshot_stride=-3"], EXIT_USAGE,
     "snapshot_stride=-3: expected at least 1"),
    # too short a sweep list left a check judging an empty list of values;
    # the sweeps' lists are fixed now, and no key
    ("sweep", "convergence_peakon", ["n_list=2000,4000"], EXIT_USAGE,
     "unknown key 'n_list'"),
    ("sweep", "viscosity_sweep", ["eps_list=1e-2"], EXIT_USAGE,
     "unknown key 'eps_list'"),
    # no Oleinik time in (0, T] left the margin at Infinity, passing
    ("verify", "riemann_entropy", ["T=0.2", "n=1000"], EXIT_CHECK_FAILED,
     "oleinik_times=(0.25, 0.5, 1.0)"),
    # l1_growth divides by the L1 norm of u0: zero data gave NaN
    ("verify", "l1_stability", ["profile=zero", "n=400"], EXIT_USAGE,
     "profile='zero'"),
    # a bad solver key exits 2 also where no run follows (wave reads none)
    ("wave", "wave_peakon", ["n=2000", "snapshot_stride=0"], EXIT_USAGE,
     "snapshot_stride=0"),
    ("wave", "wave_peakon", ["n=2000", "cfl=5"], EXIT_USAGE, "cfl"),
    ("wave", "wave_peakon", ["n=2000", "dt=-1"], EXIT_USAGE, "dt"),
    ("breaking", "breaking_gaussian",
     ["profile.beta=0.1", "n=512", "T=0.5", "dt=0.3"], EXIT_USAGE,
     "T=0.5 is not an integer multiple of dt=0.3"),
    # every sweep runs the FV solver: a strong one was ignored but reported
    ("sweep", "convergence_peakon", ["solver=strong"], EXIT_USAGE,
     "solver='strong'"),
    # a and b set no torus: they were ignored
    ("simulate", "conservation_sine", ["a=5", "b=6"], EXIT_USAGE,
     "domain='torus', a=5.0: a is read only with domain='line'"),
    # the up-jump is a value of check, and the Kruzhkov levels come from the
    # data: neither trajectory nor lambdas is a key
    ("verify", "l1_stability", ["n=400", "trajectory=upjump"], EXIT_USAGE,
     "unknown key 'trajectory'"),
    ("verify", "l1_stability", ["n=400", "lambdas=0,1"], EXIT_USAGE,
     "unknown key 'lambdas'"),
    # each key that only one mode of verify reads is refused in the others;
    # steps and jump_at are no keys in any mode
    ("verify", "l1_stability", ["n=400", "steps=5", "jump_at=3"], EXIT_USAGE,
     "unknown key 'steps'"),
    ("verify", "l1_stability", ["n=400", "jump_at=3"], EXIT_USAGE,
     "unknown key 'jump_at'"),
    ("verify", "riemann_entropy", ["n=400", "bump_radius=1"], EXIT_USAGE,
     "check='entropy', bump_radius=1.0"),
    ("verify", "upjump_adversarial", ["bump_amplitude=0.1"], EXIT_USAGE,
     "check='upjump', bump_amplitude=0.1"),
    # a strong step past RK4's reach, which ran on as slope_threshold
    ("simulate", "conservation_sine", ["n=2000", "T=0.5"], EXIT_CHECK_FAILED,
     "time step too large"),
    # every verb refuses a key it never reads, or reads only in another mode
    ("wave", "wave_peakon", ["n=2000", "domain=torus"], EXIT_USAGE,
     "domain='torus': wave reads no domain"),
    ("wave", "wave_peakon", ["n=2000", "check=upjump"], EXIT_USAGE,
     "check='upjump': wave reads no check"),
    ("wave", "wave_peakon", ["n=2000", "jump_at=1"], EXIT_USAGE,
     "unknown key 'jump_at'"),
    ("wave", "wave_peakon", ["n=2000", "kind=peakon", "c=2"], EXIT_USAGE,
     "kind='peakon', c=2.0: c is read only with kind='cusp'"),
    ("simulate", "peakon_transport", ["n=400", "c=2"], EXIT_USAGE,
     "c=2.0: simulate reads no c"),
    ("simulate", "peakon_transport", ["n=400", "check=entropy"], EXIT_USAGE,
     "check='entropy': simulate reads no check"),
    ("breaking", "breaking_gaussian", ["n=512", "steps=5"], EXIT_USAGE,
     "unknown key 'steps'"),
    ("sweep", "viscosity_sweep", ["n=200", "n_list=200,400,800"], EXIT_USAGE,
     "unknown key 'n_list'"),
    ("sweep", "convergence_peakon", ["n_list=200,400,800", "n=5"], EXIT_USAGE,
     "unknown key 'n_list'"),
    # each solver key is refused where the run would ignore it
    ("simulate", "peakon_transport", ["T=0.01", "advect=upwind"], EXIT_USAGE,
     "solver='fv', advect='upwind': advect is read only with "
     "solver='strong', domain='line'"),
    ("simulate", "conservation_sine", ["T=0.01", "cfl=0.1"], EXIT_USAGE,
     "solver='strong', cfl=0.1: cfl is read only with solver='fv'"),
    ("simulate", "conservation_sine", ["T=0.01", "advect=upwind"], EXIT_USAGE,
     "domain='torus', advect='upwind'"),
    ("simulate", "peakon_transport", ["T=0.01", "solver=strong", "dealias=no"],
     EXIT_USAGE, "domain='line', dealias=False"),
    ("wave", "wave_peakon", ["n=2000", "T=5"], EXIT_USAGE,
     "T=5: wave reads no T"),
    ("wave", "wave_peakon", ["n=2000", "solver=strong"], EXIT_USAGE,
     "solver='strong': wave reads no solver"),
    ("wave", "wave_peakon", ["n=2000", "profile.beta=3"], EXIT_USAGE,
     "profile.beta=3: wave reads no profile.beta"),
    ("sweep", "viscosity_sweep", ["n=200", "T=0.05", "stop_slope=3"],
     EXIT_USAGE, "stop_slope=3: sweep reads no stop_slope"),
    ("sweep", "viscosity_sweep", ["n=200", "T=0.05", "eps=0.5"], EXIT_USAGE,
     "kind='viscosity', eps=0.5: eps is read only with kind='resolution'"),
    ("breaking", "breaking_gaussian", ["n=512", "T=0.05", "eps=0.1"],
     EXIT_USAGE, "eps=0.1: breaking reads no eps"),
    # the up-jump runs no solver: its keys and the profile are refused
    ("verify", "upjump_adversarial", ["n=400", "cfl=0.1"], EXIT_USAGE,
     "check='upjump', cfl=0.1: cfl is read only with solver='fv', "
     "check in ('entropy', 'stability')"),
    ("verify", "upjump_adversarial", ["n=400", "profile=peakon"], EXIT_USAGE,
     "check='upjump', profile='peakon': profile is read only with "
     "check in ('entropy', 'stability')"),
    ("verify", "upjump_adversarial", ["n=400", "dt=1e-3"], EXIT_USAGE,
     "check='upjump', dt=0.001"),
    # the table refuses advect on the torus: StrongConfig checks it on the line
    ("breaking", "breaking_gaussian", ["n=512", "advect=sideways"], EXIT_USAGE,
     "advect must be 'central' or 'upwind'"),
    # a mode value the verb does not take is the cause, not a key it gates
    ("wave", "wave_cusp", ["kind=foo"], EXIT_USAGE, "kind='foo': wave"),
    ("sweep", "viscosity_sweep", ["kind=peakon"], EXIT_USAGE,
     "kind='peakon': sweep"),
    ("sweep", "convergence_peakon", ["kind=cusp"], EXIT_USAGE,
     "kind='cusp': sweep"),
    # a key the verb would ignore was refused as unread before its range was
    # checked; eps_list is no key now, and both sweeps read n
    ("wave", "wave_peakon", ["eps_list=1e-3,1e-2"], EXIT_USAGE,
     "unknown key 'eps_list'"),
    ("sweep", "convergence_peakon", ["n=2"], EXIT_USAGE,
     "n=2: expected at least 4"),
    # the verbs that keep only a run's ends read no stride (ends_only sets it)
    ("simulate", "peakon_transport", ["snapshot_stride=3"], EXIT_USAGE,
     "snapshot_stride=3: simulate reads no snapshot_stride"),
    ("breaking", "breaking_gaussian", ["snapshot_stride=50"], EXIT_USAGE,
     "snapshot_stride=50: breaking reads no snapshot_stride"),
    ("sweep", "viscosity_sweep", ["snapshot_stride=2"], EXIT_USAGE,
     "snapshot_stride=2: sweep reads no snapshot_stride"),
    ("sweep", "convergence_peakon", ["snapshot_stride=2"], EXIT_USAGE,
     "snapshot_stride=2: sweep reads no snapshot_stride"),
    # a profile parameter is a finite real number: a list failed with
    # Python's message and a bool word ran as 1.0; no key splits on commas
    ("simulate", "peakon_transport", ["profile.center=1,2"], EXIT_USAGE,
     "profile 'peakon' parameter center='1,2' is not a real number"),
    ("simulate", "peakon_transport", ["profile.center=yes", "T=0.05"],
     EXIT_USAGE, "profile 'peakon' parameter center='yes' is not a real number"),
    ("simulate", "peakon_transport", ["profile.center=abc"], EXIT_USAGE,
     "profile 'peakon' parameter center='abc' is not a real number"),
    # a bool word is a bool for a bool key alone: any other keeps the word
    ("verify", "riemann_entropy", ["check=off"], EXIT_USAGE,
     "check='off': verify takes one of ('entropy', 'stability', 'upjump')"),
    ("simulate", "conservation_sine", ["advect=off"], EXIT_USAGE,
     "domain='torus', advect='off'"),
    ("simulate", "peakon_transport", ["splitting=off"], EXIT_USAGE,
     "source_splitting must be strang, lie or none, not 'off'"),
    # a solver config's refusal names the refused value
    ("breaking", "breaking_gaussian", ["advect=off"], EXIT_USAGE,
     "advect must be 'central' or 'upwind', not 'off'"),
    ("simulate", "peakon_transport", ["cfl=1.5"], EXIT_USAGE,
     "cfl must lie in (0, 1], not 1.5"),
    ("simulate", "peakon_transport", ["eps=-1"], EXIT_USAGE,
     "eps must be nonnegative, not -1.0"),
    ("simulate", "peakon_transport", ["dt=-1"], EXIT_USAGE,
     "fixed dt must be positive, not -1.0"),
    ("simulate", "conservation_sine", ["stop_slope=-1"], EXIT_USAGE,
     "stop_slope must be positive, not -1.0"),
    ("simulate", "conservation_sine", ["lambda=-1"], EXIT_USAGE,
     "lambda_coeff must be nonnegative, not -1.0"),
    # no key splits on commas: a list profile name reached grid.sample and
    # ended in a TypeError
    ("simulate", "peakon_transport", ["profile=sine,peakon"], EXIT_USAGE,
     "unknown profile 'sine,peakon'"),
    ("simulate", "peakon_transport", ["solver=fv,strong"], EXIT_USAGE,
     "solver='fv,strong': simulate takes one of"),
    # a line window no operator holds: 1/h^2 was a ZeroDivisionError, and an
    # infinite length wrote NaN
    ("simulate", "peakon_transport", ["a=0", "b=1e-300", "n=16", "T=0.01"],
     EXIT_USAGE, "a=0.0, b=1e-300, n=16: expected a cell width h"),
    ("simulate", "peakon_transport", ["a=-1e308", "b=1e308", "n=16",
                                      "T=0.01"],
     EXIT_USAGE, "a=-1e+308, b=1e+308, n=16: expected a cell width h"),
    # a cusp speed whose seed slope overflows was an OverflowError
    ("wave", "wave_cusp", ["n=400", "c=1e300"], EXIT_USAGE,
     "the cusp seed slope overflows a float at c=1e+300"),
    # distances of 0 leave the ratio check nothing to check
    ("sweep", "viscosity_sweep", ["n=16", "profile=zero"], EXIT_CHECK_FAILED,
     "profile='zero', n=16: L1 distances [0.0, 0.0, 0.0]"),
    # an FV T within the run's end tolerance ran no step
    ("sweep", "convergence_peakon", ["n=4", "T=1e-300"], EXIT_USAGE,
     "T=1e-300: expected T > 1e-13"),
    # L1 errors of 0 leave the order check nothing to check
    ("sweep", "convergence_peakon", ["profile=zero", "n=8"], EXIT_CHECK_FAILED,
     "profile='zero', n=8: L1 errors [0.0, 0.0]"),
    # a run that would take more than trajectory.MAX_STEPS steps is refused
    # before its first: each of these ran on for good
    ("simulate", "peakon_transport", ["n=16", "T=0.01", "cfl=1e-300"],
     EXIT_CHECK_FAILED, "T=0.01, cfl=1e-300, eps=0.0, n=16: the run takes at "
     "least 4e+285 steps, more than 1000000"),
    # 2 eps/h overflows: the largest step is 0, infinitely many steps
    ("simulate", "peakon_transport", ["n=16", "T=0.01", "eps=1e308"],
     EXIT_CHECK_FAILED, "eps=1e+308, n=16: the run takes at least inf steps"),
    ("sweep", "convergence_peakon", ["n=16", "eps=1e300"], EXIT_CHECK_FAILED,
     "eps=1e+300, n=16: the run takes at least 3.2e+299"),
    ("simulate", "conservation_sine", ["dt=1e-300"], EXIT_CHECK_FAILED,
     "T=1.0, dt=1e-300: the run takes at least 1e+300 steps"),
    # a strong T/dt past the float range was an OverflowError from round()
    ("simulate", "conservation_sine", ["dt=1e-300", "T=1e10"], EXIT_USAGE,
     "T=10000000000.0, dt=1e-300: T/dt overflows a float"),
    # the stability checks divide by e^t |u0|_1: past the float range, e^T
    # was an OverflowError, and just below it l1_growth warned of overflow
    ("verify", "l1_stability", ["n=16", "T=720"], EXIT_USAGE,
     "T=720.0: the stability bound e^T |u0|_1"),
    ("verify", "l1_stability", ["n=16", "T=709"], EXIT_USAGE,
     "T=709.0: the stability bound e^T |u0|_1"),
    # verify's former keys, refused for the entropy check too
    ("verify", "riemann_entropy", ["trajectory=upjump"], EXIT_USAGE,
     "unknown key 'trajectory'"),
    ("verify", "riemann_entropy", ["lambdas=0,1"], EXIT_USAGE,
     "unknown key 'lambdas'"),
])
def test_config_error_exit_codes(tmp_path, verb, preset, overrides, code,
                                 message):
    # main raises nothing and warns nothing: it exits 1 or 2 with one line
    # naming the cause, and a command that raises leaves no file
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, err = _main_stderr([verb, "--preset", preset, *overrides,
                                 "--out", str(out)])
    assert got == code
    assert err.startswith("fwlab: ") and err.count("\n") == 1
    assert message in err
    assert ("config error" in err) == (code == EXIT_USAGE)
    assert not out.exists() or not list(out.rglob("*"))


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "peakon_transport", "a=0", "b=1e-300", "n=16",
     "T=0.01"],
    ["simulate", "--preset", "peakon_transport", "a=-1e308", "b=1e308",
     "n=16", "T=0.01"],
    ["wave", "--preset", "wave_cusp", "n=400", "c=1e300"],
    ["sweep", "--preset", "viscosity_sweep", "n=16", "profile=zero"],
    ["sweep", "--preset", "convergence_peakon", "n=4", "T=1e-300"],
    ["sweep", "--preset", "convergence_peakon", "profile=zero", "n=8"],
    ["verify", "--preset", "riemann_entropy", "trajectory=upjump"],
    ["verify", "--preset", "riemann_entropy", "lambdas=0,1"],
    ["simulate", "--preset", "peakon_transport", "n=16", "T=0.01",
     "cfl=1e-300"],
    ["simulate", "--preset", "peakon_transport", "n=16", "T=0.01",
     "eps=1e308"],
    ["sweep", "--preset", "convergence_peakon", "n=16", "eps=1e300"],
    ["simulate", "--preset", "conservation_sine", "dt=1e-300"],
    ["simulate", "--preset", "conservation_sine", "dt=1e-300", "T=1e10"],
])
def test_a_refused_input_ends_in_one_fwlab_line(tmp_path, argv):
    # each of these once raised or warned; the same inputs are rows of
    # test_config_error_exit_codes, which also pins the exit code and message
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, err = _main_stderr([*argv, "--out", str(out)])
    assert code in (EXIT_CHECK_FAILED, EXIT_USAGE)
    assert err.startswith("fwlab: ") and err.count("\n") == 1
    assert not out.exists() or not list(out.rglob("*"))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_report_value_exits_1_without_report(tmp_path, monkeypatch,
                                                        bad):
    # json.dump would write NaN or Infinity, which is not JSON
    monkeypatch.setattr(cli, "cmd_wave",
                        lambda cfg: ([cli._check("x", True, bad, 0.0)], {}))
    code, out = run_cli(tmp_path, "wave", "--preset", "wave_peakon")
    assert code == EXIT_CHECK_FAILED
    assert not list(out.rglob("*"))


def test_non_finite_payload_value_leaves_no_file(tmp_path, monkeypatch):
    # defect.json's lambda1 cannot be encoded: profile.csv was written first
    monkeypatch.setattr(cli, "tw_defect", lambda wave: (math.nan, 0.0))
    code, out = run_cli(tmp_path, "wave", "--preset", "wave_peakon", "n=2000")
    assert code == EXIT_CHECK_FAILED
    assert not list(out.rglob("*"))


def test_a_writer_that_raises_leaves_no_file(tmp_path, monkeypatch):
    def half_then_raise(path):
        with open(path, "w") as fh:
            fh.write("x,u\n0,")
        raise ValueError("writer failed")
    monkeypatch.setattr(cli, "cmd_wave", lambda cfg: (
        [cli._check("x", True, 0.0, 0.0)], {"profile.csv": half_then_raise}))
    code, out = run_cli(tmp_path, "wave", "--preset", "wave_peakon")
    assert code == EXIT_CHECK_FAILED
    # neither the target nor its staging directory, and no report after it
    assert out.is_dir() and not list(out.rglob("*"))
    assert not list(out.glob("*.tmp"))


def test_a_writer_that_raises_after_another_file_leaves_no_file(
        tmp_path, monkeypatch, capsys):
    # a.csv is complete before b.csv fails: it was renamed into place
    def a_written(path):
        with open(path, "w") as fh:
            fh.write("x\n0\n")

    def b_fails(path):
        raise OSError("disk full")
    monkeypatch.setattr(cli, "cmd_wave", lambda cfg: (
        [cli._check("x", True, 0.0, 0.0)],
        {"a.csv": a_written, "b.csv": b_fails}))
    code, out = run_cli(tmp_path, "wave", "--preset", "wave_peakon")
    assert code == EXIT_CHECK_FAILED
    assert "fwlab: disk full" in capsys.readouterr().err
    assert out.is_dir() and not list(out.iterdir())


def test_out_naming_a_file_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_text("kept\n")
    code = main(["wave", "--preset", "wave_peakon", "n=400", "--out",
                 str(out)])
    assert code == EXIT_CHECK_FAILED
    err = capsys.readouterr().err
    assert err.startswith("fwlab: ") and str(out) in err
    assert out.read_text() == "kept\n"


def test_output_files_follow_the_umask(tmp_path):
    old = os.umask(0o022)
    try:
        code, out = run_cli(tmp_path, "wave", "--preset", "wave_peakon",
                            "n=2000")
    finally:
        os.umask(old)
    assert code == EXIT_OK
    modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
    assert modes == dict.fromkeys(("profile.csv", "defect.json",
                                   "report.json"), 0o644)


_RUN_FILES = {"series.csv", "snapshot_initial.csv", "snapshot_final.csv"}


@pytest.mark.parametrize("argv, files", [
    (["simulate", "--preset", "peakon_transport", "n=400", "T=0.1"],
     _RUN_FILES),
    (["breaking", "--preset", "breaking_gaussian", "n=4096", "dt=1e-3",
      "stop_slope=300"], _RUN_FILES | {"breaking.json"}),
    (["breaking", "--preset", "breaking_gaussian", "profile.beta=0.1",
      "n=512"], {"breaking.json"}),  # the criterion is not met: no run
    (["verify", "--preset", "upjump_adversarial", "n=400"], {"entropy.json"}),
    (["verify", "--preset", "l1_stability", "n=400", "T=0.25"], set()),
    (["verify", "--preset", "riemann_entropy", "solver=strong", "dt=1e-3",
      "n=800", "stop_slope=20"], set()),  # a short run
    (["wave", "--preset", "wave_peakon", "n=2000"],
     {"profile.csv", "defect.json"}),
    (["wave", "--preset", "wave_cusp", "a=-2", "b=2", "n=800"], set()),
    (["sweep", "--preset", "viscosity_sweep", "n=400", "T=0.1"],
     {"sweep.csv"}),
    (["sweep", "--preset", "convergence_peakon", "n=250", "T=0.1"],
     {"convergence.csv"}),
], ids=["simulate", "breaking", "breaking-criterion-not-met", "verify-entropy",
        "verify-stability", "verify-short-run", "wave", "wave-construction",
        "sweep-viscosity", "sweep-resolution"])
def test_each_verb_writes_its_files(tmp_path, argv, files):
    # the files a command returns and report.json, and nothing else
    code, out = run_cli(tmp_path, *argv)
    assert code in (EXIT_OK, EXIT_CHECK_FAILED)
    # no *.tmp: the staging directory is gone
    assert sorted(p.name for p in out.iterdir()) == sorted(files
                                                         | {"report.json"})
    assert not list(out.glob("*.tmp"))


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


@pytest.mark.parametrize("name", sorted(k for k in vars(Thresholds)
                                         if not k.startswith("_")))
def test_check_bound_is_no_config_key(tmp_path, capsys, name):
    # the check bounds are fixed: a tolerance key would loosen a check
    code, out = run_cli(tmp_path, "verify", "--preset", "riemann_entropy",
                        f"{name}=1e-4")
    assert code == EXIT_USAGE
    assert not list(out.rglob("report.json"))
    assert f"unknown key {name!r}" in capsys.readouterr().err


def test_each_key_sets_one_field_per_run():
    # a run builds Keys and one solver config, so a key that named fields of
    # both would feed two dataclasses; _TYPES keeps one type per name
    keys = set(typing.get_type_hints(Keys))
    strong = typing.get_type_hints(StrongConfig)
    fv = typing.get_type_hints(FVConfig)
    assert not keys & (set(strong) | set(fv))

    def base(typ):  # the type of an optional field (int | None) is int
        args = set(typing.get_args(typ))
        return args - {type(None)} if type(None) in args else {typ}
    for name in set(strong) & set(fv):
        assert base(strong[name]) == base(fv[name]), name


def test_each_field_has_one_key(tmp_path_factory):
    # an aliased field is set by its alias only: with two spellings of one
    # field, the later one silently won
    key_of = {name: alias for alias, name in _ALIASES.items()}
    names = [name for cls in (Keys, StrongConfig, FVConfig)
             for name in typing.get_type_hints(cls)]
    assert _KEYS == {key_of.get(name, name) for name in names}
    assert len(_KEYS) == len(set(names))
    for preset, key in (("dispersion_mode1", "lambda_coeff=2.0"),
                        ("peakon_transport", "source_splitting=lie")):
        code, err = _main_stderr(["simulate", "--preset", preset, "--out",
                                  str(tmp_path_factory.mktemp("out")), key])
        assert code == EXIT_USAGE
        assert f"unknown key {key.split('=')[0]!r}" in err
    cfg = load_config(None, "dispersion_mode1", ["lambda=2.0"])
    assert _config_from(StrongConfig, cfg).lambda_coeff == 2.0
    cfg = load_config(None, "peakon_transport", ["splitting=lie"])
    assert _config_from(FVConfig, cfg).source_splitting == "lie"


def test_each_keys_field_names_its_readers():
    # a key missing from _READ_BY would stop every verb with a KeyError, so a
    # field added to Keys, StrongConfig or FVConfig fails here until it has a
    # row
    verbs = {"simulate", "breaking", "verify", "wave", "sweep"}
    assert set(cli._READ_BY) == _KEYS
    assert set(cli._MODES) <= {f.name for f in fields(Keys)}
    for key, takes in cli._MODES.items():
        # the verbs that take values of a mode key are the ones reading it
        assert set(takes) == set(cli._READ_BY[key])
    for readers in cli._READ_BY.values():
        assert readers and set(readers) <= verbs
        for verb, mode in readers.items():
            # each mode names mode keys with values its verb takes, one or
            # a tuple of them
            assert set(mode) <= set(cli._MODES)
            for key, need in mode.items():
                for value in need if isinstance(need, tuple) else (need,):
                    assert value in cli._MODES[key][verb]


def test_readme_key_table_names_the_keys():
    # the first column of the README's table of Keys fields, backticked names
    text = (Path(__file__).parents[1] / "README.md").read_text()
    header = "| key | type | default | read by |"
    rows = text.split(header, 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    names = [name for row in rows
             for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(names) == sorted(f.name for f in fields(Keys))


def _numeric_fields(cls, preset):
    # (preset, key) of each int or float field, an aliased one by its alias
    hints = typing.get_type_hints(cls)
    key_of = {name: alias for alias, name in _ALIASES.items()}
    return [(preset, key_of.get(f.name, f.name)) for f in fields(cls)
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
                              # simulate reads no c, bump_radius, ...: a
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


def _takes_floats(typ):
    return float in (typ, *typing.get_args(typ))  # float or float | None


@settings(max_examples=25, deadline=None)
@given(key=st.sampled_from(sorted(
           k for k in _KEYS if _takes_floats(_TYPES[_ALIASES.get(k, k)]))),
       value=st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity",
                              "-INF"]))
def test_non_finite_float_exits_2(tmp_path_factory, key, value):
    # nan and +-inf are refused for every float key
    code, err = _main_stderr(["simulate", "--preset", "dispersion_mode1",
                              "--out", str(tmp_path_factory.mktemp("out")),
                              f"{key}={value}"])
    assert code == EXIT_USAGE
    assert f"config error: {key}=" in err


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
    T=_finite(min_value=1e-13, exclude_min=True),  # an FV run's end tolerance
    cfl=_finite(min_value=0.0, max_value=1.0, exclude_min=True),
    eps=_finite(min_value=0.0),
    source_splitting=st.sampled_from(["strang", "lie", "none"]),
    dt=st.none() | _finite(min_value=0.0, exclude_min=True),
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


_PRESET_VERBS = {
    "breaking_gaussian": "breaking", "conservation_sine": "simulate",
    "dispersion_mode1": "simulate", "peakon_transport": "simulate",
    "l1_stability": "verify", "riemann_entropy": "verify",
    "upjump_adversarial": "verify", "viscosity_sweep": "sweep",
    "convergence_peakon": "sweep", "wave_peakon": "wave", "wave_cusp": "wave"}


def test_shipped_preset_keys_are_read_by_its_verb():
    # every key of a shipped preset is one its verb reads in its mode
    assert sorted(_PRESET_VERBS) == _PRESETS
    for preset, verb in _PRESET_VERBS.items():
        cfg = load_config(None, preset, [])
        cli._refuse_unread(verb, cfg, _config_from(Keys, cfg))


@pytest.mark.parametrize("preset", _PRESETS)
def test_shipped_preset_builds_its_configs(preset):
    # every shipped preset, as shipped, is a valid config: nothing is run
    cfg = load_config(None, preset, [])
    keys = _config_from(Keys, cfg)
    solver_config = StrongConfig if keys.solver == "strong" else FVConfig
    assert isinstance(_config_from(solver_config, cfg), solver_config)
