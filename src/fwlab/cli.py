"""Command-line driver: reproducible experiments from flat key=value configs.

Verbs: simulate, breaking, verify, wave, sweep.  Each returns its checks and
its files, a map from output name to a JSON payload or a CSV writer (called
with a path).  main alone writes under --out: it writes every file into one
fresh staging directory there, then renames each into place, report.json
last, removes the directory and exits 0 if overall_pass holds, else 1.  So a
command that raises, or a file that fails to write, leaves no new file
under --out: a usage/config error exits 2; a run refused for taking more
than trajectory.MAX_STEPS steps, a step rejected mid-run, a check with
nothing to check, a non-finite value bound for a JSON file and an OSError
exit 1.  The files are made by open, so they follow the umask.
Each field of Keys (read by the commands themselves) and of the solver
configs (StrongConfig, FVConfig) is set by exactly one key: its name, or
for lambda_coeff and source_splitting only the alias lambda or splitting
(_ALIASES); the check bounds are the fixed Thresholds.  A bool word is a
bool for a bool key (dealias) alone, and no value splits on commas: a value
that is no number keeps its text, so its refusal names it.  load_config
type-checks every key for every verb and refuses a non-finite float.
Before any work every verb refuses a mode value it does not take (_MODES),
then a key it never reads, or reads only in another of its modes
(_READ_BY), whatever its value; only then does Keys.check_ranges check the
ranges, and the verb builds its solver config, so a bad solver key exits 2
also where no run follows.  verify's check is entropy or stability, of a
solver run, or upjump, the stationary up-jump -1 -> +1 at the window's
centre snapshotted at 101 times across [0, T], which runs no solver; the
stability check perturbs u0 by a bump of amplitude 0.01 and radius a
twentieth of the window, at the window's centre.  Each
sweep steps by a factor of 2, as its check assumes: kind=resolution runs
the grids n, 2n and 4n, kind=viscosity shock.viscosity_sweep's eps ladder.
simulate, breaking and sweep keep only the first and last snapshot of a
run, which is all they read.  Identical config + seed gives identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
import typing
from dataclasses import asdict, dataclass, replace
from functools import partial
from importlib import resources

import numpy as np

from . import __version__
from .diagnostics import (EntropyCheck, L1StabilityRatio, Thresholds,
                          attach_observation, breaking_precheck,
                          conservation_report, envelope_check)
from .grid import (Domain, GridFn, line, norm, sample, torus, write_csv,
                   write_snapshot_csv)
from .kernels import _finite_band
from .shock import FVConfig, _dt_bound, _marching_fv, run_fv, viscosity_sweep
from .strong import StrongConfig, _marching_strong, run_strong
from .trajectory import (Trajectory, drain, ends_only, synthetic_trajectory,
                         write_series_csv)
from .waves import (b_formula, cusp_fit_masks, cusp_profile, cusp_seed_slope,
                    defect_fit_mask, measured_cusp_jump, peakon, tw_defect,
                    tw_first_integral)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing: flat key=value lines, '#' comments

def _parse_value(key: str, text: str):
    """key's value of text: a bool word is a bool for a bool key alone."""
    text = text.strip()
    if _TYPES.get(_ALIASES.get(key, key)) is bool:
        return {"true": True, "yes": True, "on": True, "false": False,
                "no": False, "off": False}.get(text.lower(), text)
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_config_text(text: str) -> dict:
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, val = stripped.split("=", 1)
        cfg[key.strip()] = _parse_value(key.strip(), val)
    return cfg


def load_config(path: str | None, preset: str | None,
                overrides: list[str]) -> dict:
    cfg = {}
    if preset is not None:
        ref = resources.files("fwlab") / "presets" / f"{preset}.cfg"
        if not ref.is_file():
            names = sorted(p.name[:-4] for p in
                           (resources.files("fwlab") / "presets").iterdir()
                           if p.name.endswith(".cfg"))
            raise ConfigError(f"unknown preset {preset!r}; available: {names}")
        cfg.update(parse_config_text(ref.read_text()))
    if path is not None:
        try:
            with open(path) as fh:
                cfg.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, val = item.split("=", 1)
        cfg[key.strip()] = _parse_value(key.strip(), val)
    if not cfg:
        raise ConfigError("no configuration given (use --config or --preset)")
    for key, value in cfg.items():
        if not key.startswith("profile."):
            if key not in _KEYS:
                raise ConfigError(f"unknown key {key!r}")
            _coerce(key, value, _TYPES[_ALIASES.get(key, key)])  # type check
    return cfg


# ---------------------------------------------------------------------------
# config keys -> config dataclasses

@dataclass(frozen=True)
class Keys:
    """The keys the commands read themselves.  A verb whose default differs
    (n, a, b, solver, kind) passes it to _keys_for, which checks the ranges
    after the reader pass."""

    solver: str = "fv"
    domain: str = "line"
    a: float = -20.0
    b: float = 20.0
    profile: str | None = None
    n: int = 1024
    check: str = "entropy"
    kind: str | None = None
    c: float = 1.5

    def check_ranges(self) -> None:
        """Refuse a value out of its key's range (after the reader pass)."""
        if not self.a < self.b:
            raise ValueError(f"a={self.a!r}, b={self.b!r}: expected a < b")
        if self.n < 4:
            raise ValueError(f"n={self.n!r}: expected at least 4")
        if self.domain == "line" and not _finite_band(
                (self.b - self.a) / self.n):  # an infinite length gives 0
            raise ValueError(f"a={self.a!r}, b={self.b!r}, n={self.n!r}: "
                             f"expected a cell width h with a finite "
                             f"1 + 2/h^2 and a nonzero 1/h^2")


# config keys that name a dataclass field by another name
_ALIASES = {"lambda": "lambda_coeff", "splitting": "source_splitting"}

# every field a key sets and its type, one type per name up to an optional None
_TYPES = {name: typ for cls in (Keys, StrongConfig, FVConfig)
          for name, typ in typing.get_type_hints(cls).items()}
# every key besides profile.*: one per field, an aliased one only by its alias
_KEYS = set(_TYPES) - set(_ALIASES.values()) | set(_ALIASES)


def _coerce(key: str, value, typ):
    args = typing.get_args(typ)
    if type(None) in args:  # an optional field (int | None): its other type
        (typ,) = set(args) - {type(None)}
    try:
        if typ is bool and not isinstance(value, bool):
            raise ValueError("a bool is true/yes/on or false/no/off")
        if typ is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("an int field takes no fraction")
        out = typ(value)
    except ValueError as exc:
        raise ConfigError(f"{key}={value!r}: expected {typ.__name__}") from exc
    if typ is float and not math.isfinite(out):
        raise ConfigError(f"{key}={value!r}: expected a finite float")
    return out


def _config_from(cls, cfg: dict, **defaults):
    """Build the config dataclass cls from the keys of cfg that name its
    fields (or alias them, see _ALIASES), each coerced to the field's type.

    cfg overrides ``defaults``, which override the field defaults.  Bad values
    and rejected configs raise ConfigError.
    """
    hints = typing.get_type_hints(cls)  # the dataclass fields, types resolved
    kwargs = dict(defaults)
    for key, value in cfg.items():
        name = _ALIASES.get(key, key)
        if name in hints:
            kwargs[name] = _coerce(key, value, hints[name])
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# the verbs that read each key (profile.* as profile): each verb's mode is the
# fields of Keys and their values, all of which must hold ({} in every mode)
_RUNNING = ("simulate", "breaking", "verify", "sweep")
_SOLVED = {"check": ("entropy", "stability")}  # verify's checks of a run
# a and b: a verb with a domain key reads them on the line alone
_WINDOW = {**dict.fromkeys(_RUNNING, {"domain": "line"}), "wave": {}}
# a run's keys (the up-jump of verify is no run) and its solver's own
_RUN = {**dict.fromkeys(_RUNNING, {}), "verify": _SOLVED}
_STRONG = {"breaking": {}, "simulate": {"solver": "strong"},
           "verify": {"solver": "strong", **_SOLVED}}
_FV = {"sweep": {}, "simulate": {"solver": "fv"},
       "verify": {"solver": "fv", **_SOLVED}}
_READ_BY = {
    "solver": _RUN,
    "domain": dict.fromkeys(_RUNNING, {}),
    "a": _WINDOW,
    "b": _WINDOW,
    "profile": _RUN,
    "n": {**dict.fromkeys(_RUNNING, {}), "wave": {}},
    "check": {"verify": {}},
    "kind": dict.fromkeys(("wave", "sweep"), {}),
    "c": {"wave": {"kind": "cusp"}},
    "T": dict.fromkeys(_RUNNING, {}),
    "dt": _RUN,
    "snapshot_stride": {"verify": _SOLVED},  # else ends_only's
    "lambda": _STRONG,
    "stop_slope": _STRONG,
    "advect": {v: {**m, "domain": "line"} for v, m in _STRONG.items()},
    "dealias": {v: {**m, "domain": "torus"} for v, m in _STRONG.items()},
    "cfl": _FV,
    "splitting": _FV,
    "eps": {**_FV, "sweep": {"kind": "resolution"}},  # viscosity sweeps set it
}
# the values each verb that reads a mode key takes of it; the mode keys are
# checked first and in this order, so a refusal names its cause
_MODES = {
    "check": {"verify": ("entropy", "stability", "upjump")},
    "kind": {"wave": ("peakon", "cusp"), "sweep": ("viscosity", "resolution")},
    "domain": dict.fromkeys(_RUNNING, ("line", "torus")),
    "solver": {"simulate": ("strong", "fv"), "breaking": ("strong",),
               "verify": ("strong", "fv"), "sweep": ("fv",)},
}


def _refuse_unread(verb: str, cfg: dict, keys: Keys) -> None:
    """Refuse a mode value, set or defaulted, that verb does not take, then a
    key in cfg that verb never reads, or reads only in another mode: the
    command would ignore it."""
    for key, takes in _MODES.items():
        value = getattr(keys, key)
        if verb in takes and value not in takes[verb]:
            raise ConfigError(f"{key}={value!r}: {verb} takes one of "
                              f"{takes[verb]}")
    for key in [*(k for k in _MODES if k in cfg), *cfg]:
        readers = _READ_BY[key.split(".")[0]]
        value = getattr(keys, key, cfg[key])
        if verb not in readers:
            raise ConfigError(f"{key}={value!r}: {verb} reads no {key}")
        rule = ", ".join(f"{m} in {v!r}" if isinstance(v, tuple)
                         else f"{m}={v!r}" for m, v in readers[verb].items())
        for mode, need in readers[verb].items():
            if getattr(keys, mode) not in (
                    need if isinstance(need, tuple) else (need,)):
                raise ConfigError(f"{mode}={getattr(keys, mode)!r}, {key}="
                                  f"{value!r}: {key} is read only with {rule}")


def _keys_for(verb: str, cfg: dict, **defaults) -> Keys:
    """verb's Keys of cfg over defaults (see _config_from).  A key verb would
    ignore is refused (_refuse_unread) before any range is checked, so that
    the refusal names it as unread whatever its value."""
    keys = _config_from(Keys, cfg, **defaults)
    _refuse_unread(verb, cfg, keys)
    try:
        keys.check_ranges()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return keys


# ---------------------------------------------------------------------------
# pieces shared by the commands

def _domain_from(keys: Keys) -> Domain:
    return torus() if keys.domain == "torus" else line(keys.a, keys.b)


def _initial_from(keys: Keys, cfg: dict, domain: Domain, n: int) -> GridFn:
    if keys.profile is None:
        raise ConfigError("missing profile key")
    params = {k.split(".", 1)[1]: v for k, v in cfg.items()
              if k.startswith("profile.")}
    try:
        return sample(keys.profile, domain, n, **params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _solver_config(solver: str, cfg: dict, **defaults):
    """The StrongConfig or FVConfig of cfg, as its solver key names."""
    cls = StrongConfig if solver == "strong" else FVConfig
    return _config_from(cls, cfg, **defaults)


def _run_from(scfg, u0: GridFn, sink=None) -> Trajectory:
    run = run_strong if isinstance(scfg, StrongConfig) else run_fv
    return run(u0, scfg, sink)


def _report(command: str, cfg: dict, checks: list[dict]) -> dict:
    return {
        "artifact": f"fwlab {__version__}",
        "command": command,
        "config": {k: v for k, v in sorted(cfg.items())},
        "checks": checks,
        "overall_pass": all(c["pass"] for c in checks),
    }


def _check(name: str, ok: bool, value, threshold, **details) -> dict:
    entry = {"check_name": name, "pass": bool(ok), "value": value,
             "threshold": threshold}
    if details:
        entry["details"] = details
    return entry


def _mass_check(cons) -> dict:
    return _check("mass_conservation", cons.mass_drift <= Thresholds.mass_tol,
                  cons.mass_drift, Thresholds.mass_tol)


def _short_runs(*trajs: Trajectory) -> list[dict]:
    """A failing ``completed`` check for each run that stopped before T."""
    return [_check("completed", False, t.stop_reason, t.config.T,
                   t_stop=t.t_stop)
            for t in trajs if t.stop_reason != "completed"]


def _run_files(traj: Trajectory) -> dict:
    """A run's series and its first and last snapshot, by file name."""
    files = {"series.csv": partial(write_series_csv, traj)}
    for label, i in (("initial", 0), ("final", -1)):
        files[f"snapshot_{label}.csv"] = partial(write_snapshot_csv,
                                                 traj.snapshot(i))
    return files


# ---------------------------------------------------------------------------
# commands: each returns its checks and its files (see the module doc)

def cmd_simulate(cfg: dict) -> tuple[list[dict], dict]:
    keys = _keys_for("simulate", cfg)
    scfg = ends_only(_solver_config(keys.solver, cfg))  # reads the ends only
    domain = _domain_from(keys)
    u0 = _initial_from(keys, cfg, domain, keys.n)
    traj = _run_from(scfg, u0)
    checks = [_check("completed", traj.stop_reason != "overflow",
                     traj.stop_reason, "no overflow")]
    if domain.periodic:
        cons = conservation_report(traj)
        checks.append(_mass_check(cons))
        if keys.solver == "strong":
            checks.append(_check("l2_conservation",
                                 cons.l2_drift_rel <= Thresholds.l2_rel_tol,
                                 cons.l2_drift_rel, Thresholds.l2_rel_tol))
    if keys.profile == "peakon" and keys.solver == "fv":
        x = traj.domain.cell_centers(traj.n)
        speed = (_crest(x, traj.snapshots[-1]) - _crest(x, traj.snapshots[0])) \
            / traj.t_stop if traj.t_stop > 0 else 0.0
        checks.append(_check("peakon_speed", abs(speed - 4.0 / 3.0) <= 0.02 * 4 / 3,
                             speed, "4/3 +- 2%"))
    return checks, _run_files(traj)


def _crest(x: np.ndarray, u: np.ndarray) -> float:
    i = int(np.argmax(u))
    if 0 < i < u.size - 1:
        y0, y1, y2 = u[i - 1], u[i], u[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0.0:
            return float(x[i] + 0.5 * (y0 - y2) / denom * (x[1] - x[0]))
    return float(x[i])


def cmd_breaking(cfg: dict) -> tuple[list[dict], dict]:
    keys = _keys_for("breaking", cfg, n=20480, solver="strong")
    domain = _domain_from(keys)
    advect = "upwind" if not domain.periodic else "central"
    # reads the ends and the series only
    scfg = ends_only(_solver_config(keys.solver, cfg, advect=advect))
    u0 = _initial_from(keys, cfg, domain, keys.n)
    report = breaking_precheck(u0)
    checks = [_check("precheck", True, {"S": report.S, "m1_0": report.m1_0,
                                        "m2_0": report.m2_0,
                                        "t_star": report.t_star},
                     "S >= 1 triggers the breaking run")]
    files = {}
    if report.condition_met and report.t_star is not None:
        cfg.setdefault("solver", keys.solver)  # report.json names both
        cfg.setdefault("advect", advect)
        traj = _run_from(scfg, u0)
        attach_observation(report, traj)
        bound = Thresholds.tobs_factor * report.t_star
        ok_obs = report.t_observed is not None and report.t_observed <= bound
        checks.append(_check("blowup_bound", ok_obs, report.t_observed,
                             f"<= {Thresholds.tobs_factor} * t_star = "
                             f"{bound:.4f}"))
        env_ok, worst, _ = envelope_check(traj)
        checks.append(_check("slope_envelope", env_ok, worst,
                             "m2 <= riccati envelope + slack"))
        files = _run_files(traj)
    else:
        checks.append(_check("criterion_not_met", True, report.S,
                             "S < 1: no breaking guarantee; run skipped"))
    files["breaking.json"] = asdict(report)
    return checks, files


def cmd_verify(cfg: dict) -> tuple[list[dict], dict]:
    keys = _keys_for("verify", cfg, n=4000)
    scfg = _solver_config(keys.solver, cfg)
    domain = _domain_from(keys)
    n = keys.n
    if keys.check == "stability":
        u0 = _initial_from(keys, cfg, domain, n)
        l1 = norm(u0, "L1")
        if l1 == 0.0:  # l1_growth divides by it
            raise ConfigError(f"profile={keys.profile!r}: the stability check "
                              f"needs initial data with a nonzero L1 norm")
        try:  # both checks divide by e^t times an L1 norm
            bound = math.exp(scfg.T) * l1
        except OverflowError:
            bound = math.inf
        if bound == math.inf:
            raise ConfigError(f"T={scfg.T!r}: the stability bound e^T |u0|_1 "
                              f"= e^T * {l1:.6g} overflows a float")
        # the bump covers the middle tenth of the window, off the torus's seam
        bump = sample("bump", domain, n, amplitude=0.01,
                      center=domain.a + 0.5 * domain.length,
                      radius=domain.length / 20)
        v0 = GridFn(domain, u0.values + bump.values)
        if keys.solver == "fv" and scfg.dt is None:
            # one fixed dt, so the runs share snap times; its speed
            # 2 + max|u0| bounds max|v0| <= max|u0| + 0.01/e too
            scfg = replace(scfg, dt=_dt_bound(2.0 + norm(u0, "Linf"), u0.h,
                                              scfg.cfl, scfg.eps))
        # the runs advance in lockstep: each snapshot of v, as it is
        # yielded, is compared with u's, to which u's run has just advanced,
        # so one snapshot of each run is held
        marching = {"strong": _marching_strong, "fv": _marching_fv}[keys.solver]
        stream = L1StabilityRatio(marching(u0, scfg), u0.h)
        tv = _run_from(scfg, v0, sink=stream)
        tu = stream.finish()  # u's run, ended: its series and stop reason
        if short := _short_runs(tu, tv):
            return short, {}  # no ratio over a window a run never reached
        ratio = stream.value()
        growth = max(tu.series["l1"] / (np.exp(tu.times) * tu.series["l1"][0]))
        tol = Thresholds.l1_ratio_tol
        return [_check("l1_stability_ratio", ratio <= tol, ratio, tol),
                _check("l1_growth", growth <= tol, float(growth), tol)], {}

    if keys.check == "upjump":
        times = scfg.T * np.arange(101) / 100
        t_end = float(times[-1])
        # stationary non-entropic expansion shock (-1 -> +1) at the window's
        # centre, source off: with n >= 4 cells both states are on the grid
        centre = domain.a + 0.5 * domain.length
        jump = lambda x, t: np.where(x < centre, -1.0, 1.0)
        run = lambda sink: drain(synthetic_trajectory(domain, n, times, jump),
                                 sink)
    else:
        t_end = scfg.T
        run = partial(_run_from, scfg, _initial_from(keys, cfg, domain, n))
    # the run's snapshots are contracted as they are yielded, not stored;
    # a run ending before every Oleinik time is refused before it starts
    check = EntropyCheck(domain, n, t_end)
    traj = run(sink=check)
    if traj.stop_reason != "completed":
        # no residual over a window the run never reached
        return _short_runs(traj), {}
    rep = check.value()
    weak_tol, kr_bound = Thresholds.weak_tol, -Thresholds.kruzhkov_tol
    ol_bound = -Thresholds.oleinik_rel_tol * rep.oleinik_scale
    checks = [_check("weak_residual", rep.weak_residual_max <= weak_tol,
                     rep.weak_residual_max, weak_tol),
              _check("kruzhkov_residual", rep.kruzhkov_min >= kr_bound,
                     rep.kruzhkov_min, kr_bound),
              _check("oleinik_margin", rep.oleinik_margin >= ol_bound,
                     rep.oleinik_margin, ol_bound)]
    if domain.periodic:
        checks.append(_mass_check(conservation_report(traj)))
    return checks, {"entropy.json": {
        "weak_residual_max": rep.weak_residual_max,
        "kruzhkov_min": rep.kruzhkov_min,
        "oleinik_margin": rep.oleinik_margin,
        "passes": {name: c["pass"] for name, c
                   in zip(("weak", "kruzhkov", "oleinik"), checks)},
    }}


def cmd_wave(cfg: dict) -> tuple[list[dict], dict]:
    keys = _keys_for("wave", cfg, n=8000, a=-30.0, b=30.0)
    kind, n, window = keys.kind, keys.n, (keys.a, keys.b)
    try:
        defect_fit_mask(line(*window), n)
    except ValueError as exc:
        raise ConfigError(f"n={n}, a={keys.a}, b={keys.b}: {exc}") from exc
    checks = []
    if kind == "peakon":
        wave = peakon(n=n, window=window)
        fi = tw_first_integral(wave)
        osc = float(fi.values.max() - fi.values.min())
        lam1, mismatch = tw_defect(wave)
        checks.append(_check("speed_scan", abs(wave.c - 4.0 / 3.0) <= 0.01,
                             wave.c, "4/3 +- 0.01"))
        checks.append(_check("first_integral_constant", osc <= 2e-3, osc, 2e-3))
        checks.append(_check("defect_zero", abs(lam1) <= 0.5, lam1, "|l1| <= 0.5"))
        payload = {"kind": kind, "c": wave.c, "b": None, "lambda1": lam1,
                   "mismatch": mismatch, "first_integral_oscillation": osc}
    else:
        c = keys.c
        try:  # waves' rule for c (the seed slope's), before construction
            cusp_seed_slope(c)
            cusp_fit_masks(line(*window), n)
        except ValueError as exc:
            raise ConfigError(f"c={c}, n={n}: {exc}") from exc
        try:
            wave = cusp_profile(c, n=n, window=window)
        except ValueError as exc:
            return [_check("construction", False, str(exc), "")], {}
        lam1, mismatch = tw_defect(wave)
        jump = measured_cusp_jump(wave)
        checks.append(_check("defect_nonzero", abs(lam1) >= 0.5, lam1,
                             "|lambda1| >= 0.5: not a weak solution"))
        checks.append(_check("defect_fit_mismatch", mismatch <= 0.05,
                             mismatch, 0.05))
        checks.append(_check("jump_matches_defect",
                             abs(jump + lam1) <= 0.05 * abs(lam1),
                             jump, "-lambda1 +- 5%"))
        payload = {"kind": kind, "c": c, "b": b_formula(c), "lambda1": lam1,
                   "mismatch": mismatch, "slope_jump": jump}
    prof = wave.profile
    return checks, {"profile.csv": partial(write_csv, header=("xi", "v"),
                                           columns=(prof.x, prof.values)),
                    "defect.json": payload}


def _max_workers() -> int:
    """The threads a sweep runs its grids on: one (benchmark provenance)."""
    return 1


def cmd_sweep(cfg: dict) -> tuple[list[dict], dict]:
    keys = _keys_for("sweep", cfg, n=2000, kind="viscosity")
    domain = _domain_from(keys)
    checks = []
    if keys.kind == "viscosity":
        u0 = _initial_from(keys, cfg, domain, keys.n)
        pairs = viscosity_sweep(u0, _config_from(FVConfig, cfg, T=0.5))
        dists = [d for _, d in pairs]
        if 0.0 in dists[1:]:  # a ratio with nothing to check
            raise ValueError(f"profile={keys.profile!r}, n={keys.n}: L1 "
                             f"distances {dists!r} leave a ratio with a zero "
                             f"divisor")
        decreasing = all(b < a for a, b in zip(dists, dists[1:]))
        checks.append(_check("distances_decreasing", decreasing, dists, ""))
        ratios = [a / b for a, b in zip(dists, dists[1:])]
        checks.append(_check("first_order_in_eps",
                             all(1.5 <= r <= 2.5 for r in ratios),
                             ratios, "2 +- 0.5"))
        files = {"sweep.csv": partial(write_csv, header=("eps", "l1_distance"),
                                      columns=([e for e, _ in pairs], dists))}
    else:
        fcfg = ends_only(_config_from(FVConfig, cfg))  # reads the ends only
        # n, 2n and 4n: each order is log2 of a halving h's error ratio
        runs = [run_fv(_initial_from(keys, cfg, domain, n), fcfg)
                for n in (keys.n, 2 * keys.n, 4 * keys.n)]
        errs = []
        for coarse, fine in zip(runs, runs[1:]):
            fv = np.asarray(fine.snapshots[-1]).reshape(-1, 2).mean(axis=1)
            errs.append((coarse.n, float(np.mean(coarse.dts)),
                         float(coarse.h * np.abs(coarse.snapshots[-1] - fv).sum())))
        if 0.0 in (l1 := [e for _, _, e in errs]):  # an order with no value
            raise ValueError(f"profile={keys.profile!r}, n={keys.n}: L1 errors "
                             f"{l1!r} leave an order of a zero error")
        orders = [math.log2(e0 / e1) for (_, _, e0), (_, _, e1)
                  in zip(errs, errs[1:])]
        ok = all(0.7 <= o <= 1.2 for o in orders)
        checks.append(_check("l1_self_convergence_order", ok, orders,
                             "[0.7, 1.2]"))
        columns = [[e[i] for e in errs] for i in range(3)]
        columns.append([math.nan] + orders)
        files = {"convergence.csv": partial(
            write_csv, header=("n", "dt_mean", "l1_err", "order"),
            columns=columns)}
    return checks, files


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fwlab",
        description="Fornberg-Whitham equation simulation and verification")
    parser.add_argument("--version", action="version",
                        version=f"fwlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    dispatch = {"simulate": cmd_simulate, "breaking": cmd_breaking,
                "verify": cmd_verify, "wave": cmd_wave, "sweep": cmd_sweep}
    for name in dispatch:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--preset", default=None)
        p.add_argument("--out", default="fwlab_out")
        p.add_argument("overrides", nargs="*",
                       help="key=value overrides appended to the config")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config, args.preset, args.overrides)
        checks, files = dispatch[args.command](cfg)
        report = files["report.json"] = _report(args.command, cfg, checks)
        os.makedirs(args.out, exist_ok=True)
        stage = tempfile.mkdtemp(dir=args.out, suffix=".tmp")
        try:  # every file is written before any is renamed into place
            for name, content in files.items():
                path = os.path.join(stage, name)
                if callable(content):
                    content(path)
                    continue
                with open(path, "w") as fh:
                    json.dump(content, fh, indent=2, sort_keys=True,
                              allow_nan=False)
                    fh.write("\n")
            for name in files:  # report.json last
                os.replace(os.path.join(stage, name),
                           os.path.join(args.out, name))
        finally:
            shutil.rmtree(stage)
    except ConfigError as exc:
        print(f"fwlab: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"fwlab: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK if report["overall_pass"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
