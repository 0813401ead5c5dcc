"""Command-line driver: reproducible experiments from flat key=value configs.

Verbs: simulate, breaking, verify, wave, sweep.  Each verb writes its outputs
and returns its checks; main alone writes report.json and exits 0 if its
overall_pass holds, else 1.  A command that raises writes no report.json: a
usage/config error exits 2; a step rejected mid-run, a check with nothing to
check and a non-finite value bound for a JSON file exit 1.  Each field of Keys
(read by the commands themselves) and of the solver configs (StrongConfig,
FVConfig) is set by exactly one key: its name, or for lambda_coeff and
source_splitting only the alias lambda or splitting (_ALIASES); the check
bounds are the fixed Thresholds.  load_config type-checks every key for every
verb and refuses a non-finite float (list items included).  Before any work
every verb refuses a mode value, set or defaulted, that it does not take
(_MODES, the one table of the values each verb takes of each mode key), then
a key it never reads, or reads only in another of its modes (_READ_BY, one
table for all keys; snapshot_stride is taken also where ends_only overrides
it), whatever its value.  Only then does Keys.check_ranges reject an n or
n_list entry below 4, a non-nested n_list or one of fewer than 3 entries, a
zero bump_amplitude or bump_radius and an eps_list of fewer than 2 entries
or not positive and strictly descending; and the verb builds its solver
config, so a bad solver key exits 2 also where no run follows.  verify
refuses, for trajectory=upjump (T from the solver config), a jump_at with a
state off the grid.  verify's stability check steps both FV runs at the
solver's own bound, _dt_bound, at the speed 2 + max|u0|, and advances the
two runs in lockstep, comparing each snapshot of the second with the
first's as both are recorded, so it holds one snapshot of each.  verify's
entropy check builds its sink, diagnostics.EntropyCheck, over [0, T] before
the run and stores no snapshot; a run that stops before T reports its
failing completed check alone.  simulate, breaking and sweep keep only the
first and last snapshot of a run, which is all they read.  Outputs are
written once and atomically renamed, so identical config + seed gives
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import typing
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from importlib import resources

import numpy as np

from . import __version__
from .diagnostics import (EntropyCheck, L1StabilityRatio, Thresholds,
                          attach_observation, breaking_precheck,
                          conservation_report, envelope_check)
from .grid import (Domain, GridFn, line, norm, sample, torus, write_csv,
                   write_snapshot_csv)
from .shock import FVConfig, _dt_bound, _marching_fv, run_fv, viscosity_sweep
from .strong import StrongConfig, _marching_strong, run_strong
from .trajectory import (LiveRun, Trajectory, ends_only, synthetic_trajectory,
                         write_series_csv)
from .waves import (b_formula, cusp_fit_masks, cusp_profile, defect_fit_mask,
                    measured_cusp_jump, peakon, tw_defect, tw_first_integral)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    pass


# ---------------------------------------------------------------------------
# config parsing: flat key=value lines, '#' comments

def _parse_value(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if "," in text:
        return [_parse_value(tok) for tok in text.split(",") if tok.strip()]
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
        cfg[key.strip()] = _parse_value(val)
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
        cfg[key.strip()] = _parse_value(val)
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
    bump_amplitude: float = 0.01
    bump_center: float = 0.0
    bump_radius: float = 2.0
    trajectory: str | None = None
    steps: int = 100
    jump_at: float = 0.0
    lambdas: list[float] | None = None
    kind: str | None = None
    c: float = 1.5
    eps_list: list[float] = field(default_factory=lambda: [1e-2, 5e-3, 2.5e-3])
    n_list: list[int] = field(default_factory=lambda: [2000, 4000, 8000])

    def check_ranges(self) -> None:
        """Refuse a value out of its key's range (after the reader pass)."""
        if not self.a < self.b:
            raise ValueError(f"a={self.a!r}, b={self.b!r}: expected a < b")
        if self.n < 4:
            raise ValueError(f"n={self.n!r}: expected at least 4")
        for key in ("bump_amplitude", "bump_radius"):
            if getattr(self, key) == 0:
                raise ValueError(f"{key}={getattr(self, key)!r}: expected a "
                                 f"nonzero value")
        if self.steps < 1:
            raise ValueError(f"steps={self.steps!r}: expected at least 1")
        # a sweep checks the ratios of neighbouring distances and the orders
        # of neighbouring errors: fewer entries leave a check with no value
        eps = self.eps_list
        if not (len(eps) >= 2 and min(eps) > 0
                and all(b < a for a, b in zip(eps, eps[1:]))):
            raise ValueError(f"eps_list={eps!r}: expected at least 2 positive "
                             f"and strictly descending values")
        if not (len(self.n_list) >= 3 and min(self.n_list) >= 4
                and all(m < n and n % m == 0
                        for m, n in zip(self.n_list, self.n_list[1:]))):
            raise ValueError(f"n_list={self.n_list!r}: expected at least 3 "
                             f"entries of at least 4, each a larger multiple "
                             f"of the one before")


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
    if typing.get_origin(typ) is list:  # one value or a non-empty list
        items = value if isinstance(value, list) else [value]
        if not items:
            raise ConfigError(f"{key}=[]: expected at least one value")
        return [_coerce(key, v, typing.get_args(typ)[0]) for v in items]
    try:
        if typ is bool and not isinstance(value, bool):
            raise TypeError("a bool is true/yes/on or false/no/off")
        if isinstance(value, bool) and typ in (int, float):
            raise TypeError("yes/true/on parse as True, which is no number")
        if typ is int and isinstance(value, float) and not value.is_integer():
            raise ValueError("an int field takes no fraction")
        out = typ(value)
    except (TypeError, ValueError) as exc:
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
_STABILITY, _ENTROPY = {"check": "stability"}, {"check": "entropy"}
# a and b: a verb with a domain key reads them on the line alone
_WINDOW = {**dict.fromkeys(_RUNNING, {"domain": "line"}), "wave": {}}
# a run's keys (the up-jump of verify is no run) and its solver's own
_RUN = {**dict.fromkeys(_RUNNING, {}), "verify": {"trajectory": None}}
_STRONG = {"breaking": {}, "simulate": {"solver": "strong"},
           "verify": {"solver": "strong", "trajectory": None}}
_FV = {"sweep": {}, "simulate": {"solver": "fv"},
       "verify": {"solver": "fv", "trajectory": None}}
_READ_BY = {
    "solver": _RUN,
    "domain": dict.fromkeys(_RUNNING, {}),
    "a": _WINDOW,
    "b": _WINDOW,
    "profile": _RUN,
    "n": {**dict.fromkeys(("simulate", "breaking", "verify", "wave"), {}),
          "sweep": {"kind": "viscosity"}},
    "check": {"verify": {}},
    "bump_amplitude": {"verify": _STABILITY},
    "bump_center": {"verify": _STABILITY},
    "bump_radius": {"verify": _STABILITY},
    "trajectory": {"verify": _ENTROPY},
    "steps": {"verify": {"trajectory": "upjump"}},
    "jump_at": {"verify": {"trajectory": "upjump"}},
    "lambdas": {"verify": _ENTROPY},
    "kind": dict.fromkeys(("wave", "sweep"), {}),
    "c": {"wave": {"kind": "cusp"}},
    "eps_list": {"sweep": {"kind": "viscosity"}},
    "n_list": {"sweep": {"kind": "resolution"}},
    "T": dict.fromkeys(_RUNNING, {}),
    "dt": _RUN,
    "snapshot_stride": _RUN,  # also where ends_only overrides it
    "lambda": _STRONG,
    "stop_slope": _STRONG,
    "advect": {v: {**m, "domain": "line"} for v, m in _STRONG.items()},
    "dealias": {v: {**m, "domain": "torus"} for v, m in _STRONG.items()},
    "cfl": _FV,
    "splitting": _FV,
    "source_on": _FV,
    "eps": {**_FV, "sweep": {"kind": "resolution"}},  # viscosity sweeps set it
}
# the values each verb that reads a mode key takes of it; the mode keys are
# checked first and in this order, so a refusal names its cause
_MODES = {
    "check": {"verify": ("entropy", "stability")},
    "kind": {"wave": ("peakon", "cusp"), "sweep": ("viscosity", "resolution")},
    "domain": dict.fromkeys(_RUNNING, ("line", "torus")),
    "trajectory": {"verify": (None, "upjump")},
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
        rule = ", ".join(f"{m}={v!r}" for m, v in readers[verb].items())
        for mode, need in readers[verb].items():
            if getattr(keys, mode) != need:
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


def _initial_from(cfg: dict, domain: Domain, n: int) -> GridFn:
    name = cfg.get("profile")
    if name is None:
        raise ConfigError("missing profile key")
    params = {k.split(".", 1)[1]: v for k, v in cfg.items()
              if k.startswith("profile.")}
    try:
        return sample(name, domain, n, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def _solver_config(solver: str, cfg: dict, **defaults):
    """The StrongConfig or FVConfig of cfg, as its solver key names."""
    cls = StrongConfig if solver == "strong" else FVConfig
    return _config_from(cls, cfg, **defaults)


def _run_from(scfg, u0: GridFn, sink=None) -> Trajectory:
    run = run_strong if isinstance(scfg, StrongConfig) else run_fv
    return run(u0, scfg, sink)


def _live_run_from(scfg, u0: GridFn) -> LiveRun:
    """The run of ``_run_from``, advanced only as far as it is read."""
    strong = isinstance(scfg, StrongConfig)
    start = partial(_marching_strong if strong else _marching_fv, u0, scfg)
    return LiveRun(start, u0.h)


def _atomic_write(path: str, writer) -> None:
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, payload: dict) -> None:
    def w(tmp):
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    _atomic_write(path, w)


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


def _emit_outputs(traj: Trajectory, out: str) -> None:
    write_series = lambda tmp: write_series_csv(traj, tmp)
    _atomic_write(os.path.join(out, "series.csv"), write_series)
    for label, idx in (("initial", 0), ("final", len(traj.snapshots) - 1)):
        g = traj.snapshot(idx)
        _atomic_write(os.path.join(out, f"snapshot_{label}.csv"),
                      lambda tmp, g=g: write_snapshot_csv(g, tmp))


# ---------------------------------------------------------------------------
# commands: each writes its outputs under out and returns its checks

def cmd_simulate(cfg: dict, out: str) -> list[dict]:
    keys = _keys_for("simulate", cfg)
    scfg = ends_only(_solver_config(keys.solver, cfg))  # reads the ends only
    domain = _domain_from(keys)
    u0 = _initial_from(cfg, domain, keys.n)
    traj = _run_from(scfg, u0)
    _emit_outputs(traj, out)
    cons = conservation_report(traj)
    checks = [_check("completed", traj.stop_reason != "overflow",
                     traj.stop_reason, "no overflow")]
    if domain.periodic:
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
    return checks


def _crest(x: np.ndarray, u: np.ndarray) -> float:
    i = int(np.argmax(u))
    if 0 < i < u.size - 1:
        y0, y1, y2 = u[i - 1], u[i], u[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0.0:
            return float(x[i] + 0.5 * (y0 - y2) / denom * (x[1] - x[0]))
    return float(x[i])


def cmd_breaking(cfg: dict, out: str) -> list[dict]:
    keys = _keys_for("breaking", cfg, n=20480, solver="strong")
    domain = _domain_from(keys)
    advect = "upwind" if not domain.periodic else "central"
    # reads the ends and the series only
    scfg = ends_only(_solver_config(keys.solver, cfg, advect=advect))
    u0 = _initial_from(cfg, domain, keys.n)
    report = breaking_precheck(u0)
    checks = [_check("precheck", True, {"S": report.S, "m1_0": report.m1_0,
                                        "m2_0": report.m2_0,
                                        "t_star": report.t_star},
                     "S >= 1 triggers the breaking run")]
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
        _emit_outputs(traj, out)
    else:
        checks.append(_check("criterion_not_met", True, report.S,
                             "S < 1: no breaking guarantee; run skipped"))
    _write_json(os.path.join(out, "breaking.json"), asdict(report))
    return checks


def cmd_verify(cfg: dict, out: str) -> list[dict]:
    keys = _keys_for("verify", cfg, n=4000)
    scfg = _solver_config(keys.solver, cfg)
    domain = _domain_from(keys)
    n = keys.n
    if keys.check == "stability":
        u0 = _initial_from(cfg, domain, n)
        if norm(u0, "L1") == 0.0:  # l1_growth divides by it
            raise ConfigError(f"profile={keys.profile!r}: the stability check "
                              f"needs initial data with a nonzero L1 norm")
        bump = sample("bump", domain, n, amplitude=keys.bump_amplitude,
                      center=keys.bump_center, radius=keys.bump_radius)
        v0 = GridFn(domain, u0.values + bump.values)
        if keys.solver == "fv" and scfg.dt is None:
            # one fixed dt, so the runs share snap times
            scfg = replace(scfg, dt=_dt_bound(2.0 + norm(u0, "Linf"), u0.h,
                                              scfg.cfl, scfg.eps))
        # the runs advance in lockstep: each snapshot of v, as it is
        # recorded, is compared with u's, to which u has just advanced, so
        # one snapshot of each run is held
        live_u = _live_run_from(scfg, u0)
        stream = L1StabilityRatio(live_u)
        tv = _run_from(scfg, v0, sink=stream)
        ratio = stream.value()
        tu = live_u.finish()  # its series, for l1_growth and _short_runs
        growth = max(tu.series["l1"] / (np.exp(tu.times) * tu.series["l1"][0]))
        tol = Thresholds.l1_ratio_tol
        return [_check("l1_stability_ratio", ratio <= tol, ratio, tol),
                _check("l1_growth", growth <= tol, float(growth), tol),
                *_short_runs(tu, tv)]

    if keys.trajectory == "upjump":
        x = domain.cell_centers(n)
        if not x[0] < keys.jump_at <= x[-1]:  # else one state is off the grid
            raise ConfigError(f"jump_at={keys.jump_at!r}: expected {x[0]:g} "
                              f"< jump_at <= {x[-1]:g}, the cell centres")
        times = scfg.T * np.arange(keys.steps + 1) / keys.steps
        t_end = float(times[-1])
        # stationary non-entropic expansion shock (-1 -> +1), source off
        run = partial(synthetic_trajectory, domain, n, times,
                      lambda x, t: np.where(x < keys.jump_at, -1.0, 1.0))
    else:
        t_end = scfg.T
        run = partial(_run_from, scfg, _initial_from(cfg, domain, n))
    # the run's snapshots are contracted as they are recorded, not stored;
    # a run ending before every Oleinik time is refused before it starts
    check = EntropyCheck(domain, n, t_end, lambdas=keys.lambdas)
    traj = run(sink=check)
    if traj.stop_reason != "completed":
        # no residual over a window the run never reached
        return _short_runs(traj)
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
    _write_json(os.path.join(out, "entropy.json"), {
        "weak_residual_max": rep.weak_residual_max,
        "kruzhkov_min": rep.kruzhkov_min,
        "oleinik_margin": rep.oleinik_margin,
        "passes": {name: c["pass"] for name, c
                   in zip(("weak", "kruzhkov", "oleinik"), checks)},
    })
    return checks


def cmd_wave(cfg: dict, out: str) -> list[dict]:
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
        if not c > 4.0 / 3.0 + 1e-6:
            raise ConfigError("cusp waves require c > 4/3")
        try:
            cusp_fit_masks(line(*window), n)
        except ValueError as exc:
            raise ConfigError(f"n={n}: {exc}") from exc
        try:
            wave = cusp_profile(c, n=n, window=window)
        except ValueError as exc:
            return [_check("construction", False, str(exc), "")]
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
    _atomic_write(os.path.join(out, "profile.csv"),
                  lambda tmp: write_csv(tmp, ("xi", "v"),
                                        (prof.x, prof.values)))
    _write_json(os.path.join(out, "defect.json"), payload)
    return checks


def _max_workers() -> int:
    """The threads a sweep runs its grids on: one (benchmark provenance)."""
    return 1


def cmd_sweep(cfg: dict, out: str) -> list[dict]:
    keys = _keys_for("sweep", cfg, n=2000, kind="viscosity")
    domain = _domain_from(keys)
    checks = []
    if keys.kind == "viscosity":
        u0 = _initial_from(cfg, domain, keys.n)
        pairs = viscosity_sweep(u0, keys.eps_list,
                                _config_from(FVConfig, cfg, T=0.5))
        dists = [d for _, d in pairs]
        decreasing = all(b < a for a, b in zip(dists, dists[1:]))
        checks.append(_check("distances_decreasing", decreasing, dists, ""))
        ratios = [a / b for a, b in zip(dists, dists[1:])]
        checks.append(_check("first_order_in_eps",
                             all(1.5 <= r <= 2.5 for r in ratios),
                             ratios, "2 +- 0.5"))
        _atomic_write(os.path.join(out, "sweep.csv"),
                      lambda tmp: write_csv(tmp, ("eps", "l1_distance"),
                                            ([e for e, _ in pairs], dists)))
    else:
        fcfg = ends_only(_config_from(FVConfig, cfg))  # reads the ends only
        runs = [run_fv(_initial_from(cfg, domain, n), fcfg)
                for n in keys.n_list]
        errs = []
        for coarse, fine in zip(runs, runs[1:]):
            ratio = fine.n // coarse.n
            fv = np.asarray(fine.snapshots[-1]).reshape(-1, ratio).mean(axis=1)
            errs.append((coarse.n, float(np.mean(coarse.dts)),
                         float(coarse.h * np.abs(coarse.snapshots[-1] - fv).sum())))
        orders = [math.log2(e0 / e1) for (_, _, e0), (_, _, e1)
                  in zip(errs, errs[1:])]
        ok = all(0.7 <= o <= 1.2 for o in orders)
        checks.append(_check("l1_self_convergence_order", ok, orders,
                             "[0.7, 1.2]"))
        columns = [[e[i] for e in errs] for i in range(3)]
        columns.append([math.nan] + orders)
        _atomic_write(os.path.join(out, "convergence.csv"),
                      lambda tmp: write_csv(tmp, ("n", "dt_mean", "l1_err",
                                                  "order"), columns))
    return checks


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="fwlab",
        description="Fornberg-Whitham equation simulation and verification")
    parser.add_argument("--version", action="version",
                        version=f"fwlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "breaking", "verify", "wave", "sweep"):
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
    dispatch = {
        "simulate": cmd_simulate,
        "breaking": cmd_breaking,
        "verify": cmd_verify,
        "wave": cmd_wave,
        "sweep": cmd_sweep,
    }
    try:
        cfg = load_config(args.config, args.preset, args.overrides)
        checks = dispatch[args.command](cfg, args.out)
        report = _report(args.command, cfg, checks)
        _write_json(os.path.join(args.out, "report.json"), report)
    except ConfigError as exc:
        print(f"fwlab: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"fwlab: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK if report["overall_pass"] else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
