"""Command-line driver: reproducible experiments from flat key=value configs.

Verbs: simulate, breaking, verify, wave, sweep.  Exit codes: 0 all checks
pass, 1 a mathematical check failed or the solver aborted, 2 usage/config
error.  Config keys that name a field of StrongConfig, FVConfig or
Thresholds set it (see _config_from); a key no command reads is a config
error.  FWLAB_THREADS caps sweep concurrency.
Outputs are written once and atomically renamed into place, so identical
config + seed gives byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from importlib import resources

import numpy as np

from . import __version__
from .diagnostics import (Thresholds, attach_observation, breaking_precheck,
                          conservation_report, entropy_report, envelope_check,
                          l1_stability_check)
from .grid import (Domain, GridFn, line, norm, sample, torus, write_csv,
                   write_snapshot_csv)
from .kernels import KernelOp
from .shock import FVConfig, run_fv, viscosity_sweep
from .strong import StrongConfig, run_strong
from .trajectory import Trajectory, synthetic_trajectory, write_series_csv
from .waves import (b_formula, cusp_profile, measured_cusp_jump, peakon,
                    tw_defect, tw_first_integral)

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
    for key in cfg:
        if key not in _KEYS and not key.startswith("profile."):
            raise ConfigError(f"unknown key {key!r}")
    return cfg


# ---------------------------------------------------------------------------
# config keys -> config dataclasses

# config keys that name a dataclass field by another name
_ALIASES = {"lambda": "lambda_coeff", "splitting": "source_splitting"}

# every key a config may hold, besides the profile.* parameters: the config
# dataclass fields, their aliases and the keys the commands read themselves
_KEYS = ({f.name for cls in (StrongConfig, FVConfig, Thresholds)
          for f in fields(cls)} | set(_ALIASES)
         | {"solver", "domain", "a", "b", "profile", "n", "check",
            "bump_amplitude", "bump_center", "bump_radius", "trajectory",
            "steps", "jump_at", "lambdas", "kind", "c", "eps_list", "n_list"})


def _coerce(key: str, value, typ):
    try:
        return typ(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}={value!r}: expected {typ.__name__}") from exc


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
            # an optional field (int | None) coerces to its non-None type
            typ = next((t for t in typing.get_args(hints[name])
                        if t is not type(None)), hints[name])
            kwargs[name] = _coerce(key, value, typ)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# pieces shared by the commands

def _n_from(cfg: dict, default: int) -> int:
    return _coerce("n", cfg.get("n", default), int)


def _domain_from(cfg: dict) -> Domain:
    kind = cfg.get("domain", "line")
    if kind == "torus":
        return torus()
    if kind == "line":
        return line(cfg.get("a", -20.0), cfg.get("b", 20.0))
    raise ConfigError(f"unknown domain {kind!r}")


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


def _run_from(cfg: dict, u0: GridFn, op: KernelOp | None = None) -> Trajectory:
    solver = cfg.get("solver", "fv")
    if solver == "strong":
        return run_strong(u0, _config_from(StrongConfig, cfg), op)
    if solver == "fv":
        return run_fv(u0, _config_from(FVConfig, cfg), op)
    raise ConfigError(f"unknown solver {solver!r}")


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


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path: str, payload: dict) -> None:
    def w(tmp):
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True,
                      default=_json_default)
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


def _emit_outputs(traj: Trajectory, out: str) -> None:
    write_series = lambda tmp: write_series_csv(traj, tmp)
    _atomic_write(os.path.join(out, "series.csv"), write_series)
    for label, idx in (("initial", 0), ("final", len(traj.snapshots) - 1)):
        g = traj.snapshot(idx)
        _atomic_write(os.path.join(out, f"snapshot_{label}.csv"),
                      lambda tmp, g=g: write_snapshot_csv(g, tmp))


# ---------------------------------------------------------------------------
# commands

def cmd_simulate(cfg: dict, out: str) -> int:
    domain = _domain_from(cfg)
    n = _n_from(cfg, 1024)
    u0 = _initial_from(cfg, domain, n)
    traj = _run_from(cfg, u0)
    _emit_outputs(traj, out)
    thr = _config_from(Thresholds, cfg)
    cons = conservation_report(traj)
    checks = [_check("completed", traj.stop_reason != "overflow",
                     traj.stop_reason, "no overflow")]
    if domain.periodic:
        checks.append(_check("mass_conservation", cons.mass_drift <= thr.mass_tol,
                             cons.mass_drift, thr.mass_tol))
        if cfg.get("solver") == "strong":
            checks.append(_check("l2_conservation",
                                 cons.l2_drift_rel <= thr.l2_rel_tol,
                                 cons.l2_drift_rel, thr.l2_rel_tol))
    if cfg.get("profile") == "peakon" and cfg.get("solver", "fv") == "fv":
        x = traj.domain.cell_centers(traj.n)
        speed = (_crest(x, traj.snapshots[-1]) - _crest(x, traj.snapshots[0])) \
            / traj.t_stop if traj.t_stop > 0 else 0.0
        checks.append(_check("peakon_speed", abs(speed - 4.0 / 3.0) <= 0.02 * 4 / 3,
                             speed, "4/3 +- 2%"))
    _write_json(os.path.join(out, "report.json"),
                _report("simulate", cfg, checks))
    if traj.stop_reason == "overflow":
        return EXIT_CHECK_FAILED
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK_FAILED


def _crest(x: np.ndarray, u: np.ndarray) -> float:
    i = int(np.argmax(u))
    if 0 < i < u.size - 1:
        y0, y1, y2 = u[i - 1], u[i], u[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0.0:
            return float(x[i] + 0.5 * (y0 - y2) / denom * (x[1] - x[0]))
    return float(x[i])


def cmd_breaking(cfg: dict, out: str) -> int:
    domain = _domain_from(cfg)
    n = _n_from(cfg, 20480)
    u0 = _initial_from(cfg, domain, n)
    report = breaking_precheck(u0)
    checks = [_check("precheck", True, {"S": report.S, "m1_0": report.m1_0,
                                        "m2_0": report.m2_0,
                                        "t_star": report.t_star},
                     "S >= 1 triggers the breaking run")]
    thr = _config_from(Thresholds, cfg)
    payload = {"m1_0": report.m1_0, "m2_0": report.m2_0, "S": report.S,
               "condition_met": report.condition_met, "M0": report.M0,
               "t_star": report.t_star, "t_observed": None}
    if report.condition_met and report.t_star is not None:
        cfg = dict(cfg)
        cfg.setdefault("solver", "strong")
        cfg.setdefault("advect", "upwind" if not domain.periodic else "central")
        traj = _run_from(cfg, u0)
        attach_observation(report, traj)
        payload["t_observed"] = report.t_observed
        ok_obs = (report.t_observed is not None
                  and report.t_observed <= thr.tobs_factor * report.t_star)
        checks.append(_check("blowup_bound", ok_obs, report.t_observed,
                             f"<= {thr.tobs_factor} * t_star = "
                             f"{thr.tobs_factor * report.t_star:.4f}"))
        env_ok, worst, _ = envelope_check(traj, thr)
        checks.append(_check("slope_envelope", env_ok, worst,
                             "m2 <= riccati envelope + slack"))
        _emit_outputs(traj, out)
    else:
        checks.append(_check("criterion_not_met", True, report.S,
                             "S < 1: no breaking guarantee; run skipped"))
    _write_json(os.path.join(out, "breaking.json"), payload)
    _write_json(os.path.join(out, "report.json"),
                _report("breaking", cfg, checks))
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK_FAILED


def cmd_verify(cfg: dict, out: str) -> int:
    domain = _domain_from(cfg)
    n = _n_from(cfg, 4000)
    thr = _config_from(Thresholds, cfg)
    checks = []
    if cfg.get("check") == "stability":
        u0 = _initial_from(cfg, domain, n)
        bump_cfg = {"profile": "bump",
                    "profile.amplitude": float(cfg.get("bump_amplitude", 0.01)),
                    "profile.center": float(cfg.get("bump_center", 0.0)),
                    "profile.radius": float(cfg.get("bump_radius", 2.0))}
        bump = _initial_from(bump_cfg, domain, n)
        v0 = GridFn(domain, u0.values + bump.values)
        fv = {"dt": 0.45 * u0.h / (2.0 + norm(u0, "Linf")), **cfg}
        op = KernelOp(domain, n)
        tu = _run_from(fv, u0, op)
        tv = _run_from(fv, v0, op)
        ratio = l1_stability_check(tu, tv)
        checks.append(_check("l1_stability_ratio", ratio <= thr.l1_ratio_tol,
                             ratio, thr.l1_ratio_tol))
        growth = max(tu.series["l1"] / (np.exp(tu.times) * tu.series["l1"][0]))
        checks.append(_check("l1_growth", growth <= thr.l1_ratio_tol,
                             float(growth), thr.l1_ratio_tol))
        _write_json(os.path.join(out, "report.json"),
                    _report("verify", cfg, checks))
        return EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK_FAILED

    if cfg.get("trajectory") == "upjump":
        # stationary non-entropic expansion shock (-1 -> +1), source off
        T = _coerce("T", cfg.get("T", 0.5), float)
        steps = _coerce("steps", cfg.get("steps", 100), int)
        jump_at = cfg.get("jump_at", 0.0)
        traj = synthetic_trajectory(
            domain, n, [T * k / steps for k in range(steps + 1)],
            lambda x, t: np.where(x < jump_at, -1.0, 1.0),
            meta={"solver": "synthetic-upjump"})
    else:
        u0 = _initial_from(cfg, domain, n)
        traj = _run_from(cfg, u0)
    lambdas = cfg.get("lambdas")
    if lambdas is not None and not isinstance(lambdas, list):
        lambdas = [lambdas]
    rep = entropy_report(traj, lambdas=lambdas, thresholds=thr)
    cons = conservation_report(traj)
    checks.append(_check("weak_residual", rep.passes["weak"],
                         rep.weak_residual_max, thr.weak_tol))
    checks.append(_check("kruzhkov_residual", rep.passes["kruzhkov"],
                         rep.kruzhkov_min, -thr.kruzhkov_tol))
    checks.append(_check("oleinik_margin", rep.passes["oleinik"],
                         rep.oleinik_margin,
                         -thr.oleinik_rel_tol * rep.oleinik_scale))
    if domain.periodic:
        checks.append(_check("mass_conservation",
                             cons.mass_drift <= thr.mass_tol,
                             cons.mass_drift, thr.mass_tol))
    _write_json(os.path.join(out, "entropy.json"), {
        "weak_residual_max": rep.weak_residual_max,
        "kruzhkov_min": rep.kruzhkov_min,
        "oleinik_margin": rep.oleinik_margin,
        "passes": rep.passes,
    })
    _write_json(os.path.join(out, "report.json"),
                _report("verify", cfg, checks))
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK_FAILED


def cmd_wave(cfg: dict, out: str) -> int:
    kind = cfg.get("kind")
    if kind not in ("peakon", "cusp"):
        raise ConfigError("wave kind must be 'peakon' or 'cusp'")
    n = _n_from(cfg, 8000)
    window = (float(cfg.get("a", -30.0)), float(cfg.get("b", 30.0)))
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
        c = float(cfg.get("c", 1.5))
        if not c > 4.0 / 3.0 + 1e-6:
            raise ConfigError("cusp waves require c > 4/3")
        try:
            wave = cusp_profile(c, n=n, window=window)
        except ValueError as exc:
            _write_json(os.path.join(out, "report.json"),
                        _report("wave", cfg,
                                [_check("construction", False, str(exc), "")]))
            return EXIT_CHECK_FAILED
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
    _write_json(os.path.join(out, "report.json"), _report("wave", cfg, checks))
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK_FAILED


def _max_workers() -> int:
    env = os.environ.get("FWLAB_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError("FWLAB_THREADS must be an integer")
    return min(4, os.cpu_count() or 1)


def cmd_sweep(cfg: dict, out: str) -> int:
    kind = cfg.get("kind", "viscosity")
    domain = _domain_from(cfg)
    checks = []
    if kind == "viscosity":
        n = _n_from(cfg, 2000)
        u0 = _initial_from(cfg, domain, n)
        eps_list = cfg.get("eps_list", [1e-2, 5e-3, 2.5e-3])
        if not isinstance(eps_list, list):
            eps_list = [eps_list]
        pairs = viscosity_sweep(u0, eps_list,
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
    elif kind == "resolution":
        n_list = cfg.get("n_list", [2000, 4000, 8000])
        if not isinstance(n_list, list):
            n_list = [n_list]
        n_list = [_coerce("n_list", v, int) for v in n_list]
        fcfg = _config_from(FVConfig, cfg, snapshot_stride=10 ** 9)

        def one(n):
            u0 = _initial_from(cfg, domain, n)
            return n, run_fv(u0, replace(fcfg, n=n))

        with ThreadPoolExecutor(max_workers=_max_workers()) as pool:
            runs = dict(pool.map(one, n_list))
        errs = []
        for n_c, n_f in zip(n_list, n_list[1:]):
            coarse, fine = runs[n_c], runs[n_f]
            ratio = n_f // n_c
            fv = np.asarray(fine.snapshots[-1]).reshape(-1, ratio).mean(axis=1)
            errs.append((n_c, fine.meta.get("dt_mean", 0.0),
                         float(coarse.h * np.abs(coarse.snapshots[-1] - fv).sum())))
        orders = [math.log2(e0 / e1) for (_, _, e0), (_, _, e1)
                  in zip(errs, errs[1:])]
        ok = all(0.7 <= o <= 1.2 for o in orders)
        checks.append(_check("l1_self_convergence_order", ok or not orders,
                             orders, "[0.7, 1.2]"))
        columns = [[e[i] for e in errs] for i in range(3)]
        columns.append([math.nan] + orders)
        _atomic_write(os.path.join(out, "convergence.csv"),
                      lambda tmp: write_csv(tmp, ("n", "dt_mean", "l1_err",
                                                  "order"), columns))
    else:
        raise ConfigError(f"unknown sweep kind {kind!r}")
    _write_json(os.path.join(out, "report.json"), _report("sweep", cfg, checks))
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_CHECK_FAILED


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
        return dispatch[args.command](cfg, args.out)
    except ConfigError as exc:
        print(f"fwlab: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"fwlab: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
