"""First-order Godunov flux-splitting solver for the weak entropy regime.

Each step composes the conservative Burgers update (exact Riemann fluxes for
f(u) = u^2/2) with the nonlocal source update u <- u - dt K'*u, either Lie or
Strang ordered.  The source sub-step uses an explicit midpoint evaluation,
which keeps the splitting second order in the smooth regime.  A nonnegative
viscosity eps adds an explicit eps*D2 u term to the Burgers sub-step
(vanishing-viscosity variant).  ``run_fv`` marches through
``trajectory.marching`` with a CFL-adapted (or fixed, CFL-checked) step that is
shortened to land on T.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import GridFn, _pad, second_difference
from .kernels import KernelOp
from .trajectory import (Trajectory, _Recorder, check_span, drain, ends_only,
                         marching)

__all__ = ["FVConfig", "godunov_flux", "run_fv", "viscosity_sweep"]

_TINY = 1e-12


@dataclass(frozen=True)
class FVConfig:
    T: float = 1.0
    cfl: float = 0.45
    eps: float = 0.0
    source_splitting: str = "strang"  # "strang" | "lie"
    dt: float | None = None  # fixed step override; still CFL-checked
    source_on: bool = True
    snapshot_stride: int = 4

    def __post_init__(self):
        check_span(self)
        if not (0.0 < self.cfl <= 1.0):
            raise ValueError("cfl must lie in (0, 1]")
        if self.eps < 0.0:
            raise ValueError("eps must be nonnegative")
        if self.source_splitting not in ("strang", "lie"):
            raise ValueError("source_splitting must be 'strang' or 'lie'")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("fixed dt must be positive")


def godunov_flux(ul, ur):
    """Exact Riemann flux for Burgers f(u) = u^2/2.

    ul <= ur: min of f over [ul, ur] (0 across a transonic rarefaction);
    ul > ur: max(f(ul), f(ur)).  Vectorized; equals max(ul+^2, ur-^2)/2.
    """
    ul = np.asarray(ul, dtype=np.float64)
    ur = np.asarray(ur, dtype=np.float64)
    out = np.maximum(np.maximum(ul, 0.0) ** 2, np.minimum(ur, 0.0) ** 2) / 2.0
    if out.ndim == 0:
        return float(out)
    return out


def _burgers_update(u: np.ndarray, dt: float, h: float, periodic: bool,
                    eps: float) -> np.ndarray:
    ue = _pad(u, periodic)
    flux = godunov_flux(ue[:-1], ue[1:])  # F_{i-1/2}, i = 0 .. n
    out = u - (dt / h) * (flux[1:] - flux[:-1])
    if eps > 0.0:
        out = out + dt * eps * second_difference(u, h, periodic)
    return out


def _dt_bound(umax: float, h: float, cfl: float, eps: float) -> float:
    """The CFL bound and, with viscosity, the monotone limit nu + 2 mu <= 1
    (nu = dt umax / h, mu = dt eps / h^2) of upwind flux plus diffusion at
    the speed bound umax >= max|u|."""
    dt = cfl * h / max(umax, _TINY)
    return min(dt, h / (umax + 2.0 * eps / h)) if eps > 0.0 else dt


def _source_update(u: np.ndarray, tau: float, op: KernelOp) -> np.ndarray:
    # explicit midpoint for u' = -K'*u
    mid = u - 0.5 * tau * op.conv_Kprime_values(u)
    return u - tau * op.conv_Kprime_values(mid)


def _step_values(u: np.ndarray, dt: float, op: KernelOp,
                 cfg: FVConfig) -> np.ndarray:
    periodic = op.domain.periodic
    if not cfg.source_on:
        return _burgers_update(u, dt, op.h, periodic, cfg.eps)
    if cfg.source_splitting == "lie":
        u = _burgers_update(u, dt, op.h, periodic, cfg.eps)
        return _source_update(u, dt, op)
    u = _source_update(u, 0.5 * dt, op)
    u = _burgers_update(u, dt, op.h, periodic, cfg.eps)
    return _source_update(u, 0.5 * dt, op)


def run_fv(u0: GridFn, cfg: FVConfig, sink=None) -> Trajectory:
    """March to T with dt adapted from the CFL condition each step.

    With cfg.dt set the step is fixed instead (and validated against the CFL
    bound every step).  Slope extrema are recorded from one-sided differences.
    A sink receives the snapshots in place of the trajectory (see
    ``_Recorder``).
    """
    return drain(_marching_fv(u0, cfg, sink))


def _marching_fv(u0: GridFn, cfg: FVConfig, sink=None):
    """``run_fv``'s run as a ``trajectory.marching`` generator."""
    op = KernelOp(u0.domain, u0.n)
    h = u0.h
    rec = _Recorder(u0.domain, u0.n, cfg.snapshot_stride, sink)

    def next_dt(t, u):
        if t >= cfg.T - 1e-13:
            return None
        # max|u| of u, as recorded
        bound = _dt_bound(rec.cols["linf"][-1], h, cfg.cfl, cfg.eps)
        if cfg.dt is None:
            return min(bound, cfg.T - t)
        dt = min(cfg.dt, cfg.T - t)
        if dt > bound * (1.0 + 1e-9):
            raise ValueError("time step too large")
        return dt

    traj = yield from marching(u0.values, rec, next_dt,
                               lambda u, dt: _step_values(u, dt, op, cfg))
    return replace(traj, config=cfg)


def viscosity_sweep(u0: GridFn, eps_list, cfg: FVConfig):
    """L1 distances at time T between eps-viscous runs and the eps=0 run.

    eps_list must be positive and descending; returns [(eps, distance), ...].
    """
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps_list):
        raise ValueError("eps values must be positive")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be strictly descending")
    cfg = ends_only(cfg)
    base = run_fv(u0, replace(cfg, eps=0.0)).snapshot(-1)
    out = []
    h = u0.h
    for eps in eps_list:
        ue = run_fv(u0, replace(cfg, eps=eps)).snapshot(-1)
        out.append((eps, float(h * np.abs(ue.values - base.values).sum())))
    return out
