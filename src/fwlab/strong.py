"""Method-of-lines solver for the smooth regime of u_t + lam u u_x + K'*u = 0.

Torus: Fourier differentiation with 2/3-rule dealiasing of the quadratic
term.  Line: second-order central differences; an optional first-order
upwind mode exists for runs that are driven through wave breaking, where a
non-dissipative stencil rings at the grid scale and contaminates the slope
diagnostics (see the breaking preset).  ``run_strong`` takes exactly T/dt
RK4 steps through ``trajectory.march``, so T must be a multiple of dt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridFn, _central_dx
from .kernels import KernelOp
from .trajectory import Trajectory, _Recorder, march

__all__ = ["StrongConfig", "OverflowAbort", "rhs", "step_rk4", "run_strong",
           "scaling_transport"]


class OverflowAbort(RuntimeError):
    """Raised when a step produces non-finite values (numerical blow-up)."""

    def __init__(self, t_last: float):
        super().__init__(f"numerical overflow; last valid time t={t_last:.6g}")
        self.t_last = t_last


@dataclass(frozen=True)
class StrongConfig:
    dt: float = 1e-3
    T: float = 1.0  # an integer multiple of dt: the run takes T/dt steps
    n: int | None = None
    dealias: bool = True
    lambda_coeff: float = 1.0
    stop_slope: float = 1e3
    advect: str = "central"  # line-only: "central" | "upwind"
    snapshot_stride: int = 10

    def __post_init__(self):
        if not (self.dt > 0 and self.T > 0):
            raise ValueError("dt and T must be positive")
        if abs(round(self.T / self.dt) * self.dt - self.T) > 1e-9 * self.T:
            raise ValueError(f"T={self.T!r} is not an integer multiple of "
                             f"dt={self.dt!r}")
        if self.n is not None and self.n < 16:
            raise ValueError("n must be at least 16")
        if not self.stop_slope > 0:
            raise ValueError("stop_slope must be positive")
        if self.lambda_coeff < 0:
            raise ValueError("lambda_coeff must be nonnegative")
        if self.advect not in ("central", "upwind"):
            raise ValueError("advect must be 'central' or 'upwind'")


def _dealias_mask(n: int) -> np.ndarray:
    k = np.fft.rfftfreq(n, d=1.0 / n)
    return k <= n // 3


def _make_rhs(op: KernelOp, lam: float, dealias: bool, advect: str):
    """Build a raw-array closure computing -lam u u_x - K'*u."""
    n, h = op.n, op.h

    if op.domain.periodic:
        mask = _dealias_mask(n) if dealias else None
        ik = op._ik.copy()
        if n % 2 == 0:
            ik[-1] = 0.0  # unpaired Nyquist mode carries no derivative

        def f(u):
            uh = np.fft.rfft(u)
            ux = np.fft.irfft(uh * ik, n)
            adv = u * ux
            if mask is not None:
                ah = np.fft.rfft(adv)
                ah[~mask] = 0.0
                adv = np.fft.irfft(ah, n)
            conv = np.fft.irfft(uh * op.multipliers * ik, n)
            return -lam * adv - conv
        return f

    if advect == "central":
        def f(u):
            return -lam * u * _central_dx(u, h) - op.conv_Kprime_values(u)
        return f

    def f(u):
        # upwind u_x for the advective term; zero ghost cells at the window
        back = np.empty_like(u)
        back[1:] = (u[1:] - u[:-1]) / h
        back[0] = u[0] / h
        fwd = np.empty_like(u)
        fwd[:-1] = back[1:]
        fwd[-1] = -u[-1] / h
        adv = u * np.where(u > 0.0, back, fwd)
        return -lam * adv - op.conv_Kprime_values(u)
    return f


def rhs(u: GridFn, lam: float, op: KernelOp, dealias: bool = True,
        advect: str = "central") -> GridFn:
    """Semi-discrete right-hand side -lam u u_x - K'*u."""
    op._check(u)
    return u.with_values(_make_rhs(op, lam, dealias, advect)(u.values))


def _rk4(f, u: np.ndarray, dt: float) -> np.ndarray:
    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def step_rk4(u: GridFn, dt: float, lam: float, op: KernelOp,
             dealias: bool = True, advect: str = "central") -> GridFn:
    """One classical RK4 step; raises OverflowAbort on non-finite output."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    op._check(u)
    # overflow here is detected and reported, not a numerical accident
    with np.errstate(over="ignore", invalid="ignore"):
        out = _rk4(_make_rhs(op, lam, dealias, advect), u.values, dt)
    if not np.all(np.isfinite(out)):
        raise OverflowAbort(0.0)
    return u.with_values(out)


def run_strong(u0: GridFn, cfg: StrongConfig, op: KernelOp | None = None) -> Trajectory:
    """Integrate to T, or stop early when min slope < -stop_slope or on
    numerical overflow (stop_reason records which)."""
    if cfg.n is not None and cfg.n != u0.n:
        raise ValueError(f"config n={cfg.n} does not match u0.n={u0.n}")
    if op is None:
        op = KernelOp(u0.domain, u0.n)
    else:
        op._check(u0)
    f = _make_rhs(op, cfg.lambda_coeff, cfg.dealias, cfg.advect)
    rec = _Recorder(u0.domain, u0.n, cfg.snapshot_stride,
                    meta={"solver": "strong", "dt": cfg.dt, "T": cfg.T,
                          "lambda_coeff": cfg.lambda_coeff,
                          "dealias": cfg.dealias, "advect": cfg.advect,
                          "stop_slope": cfg.stop_slope})
    nsteps = int(round(cfg.T / cfg.dt))
    # a fixed step count, not t < T: accumulated t drifts from k * dt, and
    # rec holds t = 0 plus one record per step taken
    return march(u0.values, rec,
                 lambda t, u: cfg.dt if len(rec.times) <= nsteps else None,
                 lambda u, dt: _rk4(f, u, dt),
                 stop=lambda r: r.cols["m1"][-1] < -cfg.stop_slope)


def scaling_transport(traj: Trajectory, lam: float) -> Trajectory:
    """Map a run of u_t + u u_x + K'*u = 0 to v = u/lam, which solves
    v_t + lam v v_x + K'*v = 0 (lam > 0); pointwise division throughout."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    series = {name: (vals.copy() if name in ("xi1", "xi2") else vals / lam)
              for name, vals in traj.series.items()}
    snaps = [s / lam for s in traj.snapshots]
    meta = dict(traj.meta)
    meta["lambda_coeff"] = lam * meta.get("lambda_coeff", 1.0)
    meta["scaled_by"] = lam
    return Trajectory(traj.domain, traj.n, traj.times.copy(), series,
                      traj.snap_times.copy(), snaps, traj.stop_reason,
                      traj.t_stop, meta)
