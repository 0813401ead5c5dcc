"""Method-of-lines solver for the smooth regime of u_t + lam u u_x + K'*u = 0.

Torus: Fourier differentiation with 2/3-rule dealiasing of the quadratic
term.  Line: second-order central differences; an optional first-order
upwind mode exists for runs that are driven through wave breaking, where a
non-dissipative stencil rings at the grid scale and contaminates the slope
diagnostics (see the breaking preset).  ``run_strong`` takes exactly T/dt
RK4 steps through ``trajectory.march``, so T must be a multiple of dt.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import GridFn, _central_dx
from .kernels import KernelOp
from .trajectory import Trajectory, _Recorder, march

__all__ = ["StrongConfig", "OverflowAbort", "rhs", "step_rk4", "run_strong",
           "scaling_transport"]


class OverflowAbort(RuntimeError):
    """Raised when a step produces non-finite values (numerical blow-up)."""


@dataclass(frozen=True)
class StrongConfig:
    dt: float = 1e-3
    T: float = 1.0  # an integer multiple of dt: the run takes T/dt steps
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
        if not self.stop_slope > 0:
            raise ValueError("stop_slope must be positive")
        if self.lambda_coeff < 0:
            raise ValueError("lambda_coeff must be nonnegative")
        if self.advect not in ("central", "upwind"):
            raise ValueError("advect must be 'central' or 'upwind'")


def _make_rhs(op: KernelOp, lam: float, dealias: bool, advect: str):
    """Build a raw-array closure f(u, out) writing -lam u u_x - K'*u into
    out and returning it.  The closure computes in a workspace allocated
    here once, so u and out must not be part of it.  The operations and
    their order are those of -lam u u_x - K'*u written as whole-array
    expressions, so the buffers change no bit of the result."""
    n, h = op.n, op.h

    if op.domain.periodic:
        ik = op._ik
        uh, ah = np.empty((2, n // 2 + 1), dtype=complex)
        spec = np.empty((2, n // 2 + 1), dtype=complex)
        ux_h, conv_h = spec
        phys = np.empty((2, n))  # the inverse transforms of spec's rows
        ux, conv = phys
        adv = np.empty(n)

        def f(u, out):
            np.fft.rfft(u, out=uh)
            np.multiply(uh, ik, out=ux_h)
            np.multiply(uh, op.multipliers, out=conv_h)
            np.multiply(conv_h, ik, out=conv_h)
            np.fft.irfft(spec, n, out=phys)  # one call for both rows
            np.multiply(u, ux, out=adv)
            if dealias:  # 2/3 rule: keep the modes k <= n // 3
                np.fft.rfft(adv, out=ah)
                ah[n // 3 + 1:] = 0.0
                np.fft.irfft(ah, n, out=adv)
            np.multiply(-lam, adv, out=adv)
            return np.subtract(adv, conv, out=out)
        return f

    w = np.empty(n)  # K*u
    d = np.empty(n)  # a central difference

    def minus_kprime(u, out):
        op.conv_K_values(u, out=w)
        return np.subtract(out, _central_dx(w, h, out=d), out=out)

    if advect == "central":
        def f(u, out):
            np.multiply(-lam, u, out=out)
            out *= _central_dx(u, h, out=d)
            return minus_kprime(u, out)
        return f

    # upwind u_x for the advective term; zero ghost cells at the window:
    # e = [u0, u1 - u0, ..., -u_{n-1}] / h, backward differences e[:-1],
    # forward differences e[1:]
    e = np.empty(n + 1)
    back, fwd = e[:-1], e[1:]
    pos = np.empty(n, dtype=bool)

    def f(u, out):
        e[0] = u[0]
        np.subtract(u[1:], u[:-1], out=e[1:-1])
        e[-1] = -u[-1]
        np.divide(e, h, out=e)
        np.copyto(d, fwd)
        np.copyto(d, back, where=np.greater(u, 0.0, out=pos))
        np.multiply(u, d, out=out)
        out *= -lam
        return minus_kprime(u, out)
    return f


def rhs(u: GridFn, lam: float, dealias: bool = True,
        advect: str = "central") -> GridFn:
    """Semi-discrete right-hand side -lam u u_x - K'*u."""
    f = _make_rhs(KernelOp(u.domain, u.n), lam, dealias, advect)
    return u.with_values(f(u.values, np.empty(u.n)))


def _rk4(f, n: int):
    """Return step(u, dt): one classical RK4 step of u' = f(u, out) on n
    values, as a fresh array.  The stages live in buffers reused from step
    to step and are combined as ((k1 + 2 k2) + 2 k3) + k4, the order of the
    whole-array expression."""
    k1, k2, k3, k4, v = np.empty((5, n))

    def step(u, dt):
        f(u, k1)
        f(np.add(u, np.multiply(0.5 * dt, k1, out=v), out=v), k2)
        f(np.add(u, np.multiply(0.5 * dt, k2, out=v), out=v), k3)
        f(np.add(u, np.multiply(dt, k3, out=v), out=v), k4)
        np.add(k1, np.multiply(2.0, k2, out=v), out=v)
        np.add(v, np.multiply(2.0, k3, out=k2), out=v)
        np.add(v, k4, out=v)
        return u + np.multiply(dt / 6.0, v, out=v)
    return step


def step_rk4(u: GridFn, dt: float, lam: float, dealias: bool = True,
             advect: str = "central") -> GridFn:
    """One classical RK4 step; raises OverflowAbort on non-finite output."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    f = _make_rhs(KernelOp(u.domain, u.n), lam, dealias, advect)
    # overflow here is detected and reported, not a numerical accident
    with np.errstate(over="ignore", invalid="ignore"):
        out = _rk4(f, u.n)(u.values, dt)
    if not np.all(np.isfinite(out)):
        raise OverflowAbort("numerical overflow: the step is not finite")
    return u.with_values(out)


def run_strong(u0: GridFn, cfg: StrongConfig) -> Trajectory:
    """Integrate to T, or stop early when min slope < -stop_slope or on
    numerical overflow (stop_reason records which)."""
    step = _rk4(_make_rhs(KernelOp(u0.domain, u0.n), cfg.lambda_coeff,
                          cfg.dealias, cfg.advect), u0.n)
    rec = _Recorder(u0.domain, u0.n, cfg.snapshot_stride)
    nsteps = int(round(cfg.T / cfg.dt))
    # a fixed step count, not t < T: accumulated t drifts from k * dt, and
    # rec holds t = 0 plus one record per step taken
    traj = march(u0.values, rec,
                 lambda t, u: cfg.dt if len(rec.times) <= nsteps else None,
                 step,
                 stop=lambda r: r.cols["m1"][-1] < -cfg.stop_slope)
    return replace(traj, config=cfg)


def scaling_transport(traj: Trajectory, lam: float) -> Trajectory:
    """Map a strong run of u_t + l u u_x + K'*u = 0 to v = u/lam, which
    solves v_t + (l lam) v v_x + K'*v = 0 (lam > 0); pointwise division
    throughout."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    series = {name: (vals.copy() if name in ("xi1", "xi2") else vals / lam)
              for name, vals in traj.series.items()}
    cfg = replace(traj.config, lambda_coeff=lam * traj.config.lambda_coeff)
    return replace(traj, times=traj.times.copy(), dts=traj.dts.copy(),
                   series=series, snap_times=traj.snap_times.copy(),
                   snapshots=[s / lam for s in traj.snapshots], config=cfg)
