"""Method-of-lines solver for the smooth regime of u_t + lam u u_x + K'*u = 0.

Torus: Fourier differentiation with 2/3-rule dealiasing of the quadratic
term, through the real transforms the kernel operator binds from numpy's
pocketfft (4 per dealiased RHS evaluation, 2 without).  Line: second-order
central differences; an optional first-order upwind mode exists for runs
that are driven through wave breaking, where a non-dissipative stencil rings
at the grid scale and contaminates the slope diagnostics (see the breaking
preset).  ``run_strong`` takes exactly T/dt
RK4 steps through ``trajectory.marching``, so T must be a multiple of dt, and
refuses a step past RK4's linear stability reach, so that an unstable run is
not reported the way wave breaking is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import GridFn, _central_dx
from .kernels import KernelOp
from .trajectory import Trajectory, _Recorder, check_span, drain, marching

__all__ = ["StrongConfig", "run_strong", "scaling_transport"]


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
        if not self.dt > 0:
            raise ValueError(f"dt={self.dt!r}: expected dt > 0")
        check_span(self)
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
    here once, so u and out must not be part of it; on the torus the
    operator's transforms write into that workspace and check no shape.  The
    operations and their order are those of -lam u u_x - K'*u written as
    whole-array expressions, so the buffers change no bit of the result."""
    n, h = op.n, op.h

    if op.domain.periodic:
        ik, rfft, irfft = op._ik, op._rfft, op._irfft
        uh, ah = np.empty((2, n // 2 + 1), dtype=complex)
        spec = np.empty((2, n // 2 + 1), dtype=complex)
        ux_h, conv_h = spec
        phys = np.empty((2, n))  # the inverse transforms of spec's rows
        ux, conv = phys
        adv = np.empty(n)

        def f(u, out):
            rfft(u, uh)
            np.multiply(uh, ik, out=ux_h)
            np.multiply(uh, op.multipliers, out=conv_h)
            np.multiply(conv_h, ik, out=conv_h)
            irfft(spec, phys)  # one call for both rows
            np.multiply(u, ux, out=adv)
            if dealias:  # 2/3 rule: keep the modes k <= n // 3
                rfft(adv, ah)
                ah[n // 3 + 1:] = 0.0
                irfft(ah, adv)
            np.multiply(-lam, adv, out=adv)
            return np.subtract(adv, conv, out=out)
        return f

    d = np.empty(n)  # a central difference

    def minus_kprime(u, out):
        return np.subtract(out, op.conv_Kprime_values(u, out=d), out=out)

    if advect == "central":
        def f(u, out):
            np.multiply(-lam, u, out=out)
            out *= _central_dx(u, h, out=d)
            return minus_kprime(u, out)
        return f

    # upwind u_x for the advective term; zero ghost cells at the window
    # (grid._pad's line rule, kept in a preallocated e for speed):
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


def run_strong(u0: GridFn, cfg: StrongConfig, sink=None) -> Trajectory:
    """Integrate to T, or stop early when min slope < -stop_slope or on
    numerical overflow (stop_reason records which).  A sink receives the
    snapshots in place of the trajectory (see ``_Recorder``).

    Before each step the linear stability number dt lam max|u| k_max, with
    k_max = 2 pi n / 3 (torus, dealiased), pi n (torus) or 1/h (line), is
    held to RK4's reach: 2 sqrt 2 on the imaginary axis, or 1.3926 on the
    upwind circle -nu (1 - e^{-i theta}).  Past it the step raises
    ValueError("time step too large"), as ``run_fv``'s CFL guard does."""
    return drain(_marching_strong(u0, cfg, sink))


def _marching_strong(u0: GridFn, cfg: StrongConfig, sink=None):
    """``run_strong``'s run as a ``trajectory.marching`` generator."""
    step = _rk4(_make_rhs(KernelOp(u0.domain, u0.n), cfg.lambda_coeff,
                          cfg.dealias, cfg.advect), u0.n)
    rec = _Recorder(u0.domain, u0.n, cfg.snapshot_stride, sink)
    nsteps = int(round(cfg.T / cfg.dt))
    h = u0.h
    if u0.domain.periodic:
        k_max = 2.0 * np.pi / (3.0 * h) if cfg.dealias else np.pi / h
    else:
        k_max = 1.0 / h
    upwind = cfg.advect == "upwind" and not u0.domain.periodic
    reach = 1.3926 if upwind else 2.0 * np.sqrt(2.0)
    number = cfg.dt * cfg.lambda_coeff * k_max  # times max|u|

    def next_dt(t, u):
        # a fixed step count, not t < T: accumulated t drifts from k * dt,
        # and rec holds t = 0 plus one record per step taken
        if len(rec.times) > nsteps:
            return None
        if number * rec.cols["linf"][-1] > reach:  # max|u| of u, recorded
            raise ValueError("time step too large")
        return cfg.dt

    def stop(r):
        return r.cols["m1"][-1] < -cfg.stop_slope

    traj = yield from marching(u0.values, rec, next_dt, step, stop)
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
