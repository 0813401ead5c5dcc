"""Time-stamped run records and the time-marching loop shared by the strong
and finite-volume solvers."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import Domain, GridFn, slope_extrema_values, write_csv

SERIES_NAMES = ("mass", "l1", "l2", "linf", "m1", "m2", "xi1", "xi2")

# the most steps a run may take: its series cost about 390 bytes a step
# (tracemalloc), so a run at the cap records about 0.4 GB.  ``marching``
# refuses the step past it; ``check_steps`` refuses a run before its first
# step when a lower bound on its count already exceeds it
MAX_STEPS = 10 ** 6


def check_steps(least: float, names: str) -> None:
    """Refuse, before its first step, a run that takes at least ``least``
    steps (inf for a largest step of 0) when that is more than MAX_STEPS;
    ``names`` names the keys that fix the count."""
    if least > MAX_STEPS:
        raise ValueError(f"{names}: the run takes at least {least:.7g} steps, "
                         f"more than {MAX_STEPS}")


def check_span(cfg) -> None:
    """Refuse a StrongConfig or FVConfig with T <= 0 or a stride below 1."""
    if not cfg.T > 0:
        raise ValueError(f"T={cfg.T!r}: expected T > 0")
    if cfg.snapshot_stride < 1:
        raise ValueError(f"snapshot_stride={cfg.snapshot_stride!r}: "
                         f"expected at least 1")


def ends_only(cfg):
    """cfg (a StrongConfig or FVConfig) with a snapshot stride no run
    reaches, so that only the initial and the end state are kept."""
    return replace(cfg, snapshot_stride=10 ** 9)


@dataclass
class Trajectory:
    """Snapshots (subsampled at a stride) plus per-step scalar series.

    ``snapshots`` holds the copies ``drain`` stored, so it is empty when the
    run's snapshots went to a sink; ``snap_times`` is kept either way.
    ``dts[k]`` is the step from ``times[k]`` to ``times[k + 1]``;
    ``stop_reason`` is one of ``"completed"``, ``"slope_threshold"``,
    ``"overflow"``; ``t_stop`` is the last valid time; ``config`` is the
    run's StrongConfig or FVConfig, None for a synthetic trajectory.
    """

    domain: Domain
    n: int
    times: np.ndarray
    dts: np.ndarray
    series: dict
    snap_times: np.ndarray
    snapshots: list
    stop_reason: str = "completed"
    config: object = None

    def snapshot(self, i: int) -> GridFn:
        return GridFn(self.domain, self.snapshots[i])

    def __iter__(self):
        """Yields the stored ``(t, values)`` and returns self, as a run."""
        yield from zip(self.snap_times, self.snapshots)
        return self

    @property
    def t_stop(self) -> float:
        return float(self.times[-1])

    @property
    def h(self) -> float:
        return self.domain.length / self.n


class _Recorder:
    """Accumulates the per-step series during a run and picks its snapshots:
    every stride-th record and the end state."""

    def __init__(self, domain: Domain, n: int, stride: int):
        self.domain = domain
        self.n = n
        self.h = domain.length / n
        self.stride = stride
        self.times = []
        self.cols = {name: [] for name in SERIES_NAMES}
        self.snap_times = []
        # scratch for |values|, values**2 and the slope differences in turn
        self._work = np.empty(n)

    def record(self, t: float, values: np.ndarray) -> bool:
        """Add the series of values at t; returns whether it is a snapshot."""
        h = self.h
        work = self._work
        self.times.append(t)
        self.cols["mass"].append(h * values.sum())
        a = np.abs(values, out=work)
        self.cols["l1"].append(h * a.sum())
        self.cols["linf"].append(a.max())
        sq = np.multiply(values, values, out=work)
        self.cols["l2"].append(np.sqrt(h * sq.sum()))
        m1, xi1, m2, xi2 = slope_extrema_values(
            values, h, self.domain.periodic, self.domain.a, out=work)
        self.cols["m1"].append(m1)
        self.cols["m2"].append(m2)
        self.cols["xi1"].append(xi1)
        self.cols["xi2"].append(xi2)
        kept = (len(self.times) - 1) % self.stride == 0
        if kept:
            self.snap_times.append(t)
        return kept

    def force_snapshot(self, t: float) -> bool:
        """Take the end state, at t, as a snapshot unless its record did;
        returns whether it was taken here."""
        kept = not self.snap_times or self.snap_times[-1] != t
        if kept:
            self.snap_times.append(t)
        return kept

    def build(self, stop_reason: str, dts, config) -> Trajectory:
        series = {k: np.asarray(v) for k, v in self.cols.items()}
        return Trajectory(
            domain=self.domain,
            n=self.n,
            times=np.asarray(self.times),
            dts=np.asarray(dts, dtype=np.float64),
            series=series,
            snap_times=np.asarray(self.snap_times),
            snapshots=[],
            stop_reason=stop_reason,
            config=config,
        )


def marching(u0: GridFn, cfg, next_dt, step, stop=None):
    """The time-marching loop, as a generator of the run's snapshots that
    returns its Trajectory, with ``config`` cfg: record u0 at t = 0, then
    advance u <- step(u, dt) while dt = next_dt(t, rec) is not None,
    recording after every step into ``rec``, the run's ``_Recorder`` at
    cfg.snapshot_stride, and yield ``(t, u)`` at each record ``rec`` keeps as
    a snapshot and at the end state.  ``u`` is the run's state, so a reader
    that keeps it must copy it; ``drain`` stores or streams them.

    A step with non-finite output is not taken and ends the run as
    ``"overflow"`` (the last finite state is kept); ``stop(rec)`` holding
    after a record ends it as ``"slope_threshold"``.  A run that has taken
    MAX_STEPS steps and is asked for another raises ValueError.  The dt of
    every step taken is kept.  Overflow is ignored in the steps and records,
    whose overflow is detected and reported, but not in the reader's code.
    """
    rec = _Recorder(u0.domain, u0.n, cfg.snapshot_stride)
    u = u0.values
    t = 0.0
    dts = []  # one per step taken
    stop_reason = "completed"
    with _ignore_overflow():
        kept = rec.record(t, u)
    if kept:
        yield t, u
    while True:
        with _ignore_overflow():
            if (dt := next_dt(t, rec)) is None:
                break
            if len(dts) == MAX_STEPS:
                raise ValueError(f"T={cfg.T!r}: the run reached t={t:.7g} "
                                 f"in {MAX_STEPS} steps, the most a run may "
                                 f"take")
            u_new = step(u, dt)
            if not np.isfinite(u_new).all():
                stop_reason = "overflow"
                break
            u = u_new
            t += dt
            dts.append(dt)
            kept = rec.record(t, u)
        if kept:
            yield t, u
        if stop is not None and stop(rec):
            stop_reason = "slope_threshold"
            break
    if rec.force_snapshot(t):
        yield t, u
    return rec.build(stop_reason, dts, cfg)


def _ignore_overflow():
    return np.errstate(over="ignore", invalid="ignore")


def drain(run, sink=None) -> Trajectory:
    """Advance a run (a ``marching`` generator, or one of its kind) to its
    end, passing each snapshot to ``sink(t, values)``, or without a sink
    storing a copy of it; returns the run's Trajectory with the copies."""
    stored = []
    keep = sink if sink is not None else (
        lambda t, values: stored.append(values.copy()))
    while True:
        try:
            t, values = next(run)
        except StopIteration as end:
            return replace(end.value, snapshots=stored)
        keep(t, values)


def synthetic_trajectory(domain: Domain, n: int, times, field_fn):
    """An analytic field (x, t) -> values as a run: a generator, as
    ``marching``, that snapshots every listed time and returns the
    Trajectory, so ``drain`` stores or streams it; used for closed-form
    references (transported profiles, stationary jumps) in tests and
    checks.  It keeps its own stride-1 recorder, since ``marching``'s
    accumulated t would not reproduce the listed times bit for bit.
    """
    x = domain.cell_centers(n)
    rec = _Recorder(domain, n, 1)
    times = np.asarray(times, dtype=np.float64)
    for t in times:
        values = np.asarray(field_fn(x, float(t)), dtype=np.float64)
        rec.record(float(t), values)
        yield float(t), values
    return rec.build("completed", np.diff(times), None)


def write_series_csv(traj: Trajectory, path) -> None:
    """Series CSV with header t,mass,l2,linf,m1,m2,xi1,xi2."""
    names = ("mass", "l2", "linf", "m1", "m2", "xi1", "xi2")
    write_csv(path, ("t",) + names,
              [traj.times] + [traj.series[k] for k in names])
