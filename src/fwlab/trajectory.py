"""Time-stamped run records and the time-marching loop shared by the strong
and finite-volume solvers."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .grid import Domain, GridFn, slope_extrema_values, write_csv

SERIES_NAMES = ("mass", "l1", "l2", "linf", "m1", "m2", "xi1", "xi2")


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

    ``snapshots`` is empty when the run streamed them to a sink (see
    ``_Recorder``); ``snap_times`` is kept either way.  ``dts[k]`` is the
    step from ``times[k]`` to ``times[k + 1]``; ``stop_reason`` is one of
    ``"completed"``, ``"slope_threshold"``, ``"overflow"``; ``t_stop`` is
    the last valid time; ``config`` is the run's StrongConfig or FVConfig,
    None for a synthetic trajectory.
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
        """The stored snapshots, ``(t, values)`` in order."""
        return zip(self.snap_times, self.snapshots)

    @property
    def t_stop(self) -> float:
        return float(self.times[-1])

    @property
    def h(self) -> float:
        return self.domain.length / self.n


class _Recorder:
    """Accumulates the per-step series and strided snapshots during a run.

    With a sink, each snapshot the recorder would keep is passed to
    ``sink(t, values)`` in place of a stored copy; ``values`` is the run's
    state, so a sink that keeps it must copy it.
    """

    def __init__(self, domain: Domain, n: int, stride: int, sink=None):
        self.domain = domain
        self.n = n
        self.h = domain.length / n
        self.stride = stride
        self.sink = sink
        self.times = []
        self.cols = {name: [] for name in SERIES_NAMES}
        self.snap_times = []
        self.snapshots = []
        # scratch for |values|, values**2 and the slope differences in turn
        self._work = np.empty(n)

    def _keep(self, t: float, values: np.ndarray) -> None:
        self.snap_times.append(t)
        if self.sink is None:
            self.snapshots.append(values.copy())
        else:
            self.sink(t, values)

    def record(self, t: float, values: np.ndarray) -> None:
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
        if (len(self.times) - 1) % self.stride == 0:
            self._keep(t, values)

    def force_snapshot(self, t: float, values: np.ndarray) -> None:
        if self.snap_times and self.snap_times[-1] == t:
            return
        self._keep(t, values)

    def build(self, stop_reason: str, dts) -> Trajectory:
        series = {k: np.asarray(v) for k, v in self.cols.items()}
        return Trajectory(
            domain=self.domain,
            n=self.n,
            times=np.asarray(self.times),
            dts=np.asarray(dts, dtype=np.float64),
            series=series,
            snap_times=np.asarray(self.snap_times),
            snapshots=self.snapshots,
            stop_reason=stop_reason,
        )


def marching(u0: np.ndarray, rec: _Recorder, next_dt, step, stop=None):
    """The time-marching loop, as a generator that yields after each record
    and returns the Trajectory: record u0 at t = 0, then advance
    u <- step(u, dt) while dt = next_dt(t, u) is not None, recording after
    every step.

    A step with non-finite output is not taken and ends the run as
    ``"overflow"`` (the last finite state is kept); ``stop(rec)`` holding
    after a record ends it as ``"slope_threshold"``.  The end state is
    always snapshotted, and the dt of every step taken is kept.  ``drain``
    and ``LiveRun`` advance it with overflow ignored.
    """
    u = u0
    t = 0.0
    dts = []  # one per step taken
    stop_reason = "completed"
    rec.record(t, u)
    yield
    while (dt := next_dt(t, u)) is not None:
        u_new = step(u, dt)
        if not np.isfinite(u_new).all():
            stop_reason = "overflow"
            break
        u = u_new
        t += dt
        dts.append(dt)
        rec.record(t, u)
        yield
        if stop is not None and stop(rec):
            stop_reason = "slope_threshold"
            break
    rec.force_snapshot(t, u)
    return rec.build(stop_reason, dts)


def _advance(run, to_end: bool):
    """Advance a ``marching`` run by one record, or to_end to its end;
    returns its Trajectory once it has ended, else None."""
    # overflow here is detected and reported, not a numerical accident
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            next(run)
            while to_end:
                next(run)
        except StopIteration as end:
            return end.value
    return None


def drain(run) -> Trajectory:
    """Advance a ``marching`` run to its end; returns its Trajectory."""
    return _advance(run, to_end=True)


def march(u0: np.ndarray, rec: _Recorder, next_dt, step,
          stop=None) -> Trajectory:
    """``marching``'s run, drained: the one loop that advances a state."""
    return drain(marching(u0, rec, next_dt, step, stop))


class LiveRun:
    """A run advanced only as far as its snapshots are read.

    ``start(sink)`` is the run's ``marching`` generator with that sink.
    Iterating yields each snapshot ``(t, values)`` the run keeps, in order,
    advancing the run to it and no further; ``values`` is the run's state,
    so a reader that keeps it must copy it.  ``finish()`` advances the run
    to its end, keeping no more snapshots, and returns its Trajectory.
    ``h`` is the cell width, as a Trajectory's.
    """

    def __init__(self, start, h: float):
        self.h = h
        self._kept = []  # the newest snapshot, until it is read
        self._run = start(self._keep)
        self._end = None  # the Trajectory, once the run has ended

    def _keep(self, t: float, values: np.ndarray) -> None:
        if self._kept is not None:
            self._kept.append((t, values))

    def __iter__(self):
        while self._kept or self._end is None:
            if self._kept:
                yield self._kept.pop(0)
            else:
                self._end = _advance(self._run, to_end=False)

    def finish(self) -> Trajectory:
        self._kept = None
        if self._end is None:
            self._end = drain(self._run)
        return self._end


def synthetic_trajectory(domain: Domain, n: int, times, field_fn,
                         sink=None) -> Trajectory:
    """Trajectory built from an analytic field (x, t) -> values.

    Snapshots are recorded at every listed time, or passed to the sink (see
    ``_Recorder``); used for closed-form references (transported profiles,
    stationary jumps) in tests and checks.
    """
    x = domain.cell_centers(n)
    rec = _Recorder(domain, n, 1, sink)
    times = np.asarray(times, dtype=np.float64)
    for t in times:
        rec.record(float(t),
                   np.asarray(field_fn(x, float(t)), dtype=np.float64))
    return rec.build("completed", np.diff(times))


def write_series_csv(traj: Trajectory, path) -> None:
    """Series CSV with header t,mass,l2,linf,m1,m2,xi1,xi2."""
    names = ("mass", "l2", "linf", "m1", "m2", "xi1", "xi2")
    write_csv(path, ("t",) + names,
              [traj.times] + [traj.series[k] for k in names])
