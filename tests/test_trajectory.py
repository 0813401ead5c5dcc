from types import SimpleNamespace

import numpy as np
import pytest

from fwlab import GridFn, line, run_fv, sample, torus, trajectory
from fwlab.diagnostics import L1StabilityRatio
from fwlab.shock import FVConfig, _marching_fv
from fwlab.strong import StrongConfig, _marching_strong
from fwlab.trajectory import MAX_STEPS, _Recorder, drain, marching


def start(values=0.0):
    """An 8-cell torus state: the constant values, or an array of 8."""
    return GridFn(torus(), np.broadcast_to(values, 8))


def stride(k=1):
    """A config as ``marching`` reads it: its snapshot stride alone."""
    return SimpleNamespace(snapshot_stride=k)


def steps_of(dt, count):
    """next_dt rule taking exactly `count` steps of size dt, read from the
    run's recorder: t = 0 plus one record per step taken."""
    return lambda t, rec: dt if len(rec.times) <= count else None


def march(u0, cfg, next_dt, step, stop=None, sink=None):
    """The marching run, drained."""
    return drain(marching(u0, cfg, next_dt, step, stop), sink)


def test_march_completes_after_exactly_n_steps():
    traj = march(start(), stride(), steps_of(0.25, 4), lambda u, dt: u + dt)
    assert traj.stop_reason == "completed"
    assert traj.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert traj.dts.tolist() == [0.25] * 4
    assert traj.t_stop == 1.0
    assert np.all(traj.snapshot(-1).values == 1.0)


def test_march_overflow_keeps_the_last_finite_state():
    u0 = np.linspace(1.0, 2.0, 8)
    traj = march(start(u0), stride(), steps_of(0.5, 10),
                 lambda u, dt: u * 1e200)
    assert traj.stop_reason == "overflow"
    assert traj.t_stop == 0.5  # the second step overflows
    assert traj.times.tolist() == [0.0, 0.5]
    assert traj.dts.tolist() == [0.5]  # the overflowing step is not taken
    assert traj.snap_times.tolist() == [0.0, 0.5]
    assert all(np.all(np.isfinite(s)) for s in traj.snapshots)
    assert np.array_equal(traj.snapshots[-1], u0 * 1e200)


def test_march_stops_when_stop_holds():
    traj = march(start(), stride(), steps_of(0.25, 8), lambda u, dt: u + dt,
                 stop=lambda rec: rec.times[-1] >= 0.5)
    assert traj.stop_reason == "slope_threshold"
    assert traj.t_stop == 0.5
    assert traj.times.tolist() == [0.0, 0.25, 0.5]
    assert traj.dts.tolist() == [0.25, 0.25]


@pytest.mark.parametrize("count, snap_times", [
    (4, [0.0, 0.5, 1.0]),    # the stride already snapshots t_stop
    (3, [0.0, 0.5, 0.75]),   # the end state is snapshotted once more
])
def test_march_final_snapshot_is_not_duplicated(count, snap_times):
    traj = march(start(), stride(2), steps_of(0.25, count),
                 lambda u, dt: u + dt)
    assert traj.snap_times.tolist() == snap_times
    assert len(traj.snapshots) == len(snap_times)


def test_march_streams_kept_snapshots_to_a_sink():
    # t = 0, every stride-th record and the forced end, in order
    received = []
    traj = march(start(), stride(2), steps_of(0.25, 5), lambda u, dt: u + dt,
                 sink=lambda t, u: received.append((t, u[0])))
    assert received == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (1.25, 1.25)]
    assert traj.snap_times.tolist() == [0.0, 0.5, 1.0, 1.25]
    assert traj.snapshots == []


def test_a_run_past_the_step_cap_is_refused_before_its_first_step():
    # the solvers' own step rules bound the count from below before a run
    # starts: T/dt exactly for a strong run; for an FV run T over the fixed
    # dt, or over the bound at max|u| = 0, the largest step any state gets
    u0 = sample("peakon", line(-20, 20), 16)
    _marching_strong(u0, StrongConfig(T=1.0, dt=1.0 / MAX_STEPS))
    with pytest.raises(ValueError, match="at least 1000001 steps, more "
                                         "than 1000000"):
        _marching_strong(u0, StrongConfig(T=1.0 + 1e-6, dt=1e-6))
    _marching_fv(u0, FVConfig(T=1.0, dt=1.0 / MAX_STEPS))
    with pytest.raises(ValueError, match="dt=1e-06: the run takes at least"):
        _marching_fv(u0, FVConfig(T=1.0 + 1e-6, dt=1e-6))
    # the bound at speed 0 takes max|u| as 1e-12: cfl h / 1e-12 = 2.5e-7
    with pytest.raises(ValueError, match="cfl=1e-19, eps=0.0, n=16: the run "
                                         "takes at least 4000000 steps"):
        _marching_fv(u0, FVConfig(T=1.0, cfl=1e-19))
    # 2 eps/h overflows, so the largest step is 0: no ZeroDivisionError
    with pytest.raises(ValueError, match="at least inf steps"):
        _marching_fv(u0, FVConfig(T=1.0, eps=1e308))


def test_marching_refuses_the_step_past_the_cap(monkeypatch):
    # a run of exactly MAX_STEPS steps ends; one asked for a step more is
    # refused at the cap, whatever the count before the run allowed
    monkeypatch.setattr(trajectory, "MAX_STEPS", 5)
    cfg = SimpleNamespace(snapshot_stride=1, T=6.0)
    assert len(march(start(), cfg, steps_of(1.0, 5), lambda u, dt: u).dts) == 5
    with pytest.raises(ValueError, match=r"^T=6.0: the run reached t=5 in 5 "
                                         r"steps, the most a run may take$"):
        march(start(), cfg, steps_of(1.0, 6), lambda u, dt: u)


def test_an_fv_run_past_the_cap_is_refused_mid_run(monkeypatch):
    # the FV count before the run is loose (it steps at speed 0): the cap on
    # the steps taken holds the run's own count, k, and not one step more
    u0 = sample("peakon", line(-20, 20), 400)
    k = len(run_fv(u0, FVConfig(T=1.0)).dts)
    assert k > 1
    monkeypatch.setattr(trajectory, "MAX_STEPS", k)
    assert len(run_fv(u0, FVConfig(T=1.0)).dts) == k
    monkeypatch.setattr(trajectory, "MAX_STEPS", k - 1)
    with pytest.raises(ValueError, match=f"in {k - 1} steps"):
        run_fv(u0, FVConfig(T=1.0))


def test_marching_stamps_its_config_and_snapshots_at_its_stride():
    # the run's recorder is built from cfg, and cfg is the Trajectory's
    cfg = StrongConfig(dt=0.25, T=1.25, snapshot_stride=2)
    traj = march(start(), cfg, steps_of(cfg.dt, 5), lambda u, dt: u + dt)
    assert traj.config is cfg
    assert traj.snap_times.tolist() == [0.0, 0.5, 1.0, 1.25]
    assert [s[0] for s in traj.snapshots] == [0.0, 0.5, 1.0, 1.25]
    # so for a solver's run, every third record and the end state
    fcfg = FVConfig(T=0.5, snapshot_stride=3)
    traj = drain(_marching_fv(sample("peakon", line(-20, 20), 400), fcfg))
    assert traj.config is fcfg
    assert traj.times.size > 7
    kept = traj.times[::3]
    assert np.array_equal(traj.snap_times[:kept.size], kept)
    assert traj.snap_times[-1] == traj.t_stop
    assert len(traj.snapshots) == traj.snap_times.size


def test_drain_stores_copies_of_a_state_updated_in_place():
    # the step writes into one array and returns it, so every yielded state
    # after u0 is that array; the stored snapshots must not alias it
    state = np.empty(8)

    def step(u, dt):
        return np.add(u, dt, out=state)
    traj = march(start(), stride(2), steps_of(0.25, 5), step)
    assert [s[0] for s in traj.snapshots] == [0.0, 0.5, 1.0, 1.25]
    assert len({id(s) for s in traj.snapshots}) == 4


def test_marching_advances_only_to_the_snapshot_read():
    # each kept snapshot is yielded as soon as it is kept and read under the
    # reader's error state, not the run's; the run ends when read to its end
    def run_asking(asked):
        """A 5-step run whose next_dt logs the records made when asked."""
        rule = steps_of(0.25, 5)

        def next_dt(t, rec):
            asked.append(len(rec.times))
            return rule(t, rec)
        return marching(start(), stride(2), next_dt, lambda u, dt: u + dt)
    asked = []
    read = [(t, values[0], len(asked), np.geterr()["over"])
            for t, values in run_asking(asked)]
    assert read == [(0.0, 0.0, 0, "warn"), (0.5, 0.5, 2, "warn"),
                    (1.0, 1.0, 4, "warn"), (1.25, 1.25, 6, "warn")]
    assert asked == [1, 2, 3, 4, 5, 6]
    early = []
    run = run_asking(early)
    assert next(run)[0] == 0.0 and early == []
    traj = drain(run)
    assert traj.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
    assert traj.snap_times.tolist() == [0.0, 0.5, 1.0, 1.25]
    assert [s[0] for s in traj.snapshots] == [0.5, 1.0, 1.25]


def test_a_run_overflowing_inside_another_runs_sink_ends_without_warning():
    # the stability check's lockstep: u is advanced inside v's sink, under
    # the default error state; there the squares of u's record at t = 0.5
    # overflow, then its second step does, which must end u as "overflow"
    # without a RuntimeWarning (this suite's settings make one an error)
    u = marching(start(1.0), stride(), steps_of(0.5, 4),
                 lambda u, dt: u * 1e200)
    ratio = L1StabilityRatio(u, 1 / 8)
    drain(marching(start(), stride(), steps_of(0.5, 4), lambda v, dt: v + dt),
          ratio)
    tu = ratio.finish()
    assert (tu.stop_reason, tu.t_stop) == ("overflow", 0.5)
    assert tu.snap_times.tolist() == [0.0, 0.5]
    with pytest.raises(ValueError, match="snapshot times differ"):
        ratio.value()


@pytest.mark.parametrize("dom", [torus(), line(-20, 20)], ids=["torus", "line"])
def test_record_series_are_those_of_fresh_temporaries(rng, dom):
    # the recorder reuses one scratch buffer; every series keeps the bits
    # of the same reductions on freshly allocated arrays
    n = 1000
    h = dom.length / n
    rec = _Recorder(dom, n, 1)
    states = [rng.normal(size=n) * s for s in (1.0, 1e-3, 1e5)]
    for k, u in enumerate(states):
        rec.record(0.1 * k, u)
    for k, u in enumerate(states):
        a = np.abs(u)
        d = np.diff(np.append(u, u[0]) if dom.periodic else u) / h
        expect = {"mass": h * u.sum(), "l1": h * a.sum(),
                  "l2": np.sqrt(h * (u * u).sum()), "linf": a.max(),
                  "m1": d.min(), "m2": d.max(),
                  "xi1": dom.a + ((int(np.argmin(d)) + 1) % n) * h,
                  "xi2": dom.a + ((int(np.argmax(d)) + 1) % n) * h}
        for name, value in expect.items():
            assert rec.cols[name][k] == value, name
    assert rec.snap_times == [0.0, 0.1, 0.2]
