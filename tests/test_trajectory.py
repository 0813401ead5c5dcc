import numpy as np
import pytest

from fwlab import line, torus
from fwlab.trajectory import LiveRun, _Recorder, march, marching


def recorder(stride=1):
    return _Recorder(torus(), 8, stride)


def steps_of(dt, count, rec):
    """next_dt rule taking exactly `count` steps of size dt."""
    return lambda t, u: dt if len(rec.times) <= count else None


def test_march_completes_after_exactly_n_steps():
    rec = recorder()
    traj = march(np.zeros(8), rec, steps_of(0.25, 4, rec),
                 lambda u, dt: u + dt)
    assert traj.stop_reason == "completed"
    assert traj.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert traj.dts.tolist() == [0.25] * 4
    assert traj.t_stop == 1.0
    assert np.all(traj.snapshot(-1).values == 1.0)


def test_march_overflow_keeps_the_last_finite_state():
    rec = recorder()
    u0 = np.linspace(1.0, 2.0, 8)
    traj = march(u0, rec, steps_of(0.5, 10, rec), lambda u, dt: u * 1e200)
    assert traj.stop_reason == "overflow"
    assert traj.t_stop == 0.5  # the second step overflows
    assert traj.times.tolist() == [0.0, 0.5]
    assert traj.dts.tolist() == [0.5]  # the overflowing step is not taken
    assert traj.snap_times.tolist() == [0.0, 0.5]
    assert all(np.all(np.isfinite(s)) for s in traj.snapshots)
    assert np.array_equal(traj.snapshots[-1], u0 * 1e200)


def test_march_stops_when_stop_holds():
    rec = recorder()
    traj = march(np.zeros(8), rec, steps_of(0.25, 8, rec),
                 lambda u, dt: u + dt, stop=lambda r: r.times[-1] >= 0.5)
    assert traj.stop_reason == "slope_threshold"
    assert traj.t_stop == 0.5
    assert traj.times.tolist() == [0.0, 0.25, 0.5]
    assert traj.dts.tolist() == [0.25, 0.25]


@pytest.mark.parametrize("count, snap_times", [
    (4, [0.0, 0.5, 1.0]),    # the stride already snapshots t_stop
    (3, [0.0, 0.5, 0.75]),   # the end state is snapshotted once more
])
def test_march_final_snapshot_is_not_duplicated(count, snap_times):
    rec = recorder(stride=2)
    traj = march(np.zeros(8), rec, steps_of(0.25, count, rec),
                 lambda u, dt: u + dt)
    assert traj.snap_times.tolist() == snap_times
    assert len(traj.snapshots) == len(snap_times)


def test_march_streams_kept_snapshots_to_a_sink():
    # t = 0, every stride-th record and the forced end, in order
    received = []
    rec = _Recorder(torus(), 8, 2,
                    sink=lambda t, u: received.append((t, u[0])))
    traj = march(np.zeros(8), rec, steps_of(0.25, 5, rec),
                 lambda u, dt: u + dt)
    assert received == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (1.25, 1.25)]
    assert traj.snap_times.tolist() == [0.0, 0.5, 1.0, 1.25]
    assert traj.snapshots == []


def test_live_run_advances_only_to_the_snapshot_read():
    # each kept snapshot is read as soon as it is kept, under the caller's
    # error state, not the run's; finish() ends the run, keeping no more
    recs = []

    def start(sink):
        recs.append(_Recorder(torus(), 8, 2, sink))
        return marching(np.zeros(8), recs[-1], steps_of(0.25, 5, recs[-1]),
                        lambda u, dt: u + dt)
    live = LiveRun(start, 1 / 8)
    read = [(t, values[0], len(recs[0].times), np.geterr()["over"])
            for t, values in live]
    assert read == [(0.0, 0.0, 1, "warn"), (0.5, 0.5, 3, "warn"),
                    (1.0, 1.0, 5, "warn"), (1.25, 1.25, 6, "warn")]
    traj = live.finish()
    assert traj.times.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0, 1.25]
    assert traj.snap_times.tolist() == [0.0, 0.5, 1.0, 1.25]
    assert traj.snapshots == []
    early = LiveRun(start, 1 / 8)
    assert next(iter(early))[0] == 0.0
    assert early.finish().times.tolist() == traj.times.tolist()
    assert list(early) == []


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
    assert np.array_equal(rec.snapshots[1], states[1])
