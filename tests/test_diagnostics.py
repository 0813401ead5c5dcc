import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fwlab import (FVConfig, GridFn, KernelOp, StrongConfig, TestFn,
                   breaking_precheck, conservation_report, diagnostics,
                   entropy_report, envelope_check, kruzhkov_residual,
                   l1_stability_check, line, make_test_family, norm,
                   oleinik_check, oleinik_coefficient, riccati_envelope,
                   run_fv, run_strong, sample, slope_extrema, torus,
                   weak_residual)
from fwlab.diagnostics import (EntropyCheck, L1StabilityRatio,
                               ResidualQuadrature)
from fwlab.shock import _marching_fv
from fwlab.strong import _marching_strong
from fwlab.trajectory import SERIES_NAMES, drain, synthetic_trajectory

E = math.e


# ---------------------------------------------------------------------------
# slope extrema

def test_slope_extrema_constant():
    m1, xi1, m2, xi2 = slope_extrema(sample("constant", torus(), 16, value=2.0))
    assert m1 == 0.0 and m2 == 0.0
    assert xi1 == xi2


def test_slope_extrema_sine():
    # oracle: derivative of sin(2 pi x) peaks at 0 and dips at 1/2
    g = sample("sine", torus(), 256, amplitude=1.0, offset=0.0)
    m1, xi1, m2, xi2 = slope_extrema(g)
    assert abs(m1 + 2 * math.pi) < 1e-3
    assert abs(m2 - 2 * math.pi) < 1e-3
    assert xi1 == pytest.approx(0.5, abs=1e-12)
    assert xi2 == pytest.approx(0.0, abs=1e-12)


def test_slope_extrema_gaussian_derivative():
    # u0' = 2(x^2 - 1) e^{-x^2/2}: min -2 at 0, max 4 e^{-3/2} at +-sqrt(3)
    g = sample("gaussian_derivative", line(-20, 20), 4000, beta=2.0)
    m1, xi1, m2, xi2 = slope_extrema(g)
    assert abs(m1 + 2.0) < 1e-3
    assert abs(xi1) <= g.h
    assert abs(m2 - 4 * math.exp(-1.5)) < 1e-3
    assert abs(abs(xi2) - math.sqrt(3)) <= 2 * g.h
    # fine-grid oracle for the maximum of the analytic derivative
    xf = np.linspace(-5, 5, 400001)
    assert abs(np.max(2 * (xf ** 2 - 1) * np.exp(-xf ** 2 / 2))
               - 4 * math.exp(-1.5)) < 1e-9


# ---------------------------------------------------------------------------
# breaking precheck

def test_breaking_precheck_gaussian_derivative():
    u0 = sample("gaussian_derivative", line(-20, 20), 4000, beta=2.0)
    rep = breaking_precheck(u0)
    assert rep.condition_met
    assert rep.S == pytest.approx(2.0 - 4 * math.exp(-1.5), abs=1e-3)
    assert rep.S >= 1.0
    assert rep.M0 == pytest.approx(-1.5, abs=1e-3)
    assert rep.t_star == pytest.approx(2.0 / 3.0, abs=1e-3)


def test_breaking_precheck_symmetric_and_zero():
    rep = breaking_precheck(sample("sine", torus(), 256, amplitude=0.4))
    assert not rep.condition_met
    assert abs(rep.S) < 1e-6
    assert rep.t_star is None
    rep0 = breaking_precheck(sample("zero", torus(), 64))
    assert not rep0.condition_met and rep0.t_star is None


# ---------------------------------------------------------------------------
# Riccati envelope

def ode_oracle(M0, c, t_grid):
    sol = solve_ivp(lambda t, y: c * c - y * y, (0.0, t_grid[-1]), [M0],
                    t_eval=t_grid, rtol=1e-11, atol=1e-13)
    return sol.y[0]


def test_riccati_constant_branch():
    t = np.linspace(0, 3, 7)
    assert np.allclose(riccati_envelope(1.0, 1.0, t), 1.0, atol=0)


def test_riccati_tanh_branch():
    assert riccati_envelope(0.0, 1.0, 1.0) == pytest.approx(math.tanh(1.0),
                                                            rel=1e-12)
    t = np.linspace(0, 2, 21)
    assert np.allclose(riccati_envelope(0.0, 1.0, t), ode_oracle(0.0, 1.0, t),
                       atol=1e-9)
    # negative start above -c still follows the tanh branch
    assert np.allclose(riccati_envelope(-0.5, 1.0, t),
                       ode_oracle(-0.5, 1.0, t), atol=1e-9)


def test_riccati_coth_branch():
    t = np.linspace(0, 2, 21)
    y = riccati_envelope(2.0, 1.0, t)
    assert np.allclose(y, ode_oracle(2.0, 1.0, t), atol=1e-9)
    assert np.all(np.diff(y) < 0)
    assert y[-1] > 1.0
    assert riccati_envelope(2.0, 1.0, 50.0) == pytest.approx(1.0, abs=1e-12)


def test_riccati_degenerate_and_errors():
    t = np.linspace(0, 2, 9)
    assert np.allclose(riccati_envelope(3.0, 0.0, t), 3.0 / (1.0 + 3.0 * t),
                       atol=1e-14)
    with pytest.raises(ValueError):
        riccati_envelope(-1.0, 0.0, t)
    with pytest.raises(ValueError):
        riccati_envelope(-2.0, 1.0, t)
    with pytest.raises(ValueError):
        riccati_envelope(0.0, -1.0, t)


# ---------------------------------------------------------------------------
# Oleinik

def test_oleinik_coefficient_value():
    # 1/t + 2 + 2t(1 + 2 e^t L1) at t = 1, L1 = 1 is 5 + 4e
    assert oleinik_coefficient(1.0, 1.0) == pytest.approx(5 + 4 * E, rel=1e-14)
    with pytest.raises(ValueError):
        oleinik_coefficient(0.0, 1.0)


def test_oleinik_constant_and_downjump():
    c = sample("constant", line(-10, 10), 200, value=0.3)
    assert oleinik_check(c, 1.0, 1.0) > 0.0
    step = sample("step", line(-10, 10), 200, left=1.0, right=-1.0, width=0.1)
    # only upward differences are constrained: a down-jump passes easily
    assert oleinik_check(step, 0.5, norm(step, "L1")) > 0.0


def test_oleinik_detects_steep_upjump():
    bad = sample("step", line(-10, 10), 2000, left=-5.0, right=5.0)
    assert oleinik_check(bad, 0.5, norm(bad, "L1")) < 0.0


# ---------------------------------------------------------------------------
# L1 stability

def _stability_setup():
    """Peakon data u0, v0 = u0 + a 0.01 bump, one fixed-dt FV config."""
    dom = line(-20, 20)
    u0 = sample("peakon", dom, 1000)
    bump = sample("bump", dom, 1000, amplitude=0.01, radius=2.0)
    cfg = FVConfig(T=0.2, dt=0.45 * u0.h / 2.0, snapshot_stride=2)
    return u0, GridFn(dom, u0.values + bump.values), cfg


def test_l1_stability_guards_and_t0():
    u0, v0, cfg = _stability_setup()
    t1 = run_fv(u0, cfg)
    with pytest.raises(ValueError, match="coincide"):
        l1_stability_check(t1, t1)
    with pytest.raises(ValueError, match="snapshot times differ"):
        l1_stability_check(t1, run_fv(v0, replace(cfg, snapshot_stride=3)))
    t2 = run_fv(v0, cfg)
    ratio = l1_stability_check(t1, t2)
    assert ratio >= 1.0 - 1e-12  # the t = 0 term contributes exactly 1
    assert ratio <= 1.05


def test_streamed_l1_stability_equals_the_stored_check():
    u0, v0, cfg = _stability_setup()
    t1 = run_fv(u0, cfg)
    stream = L1StabilityRatio(t1, t1.h)
    t2 = run_fv(v0, cfg, sink=stream)
    assert t2.snapshots == []
    assert t2.snap_times.size == t1.snap_times.size
    assert stream.value() == l1_stability_check(t1, run_fv(v0, cfg))
    # u0 = v0 is refused at t = 0, before the first step
    with pytest.raises(ValueError, match="coincide"):
        run_fv(u0, cfg, sink=L1StabilityRatio(t1, t1.h))
    # a snapshot at a time t1 has not, or fewer snapshots than t1: the run
    # ends, and value() refuses
    for other in (replace(cfg, snapshot_stride=3),
                  replace(cfg, T=10 * cfg.dt)):
        mismatched = L1StabilityRatio(t1, t1.h)
        run_fv(v0, other, sink=mismatched)
        with pytest.raises(ValueError, match="snapshot times differ"):
            mismatched.value()


def test_l1_stability_refuses_runs_on_other_grids():
    u0, v0, cfg = _stability_setup()
    coarse = sample("peakon", u0.domain, u0.n // 2)
    with pytest.raises(ValueError, match="domain/n differ"):
        l1_stability_check(run_fv(u0, cfg), run_fv(coarse, cfg))


def test_l1_ratio_finish_returns_u_for_a_stored_and_a_live_u():
    # a stored u ends as a run does: its iterator returns the Trajectory
    u0, v0, cfg = _stability_setup()
    tu = run_fv(u0, cfg)
    assert L1StabilityRatio(tu, tu.h).finish() is tu
    stream = L1StabilityRatio(tu, tu.h)
    run_fv(v0, cfg, sink=stream)
    assert stream.finish() is tu
    live = L1StabilityRatio(_marching_fv(u0, cfg), u0.h).finish()
    assert live.snapshots == []
    assert np.array_equal(live.times, tu.times)
    # replayed through drain, a stored run gives itself back, copies kept
    again = drain(iter(tu))
    assert np.array_equal(again.times, tu.times)
    assert len(again.snapshots) == len(tu.snapshots)
    for kept, stored in zip(again.snapshots, tu.snapshots):
        assert kept is not stored and np.array_equal(kept, stored)


def test_attach_observation_refuses_an_fv_run():
    u0 = sample("gaussian_derivative", line(-10, 10), 400)
    report = breaking_precheck(u0)
    with pytest.raises(ValueError, match="needs a strong run"):
        diagnostics.attach_observation(report, run_fv(u0, FVConfig(T=0.1)))


@pytest.mark.parametrize("solver", ["fv", "strong"])
def test_live_l1_stability_equals_the_stored_check(solver):
    # u advanced in lockstep with v, as verify runs them: the stored check's
    # ratio exactly, and u's run is its stored run, whose snapshots it reads
    u0, v0, cfg = _stability_setup()
    run, marching = run_fv, _marching_fv
    if solver == "strong":
        cfg = StrongConfig(dt=0.01, T=0.2, advect="upwind", snapshot_stride=2)
        run, marching = run_strong, _marching_strong
    tu = run(u0, cfg)
    stream = L1StabilityRatio(marching(u0, cfg), u0.h)
    run(v0, cfg, sink=stream)
    assert stream.value() == l1_stability_check(tu, run(v0, cfg))
    finished = stream.finish()
    assert finished.snapshots == []
    assert np.array_equal(finished.snap_times, tu.snap_times)
    assert np.array_equal(finished.times, tu.times)
    for name in SERIES_NAMES:
        assert np.array_equal(finished.series[name], tu.series[name])
    assert (finished.stop_reason, finished.config) == (tu.stop_reason, cfg)
    # the ratio of a contraction is its t = 0 term, 1: the snapshots it
    # compares are the stored ones, bit for bit
    pairs = list(zip(marching(u0, cfg), tu, strict=True))
    assert len(pairs) == tu.snap_times.size > 2
    for (t, values), (ts, stored) in pairs:
        assert t == ts and np.array_equal(values, stored)
    # a v with other snapshot times, or fewer, is refused as for stored
    # runs, and u is still read to its end
    for other in (replace(cfg, snapshot_stride=3),
                  replace(cfg, T=10 * cfg.dt)):
        mismatched = L1StabilityRatio(marching(u0, cfg), u0.h)
        run(v0, other, sink=mismatched)
        assert np.array_equal(mismatched.finish().times, tu.times)
        with pytest.raises(ValueError, match="snapshot times differ"):
            mismatched.value()


def _stability_peak(stride: int, live: bool) -> int:
    """The peak traced memory of the L1 stability ratio of two n = 4000 FV
    runs over 445 steps, snapshotted every stride steps: u advanced in
    lockstep with v, or stored first."""
    dom = line(-20, 20)
    u0 = sample("peakon", dom, 4000)
    bump = sample("bump", dom, 4000, amplitude=0.01, radius=2.0)
    v0 = GridFn(dom, u0.values + bump.values)
    cfg = FVConfig(T=1.0, dt=0.45 * u0.h / 2.0, snapshot_stride=stride)
    tracemalloc.start()
    try:
        u = _marching_fv(u0, cfg) if live else run_fv(u0, cfg)
        stream = L1StabilityRatio(u, u0.h)
        run_fv(v0, cfg, sink=stream)
        stream.value()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_live_stability_check_memory_does_not_grow_with_the_snapshots():
    # four times the snapshots: a stored u holds each one, a live u the one
    # compared
    live = [_stability_peak(stride, True) for stride in (16, 4)]
    stored = [_stability_peak(stride, False) for stride in (16, 4)]
    assert live[1] <= 1.1 * live[0]
    assert stored[1] >= 2.0 * stored[0]


# ---------------------------------------------------------------------------
# test functions

def test_testfn_shape_and_derivatives():
    tf = TestFn(x0=0.0, t0=0.5, r=2.0, s=0.3)
    x = np.linspace(-3, 3, 1001)
    assert np.all(tf.phi(x, 0.5) >= 0)
    assert tf.phi(np.array([2.5]), 0.5)[0] == 0.0
    assert tf.phi(np.array([0.0]), 0.9)[0] == 0.0


def test_make_test_family_properties():
    fam = make_test_family(line(-20, 20), t_end=1.0, count=12)
    assert len(fam) == 12
    assert all(tf.t0 - tf.s > 0 for tf in fam)
    assert all(tf.t0 + tf.s < 1.0 for tf in fam)
    assert len({(tf.x0, tf.r) for tf in fam}) == 12


# ---------------------------------------------------------------------------
# weak and Kruzhkov residuals

def _zero_traj(n=256, T=1.0):
    return drain(synthetic_trajectory(line(-20, 20), n, np.linspace(0, T, 81),
                                      lambda x, t: np.zeros_like(x)))


def test_weak_residual_zero_trajectory():
    traj = _zero_traj()
    fam = make_test_family(traj.domain, 1.0)
    assert weak_residual(traj, fam) == 0.0


def test_weak_residual_constant_torus():
    traj = drain(synthetic_trajectory(torus(), 256, np.linspace(0, 1, 101),
                                      lambda x, t: np.full_like(x, 0.7)))
    fam = make_test_family(torus(), 1.0)
    # constants are steady states; quadrature telescopes them exactly
    assert weak_residual(traj, fam) < 1e-13


def test_weak_residual_refuses_a_bump_past_the_last_snapshot():
    traj = _zero_traj(T=0.5)
    with pytest.raises(ValueError, match="support extends past the last"):
        weak_residual(traj, [TestFn(0.0, 0.4, 2.0, 0.2)])


def test_entropy_report_refuses_when_t0_is_nearest_every_oleinik_time():
    # snapshots at t = 0, 2, 4: t = 0 is the nearest to 0.25 and 0.5, and
    # the earlier of two equally near to 1, so no Oleinik time is checked
    traj = drain(synthetic_trajectory(line(-20, 20), 400, [0.0, 2.0, 4.0],
                                      lambda x, t: np.exp(-x * x)))
    with pytest.raises(ValueError, match=r"no snapshot in \(0, t_end\]"):
        entropy_report(traj)


def test_weak_residual_rejects_unresolved():
    traj = _zero_traj(n=32)
    with pytest.raises(ValueError, match="unresolved"):
        weak_residual(traj, [TestFn(0.0, 0.5, 8 * traj.h * 0.9, 0.2)])
    with pytest.raises(ValueError, match="window"):
        weak_residual(traj, [TestFn(-19.5, 0.5, 12.0, 0.2)])


def test_kruzhkov_zero_trajectory():
    traj = _zero_traj()
    fam = make_test_family(traj.domain, 1.0)
    assert abs(kruzhkov_residual(traj, [0.0, -1.0, 2.0], fam)) < 1e-14


def test_kruzhkov_reduction_identity():
    # for |lambda| above the range, E(lambda) = -+ weak residual exactly
    dom = line(-20, 20)
    u0 = sample("peakon", dom, 4000)
    traj = run_fv(u0, FVConfig(T=0.6, snapshot_stride=4))
    fam = make_test_family(dom, 0.6, count=4)
    r = 1.5 * float(np.abs(traj.snapshots[0]).max())
    _, mat = diagnostics._residuals(traj, fam, [r, -r])
    # E(r) + E(-r) = 0 to roundoff, and each equals -+ the weak form
    assert np.abs(mat[0] + mat[1]).max() < 1e-10
    wr = weak_residual(traj, fam)
    assert abs(np.abs(mat).max() - wr) < 1e-12


def test_hand_built_family_wraps_on_the_torus():
    # the residuals wrap x - x0 by the trajectory's domain, so a family built
    # by hand, bumps straddling the seam included, is the default family
    traj = _torus_run()
    fam = make_test_family(traj.domain, float(traj.snap_times[-1]))
    hand = [TestFn(tf.x0, tf.t0, tf.r, tf.s) for tf in fam]
    lams = np.linspace(-0.6, 0.6, 5)
    w, mat = diagnostics._residuals(traj, fam, lams)
    w_hand, mat_hand = diagnostics._residuals(traj, hand, lams)
    assert np.array_equal(w_hand, w)
    assert np.array_equal(mat_hand, mat)


def test_kruzhkov_stationary_burgers_shock_is_clean(monkeypatch):
    # the discrete steady entropy shock (+1 -> -1, source off) makes every
    # quadrature term exact: residuals must be nonnegative to roundoff
    dom = line(-20, 20)
    n = 2000
    traj = drain(synthetic_trajectory(dom, n, np.linspace(0, 1, 201),
                                      lambda x, t: np.where(x < 0, 1.0, -1.0)))
    fam = make_test_family(dom, 1.0)
    lams = np.linspace(-1.5, 1.5, 9)
    # drop the source term by zeroing the convolution: emulate pure Burgers
    monkeypatch.setattr(KernelOp, "conv_Kprime_values",
                        lambda self, values: np.zeros_like(values))
    kmin = kruzhkov_residual(traj, lams, fam)
    assert kmin >= -1e-12


def test_kruzhkov_flags_stationary_upjump():
    # non-entropic expansion shock -1 -> +1 held stationary: strongly negative
    dom = line(-20, 20)
    traj = drain(synthetic_trajectory(dom, 2000, np.linspace(0, 1, 201),
                                      lambda x, t: np.where(x < 0, -1.0, 1.0)))
    fam = make_test_family(dom, 1.0)
    lams = np.linspace(-1.5, 1.5, 9)
    kmin = kruzhkov_residual(traj, lams, fam)
    assert kmin <= -1e-3


def test_kruzhkov_admissible_run_floor():
    # honest floor for the flux-splitting Riemann run: first order in h
    dom = line(-20, 20)
    u0 = sample("step", dom, 4000, left=1.0, right=-1.0, width=0.2)
    traj = run_fv(u0, FVConfig(T=0.5, snapshot_stride=2))
    fam = make_test_family(dom, 0.5)
    lams = np.linspace(-1.5, 1.5, 9)
    kmin = kruzhkov_residual(traj, lams, fam)
    assert kmin > -2e-4


def _reference_residuals(traj, lambdas, family):
    """Direct per-interval quadrature, phi evaluated cell by cell with
    TestFn.phi at every snapshot.  Row 0 is the weak form with its initial
    term, the other rows the Kruzhkov entropies |u - lam|."""
    dom, n, h, t, u = (traj.domain, traj.n, traj.h, traj.snap_times,
                       traj.snapshots)
    x = dom.cell_centers(n)
    xi = dom.a + np.arange(n + 1) * h
    periodic = dom.periodic
    op = KernelOp(dom, n)
    conv = [op.conv_Kprime_values(v) for v in u]
    forms = [(lambda z: z, lambda z: 0.5 * z * z, lambda z: 1.0)]
    forms += [(lambda z, lam=lam: np.abs(z - lam),
               lambda z, lam=lam: np.sign(z - lam) * 0.5 * (z * z - lam * lam),
               lambda z, lam=lam: np.sign(z - lam)) for lam in lambdas]
    out = np.zeros((len(forms), len(family)))
    for j, tf in enumerate(family):
        phi = [tf.phi(x, tk, periodic) for tk in t]
        if periodic:
            g = [np.roll(v, -1) - v
                 for v in (tf.phi(xi[:-1], tk, periodic) for tk in t)]
        else:
            g = [np.diff(tf.phi(xi, tk)) for tk in t]
        out[0, j] = h * np.dot(u[0], phi[0])
        for i, (eta, q, deta) in enumerate(forms):
            for k in range(t.size - 1):
                dt = t[k + 1] - t[k]
                out[i, j] += h * np.dot(0.5 * (eta(u[k]) + eta(u[k + 1])),
                                        phi[k + 1] - phi[k])
                out[i, j] += dt * np.dot(0.5 * (q(u[k]) + q(u[k + 1])),
                                         0.5 * (g[k] + g[k + 1]))
                out[i, j] -= 0.5 * dt * h * (
                    np.dot(deta(u[k]) * conv[k], phi[k])
                    + np.dot(deta(u[k + 1]) * conv[k + 1], phi[k + 1]))
    return out


@pytest.mark.parametrize("dom, n, profile, params, lams", [
    (line(-20, 20), 800, "step", {"left": 1.0, "right": -1.0, "width": 0.2},
     np.linspace(-1.5, 1.5, 5)),
    # the default torus family has bumps straddling the seam
    (torus(), 256, "sine", {"amplitude": 0.5}, np.linspace(-0.6, 0.6, 5)),
], ids=["line", "torus"])
def test_residuals_match_direct_quadrature(dom, n, profile, params, lams):
    traj = run_fv(sample(profile, dom, n, **params),
                  FVConfig(T=0.3, snapshot_stride=2))
    fam = make_test_family(dom, float(traj.snap_times[-1]))
    ref = _reference_residuals(traj, lams, fam)
    _, mat = diagnostics._residuals(traj, fam, lams)
    assert np.abs(mat - ref[1:]).max() <= 1e-13
    assert abs(weak_residual(traj, fam) - np.abs(ref[0]).max()) <= 1e-13
    assert np.abs(ref).max() > 1e-5  # the comparison is not between zeros


def _two_pass_residuals(traj, lambdas, family):
    """The two-pass formulation that the one-pass residuals replaced: the
    weak form and the Kruzhkov entropies each contract every snapshot with
    its own K'*u solve and fresh (L, n) temporaries.  Returns the weak
    residual per bump, initial term included, and the Kruzhkov matrix."""
    x = traj.domain.cell_centers(traj.n)
    xi = traj.domain.a + np.arange(traj.n + 1) * traj.h
    psi = diagnostics._psi
    periodic = traj.domain.periodic
    P = np.column_stack([psi(tf._zx(x, periodic)) for tf in family])
    if periodic:
        Gv = np.column_stack([psi(tf._zx(xi[:-1], periodic)) for tf in family])
        G = np.roll(Gv, -1, axis=0) - Gv
    else:
        G = np.diff(np.column_stack([psi(tf._zx(xi)) for tf in family]),
                    axis=0)
    times = traj.snap_times
    A = np.column_stack([psi(tf._zt(times)) for tf in family])[:, None, :]
    h = traj.h
    dt = np.diff(times)[:, None, None]
    a0, a1 = A[:-1], A[1:]
    op = KernelOp(traj.domain, traj.n)

    def residuals(entropies):
        E, Q, S = [], [], []
        for u in traj.snapshots:
            eta, q, deta = map(np.atleast_2d, entropies(u))
            E.append(eta @ P)
            Q.append(q @ G)
            S.append((deta * op.conv_Kprime_values(u)) @ P)
        E, Q, S = np.array(E), np.array(Q), np.array(S)
        return (h * 0.5 * (E[:-1] + E[1:]) * (a1 - a0)
                + dt * 0.5 * (Q[:-1] + Q[1:]) * 0.5 * (a0 + a1)
                - 0.5 * dt * h * (S[:-1] * a0 + S[1:] * a1)).sum(axis=0)

    lam = np.atleast_1d(np.asarray(lambdas, dtype=np.float64))[:, None]
    w = residuals(lambda u: (u, 0.5 * u * u, 1.0))[0]
    w += h * np.array([np.dot(traj.snapshots[0], tf.phi(x, times[0], periodic))
                       for tf in family])
    mat = residuals(lambda u: (np.abs(u - lam),
                               np.sign(u - lam) * 0.5 * (u * u - lam ** 2),
                               np.sign(u - lam)))
    return w, mat


def _ac8_run(sink=None):
    # the AC-8 set-up: regularised Riemann step, n = 4000, T = 0.5, stride 2
    dom = line(-20, 20)
    u0 = sample("step", dom, 4000, left=1.0, right=-1.0, width=0.2)
    return run_fv(u0, FVConfig(T=0.5, snapshot_stride=2), sink)


def _upjump_run(sink=None, steps=100):
    # the upjump_adversarial set-up: 101 snapshots of a stationary up-jump
    return drain(synthetic_trajectory(
        line(-20, 20), 4000, [0.5 * k / steps for k in range(steps + 1)],
        lambda x, t: np.where(x < 0, -1.0, 1.0)), sink)


def _torus_run(sink=None):
    return run_fv(sample("sine", torus(), 256, amplitude=0.5),
                  FVConfig(T=0.3, snapshot_stride=2), sink)


def _gapped_run(sink=None):
    # disjoint time supports: the needed snapshots fall into two runs
    # separated by idle ones, and the last of the first run and the first of
    # the second are never paired as an interval
    return run_fv(sample("step", line(-20, 20), 800, left=1.0, right=-1.0,
                         width=0.2), FVConfig(T=1.0), sink)


def _strong_run(sink=None):
    # the regularised step under the strong solver's upwind RK4: 101
    # snapshots, one every 5 steps
    u0 = sample("step", line(-20, 20), 2000, left=1.0, right=-1.0, width=0.2)
    return run_strong(u0, StrongConfig(dt=1e-3, T=0.5, snapshot_stride=5,
                                       advect="upwind"), sink)


_GAPPED_FAMILY = [TestFn(-4.0, 0.15, 3.0, 0.1), TestFn(4.0, 0.75, 3.0, 0.1)]

# each case: its run (taking a sink), its levels, its family (None: the
# default one over its window [0, T]) and T
_CASES = {
    "ac8": (_ac8_run, np.linspace(-1.5, 1.5, 9), None, 0.5),
    "upjump": (_upjump_run, np.linspace(-1.5, 1.5, 9), None, 0.5),
    # the default torus family has bumps straddling the seam
    "torus": (_torus_run, np.linspace(-0.6, 0.6, 5), None, 0.3),
    "gapped": (_gapped_run, np.linspace(-1.5, 1.5, 9), _GAPPED_FAMILY, 1.0),
    # a strong run ends at the summed steps, not at T bit for bit, so its
    # streamed and stored reports share a family over [0, T]
    "strong": (_strong_run, np.linspace(-1.5, 1.5, 9),
               make_test_family(line(-20, 20), 0.5), 0.5),
}


def _counting(monkeypatch):
    """From now on, count the conv_Kprime_values calls of every KernelOp in
    the returned dict's "solves"."""
    count = {"solves": 0}
    solve = KernelOp.conv_Kprime_values

    def counted(self, values):
        count["solves"] += 1
        return solve(self, values)
    monkeypatch.setattr(KernelOp, "conv_Kprime_values", counted)
    return count


@pytest.mark.parametrize("case, solves", [("ac8", 58), ("upjump", 1)])
def test_entropy_report_solves_each_needed_snapshot_once(case, solves,
                                                         monkeypatch):
    # one K'*u per snapshot for both residuals, and none for the snapshots
    # whose time factors and both neighbours' are zero for every bump (10 of
    # 68 on AC-8) or that equal the newest contracted one (the up-jump's 85
    # needed snapshots are one field); two passes made 136, 202
    traj = _ac8_run() if case == "ac8" else _upjump_run()
    count = _counting(monkeypatch)
    entropy_report(traj, np.linspace(-1.5, 1.5, 9))
    assert count["solves"] == solves


@pytest.mark.parametrize("case", list(_CASES))
def test_one_pass_residuals_are_bit_identical_to_two_passes(case,
                                                            monkeypatch):
    run, lams, family, _ = _CASES[case]
    traj = run()
    if case == "gapped":
        count = _counting(monkeypatch)
    else:
        family = make_test_family(traj.domain, float(traj.snap_times[-1]))
    w, mat = diagnostics._residuals(traj, family, lams)
    if case == "gapped":
        live = np.pad([any(abs(tf._zt(t)) < 1.0 for tf in family)
                       for t in traj.snap_times], 1)
        needed = live[:-2] | live[1:-1] | live[2:]
        assert count["solves"] == needed.sum()
        assert np.flatnonzero(np.diff(np.flatnonzero(needed)) > 1).size == 1
    ref_w, ref_mat = _two_pass_residuals(traj, lams, family)
    assert np.array_equal(w, ref_w)
    assert np.array_equal(mat, ref_mat)
    assert np.abs(ref_mat).max() > 1e-5  # the comparison is not between zeros
    rep = entropy_report(traj, lams, family)
    assert rep.weak_residual_max == np.abs(ref_w).max()
    assert rep.kruzhkov_min == ref_mat.min()
    assert weak_residual(traj, family) == np.abs(ref_w).max()
    assert kruzhkov_residual(traj, lams, family) == ref_mat.min()


@pytest.mark.parametrize("case", list(_CASES))
def test_streamed_residuals_are_bit_identical_to_stored(case):
    # the same run, its snapshots contracted as they are recorded instead of
    # replayed from the stored trajectory
    run, lams, family, T = _CASES[case]
    traj = run()
    fam = family or make_test_family(traj.domain, T)
    quad = ResidualQuadrature(traj.domain, traj.n, fam, lams)
    streamed = run(quad)
    assert streamed.snapshots == []
    assert np.array_equal(streamed.snap_times, traj.snap_times)
    w, mat = quad.value()
    ref_w, ref_mat = diagnostics._residuals(traj, fam, lams)
    assert np.array_equal(w, ref_w)
    assert np.array_equal(mat, ref_mat)
    assert np.abs(ref_mat).max() > 1e-5  # the comparison is not between zeros
    check = EntropyCheck(traj.domain, traj.n, T, lams, family)
    run(check)
    assert check.value() == entropy_report(traj, lams, family)


@pytest.mark.parametrize("case, solves", [("ac8", 58), ("upjump", 1)])
def test_streamed_check_solves_each_needed_snapshot_once(case, solves,
                                                         monkeypatch):
    # the run's own solves (the FV source step's) are counted apart
    run, lams, _, T = _CASES[case]
    count = _counting(monkeypatch)
    traj = run()
    own = count["solves"]
    check = EntropyCheck(traj.domain, traj.n, T, lams)
    run(check)
    assert count["solves"] - 2 * own == solves


def test_sinks_copy_the_snapshots_they_keep():
    # a run may pass the same state array at every snapshot, overwritten in
    # place: an idle snapshot is contracted only once a later interval needs
    # it, and an Oleinik snapshot is read in value(), so both sinks must
    # keep copies
    traj = _ac8_run()
    lams = np.linspace(-1.5, 1.5, 9)
    family = make_test_family(traj.domain, 0.5)
    quad = ResidualQuadrature(traj.domain, traj.n, family, lams)
    check = EntropyCheck(traj.domain, traj.n, 0.5, lams)
    state = np.empty(traj.n)
    for t, u in zip(traj.snap_times, traj.snapshots):
        np.copyto(state, u)
        quad(t, state)
        check(t, state)
    w, mat = quad.value()
    ref_w, ref_mat = diagnostics._residuals(traj, family, lams)
    assert np.array_equal(w, ref_w)
    assert np.array_equal(mat, ref_mat)
    assert check.value() == entropy_report(traj, lams)


def test_a_stationary_field_is_contracted_once(monkeypatch):
    # the up-jump's snapshots are one field: its rows are contracted once
    # and copied for the others, the bits that contracting each one gives
    dom, lams = line(-20, 20), np.linspace(-1.5, 1.5, 9)
    family = make_test_family(dom, 0.5)

    class EverySnapshot(ResidualQuadrature):
        # the held snapshot is spoilt once its rows are contracted, so no
        # snapshot compares equal to it
        def _contract(self, u, rows):
            super()._contract(u, rows)
            if u is self._prev:
                u.fill(np.nan)

        def __call__(self, t, u):
            super().__call__(t, u)
            if self._paired:
                self._prev.fill(np.nan)

    count = _counting(monkeypatch)
    quad = ResidualQuadrature(dom, 4000, family, lams)
    _upjump_run(quad)
    assert count["solves"] == 1
    ref = EverySnapshot(dom, 4000, family, lams)
    _upjump_run(ref)
    assert count["solves"] == 1 + 85
    (w, mat), (ref_w, ref_mat) = quad.value(), ref.value()
    assert np.array_equal(w, ref_w)
    assert np.array_equal(mat, ref_mat)
    assert np.abs(ref_mat).max() > 1e-5  # the comparison is not between zeros


def _upjump_peak(steps: int, stream: bool) -> int:
    """The peak traced memory of the up-jump's entropy report with steps
    intervals, streamed or from the stored trajectory."""
    lams = np.linspace(-1.5, 1.5, 9)
    tracemalloc.start()
    try:
        if stream:
            check = EntropyCheck(line(-20, 20), 4000, 0.5, lams)
            _upjump_run(check, steps)
            check.value()
        else:
            entropy_report(_upjump_run(steps=steps), lams)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_check_memory_does_not_grow_with_the_snapshots():
    # four times the snapshots: the stored report holds each one, the
    # streamed check the newest snapshot and one per Oleinik time
    streamed = [_upjump_peak(steps, True) for steps in (100, 400)]
    stored = [_upjump_peak(steps, False) for steps in (100, 400)]
    assert streamed[1] <= 1.1 * streamed[0]
    assert stored[1] >= 2.0 * stored[0]


def test_bump_whose_time_factor_underflows_is_refused():
    # psi underflows to 0 for 0.99933 < |zt| < 1: the snapshots at 0.3001
    # and 0.6999 lie inside |t - 0.5| < 0.2 but give this bump exact zeros
    traj = drain(synthetic_trajectory(
        line(-20, 20), 400, [0.0, 0.3001, 0.6999, 1.0],
        lambda x, t: np.where(x < 0, -1.0, 1.0)))
    bump = TestFn(0.0, 0.5, 3.0, 0.2)
    assert not diagnostics._psi(bump._zt(traj.snap_times)).any()
    with pytest.raises(ValueError, match="zero at every snapshot"):
        weak_residual(traj, [bump])
    with pytest.raises(ValueError, match="zero at every snapshot"):
        kruzhkov_residual(traj, [0.0], [bump])


# ---------------------------------------------------------------------------
# conservation and envelope

def test_conservation_report_zero():
    rep = conservation_report(_zero_traj())
    assert rep.mass_drift == 0.0 and rep.l2_drift_rel == 0.0


def test_envelope_check_on_fv_run():
    # smooth decaying data breaking into a shock: the up-slope stays under
    # the Riccati envelope while the down-slope collapses
    dom = line(-20, 20)
    u0 = sample("gaussian_derivative", dom, 4000, beta=2.0)
    traj = run_fv(u0, FVConfig(T=1.0))
    ok, worst, _ = envelope_check(traj)
    assert ok, f"worst excess {worst}"
    assert traj.series["m1"].min() < -50.0  # the shock did form


def test_kruzhkov_pair_flux_identity():
    # oracle: Q(z) must be the antiderivative of eta'(z) z from lam
    from fwlab.diagnostics import _kruzhkov_terms
    lam = 0.4
    for z in (-2.0, -0.3, 0.4, 0.9, 3.0):
        N = 200000
        ds = (z - lam) / N
        mids = lam + (np.arange(N) + 0.5) * ds
        q_oracle = np.sum(np.sign(mids - lam) * mids) * ds
        q = _kruzhkov_terms(z, lam, np.empty((4, 1)))[1]
        assert float(q[0]) == pytest.approx(q_oracle, abs=1e-8)
    # eta is convex with a single kink at lam
    z = np.linspace(-3, 3, 1001)
    eta = _kruzhkov_terms(z, lam, np.empty((4, z.size)))[0]
    assert np.all(eta >= 0)
    assert np.all(np.diff(eta, 2) >= -1e-12)
