import math

import numpy as np
import pytest
from scipy.linalg.lapack import dpttrs

from fwlab import (FVConfig, GridFn, KernelOp, StrongConfig,
                   breaking_precheck, conv_Kprime, kernels, line, norm,
                   run_fv, run_strong, sample, scaling_transport, torus)
from fwlab.strong import _make_rhs, _rk4


def _rhs(u, lam, dealias=True, advect="central"):
    """The semi-discrete right-hand side -lam u u_x - K'*u of u."""
    f = _make_rhs(KernelOp(u.domain, u.n), lam, dealias, advect)
    return f(u.values, np.empty(u.n))


def _one_step(u, dt, lam, dealias=True, advect="central"):
    """The state after one RK4 step of run_strong."""
    cfg = StrongConfig(dt=dt, T=dt, lambda_coeff=lam, dealias=dealias,
                       advect=advect)
    return run_strong(u, cfg).snapshots[-1]


def test_rhs_zero():
    z = sample("zero", torus(), 256)
    assert np.abs(_rhs(z, 1.0)).max() == 0.0


def test_rhs_constant_is_steady():
    c = sample("constant", torus(), 256, value=0.7)
    assert np.abs(_rhs(c, 1.0)).max() < 1e-13
    stepped = _one_step(c, 1e-3, 1.0)  # 1e-2 is past RK4's reach at n = 256
    assert np.abs(stepped - 0.7).max() < 1e-13


def test_linear_mode_phase_speed():
    # lam = 0 makes the dynamics linear; mode k advances at 1/(1+(2 pi k)^2).
    # oracle: phase drift of the k=1 Fourier coefficient over one unit of time
    n = 128
    dom = torus()
    u = sample("sine", dom, n, amplitude=0.01, offset=0.0)
    cfg = StrongConfig(dt=1e-3, T=1.0, lambda_coeff=0.0)
    traj = run_strong(u, cfg)
    c0 = np.fft.rfft(traj.snapshots[0])[1]
    c1 = np.fft.rfft(traj.snapshots[-1])[1]
    dphase = np.angle(c1 / c0)
    speed = -dphase / (2 * np.pi * traj.t_stop)
    assert abs(speed - 1.0 / (1.0 + 4.0 * math.pi ** 2)) < 1e-6


def test_step_rk4_order():
    # Richardson oracle: global error at fixed T drops ~16x when dt halves
    # (per-step defect against two half-steps is O(dt^5))
    n = 64
    u = sample("sine", torus(), n, amplitude=0.2, offset=0.5)
    T = 0.1

    def advance(dt):
        return run_strong(u, StrongConfig(dt=dt, T=T)).snapshots[-1]

    ref = advance(T / 256)
    e1 = np.abs(advance(T / 8) - ref).max()
    e2 = np.abs(advance(T / 16) - ref).max()
    assert 16 * 0.8 < e1 / e2 < 16 * 1.2

    def local_defect(dt):
        one = run_strong(u, StrongConfig(dt=dt, T=dt)).snapshots[-1]
        half = run_strong(u, StrongConfig(dt=dt / 2, T=dt)).snapshots[-1]
        return np.abs(one - half).max()

    # per-step defect against two half-steps is O(dt^5): ratio ~ 32
    assert 32 * 0.7 < local_defect(1e-2) / local_defect(5e-3) < 32 * 1.3


def _solitary_wave(c, xi_max=65.0, dxi=1e-3):
    """The smooth solitary wave v of speed c in (1, 4/3) on the line, as a
    function of xi = x - ct, exact up to the O(dxi^4) of its construction.

    A traveling wave satisfies W'' = W - sqrt(2W) + c - c^2/2, W = (v - c)^2/2,
    whose orbit, in p = c - v = p+ + s^2, is s' = (c - p) sqrt(p - p-)/(4p)
    with s(0) = 0 at the crest, p+- = 4/3 - c +- (2/3) sqrt(4 - 3c) (Fornberg
    and Whitham 1978).  s is odd and smooth, so RK4 at the step dxi builds it
    on [0, xi_max] and cubic Hermite interpolation from s and s' samples it.
    """
    root = (2.0 / 3.0) * math.sqrt(4.0 - 3.0 * c)
    p_plus, p_minus = 4.0 / 3.0 - c + root, 4.0 / 3.0 - c - root

    def slope(s):
        p = p_plus + s * s
        return (c - p) * np.sqrt(p - p_minus) / (4.0 * p)

    m = round(xi_max / dxi)
    s = np.zeros(m + 1)
    for k in range(m):
        k1 = slope(s[k])
        k2 = slope(s[k] + 0.5 * dxi * k1)
        k3 = slope(s[k] + 0.5 * dxi * k2)
        k4 = slope(s[k] + dxi * k3)
        s[k + 1] = s[k] + dxi / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    ds = slope(s)

    def v(xi):
        z = np.abs(xi) / dxi
        k = np.minimum(z.astype(int), m - 1)
        t = z - k
        sk = ((1.0 + 2.0 * t) * (1.0 - t) ** 2 * s[k]
              + t * (1.0 - t) ** 2 * dxi * ds[k]
              + t * t * (3.0 - 2.0 * t) * s[k + 1]
              + t * t * (t - 1.0) * dxi * ds[k + 1])
        return c - (p_plus + sk * sk)
    return v


def _solitary_errors(c, run):
    """L1 errors of run(u0, T) from the c solitary wave on line(-60, 60)
    against its translate by cT, T = 1, at n = 1000, 2000 and 4000, and the
    orders between them."""
    v = _solitary_wave(c)
    dom, T = line(-60, 60), 1.0
    errs = []
    for n in (1000, 2000, 4000):
        x = dom.cell_centers(n)
        u0 = GridFn(dom, v(x))
        traj = run(u0, T)
        assert traj.stop_reason == "completed"
        errs.append(u0.h * np.abs(traj.snapshots[-1] - v(x - c * T)).sum())
    return errs, [math.log2(a / b) for a, b in zip(errs, errs[1:])]


def test_central_line_rk4_converges_at_order_2_to_the_solitary_wave():
    # an exact nonlinear reference for the strong line solver: the c = 1.2
    # solitary wave, translated by cT.  The L1 errors read 9.38e-4, 2.35e-4
    # and 5.87e-5 at n = 1000, 2000 and 4000, orders 1.9994 and 1.9999
    assert _solitary_wave(1.2)(np.array([0.0]))[0] == pytest.approx(
        0.645030, abs=1e-6)
    errs, orders = _solitary_errors(1.2, lambda u0, T: run_strong(
        u0, StrongConfig(dt=1e-3, T=T, snapshot_stride=1000)))
    assert all(1.95 <= o <= 2.05 for o in orders), (errs, orders)


def test_upwind_line_rk4_converges_at_order_1_to_the_solitary_wave():
    # the upwind scheme on the taller c = 1.3 wave: L1 errors 5.351e-2,
    # 2.763e-2 and 1.406e-2, orders 0.954 and 0.975
    errs, orders = _solitary_errors(1.3, lambda u0, T: run_strong(
        u0, StrongConfig(dt=1e-3, T=T, advect="upwind",
                         snapshot_stride=1000)))
    assert all(0.9 <= o <= 1.05 for o in orders), (errs, orders)


def test_fv_strang_converges_at_order_1_to_the_solitary_wave():
    # the weak solver at cfl 0.45 on the same wave: L1 errors 4.315e-2,
    # 2.191e-2 and 1.106e-2, orders 0.978 and 0.987
    errs, orders = _solitary_errors(
        1.3, lambda u0, T: run_fv(u0, FVConfig(T=T, cfl=0.45)))
    assert all(0.9 <= o <= 1.05 for o in orders), (errs, orders)


def test_run_strong_zero_stays_zero():
    traj = run_strong(sample("zero", torus(), 64),
                      StrongConfig(dt=1e-2, T=0.2))
    for snap in traj.snapshots:
        assert np.all(snap == 0.0)
    assert traj.stop_reason == "completed"


def test_conservation_smooth_run():
    # smooth pre-breaking run conserves mass to roundoff and L2 to 1e-8
    u0 = sample("sine", torus(), 256, amplitude=0.2, offset=0.5)
    traj = run_strong(u0, StrongConfig(dt=1e-3, T=0.5))
    mass = traj.series["mass"]
    l2 = traj.series["l2"]
    assert np.abs(mass - mass[0]).max() < 1e-12
    assert np.abs(l2 - l2[0]).max() / l2[0] < 1e-8


def test_sup_norm_bounds_along_run():
    # |u(t)|_inf <= |u0|_inf + t |u0|_2 and |K'*u|_inf <= |u0|_2 (2% slack)
    dom = line(-12, 12)
    n = 2048
    u0 = sample("gaussian_derivative", dom, n, beta=2.0)
    l2_0 = norm(u0, "L2")
    linf_0 = norm(u0, "Linf")
    traj = run_strong(u0, StrongConfig(dt=5e-4, T=0.4, snapshot_stride=40))
    for t, linf in zip(traj.times, traj.series["linf"]):
        assert linf <= 1.02 * (linf_0 + t * l2_0)
    for snap in traj.snapshots:
        conv = conv_Kprime(GridFn(dom, snap))
        assert norm(conv, "Linf") <= 1.02 * l2_0


def _slope_inequality_fractions(traj):
    """Fraction of recorded times where the one-sided slope bounds
    m_j' <= -m_j^2 + (m2 - m1)/2 + tol hold (centered differences in t),
    tol = 0.05 (1 + m_j^2).

    Only times where |m1| stays below half a grid slope, 0.5/h, count.
    """
    t = traj.times
    if t.size < 3:
        raise ValueError("trajectory too short for derivative estimates")
    out = []
    gap = 0.5 * (traj.series["m2"] - traj.series["m1"])
    for name in ("m1", "m2"):
        m = traj.series[name]
        dm = (m[2:] - m[:-2]) / (t[2:] - t[:-2])
        mid = m[1:-1]
        bound = -mid ** 2 + gap[1:-1] + 0.05 * (1.0 + mid ** 2)
        ok = dm <= bound
        resolved = np.abs(traj.series["m1"][1:-1]) <= 0.5 / traj.h
        if not resolved.any():
            out.append(1.0)
            continue
        out.append(float(ok[resolved].mean()))
    return tuple(out)


def _convolution_bound_margin(traj) -> float:
    """Worst margin of (K*u_xx)(xi_j) >= (m1 - m2)/2 - tol over snapshots,
    tol = 0.05 (1 + m2 - m1).

    K*u_xx is evaluated through the kernel identity K*u'' = K*u - u, which
    is exact for the discrete operator.
    """
    op = KernelOp(traj.domain, traj.n)
    x = traj.domain.cell_centers(traj.n)
    worst = math.inf
    for tk, u in zip(traj.snap_times, traj.snapshots):
        i = int(np.argmin(np.abs(traj.times - tk)))
        m1 = traj.series["m1"][i]
        m2 = traj.series["m2"][i]
        conv = op.conv_K_values(u) - u
        lower = 0.5 * (m1 - m2)
        tol = 0.05 * (1.0 + m2 - m1)
        for name in ("xi1", "xi2"):
            xi = traj.series[name][i]
            j = int(np.argmin(np.abs(x - xi)))
            worst = min(worst, float(conv[j] - (lower - tol)))
    return worst


def test_slope_differential_inequalities():
    # m_j' <= -m_j^2 + (m2 - m1)/2 (+ tolerance) at >= 95% of resolved times
    dom = line(-12, 12)
    n = 2048
    u0 = sample("gaussian_derivative", dom, n, beta=2.0)
    traj = run_strong(u0, StrongConfig(dt=5e-4, T=0.4, snapshot_stride=20))
    f1, f2 = _slope_inequality_fractions(traj)
    assert f1 >= 0.95
    assert f2 >= 0.95
    assert _convolution_bound_margin(traj) >= 0.0


def test_blowup_time_from_the_resolved_riccati_rate():
    # along the minimum slope m1' = -m1^2 + O(sup|u|), so 1/m1 is a line of
    # slope 1 near the blow-up time T*, read here while the grid resolves it
    u0 = sample("gaussian_derivative", line(-8, 8), 5120, beta=2.0)
    cfg = StrongConfig(dt=2e-4, T=0.5, advect="upwind", stop_slope=1e300)
    traj = run_strong(u0, cfg)
    t, m1 = traj.times, traj.series["m1"]
    rate = np.gradient(1.0 / m1, t)
    i = int(np.argmax(m1 < -5.0))
    assert m1[i] < -5.0
    assert rate[i] == pytest.approx(1.0, rel=0.02)
    t_blow = t[i] - (1.0 / m1[i]) / rate[i]
    assert t[i] < t_blow <= breaking_precheck(u0).t_star


def test_overflow_abort():
    # u^2 overflows in the first stage at a step far inside RK4's reach
    u0 = sample("sine", torus(), 64, amplitude=1e160, offset=0.0)
    traj = run_strong(u0, StrongConfig(dt=1e-170, T=1e-169,
                                       stop_slope=math.inf, dealias=False))
    assert traj.stop_reason == "overflow"
    assert traj.t_stop == 0.0
    assert np.all(np.isfinite(traj.snapshots[-1]))


@pytest.mark.parametrize("advect", ["central", "upwind"])
def test_overflow_abort_line(advect):
    # a non-finite stage reaches the line kernel solve; the run must stop as
    # overflow at the last finite state, not raise from the solver
    u0 = sample("gaussian", line(-8, 8), 512, amplitude=1e160)
    traj = run_strong(u0, StrongConfig(dt=1e-170, T=1e-169,
                                       stop_slope=math.inf, advect=advect))
    assert traj.stop_reason == "overflow"
    assert traj.t_stop == 0.0
    assert np.all(np.isfinite(traj.snapshots[-1]))


@pytest.mark.parametrize("domain, dealias, advect, k_max_h, reach", [
    (torus(), True, "central", 2.0 * math.pi / 3.0, 2.0 * math.sqrt(2.0)),
    (torus(), False, "central", math.pi, 2.0 * math.sqrt(2.0)),
    (line(-8, 8), True, "central", 1.0, 2.0 * math.sqrt(2.0)),
    (line(-8, 8), True, "upwind", 1.0, 1.3926),
], ids=["torus-dealiased", "torus", "line-central", "line-upwind"])
def test_step_past_rk4_reach_is_refused(domain, dealias, advect, k_max_h,
                                        reach):
    # one step from max|u| = 0.5: the guard holds dt lam max|u| k_max to
    # RK4's reach, k_max h fixed by the operator
    u0 = sample("constant", domain, 64, value=-0.5)
    lam = 2.0
    limit = reach * u0.h / (k_max_h * lam * 0.5)
    for dt, ok in ((0.999 * limit, True), (1.001 * limit, False)):
        cfg = StrongConfig(dt=dt, T=dt, lambda_coeff=lam, dealias=dealias,
                           advect=advect)
        if ok:
            assert run_strong(u0, cfg).stop_reason == "completed"
        else:
            with pytest.raises(ValueError, match="time step too large"):
                run_strong(u0, cfg)


def _central_dx_ref(v, h):
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return d


def _rhs_ref(u, lam, op, advect):
    """-lam u u_x - K'*u on the line as whole-array expressions."""
    h = op.h
    conv = _central_dx_ref(dpttrs(op._d, op._e, u)[0], h)
    if advect == "central":
        return -lam * u * _central_dx_ref(u, h) - conv
    back = np.empty_like(u)
    back[1:] = (u[1:] - u[:-1]) / h
    back[0] = u[0] / h
    fwd = np.empty_like(u)
    fwd[:-1] = back[1:]
    fwd[-1] = -u[-1] / h
    return -lam * (u * np.where(u > 0.0, back, fwd)) - conv


def _rk4_ref(f, u, dt):
    k1 = f(u)
    k2 = f(u + 0.5 * dt * k1)
    k3 = f(u + 0.5 * dt * k2)
    k4 = f(u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("advect", ["central", "upwind"])
def test_buffered_line_rhs_and_rk4_are_bit_identical(advect):
    # the workspace and stage buffers reorder no operation: the results equal
    # the whole-array expressions bit for bit, also when one closure is
    # reused for 20 chained steps on data that changes sign
    dom, n, lam, dt = line(-8, 8), 512, 1.3, 0.01
    op = KernelOp(dom, n)
    x = dom.cell_centers(n)
    u = GridFn(dom, 1.5 * np.sin(1.7 * x) * np.exp(-(x / 3.0) ** 2) + 0.2)
    assert np.array_equal(_rhs(u, lam, advect=advect),
                          _rhs_ref(u.values, lam, op, advect))
    assert np.array_equal(_one_step(u, dt, lam, advect=advect),
                          _rk4_ref(lambda v: _rhs_ref(v, lam, op, advect),
                                   u.values, dt))
    step = _rk4(_make_rhs(op, lam, True, advect), n)
    v = w = u.values
    for _ in range(20):
        v_new = step(v, dt)
        assert not np.shares_memory(v_new, v)
        v = v_new
        w = _rk4_ref(lambda z: _rhs_ref(z, lam, op, advect), w, dt)
    assert np.array_equal(v, w)
    assert (v > 0).any() and (v < 0).any()


@pytest.mark.parametrize("advect", ["central", "upwind"])
def test_line_rk4_step_takes_four_kernel_solves(monkeypatch, advect):
    # one banded solve per RHS evaluation, four per RK4 step: the count the
    # traced breaking benchmark pins (2,572 steps, 10,288 solves)
    solve, calls = KernelOp._solve, []

    def counting(op, values):
        calls.append(op.n)
        return solve(op, values)

    monkeypatch.setattr(KernelOp, "_solve", counting)
    u0 = sample("gaussian", line(-10, 10), 256)
    traj = run_strong(u0, StrongConfig(dt=0.01, T=0.1, advect=advect))
    assert traj.times.size - 1 == 10
    assert len(calls) == 40


@pytest.mark.parametrize("dealias, per_step", [(True, 16), (False, 8)])
def test_torus_rk4_step_takes_16_or_8_transforms(monkeypatch, dealias,
                                                 per_step):
    # an RHS evaluation transforms u forward and u_x with K'*u back in one
    # two-row call, and dealiasing adds a forward and an inverse transform
    bind, calls = kernels._bind_pocketfft, []

    def counting_bind(n):
        def counted(transform):
            def call(*args):
                calls.append(transform.__name__)
                return transform(*args)
            return call
        return tuple(counted(t) for t in bind(n))

    monkeypatch.setattr(kernels, "_bind_pocketfft", counting_bind)
    u0 = sample("sine", torus(), 128, amplitude=0.2, offset=0.5)
    traj = run_strong(u0, StrongConfig(dt=1e-3, T=1e-2, dealias=dealias))
    assert traj.times.size - 1 == 10
    assert calls.count("rfft") == calls.count("irfft") == 10 * per_step // 2
    assert len(calls) == 10 * per_step


def test_torus_transforms_do_not_call_numpy_fft(monkeypatch):
    # the bound gufuncs stand in for numpy.fft.rfft and irfft, which a torus
    # RK4 step and K'*u no longer call
    n, dt = 256, 1e-3
    u = sample("sine", torus(), n, amplitude=0.2, offset=0.5).values
    op = KernelOp(torus(), n)
    step = _rk4(_make_rhs(op, 1.0, True, "central"), n)(u, dt)
    kpu = op.conv_Kprime_values(u)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.fft called")

    monkeypatch.setattr(np.fft, "rfft", refuse)
    monkeypatch.setattr(np.fft, "irfft", refuse)
    op = KernelOp(torus(), n)
    assert np.array_equal(_rk4(_make_rhs(op, 1.0, True, "central"), n)(u, dt),
                          step)
    assert np.array_equal(op.conv_Kprime_values(u), kpu)


def _torus_rhs_ref(u, lam, op, dealias):
    """-lam u u_x - K'*u on the torus as whole-array expressions."""
    n = op.n
    ik = op._ik.copy()
    if n % 2 == 0:
        ik[-1] = 0.0
    uh = np.fft.rfft(u)
    adv = u * np.fft.irfft(uh * ik, n)
    if dealias:
        ah = np.fft.rfft(adv)
        ah[~(np.fft.rfftfreq(n, d=1.0 / n) <= n // 3)] = 0.0
        adv = np.fft.irfft(ah, n)
    conv = np.fft.irfft(uh * op.multipliers * ik, n)
    return -lam * adv - conv


@pytest.mark.parametrize("lam", [0.0, 1.3])
@pytest.mark.parametrize("dealias", [True, False])
@pytest.mark.parametrize("n", [128, 255, 256])
def test_buffered_torus_rhs_and_rk4_are_bit_identical(n, dealias, lam):
    # the spectral buffers and the one two-row inverse FFT reorder no
    # operation: the results equal the whole-array expressions bit for bit,
    # also when one closure is reused for 20 chained steps
    dom, dt = torus(), 1e-3
    op = KernelOp(dom, n)
    x = dom.cell_centers(n)
    u = GridFn(dom, 0.4 + 0.8 * np.sin(2 * np.pi * x)
               + 0.3 * np.cos(6 * np.pi * x) ** 3)

    def ref(v):
        return _torus_rhs_ref(v, lam, op, dealias)

    assert np.array_equal(_rhs(u, lam, dealias=dealias), ref(u.values))
    assert np.array_equal(_one_step(u, dt, lam, dealias=dealias),
                          _rk4_ref(ref, u.values, dt))
    step = _rk4(_make_rhs(op, lam, dealias, "central"), n)
    v = w = u.values
    for _ in range(20):
        v_new = step(v, dt)
        assert not np.shares_memory(v_new, v)
        v = v_new
        w = _rk4_ref(ref, w, dt)
    assert np.array_equal(v, w)
    assert not np.array_equal(v, u.values)


def test_scaling_transport_identity_and_doubling():
    u0 = sample("sine", torus(), 64, amplitude=0.2, offset=0.5)
    traj = run_strong(u0, StrongConfig(dt=1e-3, T=0.1))
    same = scaling_transport(traj, 1.0)
    assert np.allclose(same.snapshots[-1], traj.snapshots[-1], atol=0)
    halved = scaling_transport(traj, 0.5)
    assert np.allclose(halved.snapshots[-1], 2.0 * traj.snapshots[-1], atol=0)
    with pytest.raises(ValueError):
        scaling_transport(traj, 0.0)


def test_scaling_transport_commutes_with_dynamics():
    # transported lam=1 run equals the lam=2 run from halved data
    n = 64
    u0 = sample("sine", torus(), n, amplitude=0.2, offset=0.5)
    cfg1 = StrongConfig(dt=1e-3, T=0.5, lambda_coeff=1.0)
    cfg2 = StrongConfig(dt=1e-3, T=0.5, lambda_coeff=2.0)
    t1 = scaling_transport(run_strong(u0, cfg1), 2.0)
    t2 = run_strong(0.5 * u0, cfg2)
    diff = np.abs(t1.snapshots[-1] - t2.snapshots[-1]).max()
    assert diff < 1e-8


def test_config_validation():
    with pytest.raises(ValueError):
        StrongConfig(dt=0.0, T=1.0)
    with pytest.raises(ValueError):
        StrongConfig(dt=1e-3, T=1.0, advect="hybrid")
    with pytest.raises(ValueError):
        StrongConfig(dt=1e-3, T=1.0, stop_slope=0.0)
    with pytest.raises(ValueError, match="integer multiple"):
        StrongConfig(dt=0.1, T=0.25)  # would stop at t = 0.2
