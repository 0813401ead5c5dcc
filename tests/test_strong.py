import math

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded

from fwlab import (GridFn, KernelOp, OverflowAbort, StrongConfig,
                   conv_Kprime, line, norm, rhs, run_strong, sample,
                   scaling_transport, step_rk4, torus)
from fwlab.diagnostics import (convolution_bound_margin,
                               slope_inequality_fractions)
from fwlab.strong import _make_rhs, _rk4


def test_rhs_zero():
    z = sample("zero", torus(), 256)
    assert np.abs(rhs(z, 1.0).values).max() == 0.0


def test_rhs_constant_is_steady():
    c = sample("constant", torus(), 256, value=0.7)
    assert np.abs(rhs(c, 1.0).values).max() < 1e-13
    stepped = step_rk4(c, 1e-2, 1.0)
    assert np.abs(stepped.values - 0.7).max() < 1e-13


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


def test_step_rk4_zero_and_errors():
    z = sample("zero", torus(), 256)
    assert np.all(step_rk4(z, 0.1, 1.0).values == 0.0)
    with pytest.raises(ValueError):
        step_rk4(z, -0.1, 1.0)


def test_step_rk4_order():
    # Richardson oracle: global error at fixed T drops ~16x when dt halves
    # (per-step defect against two half-steps is O(dt^5))
    n = 64
    u = sample("sine", torus(), n, amplitude=0.2, offset=0.5)
    T = 0.1

    def advance(dt):
        v = u
        for _ in range(int(round(T / dt))):
            v = step_rk4(v, dt, 1.0)
        return v.values

    ref = advance(T / 256)
    e1 = np.abs(advance(T / 8) - ref).max()
    e2 = np.abs(advance(T / 16) - ref).max()
    assert 16 * 0.8 < e1 / e2 < 16 * 1.2

    def local_defect(dt):
        one = step_rk4(u, dt, 1.0).values
        half = step_rk4(step_rk4(u, dt / 2, 1.0), dt / 2, 1.0).values
        return np.abs(one - half).max()

    # per-step defect against two half-steps is O(dt^5): ratio ~ 32
    assert 32 * 0.7 < local_defect(1e-2) / local_defect(5e-3) < 32 * 1.3


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


def test_slope_differential_inequalities():
    # m_j' <= -m_j^2 + (m2 - m1)/2 (+ tolerance) at >= 95% of resolved times
    dom = line(-12, 12)
    n = 2048
    u0 = sample("gaussian_derivative", dom, n, beta=2.0)
    traj = run_strong(u0, StrongConfig(dt=5e-4, T=0.4, snapshot_stride=20))
    f1, f2 = slope_inequality_fractions(traj)
    assert f1 >= 0.95
    assert f2 >= 0.95
    assert convolution_bound_margin(traj) >= 0.0


def test_overflow_abort():
    u0 = sample("sine", torus(), 64, amplitude=50.0, offset=0.0)
    traj = run_strong(u0, StrongConfig(dt=0.5, T=10.0, stop_slope=math.inf,
                                       dealias=False))
    assert traj.stop_reason == "overflow"
    assert traj.t_stop < 10.0
    assert np.all(np.isfinite(traj.snapshots[-1]))


@pytest.mark.parametrize("advect", ["central", "upwind"])
def test_overflow_abort_line(advect):
    # a non-finite stage reaches the line kernel solve; the run must stop as
    # overflow at the last finite state, not raise from the solver
    u0 = sample("gaussian", line(-8, 8), 512, amplitude=1e160)
    traj = run_strong(u0, StrongConfig(dt=0.01, T=1.0, stop_slope=math.inf,
                                       advect=advect))
    assert traj.stop_reason == "overflow"
    assert traj.t_stop == 0.0
    assert np.all(np.isfinite(traj.snapshots[-1]))


def test_step_rk4_raises_overflow_abort():
    u = sample("gaussian", line(-8, 8), 512, amplitude=1e160)
    with pytest.raises(OverflowAbort, match="numerical overflow"):
        step_rk4(u, 0.01, 1.0)


def _central_dx_ref(v, h):
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return d


def _rhs_ref(u, lam, op, advect):
    """-lam u u_x - K'*u on the line as whole-array expressions."""
    h = op.h
    conv = _central_dx_ref(cho_solve_banded((op._cho, False), u), h)
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
    assert np.array_equal(rhs(u, lam, advect=advect).values,
                          _rhs_ref(u.values, lam, op, advect))
    assert np.array_equal(step_rk4(u, dt, lam, advect=advect).values,
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

    assert np.array_equal(rhs(u, lam, dealias=dealias).values,
                          ref(u.values))
    assert np.array_equal(step_rk4(u, dt, lam, dealias=dealias).values,
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
