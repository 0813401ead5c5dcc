import math
import re

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from fwlab import (FVConfig, KernelOp, b_formula, cusp_profile,
                   cusp_seed_slope, derivative, diagnostics, kernel_eval,
                   kruzhkov_residual, line, make_test_family,
                   measured_cusp_jump, norm, peakon, residual_scan, run_fv,
                   sample, tw_defect, tw_first_integral, waves)
from fwlab.trajectory import drain, synthetic_trajectory
from fwlab.grid import PROFILES
from fwlab.waves import TravelingWave


def test_peakon_profile_values():
    wave = peakon()
    v = wave.profile
    i0 = np.argmax(v.values)
    assert abs(v.values[i0] - 4.0 / 3.0) < v.h
    # exponential form: v(x)/v(y) = exp(-(x - y)/2) for 0 < y < x
    i1 = np.argmin(np.abs(v.x - 1.0))
    i2 = np.argmin(np.abs(v.x - 2.0))
    expected = math.exp(-(v.x[i2] - v.x[i1]) / 2.0)
    assert v.values[i2] / v.values[i1] == pytest.approx(expected, rel=1e-9)


def test_peakon_speed_scan():
    wave = peakon()
    assert abs(wave.c - 4.0 / 3.0) <= 0.01


def test_residual_scan_minimum_is_unique():
    wave = peakon()
    cs = np.linspace(1.0, 2.0, 101)
    _, osc = residual_scan(wave.profile, cs)
    i = int(np.argmin(osc))
    assert 0 < i < len(cs) - 1
    assert osc[i] < 0.1 * osc[0] and osc[i] < 0.1 * osc[-1]


def test_first_integral_constant_profile():
    # v = c0 on the torus: field is (c0-c)^2/2 + c0 exactly, oscillation 0
    from fwlab import torus
    prof = sample("constant", torus(), 64, value=0.8)
    wave = TravelingWave(c=1.2, profile=prof)
    fi = tw_first_integral(wave)
    expected = 0.5 * (0.8 - 1.2) ** 2 + 0.8
    assert np.abs(fi.values - expected).max() < 1e-12


def test_peakon_first_integral_flat():
    wave = peakon()
    fi = tw_first_integral(wave)
    osc = fi.values.max() - fi.values.min()
    assert osc <= 2e-3
    # the constant equals c^2/2 (8/9 at the true speed) by decay at infinity
    assert np.median(fi.values) == pytest.approx(wave.c ** 2 / 2.0, abs=1e-3)
    assert wave.c ** 2 / 2.0 == pytest.approx(8.0 / 9.0, abs=2e-3)


def test_b_formula_values():
    # 4 * 1.5^{3/2} * sqrt(1/6) = 3 exactly
    assert b_formula(1.5) == pytest.approx(3.0, rel=1e-14)
    assert b_formula(4.0 / 3.0) == 0.0
    # monotone increasing beyond the threshold
    cs = np.linspace(4 / 3 + 1e-6, 4.0, 50)
    bs = [b_formula(c) for c in cs]
    assert all(b2 > b1 for b1, b2 in zip(bs, bs[1:]))
    with pytest.raises(ValueError):
        b_formula(1.0)


@pytest.mark.parametrize("formula, c", [(cusp_seed_slope, 1e77),
                                        (cusp_seed_slope, 1e300),
                                        (b_formula, 1e300)])
def test_cusp_formulas_refuse_a_speed_that_overflows(formula, c):
    # c ** 3 and abs(c) ** 1.5 raised OverflowError, and a product past the
    # float range gave an infinite slope
    with pytest.raises(ValueError,
                       match=re.escape(f"overflows a float at c={c!r}")):
        formula(c)


def test_cusp_seed_slope_energy_identity():
    # oracle: integrate the orbit energy directly; the connecting orbit must
    # satisfy w'(0+)^2 = -2 int_0^{c^2/2} (w + c - sqrt(2w) - c^2/2) dw
    for c in (1.5, 2.0, 1.4):
        E = c * c / 2.0
        w = np.linspace(0, E, 200001)
        g = w + c - np.sqrt(2 * w) - E
        sigma2 = -2.0 * np.trapezoid(g, w)
        assert cusp_seed_slope(c) == pytest.approx(math.sqrt(sigma2), rel=1e-6)


def test_cusp_profile_shape():
    wave = cusp_profile(1.5, n=8000, window=(-30, 30))
    v = wave.profile.values
    x = wave.profile.x
    # even, positive, decaying, crest approaching c at the cusp
    assert np.abs(v - v[::-1]).max() < 1e-9
    assert np.all(v > 0)
    assert v.max() <= 1.5 + 1e-9
    i0 = np.argmin(np.abs(x))
    assert v[i0] > 1.4  # within sqrt-cusp distance of c at half a cell
    assert v[0] < 1e-4 and v[-1] < 1e-4
    # square-root asymptotics near the cusp: v ~ c - sqrt(2 sigma |xi|)
    sigma = cusp_seed_slope(1.5)
    m = (np.abs(x) > 2 * wave.profile.h) & (np.abs(x) < 0.05)
    pred = 1.5 - np.sqrt(2 * sigma * np.abs(x[m]))
    assert np.abs(v[m] - pred).max() < 5e-3


def test_cusp_profile_rejects_small_speed():
    # one bound, 4/3 + 1e-6, stated by cusp_seed_slope, through which
    # cusp_profile and, before construction, the wave command refuse c
    for c in (1.2, 4.0 / 3.0, 4.0 / 3.0 + 5e-7):
        for refuses in (cusp_seed_slope, cusp_profile):
            with pytest.raises(ValueError, match="require c > 4/3"):
                refuses(c)
    assert cusp_seed_slope(4.0 / 3.0 + 2e-6) > 0.0


def _solve_ivp_reference(fun, t0, y0, t_bound):
    """The call the cusp construction made before it had its own stepper."""
    return solve_ivp(fun, (t0, t_bound), y0, method="RK45", rtol=1e-12,
                     atol=1e-16, max_step=0.05, dense_output=True)


@pytest.mark.parametrize("xi_max", [31.0, 61.0])
@pytest.mark.parametrize("c", [4.0 / 3.0 + 2e-6, 1.5, 3.0])
def test_dopri45_is_bit_identical_to_solve_ivp(c, xi_max):
    E, sigma, eps = c * c / 2.0, cusp_seed_slope(c), 1e-8

    def rhs(xi, y):  # the cusp orbit, seeded as _integrate_cusp_half seeds it
        w, wp = y
        return np.array((wp, w + c - math.sqrt(max(2.0 * w, 0.0)) - E))

    y0 = (sigma * eps + 0.5 * (c - E) * eps ** 2, sigma + (c - E) * eps)
    ref = _solve_ivp_reference(rhs, eps, y0, xi_max)
    orbit = waves._dopri45(rhs, eps, y0, xi_max)
    assert ref.status == 0
    assert np.array_equal(orbit.t, ref.t)
    grid = np.linspace(eps, ref.t[-1], 20001)
    assert np.array_equal(orbit(grid), ref.sol(grid))
    # unsorted queries with repeats and exact node values, as cusp_profile
    # asks for |x| on a symmetric grid
    queries = np.concatenate([np.abs(line(-30.0, 30.0).cell_centers(8000)),
                              ref.t[::5], ref.t[1:40]])
    np.random.default_rng(7).shuffle(queries)
    assert np.array_equal(orbit(queries), ref.sol(queries))


def test_dopri45_matches_solve_ivp_through_rejected_steps():
    def forced(t, y):  # the jump at t = 0.5 makes steps fail and shrink
        return np.array([1.0 if t < 0.5 else 50.0, -y[0]])

    ref = _solve_ivp_reference(forced, 0.0, [1.0, 0.0], 2.0)
    orbit = waves._dopri45(forced, 0.0, [1.0, 0.0], 2.0)
    assert np.array_equal(orbit.t, ref.t)
    grid = np.linspace(0.0, 2.0, 4001)
    assert np.array_equal(orbit(grid), ref.sol(grid))


def test_dopri45_failure_stops_where_solve_ivp_does(monkeypatch):
    def blow_up(t, y):  # y = 1/(1 - t): the step size collapses near t = 1
        return y * y

    ref = _solve_ivp_reference(blow_up, 0.0, [1.0], 2.0)
    assert ref.status == -1 and 0.999 < ref.t[-1] < 1.0
    orbit = waves._dopri45(blow_up, 0.0, [1.0], 2.0)
    assert np.array_equal(orbit.t, ref.t)
    real = waves._dopri45
    monkeypatch.setattr(waves, "_dopri45", lambda fun, t0, y0, t_bound:
                        real(blow_up, 0.0, [1.0], t_bound))
    with pytest.raises(ValueError, match="integrator error"):
        waves._integrate_cusp_half(1.5, 31.0)


def test_cusp_first_integral_not_constant():
    wave = cusp_profile(1.5)
    fi = tw_first_integral(wave)
    x = wave.profile.x
    m = np.abs(x) < 10
    osc = fi.values[m].max() - fi.values[m].min()
    assert osc > 0.1  # certifies the cusp is NOT a weak traveling wave


def test_cusp_jump_and_defect():
    wave = cusp_profile(1.5)
    sigma = cusp_seed_slope(1.5)
    jump = measured_cusp_jump(wave)
    assert jump == pytest.approx(2 * sigma, rel=0.05)
    lam1, mismatch = tw_defect(wave)
    # the distributional defect is -(jump of w') times K'
    assert lam1 == pytest.approx(-2 * sigma, rel=0.02)
    assert mismatch < 0.01
    assert abs(lam1) >= 0.5  # bounded away from zero: not a weak solution


def test_peakon_defect_is_zero():
    wave = peakon()
    lam1, mismatch = tw_defect(wave)
    assert abs(lam1) <= 0.5
    # at the exact speed the defect collapses to quadrature noise
    exact = TravelingWave(c=4.0 / 3.0, profile=wave.profile)
    lam1e, mismatch_e = tw_defect(exact)
    assert abs(lam1e) < 1e-4
    assert mismatch_e < 1e-3


def test_cusp_derivative_matches_defect_away_from_origin():
    # d/dxi of the first integral equals lambda1 K' off the cusp
    from fwlab import kernel_eval
    wave = cusp_profile(1.5)
    fi = tw_first_integral(wave)
    D = derivative(fi).values
    x = wave.profile.x
    lam1, _ = tw_defect(wave)
    Kp = np.asarray(kernel_eval("Kprime_line", x))
    m = (np.abs(x) > 0.1) & (np.abs(x) < 6.0)
    rel = np.abs(D[m] - lam1 * Kp[m]).max() / np.abs(lam1 * Kp[m]).max()
    assert rel < 0.05


def test_transported_peakon_is_entropy_admissible():
    # a wave with flat first integral, transported at its own speed,
    # passes the Kruzhkov check
    dom = line(-20, 20)
    n = 2000
    c = 4.0 / 3.0
    traj = drain(synthetic_trajectory(
        dom, n, np.linspace(0, 1, 201),
        lambda x, t: PROFILES["peakon"](x, center=c * t)))
    fam = make_test_family(dom, 1.0)
    lams = np.linspace(-2.0, 2.0, 9)
    kmin = kruzhkov_residual(traj, lams, fam)
    assert kmin >= -1e-4


def test_traveling_waves_as_weak_solutions_in_space_time():
    # in space-time, the transported peakon is a weak solution; the
    # transported cusp leaves the residual A <K'(x - ct), phi> per bump,
    # with A = 2 w'(0+) = sqrt(c^3 (3c - 4) / 3), the jump of ((v - c)^2/2)'
    # at the cusp (Fornberg and Whitham 1978)
    dom = line(-30, 30)
    n = 8000
    times = np.linspace(0.0, 4.0, 401)
    fam = make_test_family(dom, 4.0, 12)
    x = dom.cell_centers(n)

    def residuals(profile, c, x0):
        traj = drain(synthetic_trajectory(
            dom, n, times, lambda x, t: profile(x - x0 - c * t)))
        return diagnostics._residuals(traj, fam)[0]

    peak = residuals(PROFILES["peakon"], 4.0 / 3.0, -2.0)
    assert np.abs(peak).max() < 1e-5
    # at a speed other than its own the peakon is no traveling wave
    assert np.abs(residuals(PROFILES["peakon"], 1.5, -2.0)).max() > 1e-3

    c = 1.5
    cusp = cusp_profile(c, n=n).profile
    resid = residuals(lambda xi: np.interp(xi, cusp.x, cusp.values), c, -3.0)
    # <K'(x - ct), phi> by the trapezoid rule over the snapshot times
    weights = np.full(times.size, times[1] - times[0])
    weights[[0, -1]] /= 2.0
    pairing = sum(w * dom.length / n
                  * np.array([np.dot(kernel_eval("Kprime_line",
                                                 x + 3.0 - c * t),
                                     tf.phi(x, t)) for tf in fam])
                  for w, t in zip(weights, times))
    amplitude = np.dot(resid, pairing) / np.dot(pairing, pairing)
    assert amplitude == pytest.approx(math.sqrt(c ** 3 * (3 * c - 4) / 3),
                                      rel=0.01)


def test_peakon_translation_under_fv_first_order():
    # L1 error against the shifted profile drops at first order in h
    dom = line(-20, 20)
    errs = []
    for n in (1000, 2000):
        u0 = sample("peakon", dom, n)
        traj = run_fv(u0, FVConfig(T=0.5, snapshot_stride=10 ** 9))
        x = dom.cell_centers(n)
        exact = PROFILES["peakon"](x, center=(4.0 / 3.0) * traj.t_stop)
        errs.append((dom.length / n)
                    * np.abs(traj.snapshots[-1] - exact).sum())
    assert errs[1] < 0.75 * errs[0]


def test_tw_defect_solves_each_term_once(monkeypatch):
    wave = peakon()
    calls = {"derivative": 0, "conv_Kprime_values": 0}
    dx, kprime = waves.derivative, KernelOp.conv_Kprime_values

    def counted_dx(g):
        calls["derivative"] += 1
        return dx(g)

    def counted_kprime(self, values):
        calls["conv_Kprime_values"] += 1
        return kprime(self, values)

    monkeypatch.setattr(waves, "derivative", counted_dx)
    monkeypatch.setattr(KernelOp, "conv_Kprime_values", counted_kprime)
    lam1, mismatch = tw_defect(wave)
    assert calls == {"derivative": 1, "conv_Kprime_values": 1}

    # the same fit with each term computed twice, once for D and once for
    # the mismatch scale: reusing the arrays must not change a bit
    op = KernelOp(wave.profile.domain, wave.profile.n)
    x, v = wave.profile.x, wave.profile.values
    W = 0.5 * (v - wave.c) ** 2
    dW = derivative(wave.profile.with_values(W)).values
    D = dW + op.conv_Kprime_values(v)
    Kp = np.asarray(kernel_eval("Kprime_line", x))
    m = (np.abs(x) > 0.1) & (np.abs(x) < 6.0)
    lam1_ref = float(np.sum(D[m] * Kp[m]) / np.sum(Kp[m] * Kp[m]))
    resid = np.abs(D[m] - lam1_ref * Kp[m]).max()
    scale = (np.abs(derivative(wave.profile.with_values(W)).values)
             + np.abs(op.conv_Kprime_values(v)))[m].max()
    assert (lam1, mismatch) == (lam1_ref, float(resid / max(scale, 1e-300)))
