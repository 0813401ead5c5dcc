import math

import numpy as np
import pytest

from fwlab import (FVConfig, KernelOp, b_formula, cusp_profile,
                   cusp_seed_slope, kernel_eval, kruzhkov_residual, line,
                   make_test_family, measured_cusp_jump, norm, peakon,
                   residual_scan, run_fv, sample, tw_defect,
                   tw_first_integral)
from fwlab.trajectory import synthetic_trajectory
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
    wave = peakon(scan=(1.0, 2.0, 401))
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
    with pytest.raises(ValueError):
        cusp_profile(1.2)
    with pytest.raises(ValueError):
        cusp_profile(4.0 / 3.0)


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
    op = KernelOp(wave.profile.domain, wave.profile.n)
    fi = tw_first_integral(wave)
    D = op.dx_values(fi.values)
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
    traj = synthetic_trajectory(
        dom, n, np.linspace(0, 1, 201),
        lambda x, t: PROFILES["peakon"](x, center=c * t))
    fam = make_test_family(dom, 1.0)
    lams = np.linspace(-2.0, 2.0, 9)
    kmin = kruzhkov_residual(traj, lams, fam)
    assert kmin >= -1e-4


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
    calls = {"dx_values": 0, "conv_Kprime_values": 0}

    def counted(name):
        method = getattr(KernelOp, name)

        def wrapper(self, values):
            calls[name] += 1
            return method(self, values)
        return wrapper

    for name in calls:
        monkeypatch.setattr(KernelOp, name, counted(name))
    lam1, mismatch = tw_defect(wave)
    assert calls == {"dx_values": 1, "conv_Kprime_values": 1}

    # the same fit with each term computed twice, once for D and once for
    # the mismatch scale: reusing the arrays must not change a bit
    op = KernelOp(wave.profile.domain, wave.profile.n)
    x, v = wave.profile.x, wave.profile.values
    W = 0.5 * (v - wave.c) ** 2
    D = op.dx_values(W) + op.conv_Kprime_values(v)
    Kp = np.asarray(kernel_eval("Kprime_line", x))
    m = (np.abs(x) > 0.1) & (np.abs(x) < 6.0)
    lam1_ref = float(np.sum(D[m] * Kp[m]) / np.sum(Kp[m] * Kp[m]))
    resid = np.abs(D[m] - lam1_ref * Kp[m]).max()
    scale = (np.abs(op.dx_values(W))
             + np.abs(op.conv_Kprime_values(v)))[m].max()
    assert (lam1, mismatch) == (lam1_ref, float(resid / max(scale, 1e-300)))
