"""Acceptance suite: one test per criterion, one printed line per check.

Criteria that cannot pass at the stated tolerances are asserted as stated
anyway, and the neighbouring checks demonstrate the attainable floor.  Two
such checks fail; each test's docstring gives the measurements:

- AC-2b (L2 drift <= 1e-8 at T = 1): 0.5 + 0.2 sin 2 pi x breaks near
  t ~ 0.8, and no convergent scheme conserves L2 past breaking.
- AC-8a (Kruzhkov residual >= -1e-6 at n = 4000): the residual of the
  first-order field is floored by its O(h) error, -2.26e-5 at n = 4000;
  -1e-6 would need n ~ 9.5e4.  Only a more accurate scheme can move it.
"""

import math

import numpy as np
import pytest

from fwlab import (FVConfig, GridFn, KernelOp, StrongConfig, b_formula,
                   breaking_precheck, conv_K, cusp_profile, derivative,
                   envelope_check, kruzhkov_residual, l1_stability_check, line,
                   make_test_family, measured_cusp_jump, norm, oleinik_check,
                   oleinik_coefficient, peakon, run_fv, run_strong, sample,
                   scaling_transport, torus, tw_defect, viscosity_sweep)
from fwlab.grid import second_difference
from fwlab.trajectory import drain, synthetic_trajectory


# the sub-checks of the running test, moved into its report's
# user_properties by _ac_ledger; tests/conftest.py writes them to ac_table.json
_ROWS = []


def report(name: str, ok: bool, detail: str, value, target: str) -> bool:
    """Print one sub-check line and enter it in the AC ledger: its measured
    value (a number, a list of numbers or None) and its target."""
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    _ROWS.append({"id": name, "pass": bool(ok), "value": value,
                  "target": target, "detail": detail})
    return ok


@pytest.fixture(autouse=True)
def _ac_ledger(record_property):
    # a failing test's sub-checks are entered too: this runs after it fails
    yield
    record_property("ac_rows", _ROWS.copy())
    _ROWS.clear()


def crest_location(x, u, h):
    i = int(np.argmax(u))
    y0, y1, y2 = u[i - 1], u[i], u[i + 1]
    return x[i] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * h


def test_ac1_kernel_identity(rng):
    n = 256
    dom = torus()
    op = KernelOp(dom, n)
    k = np.fft.rfftfreq(n, d=1.0 / n)
    worst = 0.0
    for _ in range(20):
        coefs = rng.normal(size=(2, 40))
        gh = np.zeros(n // 2 + 1, dtype=complex)
        gh[1:41] = coefs[0] + 1j * coefs[1]
        g = np.fft.irfft(gh, n)
        w = op.conv_K_values(g)
        lap = np.fft.irfft(-(2 * np.pi * k) ** 2 * np.fft.rfft(w), n)
        worst = max(worst, np.abs(w - lap - g).max())
    ok_t = report("AC-1a", worst <= 1e-10,
                  f"torus Helmholtz identity residual {worst:.3e} <= 1e-10",
                  worst, "<= 1e-10")
    doml = line(-20, 20)
    opl = KernelOp(doml, 2048)
    g = rng.normal(size=2048)
    w = opl.conv_K_values(g)
    resid = np.abs(w - second_difference(w, opl.h, False) - g)[1:-1].max()
    ok_l = report("AC-1b", resid <= 1e-12,
                  f"line identity interior residual {resid:.3e} <= 1e-12",
                  resid, "<= 1e-12")
    assert ok_t and ok_l


def test_ac2_conservation():
    """Mass and L2 conservation of the strong solver on the torus.

    AC-2b fails by design: 0.5 + 0.2 sin 2 pi x breaks near t ~ 0.8.  The
    slope along characteristics obeys m' = -m^2 + (u - K*u), m0 = -0.4 pi,
    and m0^2 ~ 1.58 dominates the forcing.  The relative L2 drift is 7e-12
    at T = 0.7, 1.9e-9 at 0.8 and 7.3e-7 at 1.0; the max slope grows from
    1.26 to 47.7.  AC-2b' shows the budget is met before breaking.
    """
    u0 = sample("sine", torus(), 256, amplitude=0.2, offset=0.5)
    traj = run_strong(u0, StrongConfig(dt=1e-3, T=1.0))
    mass = traj.series["mass"]
    l2 = traj.series["l2"]
    mass_drift = np.abs(mass - mass[0]).max()
    l2_rel = np.abs(l2 - l2[0]).max() / l2[0]
    ok_mass = report("AC-2a", mass_drift <= 1e-12,
                     f"mass drift {mass_drift:.3e} <= 1e-12",
                     mass_drift, "<= 1e-12")
    ok_l2 = report("AC-2b", l2_rel <= 1e-8,
                   f"relative L2 drift {l2_rel:.3e} <= 1e-8 at T=1 "
                   "(wave breaking near t~0.8 makes this unattainable: "
                   "no convergent scheme conserves L2 past breaking)",
                   l2_rel, "<= 1e-8")
    # the same budget is met over the smooth lifespan
    traj_s = run_strong(u0, StrongConfig(dt=1e-3, T=0.7))
    l2s = traj_s.series["l2"]
    rel_s = np.abs(l2s - l2s[0]).max() / l2s[0]
    report("AC-2b'", rel_s <= 1e-8,
           f"relative L2 drift {rel_s:.3e} <= 1e-8 up to T=0.7 "
           "(pre-breaking; informational)", rel_s, "<= 1e-8")
    assert ok_mass
    assert ok_l2, "L2 conservation to 1e-8 at T=1 is blocked by wave breaking"


def test_ac3_linear_dispersion():
    n = 128
    u0 = sample("sine", torus(), n, amplitude=0.01, offset=0.0)
    traj = run_strong(u0, StrongConfig(dt=1e-3, T=1.0, lambda_coeff=0.0))
    c0 = np.fft.rfft(traj.snapshots[0])[1]
    c1 = np.fft.rfft(traj.snapshots[-1])[1]
    speed = -np.angle(c1 / c0) / (2 * np.pi * traj.t_stop)
    target = 1.0 / (1.0 + 4.0 * math.pi ** 2)
    err = abs(speed - target)
    ok = report("AC-3", err <= 1e-6,
                f"mode-1 phase speed {speed:.9f} vs 1/(1+4pi^2)={target:.9f}, "
                f"err {err:.2e} <= 1e-6", err, "<= 1e-6")
    assert ok


def test_ac4_peakon_transport():
    dom = line(-20, 20)
    runs = {}
    for n in (2000, 4000, 8000):
        u0 = sample("peakon", dom, n)
        runs[n] = run_fv(u0, FVConfig(T=1.0, snapshot_stride=10 ** 9))
    traj = runs[4000]
    x = dom.cell_centers(4000)
    h = dom.length / 4000
    speed = (crest_location(x, traj.snapshots[-1], h)
             - crest_location(x, traj.snapshots[0], h)) / traj.t_stop
    ok_speed = report("AC-4a", abs(speed - 4 / 3) <= 0.02 * 4 / 3,
                      f"crest speed {speed:.4f} within 2% of 4/3",
                      speed, "4/3 +- 2%")
    errs = []
    for n in (2000, 4000):
        fine = runs[2 * n].snapshots[-1].reshape(-1, 2).mean(axis=1)
        errs.append((dom.length / n) * np.abs(runs[n].snapshots[-1] - fine).sum())
    order = math.log2(errs[0] / errs[1])
    ok_order = report("AC-4b", 0.7 <= order <= 1.2,
                      f"L1 self-convergence order {order:.3f} in [0.7, 1.2]",
                      order, "in [0.7, 1.2]")
    assert ok_speed and ok_order


def test_ac5_wave_breaking():
    dom = line(-8, 8)
    n = 20480
    u0 = sample("gaussian_derivative", dom, n, beta=2.0)
    rep = breaking_precheck(u0)
    ok_s = report("AC-5a", rep.condition_met and abs(rep.S - 1.1075) < 2e-3,
                  f"asymmetry margin S = {rep.S:.4f} >= 1",
                  rep.S, ">= 1, 1.1075 +- 2e-3")
    ok_t = report("AC-5b", rep.t_star is not None
                  and abs(rep.t_star - 2 / 3) < 1e-3,
                  f"blow-up bound t* = {rep.t_star:.4f} (= 2/3)",
                  rep.t_star, "2/3 +- 1e-3")
    cfg = StrongConfig(dt=2e-4, T=0.75, stop_slope=1000.0, advect="upwind",
                       snapshot_stride=100)
    traj = run_strong(u0, cfg)
    below = np.nonzero(traj.series["m1"] < -1000.0)[0]
    t_obs = float(traj.times[below[0]]) if below.size else None
    ok_obs = report("AC-5c", t_obs is not None and t_obs <= 0.70,
                    f"min slope crossed -1e3 at t = {t_obs} <= 0.70 "
                    f"(t* = {rep.t_star:.4f})", t_obs, "<= 0.70")
    env_ok, worst, _ = envelope_check(traj)
    ok_env = report("AC-5d", env_ok,
                    f"max slope stayed under the Riccati envelope "
                    f"(worst excess {worst:.3e} <= 0)", worst, "<= 0")
    assert ok_s and ok_t and ok_obs and ok_env


def test_ac6_oleinik():
    dom = line(-20, 20)
    n = 4000
    oks = []
    for label, profile, params in (
            ("step", "step", {"left": 1.0, "right": -1.0, "width": 0.2}),
            ("peakon", "peakon", {})):
        u0 = sample(profile, dom, n, **params)
        u0_l1 = norm(u0, "L1")
        traj = run_fv(u0, FVConfig(T=1.0, snapshot_stride=4))
        for t_check in (0.25, 0.5, 1.0):
            i = int(np.argmin(np.abs(traj.snap_times - t_check)))
            t = float(traj.snap_times[i])
            margin = oleinik_check(traj.snapshot(i), t, u0_l1)
            tol = 1e-8 * oleinik_coefficient(t, u0_l1)
            oks.append(report(
                "AC-6", margin >= -tol,
                f"{label} t={t_check}: margin {margin:.4f} >= {-tol:.2e}",
                margin, f">= {-tol:.2e}"))
    assert all(oks)


def test_ac7_l1_stability():
    dom = line(-20, 20)
    n = 4000
    u0 = sample("peakon", dom, n)
    bump = sample("bump", dom, n, amplitude=0.01, radius=2.0)
    v0 = GridFn(dom, u0.values + bump.values)
    dt = 0.45 * u0.h / (1.0 + norm(u0, "Linf"))
    cfg = FVConfig(T=1.0, dt=dt, snapshot_stride=8)
    tu = run_fv(u0, cfg)
    tv = run_fv(v0, cfg)
    ratio = l1_stability_check(tu, tv)
    ok_ratio = report("AC-7a", ratio <= 1.05,
                      f"L1 stability ratio {ratio:.4f} <= 1.05",
                      ratio, "<= 1.05")
    growth = float(np.max(tu.series["l1"]
                          / (np.exp(tu.times) * tu.series["l1"][0])))
    ok_growth = report("AC-7b", growth <= 1.05,
                       f"L1 growth |u(t)|_1 / (e^t |u0|_1) max {growth:.4f} "
                       "<= 1.05", growth, "<= 1.05")
    assert ok_ratio and ok_growth


def test_ac8_entropy_admissibility():
    """Kruzhkov residual of an admissible run and of a stationary up-jump.

    AC-8a fails by design: the residual of the first-order Godunov/Strang
    field is floored by its O(h) distance to the entropy solution.  At this
    set-up (stride 2, 12 bumps, 9 lambdas) it measures -4.50e-5, -2.26e-5,
    -1.14e-5 and -5.9e-6 at n = 2000, 4000, 8000 and 16000, so -1e-6 would
    need n ~ 9.5e4.  Only a more accurate scheme can move it.  AC-8b shows
    the check still separates the inadmissible up-jump (about -5e-2).
    """
    dom = line(-20, 20)
    n = 4000
    u0 = sample("step", dom, n, left=1.0, right=-1.0, width=0.2)
    traj = run_fv(u0, FVConfig(T=0.5, snapshot_stride=2))
    fam = make_test_family(dom, 0.5)
    lams = np.linspace(-1.5, 1.5, 9)
    kmin = kruzhkov_residual(traj, lams, fam)
    ok_adm = report("AC-8a", kmin >= -1e-6,
                    f"admissible run: min Kruzhkov residual {kmin:.3e} "
                    ">= -1e-6 (first-order field error floors this near "
                    "-2.3e-5 at n=4000, halving per doubling of n)",
                    kmin, ">= -1e-6")
    adv = drain(synthetic_trajectory(dom, n, np.linspace(0, 0.5, 101),
                                     lambda x, t: np.where(x < 0, -1.0, 1.0)))
    kadv = kruzhkov_residual(adv, lams, fam)
    ok_adv = report("AC-8b", kadv <= -1e-3,
                    f"stationary up-jump rejected: min residual {kadv:.3e} "
                    "<= -1e-3", kadv, "<= -1e-3")
    assert ok_adv
    assert ok_adm, ("Kruzhkov floor at the stated tolerance is blocked by "
                    "the O(h) field error of the first-order scheme")


def test_ac9_vanishing_viscosity():
    dom = line(-20, 20)
    u0 = sample("gaussian", dom, 2000)
    pairs = viscosity_sweep(u0, FVConfig(T=0.5))
    dists = [d for _, d in pairs]
    ok_dec = report("AC-9a", dists[0] > dists[1] > dists[2] > 0,
                    f"L1 distances strictly decreasing: "
                    f"{[f'{d:.5f}' for d in dists]}",
                    dists, "strictly decreasing, > 0")
    ratios = [a / b for a, b in zip(dists, dists[1:])]
    ok_ratio = report("AC-9b", all(1.5 <= r <= 2.5 for r in ratios),
                      f"successive ratios {[f'{r:.3f}' for r in ratios]} "
                      "within 2 +- 0.5", ratios, "each 2 +- 0.5")
    assert ok_dec and ok_ratio


def test_ac10_cusp_certificate():
    """The cusped wave at c = 3/2 is a traveling wave but not a weak solution.

    For u_t + u u_x + K*u_x = 0 with K = e^{-|x|}/2, let W = (v-c)^2/2:
    - a decaying wave satisfies the first integral W + K*v = c^2/2;
    - the energy identity along the orbit gives W'(0+-) = +-sqrt(c^3(3c-4)/12);
    - so the jump [W'] is sqrt(c^3(3c-4)/3) = b(c)/4, 0.75 at c = 3/2;
    - applying (1 - d^2) to the first integral gives W' + K'*v = -[W'] K',
      so lambda1 = -[W'], which is 0 for the peakon (c = 4/3).
    """
    c = 1.5
    target = math.sqrt(c ** 3 * (3 * c - 4) / 3)
    b = b_formula(c)
    ok_b = report("AC-10a", abs(b - 3.0) < 1e-12,
                  f"b(3/2) = {b} (exactly 3 from the formula)",
                  b, "3 +- 1e-12")
    wave = cusp_profile(c, n=8000, window=(-30, 30))
    jump = measured_cusp_jump(wave)
    ok_jump = report("AC-10b", abs(jump - target) <= 0.05 * target,
                     f"slope jump of (v-c)^2/2 = {jump:.4f} vs "
                     f"sqrt(c^3(3c-4)/3) = {target:.4f} +- 5%",
                     jump, f"{target:.4f} +- 5%")
    lam1, mismatch = tw_defect(wave)
    ok_lam = report("AC-10c", abs(lam1 + target) <= 0.05 * target,
                    f"defect fit lambda1 = {lam1:.4f} vs -{target:.4f} +- 5% "
                    f"(fit mismatch {mismatch:.2e})",
                    lam1, f"-{target:.4f} +- 5%")
    pk = peakon(n=8000, window=(-30, 30))
    lam1_pk, _ = tw_defect(pk)
    ok_pk = report("AC-10d", abs(lam1_pk) <= 0.5,
                   f"peakon lambda1 = {lam1_pk:.2e} within +-0.5 of 0",
                   lam1_pk, "0 +- 0.5")
    assert ok_b and ok_pk
    assert ok_jump and ok_lam


def test_ac11_operator_bounds(rng):
    n = 1024
    op = KernelOp(torus(), n)
    h = 1.0 / n
    worst_inf, worst_d, worst_skew = 0.0, 0.0, 0.0
    for _ in range(100):
        u = rng.uniform(-1.0, 1.0, size=n)
        ku = op.conv_Kprime_values(u)
        worst_inf = max(worst_inf, np.abs(ku).max() / np.abs(u).max())
        du = derivative(GridFn(torus(), ku)).values
        worst_d = max(worst_d, np.abs(du).max() / np.abs(u).max())
        worst_skew = max(worst_skew, abs(h * np.dot(ku, u)))
    ok1 = report("AC-11a", worst_inf <= 1.02,
                 f"|K'*u|_inf / |u|_inf max {worst_inf:.4f} <= 1.02",
                 worst_inf, "<= 1.02")
    ok2 = report("AC-11b", worst_d <= 2.04,
                 f"|d/dx K'*u|_inf / |u|_inf max {worst_d:.4f} <= 2.04",
                 worst_d, "<= 2.04")
    ok3 = report("AC-11c", worst_skew <= 1e-10,
                 f"skew-symmetry |<K'*v, v>| max {worst_skew:.3e} <= 1e-10",
                 worst_skew, "<= 1e-10")
    assert ok1 and ok2 and ok3


def test_ac12_scaling_symmetry():
    n = 256
    u0 = sample("sine", torus(), n, amplitude=0.2, offset=0.5)
    t1 = scaling_transport(
        run_strong(u0, StrongConfig(dt=1e-3, T=0.5, lambda_coeff=1.0)), 2.0)
    t2 = run_strong(0.5 * u0, StrongConfig(dt=1e-3, T=0.5, lambda_coeff=2.0))
    diff = float(np.abs(t1.snapshots[-1] - t2.snapshots[-1]).max())
    ok = report("AC-12", diff <= 1e-8,
                f"transported lam=2 run equals rescaled run, Linf diff "
                f"{diff:.3e} <= 1e-8", diff, "<= 1e-8")
    assert ok
