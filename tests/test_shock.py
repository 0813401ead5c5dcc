import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwlab import (FVConfig, GridFn, KernelOp, StrongConfig, Thresholds,
                   godunov_flux, line, norm, run_fv, run_strong, sample,
                   torus, viscosity_sweep)
from fwlab.grid import second_difference
from fwlab.shock import _burgers_update, _dt_bound, _step_values


def brute_force_godunov(ul, ur, npts=20001):
    """Oracle: extremize f(u) = u^2/2 over the Riemann fan by grid scan."""
    lo, hi = min(ul, ur), max(ul, ur)
    u = np.linspace(lo, hi, npts)
    f = 0.5 * u * u
    return f.min() if ul <= ur else max(0.5 * ul * ul, 0.5 * ur * ur)


def test_godunov_flux_cases():
    assert godunov_flux(1.0, 1.0) == 0.5          # consistency
    assert godunov_flux(-1.0, 1.0) == 0.0         # transonic rarefaction
    assert godunov_flux(2.0, -1.0) == 2.0         # shock, max of f
    assert godunov_flux(1.0, 2.0) == 0.5
    assert godunov_flux(-2.0, -1.0) == 0.5
    assert godunov_flux(2.0, 1.0) == 2.0


@given(ul=st.floats(-3, 3), ur=st.floats(-3, 3))
@settings(max_examples=200, deadline=None)
def test_godunov_flux_matches_brute_force(ul, ur):
    assert godunov_flux(ul, ur) == pytest.approx(brute_force_godunov(ul, ur),
                                                 abs=1e-6)


def test_fv_step_zero_and_constant():
    # one fixed-dt step of run_fv
    dom = torus()
    cfg = FVConfig(T=1e-3, dt=1e-3)
    z = sample("zero", dom, 64)
    assert np.all(run_fv(z, cfg).snapshots[-1] == 0.0)
    c = sample("constant", dom, 64, value=0.8)
    out = run_fv(c, cfg)
    assert out.times.tolist() == [0.0, 1e-3]
    assert np.abs(out.snapshots[-1] - 0.8).max() < 1e-14


def test_fv_step_cfl_guard():
    dom = line(-5, 5)
    u = sample("constant", dom, 100, value=2.0)
    cfg = FVConfig(T=1.0, cfl=0.45, dt=1.0)
    with pytest.raises(ValueError, match="time step too large"):
        run_fv(u, cfg)
    # viscous monotone bound dt <= h / (max|u| + 2 eps / h)
    cfg_eps = FVConfig(T=1.0, eps=1.0, dt=0.9 * 0.45 * u.h / 2.0)
    with pytest.raises(ValueError, match="time step too large"):
        run_fv(u, cfg_eps)


def _tv(u, periodic):
    # total variation, across the seam on the torus and counting the zero
    # ghost cells on the line
    e = np.append(u, u[0]) if periodic else np.concatenate(([0.0], u, [0.0]))
    return np.abs(np.diff(e)).sum()


@pytest.mark.parametrize("splitting", ["strang", "lie"])
@pytest.mark.parametrize("domain, n", [(line(-10, 10), 256), (torus(), 400)],
                         ids=["line", "torus"])
def test_fv_step_is_an_l1_contraction_but_for_the_source(domain, n,
                                                         splitting):
    # a monotone Burgers sub-step is an L1 contraction (Crandall and Majda
    # 1980), and each source sub-step u - tau D (u - tau D u / 2) has L1
    # norm at most e^{|D|_1 tau}, D the discrete K'* with column-sum norm
    # |D|_1: one step S obeys |S(u) - S(v)|_1 <= e^{|D|_1 dt} |u - v|_1
    op = KernelOp(domain, n)
    h, periodic = op.h, domain.periodic
    norm_d = np.abs(np.column_stack([op.conv_Kprime_values(e)
                                     for e in np.eye(n)])).sum(axis=0).max()
    rng = np.random.default_rng(1980)
    for k in range(200):
        if k == 0:  # a constant state with one cell moved: the sawtooth case
            u = np.ones(n)
            v = u.copy()
            v[n // 2] += 1e-3
            eps = 0.4 * h / 0.45  # where the old 0.4 h^2 / eps met the CFL
        else:
            u = (rng.uniform(-1, 1)
                 + rng.choice([0.0, 0.1, 1.0]) * rng.standard_normal(n))
            v = u.copy()
            cells = rng.choice(n, rng.integers(1, n + 1), replace=False)
            v[cells] += rng.normal(scale=10.0 ** rng.uniform(-3, 0),
                                   size=cells.size)
            eps = rng.uniform(0, 3) * h * max(np.abs(u).max(), np.abs(v).max())
        cfg = FVConfig(eps=eps, source_splitting=splitting)
        dt = _dt_bound(max(np.abs(u).max(), np.abs(v).max()), h, cfg.cfl, eps)
        d0 = np.abs(u - v).sum()
        d1 = np.abs(_step_values(u, dt, op, cfg)
                    - _step_values(v, dt, op, cfg)).sum()
        assert d1 <= math.exp(norm_d * dt) * d0 * (1 + 1e-12), (k, d1 / d0)
        # the Burgers sub-step alone: a contraction, the max principle (the
        # zero far field included on the line) and no new variation
        burgers = replace(cfg, source_splitting="none")
        su = _step_values(u, dt, op, burgers)
        sv = _step_values(v, dt, op, burgers)
        assert np.abs(su - sv).sum() <= d0 * (1 + 1e-12), k
        lo, hi = u.min(), u.max()
        if not periodic:
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        assert lo - 1e-12 <= su.min() and su.max() <= hi + 1e-12, k
        assert _tv(su, periodic) <= _tv(u, periodic) * (1 + 1e-12), k


def test_lie_splitting_conserves_mass_and_is_first_order_off_strang():
    u0 = sample("sine", torus(), 256, amplitude=0.2, offset=0.5)
    dists = []
    for dt in (1.6e-3, 8e-4):
        lie = run_fv(u0, FVConfig(T=0.4, dt=dt, source_splitting="lie"))
        strang = run_fv(u0, FVConfig(T=0.4, dt=dt))
        mass = lie.series["mass"]
        assert np.abs(mass - mass[0]).max() <= Thresholds.mass_tol
        dists.append(u0.h * np.abs(lie.snapshots[-1]
                                   - strang.snapshots[-1]).sum())
    # Lie is first order in dt, Strang second: their distance halves
    assert 1.8 <= dists[0] / dists[1] <= 2.2


@pytest.mark.parametrize("periodic", [False, True], ids=["line", "torus"])
def test_splitting_none_steps_burgers_alone(rng, periodic):
    dom = torus() if periodic else line(-5, 5)
    op = KernelOp(dom, 200)
    u = rng.normal(size=200)
    cfg = FVConfig(eps=1e-3, source_splitting="none")
    dt = _dt_bound(np.abs(u).max(), op.h, cfg.cfl, cfg.eps)
    burgers = _burgers_update(u, dt, op.h, periodic, cfg.eps)
    assert np.array_equal(_step_values(u, dt, op, cfg), burgers)
    for splitting in ("strang", "lie"):
        with_source = replace(cfg, source_splitting=splitting)
        assert not np.array_equal(_step_values(u, dt, op, with_source),
                                  burgers)


def test_burgers_shock_speed():
    # Riemann 2 -> 0 with the source off: Rankine-Hugoniot speed (2+0)/2 = 1
    dom = line(-20, 20)
    n = 2000
    u0 = sample("step", dom, n, left=2.0, right=0.0, center=-5.0)
    cfg = FVConfig(T=6.0, source_splitting="none", snapshot_stride=10 ** 9)
    traj = run_fv(u0, cfg)
    final = traj.snapshots[-1]
    x = dom.cell_centers(n)
    # search from the right so the window-edge rarefaction is ignored
    front = x[n - 1 - np.argmax(final[::-1] > 1.0)]
    speed = (front - (-5.0)) / traj.t_stop
    assert abs(speed - 1.0) < 2 * u0.h / traj.t_stop + 0.01


def test_run_fv_zero():
    traj = run_fv(sample("zero", line(-5, 5), 100), FVConfig(T=0.5))
    assert all(np.all(s == 0.0) for s in traj.snapshots)


@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_mass_conservation_torus(eps):
    # eps > 0 runs the periodic second difference
    u0 = sample("sine", torus(), 256, amplitude=0.3, offset=0.4)
    traj = run_fv(u0, FVConfig(T=1.0, eps=eps))
    mass = traj.series["mass"]
    assert np.abs(mass - mass[0]).max() < 1e-12


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("periodic", [True, False])
def test_burgers_update_matches_roll_reference(rng, periodic, eps):
    # fluxes over the ghost-padded array give bit for bit what the rolled
    # (torus) and zero-concatenated (line) fluxes gave
    u = rng.normal(size=64)
    dt, h = 1e-3, 1.0 / 64
    if periodic:
        flux_right = godunov_flux(u, np.roll(u, -1))
        flux_left = np.roll(flux_right, 1)
    else:
        flux = godunov_flux(np.concatenate(([0.0], u)),
                            np.concatenate((u, [0.0])))
        flux_left, flux_right = flux[:-1], flux[1:]
    ref = u - (dt / h) * (flux_right - flux_left)
    if eps > 0.0:
        ref = ref + dt * eps * second_difference(u, h, periodic)
    assert np.array_equal(_burgers_update(u, dt, h, periodic, eps), ref)


def test_peakon_transport_crest_speed():
    dom = line(-20, 20)
    u0 = sample("peakon", dom, 4000)
    traj = run_fv(u0, FVConfig(T=1.0, snapshot_stride=10 ** 9))
    x = dom.cell_centers(4000)

    def crest(u):
        i = np.argmax(u)
        y0, y1, y2 = u[i - 1], u[i], u[i + 1]
        return x[i] + 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2) * u0.h

    speed = (crest(traj.snapshots[-1]) - crest(traj.snapshots[0])) / traj.t_stop
    assert abs(speed - 4.0 / 3.0) < 0.02 * 4.0 / 3.0


def test_l1_growth_bound():
    # corollary of L1 stability: |u(t)|_1 <= e^t |u0|_1
    dom = line(-20, 20)
    u0 = sample("peakon", dom, 4000)
    traj = run_fv(u0, FVConfig(T=1.0))
    l1 = traj.series["l1"]
    bound = 1.05 * np.exp(traj.times) * l1[0]
    assert np.all(l1 <= bound)


def test_sup_norm_surrogate():
    dom = line(-20, 20)
    u0 = sample("step", dom, 4000, left=1.0, right=-1.0, width=0.2)
    linf0 = norm(u0, "Linf")
    l2_0 = norm(u0, "L2")
    traj = run_fv(u0, FVConfig(T=0.5))
    for t, linf in zip(traj.times, traj.series["linf"]):
        assert linf <= linf0 + t * l2_0 + 0.02


def test_l2_decays_after_shock():
    # entropy dissipation: for integrable shock-forming data the L2 series
    # never increases and drops strictly once the shock is up
    dom = line(-20, 20)
    u0 = sample("gaussian_derivative", dom, 4000, beta=2.0)
    traj = run_fv(u0, FVConfig(T=1.5))
    l2 = traj.series["l2"]
    assert np.all(np.diff(l2) <= 1e-12)
    assert l2[-1] < 0.75 * l2[0]


def test_first_order_self_convergence():
    # L1 distance between n and 2n runs drops at order in [0.7, 1.2]
    dom = line(-20, 20)
    errs = []
    runs = {}
    for n in (1000, 2000, 4000):
        u0 = sample("peakon", dom, n)
        runs[n] = run_fv(u0, FVConfig(T=1.0, snapshot_stride=10 ** 9)).snapshots[-1]
    for n in (1000, 2000):
        fine = runs[2 * n].reshape(-1, 2).mean(axis=1)
        errs.append((dom.length / n) * np.abs(runs[n] - fine).sum())
    order = math.log2(errs[0] / errs[1])
    assert 0.7 <= order <= 1.2


def test_viscosity_sweep_zero_and_order():
    dom = line(-20, 20)
    z = sample("zero", dom, 500)
    cfg = FVConfig(T=0.25)
    out = viscosity_sweep(z, [1e-2, 5e-3], cfg)
    assert all(d == 0.0 for _, d in out)
    u0 = sample("gaussian", dom, 1000)
    pairs = viscosity_sweep(u0, [1e-2, 5e-3, 2.5e-3], FVConfig(T=0.5))
    dists = [d for _, d in pairs]
    assert dists[0] > dists[1] > dists[2] > 0
    for a, b in zip(dists, dists[1:]):
        assert 1.5 <= a / b <= 2.5
    with pytest.raises(ValueError, match="descending"):
        viscosity_sweep(u0, [1e-3, 1e-2], cfg)


def test_fixed_dt_schedule_reproducible():
    dom = line(-20, 20)
    u0 = sample("peakon", dom, 1000)
    cfg = FVConfig(T=0.3, dt=0.45 * u0.h / 2.0)
    t1 = run_fv(u0, cfg)
    t2 = run_fv(u0, cfg)
    assert np.array_equal(t1.times, t2.times)
    assert np.array_equal(t1.snapshots[-1], t2.snapshots[-1])


def test_config_validation():
    with pytest.raises(ValueError):
        FVConfig(T=0.0)
    # a run within 1e-13 of T has reached it: such a T ran no step
    with pytest.raises(ValueError, match="T=1e-13: expected T > 1e-13"):
        FVConfig(T=1e-13)
    assert FVConfig(T=2e-13).T == 2e-13
    with pytest.raises(ValueError):
        FVConfig(T=1.0, cfl=1.5)
    with pytest.raises(ValueError):
        FVConfig(T=1.0, eps=-1.0)
    with pytest.raises(ValueError):
        FVConfig(T=1.0, source_splitting="trotter")


@pytest.mark.parametrize("domain, profile, T, ns", [
    # 7.31e-2, 3.92e-2, 2.06e-2: ratios 1.87, 1.91
    (line(-20, 20), "gaussian", 1.0, (500, 1000, 2000)),
    # 1.01e-3, 5.08e-4, 2.55e-4: ratios 1.99, 1.99
    (torus(), "sine", 0.5, (500, 1000, 2000)),
])
def test_weak_and_strong_solutions_agree_at_first_order(domain, profile, T,
                                                        ns):
    # before breaking the FV run converges to the strong one: halving h
    # halves the L1 distance between them at T.  On the torus at n = 2000,
    # dt = 1e-3 is past RK4's reach (dt max|u0| pi / h = 4.4 > 4.24)
    dt = 2.5e-4 if domain.periodic else 1e-3
    dists = []
    for n in ns:
        u0 = sample(profile, domain, n)
        strong = run_strong(u0, StrongConfig(T=T, dt=dt,
                                             snapshot_stride=10 ** 9))
        fv = run_fv(u0, FVConfig(T=T, snapshot_stride=10 ** 9))
        assert strong.stop_reason == fv.stop_reason == "completed"
        gap = fv.snapshots[-1] - strong.snapshots[-1]
        dists.append(u0.h * np.abs(gap).sum())
    for coarse, fine in zip(dists, dists[1:]):
        assert 1.7 <= coarse / fine <= 2.3


def test_weak_and_strong_solutions_part_at_the_blow_up():
    # the breaking datum blows up at T* ~ 0.5016 (demos/07_blowup_rate.py).
    # Before T* the FV run converges to the strong one, so doubling n halves
    # the L1 distance between them; past it the strong run has left the
    # entropy solution, the distance no longer falls with n, and the strong
    # run still reports completed.  Ratios, n = 1280 over n = 2560: 1.96,
    # 1.88 and 1.81 at t = 0.30, 0.40 and 0.45; 0.86 at t = 0.60
    dists = []
    for n in (1280, 2560):
        u0 = sample("gaussian_derivative", line(-8, 8), n, beta=2.0)
        strong = run_strong(u0, StrongConfig(dt=2e-4, T=0.6, advect="upwind",
                                             stop_slope=1e300,
                                             snapshot_stride=250))
        fv = run_fv(u0, FVConfig(T=0.6, dt=2e-4, snapshot_stride=250))
        assert strong.stop_reason == fv.stop_reason == "completed"
        # both record every 0.05, so their snapshots pair by index
        np.testing.assert_allclose(strong.snap_times, np.linspace(0, 0.6, 13))
        np.testing.assert_allclose(fv.snap_times, strong.snap_times)
        gap = np.asarray(strong.snapshots) - np.asarray(fv.snapshots)
        dists.append(u0.h * np.abs(gap).sum(axis=1))
    coarse, fine = dists
    before, after = [6, 8, 9], 12  # t = 0.30, 0.40, 0.45 and t = 0.60
    assert min(coarse[before] / fine[before]) >= 1.7
    assert coarse[after] / fine[after] <= 1.3


def _exact_average_error(u0, cfg, primitive):
    """L1 error at T of the FV run from u0 against the exact solution's
    cell averages, from its antiderivative ``primitive`` at the cell edges."""
    edges = u0.domain.a + u0.h * np.arange(u0.n + 1)
    final = run_fv(u0, replace(cfg, snapshot_stride=10 ** 9)).snapshots[-1]
    return float(np.abs(u0.h * final - np.diff(primitive(edges))).sum())


def _peakon_primitive(x, t=1.0):
    # of (4/3) e^(-|x - 4t/3|/2), an exact weak solution of the full equation
    z = x - 4.0 * t / 3.0
    return np.where(z <= 0.0, 8.0 / 3.0 * np.exp(np.minimum(z, 0.0) / 2.0),
                    16.0 / 3.0 - 8.0 / 3.0 * np.exp(-np.maximum(z, 0.0) / 2.0))


def _box_primitive(x):
    # of Burgers' solution at t = 1 from the box 1 on [-2, 0): the fan x + 2
    # on [-2, -1), 1 on [-1, 1/2) up to the shock, which moves at 1/2
    x = np.clip(x, -2.0, 0.5)
    return np.where(x < -1.0, (x + 2.0) ** 2 / 2.0, x + 1.5)


def test_fv_peakon_converges_to_the_exact_peakon():
    # L1 errors against exact cell averages at T = 1 under Strang splitting:
    # 3.07e-2, 1.64e-2, 8.69e-3, orders 0.90 and 0.92.  A scheme converging
    # to a wrong limit passes a self-convergence test, not this one
    dom = line(-20, 20)
    errs = [_exact_average_error(sample("peakon", dom, n), FVConfig(T=1.0),
                                 _peakon_primitive)
            for n in (1000, 2000, 4000)]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(0.8 <= o <= 1.0 for o in orders), orders


def test_fv_burgers_box_converges_to_the_exact_solution():
    # Burgers alone (splitting none) from the box 1 on [-2, 0): L1 errors
    # against exact cell averages at T = 1 are 5.66e-2, 4.01e-2, 2.31e-2,
    # orders 0.50 and 0.80.  The shock at 1/2 lies mid-cell at n = 1000 and
    # on an edge at n = 2000, so the pairs are uneven; the order over the
    # span, 0.65, keeps above Kuznetsov's 1/2 for monotone schemes
    dom = line(-20, 20)
    errs = []
    for n in (1000, 2000, 4000):
        x = dom.cell_centers(n)
        u0 = GridFn(dom, np.where((x >= -2.0) & (x < 0.0), 1.0, 0.0))
        errs.append(_exact_average_error(
            u0, FVConfig(T=1.0, source_splitting="none"), _box_primitive))
    assert errs[0] > errs[1] > errs[2]
    assert 0.55 <= math.log2(errs[0] / errs[2]) / 2 <= 0.75, errs
    assert 0.7 <= math.log2(errs[1] / errs[2]) <= 0.9, errs


def _fan_primitive(x, t=2.0):
    # of Burgers' solution from -1 on [-5, 0) and 1 on [0, 5): shocks at
    # +-(5 + t/2) and the transonic fan x/t on |x| < t, until t = 10
    s = 5.0 + t / 2.0
    x = np.clip(x, -s, s)
    return np.where(x < -t, -(x + s),
                    t - s + np.where(x < t, (x * x - t * t) / (2.0 * t),
                                     x - t))


def test_fv_transonic_fan_converges_to_the_exact_solution():
    # Burgers alone (splitting none) across the sonic point u = 0: L1 errors
    # against exact cell averages at T = 2 are 1.61e-1, 9.24e-2, 5.25e-2,
    # orders 0.80 and 0.81.  At T = 1 the coarse pair reads 0.50, as the
    # box's does, so T = 2 is used
    dom = line(-20, 20)
    errs = []
    for n in (1000, 2000, 4000):
        x = dom.cell_centers(n)
        u0 = GridFn(dom, np.select([(x >= -5.0) & (x < 0.0),
                                    (x >= 0.0) & (x < 5.0)], [-1.0, 1.0]))
        errs.append(_exact_average_error(
            u0, FVConfig(T=2.0, source_splitting="none"), _fan_primitive))
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(0.7 <= o <= 0.9 for o in orders), (errs, orders)
