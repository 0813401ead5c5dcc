import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwlab import (FVConfig, GridFn, Thresholds, fv_step, godunov_flux,
                   line, norm, run_fv, sample, torus, viscosity_sweep)


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
    dom = torus()
    cfg = FVConfig(T=1.0)
    z = sample("zero", dom, 64)
    assert np.all(fv_step(z, 1e-3, cfg).values == 0.0)
    c = sample("constant", dom, 64, value=0.8)
    out = fv_step(c, 1e-3, cfg)
    assert np.abs(out.values - 0.8).max() < 1e-14


def test_fv_step_cfl_guard():
    dom = line(-5, 5)
    u = sample("constant", dom, 100, value=2.0)
    cfg = FVConfig(T=1.0, cfl=0.45)
    with pytest.raises(ValueError, match="time step too large"):
        fv_step(u, 1.0, cfg)
    # viscous stability bound dt <= 0.4 h^2 / eps
    cfg_eps = FVConfig(T=1.0, eps=1.0)
    with pytest.raises(ValueError, match="time step too large"):
        fv_step(u, 0.9 * 0.45 * u.h / 2.0, cfg_eps)


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


def test_burgers_shock_speed():
    # Riemann 2 -> 0 with the source off: Rankine-Hugoniot speed (2+0)/2 = 1
    dom = line(-20, 20)
    n = 2000
    u0 = sample("step", dom, n, left=2.0, right=0.0, center=-5.0)
    cfg = FVConfig(T=6.0, source_on=False, snapshot_stride=10 ** 9)
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


def test_mass_conservation_torus():
    u0 = sample("sine", torus(), 256, amplitude=0.3, offset=0.4)
    traj = run_fv(u0, FVConfig(T=1.0))
    mass = traj.series["mass"]
    assert np.abs(mass - mass[0]).max() < 1e-12


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
    with pytest.raises(ValueError):
        FVConfig(T=1.0, cfl=1.5)
    with pytest.raises(ValueError):
        FVConfig(T=1.0, eps=-1.0)
    with pytest.raises(ValueError):
        FVConfig(T=1.0, source_splitting="trotter")
