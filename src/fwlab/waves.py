"""Traveling-wave constructions and residual certificates.

The peakon (4/3) exp(-|x - ct|/2) is a genuine weak solution: its first
integral (v - c)^2/2 + K*v is constant, and a residual scan over c recovers
the speed 4/3.  The cusped profile v = c - sqrt(2 w(|xi|)) solves the
pointwise traveling-wave ODE off xi = 0 but fails to be a weak solution; its
distributional defect is a multiple lambda1 of K', which tw_defect measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .grid import Domain, GridFn, line, sample
from .kernels import KernelOp, conv_K, kernel_eval

__all__ = [
    "TravelingWave",
    "b_formula",
    "cusp_seed_slope",
    "peakon",
    "residual_scan",
    "tw_first_integral",
    "cusp_profile",
    "cusp_fit_masks",
    "defect_fit_mask",
    "measured_cusp_jump",
    "tw_defect",
]


@dataclass(frozen=True)
class TravelingWave:
    c: float
    profile: GridFn


def b_formula(c: float) -> float:
    """Reference constant 4 |c|^(3/2) sqrt(c - 4/3) of the cusp family."""
    if c < 4.0 / 3.0:
        raise ValueError("b(c) requires c >= 4/3")
    return 4.0 * abs(c) ** 1.5 * math.sqrt(c - 4.0 / 3.0)


def cusp_seed_slope(c: float) -> float:
    """Slope of w = (v-c)^2/2 at the cusp forced by the connecting orbit.

    Integrating w'' = w + c - sqrt(2w) - c^2/2 against w' from the cusp
    (w = 0) to the far field (w = c^2/2, w' = 0) pins the seed slope:
    w'(0+)^2 = c^3 (3c - 4) / 12.
    """
    if c <= 4.0 / 3.0:
        raise ValueError("cusp waves require c > 4/3")
    return math.sqrt(c ** 3 * (3.0 * c - 4.0) / 12.0)


# ---------------------------------------------------------------------------
# peakon

def peakon(n: int = 8000, window: tuple = (-30.0, 30.0),
           scan: tuple = (1.0, 2.0, 401)) -> TravelingWave:
    """Build the peakon and determine its speed by a residual scan."""
    prof = sample("peakon", line(*window), n)
    c_grid = np.linspace(scan[0], scan[1], int(scan[2]))
    c_best, _ = residual_scan(prof, c_grid)
    return TravelingWave(c=c_best, profile=prof)


def residual_scan(profile: GridFn, c_values):
    """Oscillation (max - min) of the first integral for each trial speed.

    Returns (c at the minimum, oscillation array).  K*v is independent of c,
    so the scan costs one convolution.
    """
    Kv = conv_K(profile).values
    v = profile.values
    c_values = np.asarray(c_values, dtype=np.float64)
    osc = np.empty_like(c_values)
    for i, c in enumerate(c_values):
        field = 0.5 * (v - c) ** 2 + Kv
        osc[i] = field.max() - field.min()
    return float(c_values[np.argmin(osc)]), osc


def tw_first_integral(w: TravelingWave) -> GridFn:
    """(v - c)^2/2 + K*v; constant iff v is a weak traveling wave of speed c."""
    Kv = conv_K(w.profile).values
    return w.profile.with_values(0.5 * (w.profile.values - w.c) ** 2 + Kv)


# ---------------------------------------------------------------------------
# cusp construction

def _integrate_cusp_half(c: float, xi_max: float):
    """Integrate w'' = w + c - sqrt(2w) - E, E = c^2/2 the first-integral
    constant, outward from the cusp, seeded at xi = 1e-8.

    Returns (dense solution, switch point, v at switch, tail decay rate).
    The far state (c^2/2, 0) is a saddle, so the orbit is followed until v
    drops below a small tolerance and is continued by its exponential tail.
    """
    E = c * c / 2.0
    sigma = cusp_seed_slope(c)  # w'(0+), connection-consistent
    curv0 = c - E  # w''(0+)
    seed_eps = 1e-8

    def rhs(xi, y):
        w, wp = y
        return (wp, w + c - math.sqrt(max(2.0 * w, 0.0)) - E)

    w0 = sigma * seed_eps + 0.5 * curv0 * seed_eps ** 2
    wp0 = sigma + curv0 * seed_eps
    sol = solve_ivp(rhs, (seed_eps, xi_max), (w0, wp0), rtol=1e-12,
                    atol=1e-16, dense_output=True, max_step=0.05)
    if sol.status != 0:
        raise ValueError("profile construction failed: integrator error")
    xs_grid = np.linspace(seed_eps, sol.t[-1], 20001)
    W, Wp = sol.sol(xs_grid)
    V = c - np.sqrt(np.maximum(2.0 * W, 0.0))
    vtol = 1e-4 * c
    idx = int(np.argmax(V < vtol))
    if V[idx] >= vtol:
        raise ValueError("profile construction failed: far field not reached "
                         "inside the window")
    kappa = math.sqrt(1.0 - 1.0 / c)  # linearized decay rate at the far state
    # a connecting orbit reaches v ~ vtol creeping along the stable manifold
    # (|w'| ~ kappa c vtol); anything steeper has blown through v = 0
    if abs(Wp[idx]) > 10.0 * kappa * c * vtol:
        raise ValueError("profile construction failed: orbit left the "
                         "admissible band 0 < v <= c")
    xi_switch = float(xs_grid[idx])
    v_switch = float(max(V[idx], 1e-300))
    return sol, xi_switch, v_switch, kappa


def cusp_profile(c: float, n: int = 8000,
                 window: tuple = (-30.0, 30.0)) -> TravelingWave:
    """Even cusped profile with v(0+) -> c, square-root singularity at 0,
    and exponential decay; requires c > 4/3."""
    if not c > 4.0 / 3.0 + 1e-6:
        raise ValueError("cusp waves require c > 4/3")
    dom = line(*window)
    x = dom.cell_centers(n)
    r = np.abs(x)
    xi_max = float(r.max()) + 1.0
    sol, xi_s, v_s, kappa = _integrate_cusp_half(c, xi_max)
    v = np.empty_like(x)
    inner = r <= xi_s
    Wi = sol.sol(np.clip(r[inner], sol.t[0], xi_s))[0]
    v[inner] = c - np.sqrt(np.maximum(2.0 * Wi, 0.0))
    v[~inner] = v_s * np.exp(-kappa * (r[~inner] - xi_s))
    return TravelingWave(c=c, profile=GridFn(dom, v))


def cusp_fit_masks(domain: Domain, n: int):
    """The cells of measured_cusp_jump's right and left fits on the n-cell
    grid of domain: 0 < |xi| < 0.05, a cell centred on 0 excluded.  Raises
    ValueError when a side holds fewer than the 4 cells a fit needs."""
    x = domain.cell_centers(n)
    h = domain.length / n
    right = (x > 0.5 * h) & (x < 0.05)
    left = (x < -0.5 * h) & (x > -0.05)
    cells = int(min(right.sum(), left.sum()))
    if cells < 4:
        raise ValueError(f"the fit radius 0.05 holds {cells} cells on one "
                         f"side of the cusp, fewer than 4")
    return right, left


def defect_fit_mask(domain: Domain, n: int) -> np.ndarray:
    """The cells of tw_defect's fit on the n-cell grid of domain:
    0.1 < |xi| < 6.  Raises ValueError when the band holds no cell."""
    r = np.abs(domain.cell_centers(n))
    m = (r > 0.1) & (r < 6.0)
    if not m.any():
        raise ValueError("the defect-fit band 0.1 < |xi| < 6 holds no cell")
    return m


def measured_cusp_jump(w: TravelingWave) -> float:
    """Jump of d/dxi [(v-c)^2/2] across 0 from one-sided linear fits on
    0 < |xi| < 0.05."""
    x = w.profile.x
    W = 0.5 * (w.profile.values - w.c) ** 2
    right, left = cusp_fit_masks(w.profile.domain, w.profile.n)
    slope_r = np.polyfit(x[right], W[right], 1)[0]
    slope_l = np.polyfit(x[left], W[left], 1)[0]
    return float(slope_r - slope_l)


# ---------------------------------------------------------------------------
# distributional defect fit

def tw_defect(w: TravelingWave):
    """Least-squares lambda1 in ((v-c)^2/2)' + K'*v = lambda1 K' on
    0.1 < |xi| < 6.

    Returns (lambda1, relative sup mismatch).  A weak traveling wave gives
    lambda1 ~ 0; the cusp gives a lambda1 bounded away from zero.
    """
    op = KernelOp(w.profile.domain, w.profile.n)
    x = w.profile.x
    v = w.profile.values
    W = 0.5 * (v - w.c) ** 2
    dW = op.dx_values(W)
    kv = op.conv_Kprime_values(v)
    D = dW + kv
    Kp = np.asarray(kernel_eval("Kprime_line", x))
    m = defect_fit_mask(w.profile.domain, w.profile.n)
    lam1 = float(np.sum(D[m] * Kp[m]) / np.sum(Kp[m] * Kp[m]))
    resid = np.abs(D[m] - lam1 * Kp[m]).max()
    scale = (np.abs(dW) + np.abs(kv))[m].max()
    mismatch = float(resid / max(scale, 1e-300))
    return lam1, mismatch
