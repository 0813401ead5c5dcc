"""Traveling-wave constructions and residual certificates.

The peakon (4/3) exp(-|x - ct|/2) is a genuine weak solution: its first
integral (v - c)^2/2 + K*v is constant, and a residual scan over c recovers
the speed 4/3.  The cusped profile v = c - sqrt(2 w(|xi|)) solves the
pointwise traveling-wave ODE off xi = 0 but fails to be a weak solution; its
distributional defect is a multiple lambda1 of K', which tw_defect measures.
The cusp orbit is integrated by a private Dormand-Prince 5(4) stepper that
repeats scipy's RK45 arithmetic operation for operation, so the profile keeps
the bits it had under solve_ivp, and no command imports scipy's ODE package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Domain, GridFn, derivative, line, sample
from .kernels import conv_K, conv_Kprime, kernel_eval

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


def _finite_in_c(name: str, c: float, formula) -> float:
    """formula(c), refused with a ValueError naming c where no float holds
    it (float ** raises OverflowError where * gives inf)."""
    try:
        value = formula(c)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} overflows a float at c={c!r}")
    return value


def b_formula(c: float) -> float:
    """Reference constant 4 |c|^(3/2) sqrt(c - 4/3) of the cusp family."""
    if c < 4.0 / 3.0:
        raise ValueError("b(c) requires c >= 4/3")
    return _finite_in_c("b(c)", c, lambda c: 4.0 * abs(c) ** 1.5
                        * math.sqrt(c - 4.0 / 3.0))


def cusp_seed_slope(c: float) -> float:
    """Slope of w = (v-c)^2/2 at the cusp forced by the connecting orbit.

    Integrating w'' = w + c - sqrt(2w) - c^2/2 against w' from the cusp
    (w = 0) to the far field (w = c^2/2, w' = 0) pins the seed slope:
    w'(0+)^2 = c^3 (3c - 4) / 12.  The cusp speed rule: c > 4/3 + 1e-6, and
    a slope a float holds.
    """
    if not c > 4.0 / 3.0 + 1e-6:
        raise ValueError("cusp waves require c > 4/3")
    return _finite_in_c("the cusp seed slope", c, lambda c: math.sqrt(
        c ** 3 * (3.0 * c - 4.0) / 12.0))


# ---------------------------------------------------------------------------
# peakon

_PEAKON_SCAN = (1.0, 2.0, 401)  # the scanned speeds: first, last, count


def peakon(n: int = 8000, window: tuple = (-30.0, 30.0)) -> TravelingWave:
    """Build the peakon and determine its speed by a residual scan."""
    prof = sample("peakon", line(*window), n)
    c_grid = np.linspace(*_PEAKON_SCAN)
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
# Dormand-Prince 5(4) stepper (Dormand and Prince 1980), scipy RK45's
# tableau, quartic dense output (Shampine 1986) and step control

_RTOL, _ATOL, _MAX_STEP = 1e-12, 1e-16, 0.05
_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
               1/40])
_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875 / 199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


class _DenseOrbit:
    """The accepted step nodes t and one quartic per step.

    Called on a 1-D array of points, it evaluates them as scipy's OdeSolution
    does, which fixes the bits: sort the points, give each the step found by
    searchsorted(side="left"), make one h*Q@p + y_old call per run of points
    in the same step, and un-sort.  Returns an array of shape
    (len(y), points).
    """

    def __init__(self, t, steps):
        self.t = t
        self._steps = steps  # (t_old, h, y_old, Q) of each step

    def __call__(self, x):
        x = np.asarray(x)
        order = np.argsort(x)
        xs = x[order]
        seg = np.clip(np.searchsorted(self.t, xs, side="left") - 1, 0,
                      len(self._steps) - 1)
        cuts = [0, *(np.flatnonzero(np.diff(seg)) + 1), len(xs)]
        parts = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            t_old, h, y_old, Q = self._steps[seg[a]]
            p = np.cumprod(np.tile((xs[a:b] - t_old) / h, (Q.shape[1], 1)),
                           axis=0)
            y = h * np.dot(Q, p)
            y += y_old[:, None]
            parts.append(y)
        ys = np.hstack(parts)
        out = np.empty_like(ys)
        out[:, order] = ys
        return out


def _dopri45(fun, t0: float, y0, t_bound: float):
    """Integrate y' = fun(t, y), a float array, from t0 to t_bound > t0 at
    rtol 1e-12, atol 1e-16 and steps of at most 0.05.

    Returns a _DenseOrbit.  When the step size falls below ten spacings of
    t (scipy's "step size less than spacing" failure), the orbit ends at the
    last accepted node, short of t_bound.
    """
    t, y = t0, np.asarray(y0, dtype=float)
    f = fun(t, y)
    # initial step (Hairer, Norsett and Wanner, Sec. II.4)
    scale = _ATOL + np.abs(y) * _RTOL
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound - t0)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    h_abs = min(100 * h0, h1, t_bound - t0, _MAX_STEP)

    K = np.empty((7, y.size))
    ts, steps = [t0], []
    while t < t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = min(max(h_abs, min_step), _MAX_STEP)
        rejected = False
        while True:
            if h_abs < min_step:
                return _DenseOrbit(np.array(ts), steps)
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s in range(1, 6):
                dy = np.dot(K[:s].T, _A[s, :s]) * h
                K[s] = fun(t + _C[s] * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = K[-1] = fun(t + h, y_new)
            scale = _ATOL + np.maximum(np.abs(y), np.abs(y_new)) * _RTOL
            err = _rms(np.dot(K.T, _E) * h / scale)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.2)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.2)
            rejected = True
        steps.append((t, h, y, K.T.dot(_P)))
        t, y, f = t_new, y_new, f_new
        ts.append(t)
    return _DenseOrbit(np.array(ts), steps)


# ---------------------------------------------------------------------------
# cusp construction

def _integrate_cusp_half(c: float, xi_max: float):
    """Integrate w'' = w + c - sqrt(2w) - E, E = c^2/2 the first-integral
    constant, outward from the cusp, seeded at xi = 1e-8.

    Returns (orbit, switch point, v at switch, tail decay rate): orbit holds
    the step nodes orbit.t and maps an array of xi to the rows (w, w').  The
    far state (c^2/2, 0) is a saddle, so the orbit is followed until v drops
    below a small tolerance and is continued by its exponential tail.
    """
    E = c * c / 2.0
    sigma = cusp_seed_slope(c)  # w'(0+), connection-consistent
    curv0 = c - E  # w''(0+)
    seed_eps = 1e-8

    def rhs(xi, y):
        w, wp = y
        return np.array((wp, w + c - math.sqrt(max(2.0 * w, 0.0)) - E))

    w0 = sigma * seed_eps + 0.5 * curv0 * seed_eps ** 2
    wp0 = sigma + curv0 * seed_eps
    orbit = _dopri45(rhs, seed_eps, (w0, wp0), xi_max)
    if orbit.t[-1] < xi_max:
        raise ValueError("profile construction failed: integrator error")
    xs_grid = np.linspace(seed_eps, orbit.t[-1], 20001)
    W, Wp = orbit(xs_grid)
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
    return orbit, xi_switch, v_switch, kappa


def cusp_profile(c: float, n: int = 8000,
                 window: tuple = (-30.0, 30.0)) -> TravelingWave:
    """Even cusped profile with v(0+) -> c, square-root singularity at 0,
    and exponential decay; requires c > 4/3 (see ``cusp_seed_slope``)."""
    dom = line(*window)
    x = dom.cell_centers(n)
    r = np.abs(x)
    xi_max = float(r.max()) + 1.0
    orbit, xi_s, v_s, kappa = _integrate_cusp_half(c, xi_max)
    v = np.empty_like(x)
    inner = r <= xi_s
    Wi = orbit(np.clip(r[inner], orbit.t[0], xi_s))[0]
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
    x = w.profile.x
    v = w.profile.values
    W = 0.5 * (v - w.c) ** 2
    dW = derivative(w.profile.with_values(W)).values
    kv = conv_Kprime(w.profile).values
    D = dW + kv
    Kp = np.asarray(kernel_eval("Kprime_line", x))
    m = defect_fit_mask(w.profile.domain, w.profile.n)
    lam1 = float(np.sum(D[m] * Kp[m]) / np.sum(Kp[m] * Kp[m]))
    resid = np.abs(D[m] - lam1 * Kp[m]).max()
    scale = (np.abs(dW) + np.abs(kv))[m].max()
    mismatch = float(resid / max(scale, 1e-300))
    return lam1, mismatch
