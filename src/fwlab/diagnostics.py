"""Mechanical checks of the quantitative solution theory.

Covers the wave-breaking precheck (slope asymmetry criterion and the blow-up
bound t* = 1/|m1(0) + 1/2|), Riccati comparison envelopes for the maximum
slope, the one-sided Oleinik estimate, L1 stability between runs, weak-form
and Kruzhkov entropy residuals over a family of smooth space-time bumps, and
conservation drift.  The tolerances of these checks live in ``Thresholds``,
each a config key; the bands of the wave and sweep checks (peakon speed
2 %, speed scan 0.01, first integral 2e-3, |lambda1| 0.5, fit mismatch
0.05, jump 5 %, viscosity ratios [1.5, 2.5], order [0.7, 1.2]) are
constants in the ``cli`` commands that apply them.  ``slope_extrema_values``
is defined in ``grid`` (the run recorder needs it) and re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Domain, GridFn, _psi, norm, slope_extrema_values
from .kernels import KernelOp
from .strong import StrongConfig
from .trajectory import Trajectory

__all__ = [
    "Thresholds",
    "slope_extrema",
    "slope_extrema_values",
    "BreakingReport",
    "breaking_precheck",
    "attach_observation",
    "riccati_envelope",
    "envelope_check",
    "oleinik_coefficient",
    "oleinik_check",
    "l1_stability_check",
    "TestFn",
    "KruzhkovPair",
    "make_test_family",
    "weak_residual",
    "kruzhkov_residual",
    "ConservationReport",
    "conservation_report",
    "EntropyReport",
    "entropy_report",
    "slope_inequality_fractions",
    "convolution_bound_margin",
]


@dataclass(frozen=True)
class Thresholds:
    """Default tolerances of the conservation, breaking, stability and
    entropy checks, kept in one auditable block."""

    mass_tol: float = 1e-12
    l2_rel_tol: float = 1e-8
    weak_tol: float = 5e-3
    kruzhkov_tol: float = 1e-6
    oleinik_rel_tol: float = 1e-8
    l1_ratio_tol: float = 1.05
    tobs_factor: float = 1.05
    envelope_slack: float = 0.05


# ---------------------------------------------------------------------------
# slope extrema (one-sided differences at cell interfaces)

def slope_extrema(u: GridFn):
    """Min/max discrete slope of u and their grid locations."""
    return slope_extrema_values(u.values, u.h, u.domain.periodic, u.domain.a)


# ---------------------------------------------------------------------------
# wave-breaking precheck and the blow-up bound

@dataclass
class BreakingReport:
    m1_0: float
    m2_0: float
    S: float                    # asymmetry margin -(m1_0 + m2_0)
    condition_met: bool         # S >= 1
    M0: float                   # m1_0 + 1/2
    t_star: float | None        # 1/|M0| upper bound on the blow-up time
    t_observed: float | None = None


def breaking_precheck(u0: GridFn) -> BreakingReport:
    m1, _, m2, _ = slope_extrema(u0)
    S = -(m1 + m2)
    condition = S >= 1.0
    M0 = m1 + 0.5
    t_star = 1.0 / abs(M0) if (condition and M0 < 0.0) else None
    return BreakingReport(m1_0=m1, m2_0=m2, S=S, condition_met=condition,
                          M0=M0, t_star=t_star)


def attach_observation(report: BreakingReport,
                       traj: Trajectory) -> BreakingReport:
    """Fill t_observed = first time the recorded min slope drops below -G,
    G the stop_slope of the strong run."""
    if not isinstance(traj.config, StrongConfig):
        raise ValueError("t_observed needs a strong run: an FV or synthetic "
                         "trajectory has no stop_slope")
    below = np.nonzero(traj.series["m1"] < -traj.config.stop_slope)[0]
    report.t_observed = float(traj.times[below[0]]) if below.size else None
    return report


# ---------------------------------------------------------------------------
# Riccati comparison envelope y' = c^2 - y^2, y(0) = M0

def riccati_envelope(M0: float, c: float, t):
    """Upper envelope for the maximum slope.

    Branches: y = c (M0 = c); y = c tanh(ct + a), tanh a = M0/c (|M0| < c);
    y = c coth(ct + a), coth a = M0/c (M0 > c).  c = 0 degenerates to
    y = M0/(1 + M0 t) for M0 >= 0.
    """
    t = np.asarray(t, dtype=np.float64)
    if c < 0.0:
        raise ValueError("c must be nonnegative")
    if c == 0.0:
        if M0 < 0.0:
            raise ValueError("c = 0 limit needs M0 >= 0")
        out = M0 / (1.0 + M0 * t)
    elif M0 == c:
        out = np.full_like(t, c)
    elif M0 > c:
        alpha = math.atanh(c / M0)  # coth(alpha) = M0/c, alpha > 0
        out = c / np.tanh(c * t + alpha)
    else:
        if M0 <= -c:
            raise ValueError("M0 <= -c sits below the lower equilibrium; "
                             "no bounded envelope exists")
        alpha = math.atanh(M0 / c)
        out = c * np.tanh(c * t + alpha)
    if out.ndim == 0:
        return float(out)
    return out


def envelope_check(traj: Trajectory, thresholds: Thresholds = Thresholds()):
    """Check m2(t) <= envelope + slack at all recorded times.

    Uses M0 = m2(0) and c = sqrt(2 max linf) per the comparison argument.
    Returns (ok, worst_excess, envelope array).
    """
    m2 = traj.series["m2"]
    linf_max = float(traj.series["linf"].max())
    c = math.sqrt(2.0 * linf_max)
    env = riccati_envelope(float(m2[0]), c, traj.times)
    slack = thresholds.envelope_slack * (1.0 + abs(float(m2[0])))
    excess = m2 - (env + slack)
    worst = float(excess.max())
    return worst <= 0.0, worst, env


# ---------------------------------------------------------------------------
# Oleinik one-sided inequality

def oleinik_coefficient(t: float, u0_l1: float) -> float:
    """u(y,t) - u(x,t) <= (1/t + 2 + 2t(1 + 2 e^t |u0|_1)) (y - x)."""
    if t <= 0:
        raise ValueError("t must be positive")
    return 1.0 / t + 2.0 + 2.0 * t * (1.0 + 2.0 * math.exp(t) * u0_l1)


def oleinik_check(u_t: GridFn, t: float, u0_l1: float) -> float:
    """Minimum of C(t)(y - x) - (u(y) - u(x)) over the pairs at the 16
    dyadic strides 1, 2, ..., 2^15 cells.  Nonnegative means the bound
    holds."""
    C = oleinik_coefficient(t, u0_l1)
    v = u_t.values
    h = u_t.h
    margin = math.inf
    s = 1
    while s < v.size and s < 2 ** 16:
        du = v[s:] - v[:-s]
        margin = min(margin, float((C * s * h - du).min()))
        s *= 2
    return margin


# ---------------------------------------------------------------------------
# L1 stability between two runs

def l1_stability_check(traj_u: Trajectory, traj_v: Trajectory) -> float:
    """max over shared snapshot times of |u(t)-v(t)|_1 / (e^t |u0-v0|_1)."""
    if traj_u.domain != traj_v.domain or traj_u.n != traj_v.n:
        raise ValueError("mismatched trajectories: domain/n differ")
    tu, tv = traj_u.snap_times, traj_v.snap_times
    if tu.size != tv.size or not np.allclose(tu, tv, rtol=0, atol=1e-11):
        raise ValueError("mismatched trajectories: snapshot times differ")
    h = traj_u.h
    d0 = h * np.abs(traj_u.snapshots[0] - traj_v.snapshots[0]).sum()
    if d0 == 0.0:
        raise ValueError("u0 and v0 coincide; stability ratio undefined")
    ratio = 0.0
    for t, su, sv in zip(tu, traj_u.snapshots, traj_v.snapshots):
        d = h * np.abs(su - sv).sum()
        ratio = max(ratio, d / (math.exp(t) * d0))
    return float(ratio)


# ---------------------------------------------------------------------------
# test functions and entropy residuals

@dataclass(frozen=True)
class KruzhkovPair:
    """Entropy |z - lam| with flux sgn(z - lam)(z^2 - lam^2)/2.

    The flux is the unique (up to constants) Q with Q'(z) = eta'(z) z.
    ``lam`` may be an array, e.g. a column of lambdas, and every method then
    broadcasts it against z.
    """

    lam: float

    def terms(self, z, out=None):
        """eta(z), q(z) and eta'(z) = sgn(z - lam), the sign taken once.

        ``out`` is four arrays of the broadcast shape of z and lam: the first
        three receive the results, the fourth is scratch.
        """
        z = np.asarray(z, dtype=np.float64)
        if out is None:
            shape = np.broadcast_shapes(z.shape, np.shape(self.lam))
            out = [np.empty(shape) for _ in range(4)]
        eta, q, sgn, work = out
        np.subtract(z, self.lam, out=work)
        np.abs(work, out=eta)
        np.sign(work, out=sgn)
        np.multiply(sgn, 0.5, out=q)
        np.subtract(z * z, self.lam ** 2, out=work)
        np.multiply(q, work, out=q)
        return eta, q, sgn

    # [()] turns the 0-d result of a scalar z and lam into a scalar

    def eta(self, z):
        return self.terms(z)[0][()]

    def flux(self, z):
        return self.terms(z)[1][()]


@dataclass(frozen=True)
class TestFn:
    """Smooth compactly supported bump psi((x-x0)/r) psi((t-t0)/s)."""

    __test__ = False  # not a pytest class despite the name

    x0: float
    t0: float
    r: float
    s: float
    periodic: bool = False

    def _zx(self, x: np.ndarray) -> np.ndarray:
        dx = x - self.x0
        if self.periodic:
            dx = np.mod(dx + 0.5, 1.0) - 0.5
        return dx / self.r

    def _zt(self, t: float) -> float:
        return (t - self.t0) / self.s

    def phi(self, x: np.ndarray, t: float) -> np.ndarray:
        return _psi(self._zx(x)) * _psi(np.asarray([self._zt(t)]))[0]


def make_test_family(domain: Domain, t_end: float, count: int = 12) -> list:
    """Tile the space-time window with `count` bumps at two spatial scales.

    Supports lie strictly inside (0, t_end), so the family is valid for
    both the weak form and the initial-value-free entropy form.
    """
    L = domain.length
    periodic = domain.periodic
    dt_half = 0.42 * t_end
    t0 = 0.5 * t_end
    n_small = (count + 1) // 2
    n_big = count - n_small
    fam = []
    for m, r_frac in ((n_small, 0.08), (n_big, 0.16)):
        if m == 0:
            continue
        r = r_frac * L
        if periodic:
            centers = domain.a + (np.arange(m) + 0.5) * L / m
        else:
            lo, hi = domain.a + 1.05 * r, domain.b - 1.05 * r
            centers = np.linspace(lo, hi, m)
        for x0 in centers:
            fam.append(TestFn(float(x0), t0, r, dt_half, periodic=periodic))
    return fam


def _validate_family(traj: Trajectory, family, need_zero_at_t0: bool):
    h = traj.h
    t_end = float(traj.snap_times[-1])
    for tf in family:
        if tf.r < 8.0 * h:
            raise ValueError(f"test function at x0={tf.x0} is unresolved: "
                             f"r={tf.r} < 8h")
        if not traj.domain.periodic:
            if tf.x0 - tf.r < traj.domain.a or tf.x0 + tf.r > traj.domain.b:
                raise ValueError("test function support leaves the window")
        if tf.t0 + tf.s > t_end + 1e-12:
            raise ValueError("test function support extends past the last "
                             "recorded time")
        if need_zero_at_t0 and tf.t0 - tf.s <= 0.0:
            raise ValueError("entropy-form test functions need t0 - s > 0")
        # off |t - t0| < s the time factor is exactly zero, and a bump zero at
        # every snapshot gives integrals of exactly 0 whatever the solution
        if not (np.abs(tf._zt(traj.snap_times)) < 1.0).any():
            raise ValueError(f"test function at t0={tf.t0} is zero at every "
                             f"snapshot: no snapshot time lies inside "
                             f"|t - t0| < s={tf.s}")


def _residuals(traj: Trajectory, family, lambdas=()):
    """Weak-form and Kruzhkov entropy-form integrals against J bumps, in one
    pass over the snapshots.

    Returns the weak residual of each bump, initial term included, (J,), and
    the Kruzhkov integrals, one row per lambda, (L, J).  Without its initial
    term the weak form is the entropy form of (u, u^2/2, 1).  For an entropy
    eta with flux q, each snapshot interval [t_k, t_k+1] adds
    h <eta_bar, phi_k+1 - phi_k> + dt <q_bar, g_bar>
    - dt h (<s_k, phi_k> + <s_k+1, phi_k+1>) / 2, where bars average the two
    ends, g is the cell-interface difference of phi (wrapped at the seam on
    the torus) and s = eta'(u) K'*u.  The first two pairings telescope, over
    time and over the window, so in exact arithmetic constants contribute
    nothing, and an entropy with lambda outside the solution range reduces to
    -+ the weak form; in floating point both hold to round-off.

    Every bump is separable, phi = psi(zx) psi(zt) with psi exactly zero off
    its support, so phi at t_k is P a_k (P is n x J, a_k one time factor per
    bump).  Each snapshot is contracted once, into eta @ P, q @ G and s @ P
    from one K'*u, and the pairings act on those (K, L, J) stacks.  A
    snapshot whose time factors and both neighbours' are zero for every bump
    lies only in intervals that add zeros: it is not contracted, and its
    stack rows stay zero.
    """
    n, J = traj.n, len(family)
    op = KernelOp(traj.domain, n)
    x = traj.domain.cell_centers(n)
    xi = traj.domain.a + np.arange(n + 1) * traj.h
    P = np.column_stack([_psi(tf._zx(x)) for tf in family])
    if traj.domain.periodic:
        # interface values with the periodic wrap at the seam
        Gv = np.column_stack([_psi(tf._zx(xi[:-1])) for tf in family])
        G = np.roll(Gv, -1, axis=0) - Gv
    else:
        G = np.diff(np.column_stack([_psi(tf._zx(xi)) for tf in family]),
                    axis=0)
    times = traj.snap_times
    A = np.column_stack([_psi(tf._zt(times)) for tf in family])
    live = np.pad(A.any(axis=1), 1)
    needed = np.flatnonzero(live[:-2] | live[1:-1] | live[2:])
    pair = KruzhkovPair(np.atleast_1d(np.asarray(lambdas,
                                                 dtype=np.float64))[:, None])
    L = pair.lam.shape[0]
    buf = np.empty((4, L, n))
    # the weak row is contracted apart: stacked on the lambda rows, its
    # products would round differently
    Ew, Qw, Sw = np.zeros((3, times.size, 1, J))
    E, Q, S = np.zeros((3, times.size, L, J))
    for k in needed:
        u = traj.snapshots[k]
        kpu = op.conv_Kprime_values(u)
        Ew[k] = u[None] @ P
        Qw[k] = (0.5 * u * u)[None] @ G
        Sw[k] = kpu[None] @ P
        eta, q, deta = pair.terms(u, buf)
        E[k] = eta @ P
        Q[k] = q @ G
        S[k] = np.multiply(deta, kpu, out=buf[3]) @ P
    h = traj.h
    dt = np.diff(times)[:, None, None]
    a0, a1 = A[:-1, None, :], A[1:, None, :]

    def pairings(E, Q, S):
        return (h * 0.5 * (E[:-1] + E[1:]) * (a1 - a0)
                + dt * 0.5 * (Q[:-1] + Q[1:]) * 0.5 * (a0 + a1)
                - 0.5 * dt * h * (S[:-1] * a0 + S[1:] * a1)).sum(axis=0)

    w = pairings(Ew, Qw, Sw)[0]
    w += h * np.array([np.dot(traj.snapshots[0], tf.phi(x, times[0]))
                       for tf in family])
    return w, pairings(E, Q, S)


def weak_residual(traj: Trajectory, family) -> float:
    """max |R(phi)| of the weak form: R = integral of u phi_t + (u^2/2) phi_x
    - (K'*u) phi, plus the initial term."""
    _validate_family(traj, family, need_zero_at_t0=False)
    w, _ = _residuals(traj, family)
    return float(np.abs(w).max(initial=0.0))


def kruzhkov_residual(traj: Trajectory, lambdas, family,
                      return_matrix: bool = False):
    """min over (lambda, phi) of the entropy-form integral; admissible runs
    keep it above -tol, an inadmissible up-jump drives it strongly negative.
    The matrix has one row per lambda and one column per bump."""
    _validate_family(traj, family, need_zero_at_t0=True)
    _, mat = _residuals(traj, family, lambdas)
    if return_matrix:
        return float(mat.min()), mat
    return float(mat.min())


# ---------------------------------------------------------------------------
# conservation

@dataclass
class ConservationReport:
    mass_drift: float
    l2_drift: float
    l2_drift_rel: float


def conservation_report(traj: Trajectory) -> ConservationReport:
    mass = traj.series["mass"]
    l2 = traj.series["l2"]
    mass_drift = float(np.abs(mass - mass[0]).max())
    l2_drift = float(np.abs(l2 - l2[0]).max())
    l2_0 = float(l2[0])
    rel = l2_drift / l2_0 if l2_0 > 0 else 0.0
    return ConservationReport(mass_drift, l2_drift, rel)


# ---------------------------------------------------------------------------
# combined entropy report

@dataclass
class EntropyReport:
    weak_residual_max: float
    kruzhkov_min: float
    oleinik_margin: float
    oleinik_scale: float
    passes: dict = field(default_factory=dict)


def entropy_report(traj: Trajectory, lambdas=None, family=None,
                   oleinik_times=(0.25, 0.5, 1.0),
                   thresholds: Thresholds = Thresholds()) -> EntropyReport:
    """Weak + Kruzhkov + Oleinik checks on one trajectory."""
    t_end = float(traj.snap_times[-1])
    if family is None:
        family = make_test_family(traj.domain, t_end)
    u0 = traj.snapshot(0)
    linf = norm(u0, "Linf")
    if lambdas is None:
        lambdas = np.linspace(-1.5 * max(linf, 1e-6), 1.5 * max(linf, 1e-6), 9)
    _validate_family(traj, family, need_zero_at_t0=True)
    w, mat = _residuals(traj, family, lambdas)
    wr = float(np.abs(w).max(initial=0.0))
    kr = float(mat.min())
    u0_l1 = norm(u0, "L1")
    margin = math.inf
    scale = 1.0
    for t in oleinik_times:
        if t > t_end + 1e-12:
            continue
        i = int(np.argmin(np.abs(traj.snap_times - t)))
        ti = float(traj.snap_times[i])
        if ti <= 0:
            continue
        margin = min(margin, oleinik_check(traj.snapshot(i), ti, u0_l1))
        scale = max(scale, oleinik_coefficient(ti, u0_l1))
    passes = {
        "weak": wr <= thresholds.weak_tol,
        "kruzhkov": kr >= -thresholds.kruzhkov_tol,
        "oleinik": margin >= -thresholds.oleinik_rel_tol * scale,
    }
    return EntropyReport(wr, kr, margin, scale, passes)


# ---------------------------------------------------------------------------
# differential-inequality checks along a strong run

def slope_inequality_fractions(traj: Trajectory):
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


def convolution_bound_margin(traj: Trajectory) -> float:
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
