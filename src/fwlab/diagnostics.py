"""Mechanical checks of the quantitative solution theory.

Covers the wave-breaking precheck (slope asymmetry criterion and the blow-up
bound t* = 1/|m1(0) + 1/2|), Riccati comparison envelopes for the maximum
slope, the one-sided Oleinik estimate, L1 stability between runs, weak-form
and Kruzhkov entropy residuals over a family of smooth space-time bumps, and
conservation drift.  All tolerances live in ``Thresholds`` so the tolerance
policy is auditable in one place.  ``slope_extrema_values`` is defined in
``grid`` (the run recorder needs it) and re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import Domain, GridFn, norm, slope_extrema_values
from .kernels import KernelOp
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
    """Default tolerances for every check, kept in one auditable block."""

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
    stop_slope: float | None = None


def breaking_precheck(u0: GridFn) -> BreakingReport:
    m1, _, m2, _ = slope_extrema(u0)
    S = -(m1 + m2)
    condition = S >= 1.0
    M0 = m1 + 0.5
    t_star = 1.0 / abs(M0) if (condition and M0 < 0.0) else None
    return BreakingReport(m1_0=m1, m2_0=m2, S=S, condition_met=condition,
                          M0=M0, t_star=t_star)


def attach_observation(report: BreakingReport, traj: Trajectory,
                       stop_slope: float | None = None) -> BreakingReport:
    """Fill t_observed = first time the recorded min slope drops below -G."""
    G = stop_slope if stop_slope is not None else traj.meta.get("stop_slope")
    if G is None:
        raise ValueError("stop_slope not given and absent from trajectory meta")
    m1 = traj.series["m1"]
    below = np.nonzero(m1 < -G)[0]
    report.t_observed = float(traj.times[below[0]]) if below.size else None
    report.stop_slope = float(G)
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


def oleinik_check(u_t: GridFn, t: float, u0_l1: float,
                  max_stride_pairs: int = 16) -> float:
    """Minimum of C(t)(y - x) - (u(y) - u(x)) over adjacent pairs and a
    dyadic sample of distant pairs.  Nonnegative means the bound holds."""
    C = oleinik_coefficient(t, u0_l1)
    v = u_t.values
    h = u_t.h
    margin = math.inf
    s = 1
    count = 0
    while s < v.size and count < max_stride_pairs:
        du = v[s:] - v[:-s]
        margin = min(margin, float((C * s * h - du).min()))
        s *= 2
        count += 1
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

    def eta(self, z):
        return np.abs(np.asarray(z, dtype=np.float64) - self.lam)

    def deta(self, z):
        """eta'(z) = sgn(z - lam)."""
        return np.sign(np.asarray(z, dtype=np.float64) - self.lam)

    def flux(self, z):
        z = np.asarray(z, dtype=np.float64)
        return self.deta(z) * 0.5 * (z * z - self.lam ** 2)


def _psi(z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    m = np.abs(z) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - z[m] ** 2))
    return out


def _dpsi(z: np.ndarray) -> np.ndarray:
    out = np.zeros_like(z)
    m = np.abs(z) < 1.0
    zm = z[m]
    out[m] = np.exp(-1.0 / (1.0 - zm ** 2)) * (-2.0 * zm / (1.0 - zm ** 2) ** 2)
    return out


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

    def phi_x(self, x: np.ndarray, t: float) -> np.ndarray:
        return (_dpsi(self._zx(x)) / self.r) * _psi(np.asarray([self._zt(t)]))[0]

    def phi_t(self, x: np.ndarray, t: float) -> np.ndarray:
        return _psi(self._zx(x)) * (_dpsi(np.asarray([self._zt(t)]))[0] / self.s)


def make_test_family(domain: Domain, t_end: float, count: int = 12,
                     t_start: float = 0.0) -> list:
    """Tile the space-time window with `count` bumps at two spatial scales.

    Supports lie strictly inside (t_start, t_end), so the family is valid for
    both the weak form and the initial-value-free entropy form.
    """
    L = domain.length
    periodic = domain.periodic
    dt_half = 0.42 * (t_end - t_start)
    t0 = 0.5 * (t_start + t_end)
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


def _residuals(traj: Trajectory, family, entropies,
               op: KernelOp) -> np.ndarray:
    """Entropy-form integrals of L entropies against J bumps, an (L, J) array.

    ``entropies(u)`` gives eta(u), its flux q(u) and eta'(u), each (L, n) or
    broadcastable to it.  Each snapshot interval [t_k, t_k+1] adds
    h <eta_bar, phi_k+1 - phi_k> + dt <q_bar, g_bar>
    - dt h (<s_k, phi_k> + <s_k+1, phi_k+1>) / 2, where bars average the two
    ends, g is the cell-interface difference of phi (wrapped at the seam on
    the torus) and s = eta'(u) K'*u.  The first two pairings telescope, over
    time and over the window, so in exact arithmetic constants contribute
    nothing, and an entropy with lambda outside the solution range reduces to
    -+ the weak form; in floating point both hold to round-off.

    Every bump is separable, phi = psi(zx) psi(zt) with psi exactly zero off
    its support, so phi at t_k is P a_k (P is n x J, a_k one time factor per
    bump).  Each snapshot is contracted once, into eta @ P, q @ G and s @ P,
    and the pairings act on those (K, L, J) stacks.
    """
    x = traj.domain.cell_centers(traj.n)
    xi = traj.domain.a + np.arange(traj.n + 1) * traj.h
    P = np.column_stack([_psi(tf._zx(x)) for tf in family])
    if traj.domain.periodic:
        # interface values with the periodic wrap at the seam
        Gv = np.column_stack([_psi(tf._zx(xi[:-1])) for tf in family])
        G = np.roll(Gv, -1, axis=0) - Gv
    else:
        G = np.diff(np.column_stack([_psi(tf._zx(xi)) for tf in family]),
                    axis=0)
    times = traj.snap_times
    A = np.column_stack([_psi(tf._zt(times)) for tf in family])[:, None, :]
    E, Q, S = [], [], []
    for u in traj.snapshots:
        eta, q, deta = map(np.atleast_2d, entropies(u))
        E.append(eta @ P)
        Q.append(q @ G)
        S.append((deta * op.conv_Kprime_values(u)) @ P)
    E, Q, S = np.array(E), np.array(Q), np.array(S)
    h = traj.h
    dt = np.diff(times)[:, None, None]
    a0, a1 = A[:-1], A[1:]
    return (h * 0.5 * (E[:-1] + E[1:]) * (a1 - a0)
            + dt * 0.5 * (Q[:-1] + Q[1:]) * 0.5 * (a0 + a1)
            - 0.5 * dt * h * (S[:-1] * a0 + S[1:] * a1)).sum(axis=0)


def weak_residual(traj: Trajectory, family, op: KernelOp | None = None) -> float:
    """max |R(phi)| of the weak form: R = integral of u phi_t + (u^2/2) phi_x
    - (K'*u) phi, plus the initial term."""
    _validate_family(traj, family, need_zero_at_t0=False)
    if op is None:
        op = KernelOp(traj.domain, traj.n)
    r = _residuals(traj, family, lambda u: (u, 0.5 * u * u, 1.0), op)[0]
    x = traj.domain.cell_centers(traj.n)
    r += traj.h * np.array([np.dot(traj.snapshots[0],
                                   tf.phi(x, traj.snap_times[0]))
                            for tf in family])
    return float(np.abs(r).max(initial=0.0))


def kruzhkov_residual(traj: Trajectory, lambdas, family,
                      op: KernelOp | None = None,
                      return_matrix: bool = False):
    """min over (lambda, phi) of the entropy-form integral; admissible runs
    keep it above -tol, an inadmissible up-jump drives it strongly negative.
    The matrix has one row per lambda and one column per bump."""
    _validate_family(traj, family, need_zero_at_t0=True)
    if op is None:
        op = KernelOp(traj.domain, traj.n)
    lambdas = np.atleast_1d(np.asarray(lambdas, dtype=np.float64))
    pair = KruzhkovPair(lambdas[:, None])
    mat = _residuals(traj, family,
                     lambda u: (pair.eta(u), pair.flux(u), pair.deta(u)), op)
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
    l2sq_drift_rel: float


def conservation_report(traj: Trajectory) -> ConservationReport:
    mass = traj.series["mass"]
    l2 = traj.series["l2"]
    mass_drift = float(np.abs(mass - mass[0]).max())
    l2_drift = float(np.abs(l2 - l2[0]).max())
    l2_0 = float(l2[0])
    rel = l2_drift / l2_0 if l2_0 > 0 else 0.0
    relsq = float(np.abs(l2 ** 2 - l2_0 ** 2).max()) / l2_0 ** 2 if l2_0 > 0 else 0.0
    return ConservationReport(mass_drift, l2_drift, rel, relsq)


# ---------------------------------------------------------------------------
# combined entropy report

@dataclass
class EntropyReport:
    weak_residual_max: float
    kruzhkov_min: float
    oleinik_margin: float
    oleinik_scale: float
    passes: dict = field(default_factory=dict)

    @property
    def overall_pass(self) -> bool:
        return all(self.passes.values())


def entropy_report(traj: Trajectory, lambdas=None, family=None,
                   op: KernelOp | None = None,
                   oleinik_times=(0.25, 0.5, 1.0),
                   thresholds: Thresholds = Thresholds()) -> EntropyReport:
    """Weak + Kruzhkov + Oleinik checks on one trajectory."""
    if op is None:
        op = KernelOp(traj.domain, traj.n)
    t_end = float(traj.snap_times[-1])
    if family is None:
        family = make_test_family(traj.domain, t_end)
    u0 = traj.snapshot(0)
    linf = norm(u0, "Linf")
    if lambdas is None:
        lambdas = np.linspace(-1.5 * max(linf, 1e-6), 1.5 * max(linf, 1e-6), 9)
    wr = weak_residual(traj, family, op)
    kr = kruzhkov_residual(traj, lambdas, family, op)
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

def slope_inequality_fractions(traj: Trajectory, tol_coeff: float = 0.05,
                               resolved_slope: float | None = None):
    """Fraction of recorded times where the one-sided slope bounds
    m_j' <= -m_j^2 + (m2 - m1)/2 + tol hold (centered differences in t).

    Only times where |m1| stays below `resolved_slope` count; the default is
    half a grid slope, 0.5/h.
    """
    if resolved_slope is None:
        resolved_slope = 0.5 / traj.h
    t = traj.times
    if t.size < 3:
        raise ValueError("trajectory too short for derivative estimates")
    out = []
    gap = 0.5 * (traj.series["m2"] - traj.series["m1"])
    for name in ("m1", "m2"):
        m = traj.series[name]
        dm = (m[2:] - m[:-2]) / (t[2:] - t[:-2])
        mid = m[1:-1]
        bound = -mid ** 2 + gap[1:-1] + tol_coeff * (1.0 + mid ** 2)
        ok = dm <= bound
        resolved = np.abs(traj.series["m1"][1:-1]) <= resolved_slope
        if not resolved.any():
            out.append(1.0)
            continue
        out.append(float(ok[resolved].mean()))
    return tuple(out)


def convolution_bound_margin(traj: Trajectory, op: KernelOp | None = None,
                             tol_coeff: float = 0.05) -> float:
    """Worst margin of (K*u_xx)(xi_j) >= (m1 - m2)/2 - tol over snapshots.

    K*u_xx is evaluated through the kernel identity K*u'' = K*u - u, which
    is exact for the discrete operator.
    """
    if op is None:
        op = KernelOp(traj.domain, traj.n)
    x = traj.domain.cell_centers(traj.n)
    worst = math.inf
    for tk, u in zip(traj.snap_times, traj.snapshots):
        i = int(np.argmin(np.abs(traj.times - tk)))
        m1 = traj.series["m1"][i]
        m2 = traj.series["m2"][i]
        conv = op.conv_K_values(u) - u
        lower = 0.5 * (m1 - m2)
        tol = tol_coeff * (1.0 + m2 - m1)
        for name in ("xi1", "xi2"):
            xi = traj.series[name][i]
            j = int(np.argmin(np.abs(x - xi)))
            worst = min(worst, float(conv[j] - (lower - tol)))
    return worst
