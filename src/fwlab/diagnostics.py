"""Mechanical checks of the quantitative solution theory.

Covers the wave-breaking precheck (slope asymmetry criterion and the blow-up
bound t* = 1/|m1(0) + 1/2|), Riccati comparison envelopes for the maximum
slope, the one-sided Oleinik estimate, L1 stability between runs, weak-form
and Kruzhkov entropy residuals over a family of smooth space-time bumps (by
default 12 tiling the window, at nine levels from max|u0|), and conservation
drift.  The L1 ratio, the residuals and the entropy report are snapshot
sinks (``L1StabilityRatio``, ``ResidualQuadrature``, ``EntropyCheck``),
which ``trajectory.drain`` feeds as a run yields its snapshots, so they need
no stored snapshots; the functions that take a stored trajectory drain its
snapshots into the same sinks.  The bounds of
these checks are the fixed ``Thresholds``, set by no config key; the bands
of the wave and sweep checks (peakon speed 2 %, speed scan 0.01, first
integral 2e-3, |lambda1| 0.5, fit mismatch 0.05, jump 5 %, viscosity ratios
[1.5, 2.5], order [0.7, 1.2]) are constants in the ``cli`` commands that
apply them.  ``slope_extrema_values`` is defined in ``grid`` (the run
recorder needs it) and re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (Domain, GridFn, _interface_diff, _psi, norm,
                   slope_extrema_values)
from .kernels import KernelOp
from .strong import StrongConfig
from .trajectory import Trajectory, drain

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
    "L1StabilityRatio",
    "TestFn",
    "make_test_family",
    "weak_residual",
    "kruzhkov_residual",
    "ConservationReport",
    "conservation_report",
    "EntropyReport",
    "EntropyCheck",
    "ResidualQuadrature",
    "entropy_report",
]


class Thresholds:
    """The fixed bounds of the conservation, breaking, stability and
    entropy checks, kept in one auditable block."""

    mass_tol = 1e-12
    l2_rel_tol = 1e-8
    weak_tol = 5e-3
    kruzhkov_tol = 1e-6
    oleinik_rel_tol = 1e-8
    l1_ratio_tol = 1.05
    tobs_factor = 1.05
    envelope_slack = 0.05


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


def envelope_check(traj: Trajectory):
    """Check m2(t) <= envelope + slack at all recorded times.

    Uses M0 = m2(0) and c = sqrt(2 max linf) per the comparison argument.
    Returns (ok, worst_excess, envelope array).
    """
    m2 = traj.series["m2"]
    linf_max = float(traj.series["linf"].max())
    c = math.sqrt(2.0 * linf_max)
    env = riccati_envelope(float(m2[0]), c, traj.times)
    slack = Thresholds.envelope_slack * (1.0 + abs(float(m2[0])))
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

class L1StabilityRatio:
    """max over snapshot times of |u(t)-v(t)|_1 / (e^t |u0-v0|_1), with v
    streamed: called as a run's snapshot sink (see ``trajectory.drain``),
    ``(t, v)`` for each snapshot of v in order, it compares v with the next
    snapshot of u at the same time.  u is read in order as ``(t, values)``
    on cells of width h: a stored Trajectory, or a run (a
    ``trajectory.marching`` generator), which is then advanced only to the
    snapshot compared, so that one snapshot of each run is held.  Differing
    snapshot times are refused by ``value()``, not mid-run, so that a run
    stopping before the other still ends.  ``finish()`` reads u to its end
    and returns what u returns there: a run's Trajectory."""

    def __init__(self, u, h: float):
        self._u = iter(u)
        self._h = h
        self._end = None  # what u returned at its end
        self._matched = True
        self._d0 = None
        self._ratio = 0.0

    def _next_u(self):
        """u's next snapshot, or (None, None) once u has ended."""
        if self._u is not None:
            try:
                return next(self._u)
            except StopIteration as end:
                self._u, self._end = None, end.value
        return None, None

    def __call__(self, t: float, v: np.ndarray) -> None:
        if self._matched:
            tu, u = self._next_u()
            self._matched = tu is not None and abs(t - tu) <= 1e-11
        if not self._matched:
            return
        d = self._h * np.abs(u - v).sum()
        if self._d0 is None:
            if d == 0.0:
                raise ValueError("u0 and v0 coincide; stability ratio "
                                 "undefined")
            self._d0 = d
        self._ratio = max(self._ratio, d / (math.exp(tu) * self._d0))

    def finish(self):
        while self._next_u()[0] is not None:
            self._matched = False
        return self._end

    def value(self) -> float:
        self.finish()
        if not self._matched:
            raise ValueError("mismatched trajectories: snapshot times differ")
        return float(self._ratio)


def l1_stability_check(traj_u: Trajectory, traj_v: Trajectory) -> float:
    """max over shared snapshot times of |u(t)-v(t)|_1 / (e^t |u0-v0|_1)."""
    if traj_u.domain != traj_v.domain or traj_u.n != traj_v.n:
        raise ValueError("mismatched trajectories: domain/n differ")
    ratio = L1StabilityRatio(traj_u, traj_u.h)  # it checks the snapshot times
    drain(iter(traj_v), ratio)
    return ratio.value()


# ---------------------------------------------------------------------------
# test functions and entropy residuals

@dataclass(frozen=True)
class TestFn:
    """Smooth compactly supported bump psi((x-x0)/r) psi((t-t0)/s); with
    ``periodic``, which the residuals take from the domain, x - x0 wraps."""

    __test__ = False  # not a pytest class despite the name

    x0: float
    t0: float
    r: float
    s: float

    def _zx(self, x: np.ndarray, periodic: bool = False) -> np.ndarray:
        dx = x - self.x0
        if periodic:
            dx = np.mod(dx + 0.5, 1.0) - 0.5
        return dx / self.r

    def _zt(self, t: float) -> float:
        return (t - self.t0) / self.s

    def phi(self, x: np.ndarray, t: float, periodic: bool = False):
        return _psi(self._zx(x, periodic)) * _psi(np.array([self._zt(t)]))[0]


def make_test_family(domain: Domain, t_end: float) -> list:
    """Tile the space-time window with 12 bumps, 6 at each of two spatial
    scales.

    Supports lie strictly inside (0, t_end), so the family is valid for
    both the weak form and the initial-value-free entropy form.
    """
    L = domain.length
    dt_half = 0.42 * t_end
    t0 = 0.5 * t_end
    fam = []
    for r_frac in (0.08, 0.16):
        r = r_frac * L
        if domain.periodic:
            centers = domain.a + (np.arange(6) + 0.5) * L / 6
        else:
            centers = np.linspace(domain.a + 1.05 * r, domain.b - 1.05 * r, 6)
        fam += [TestFn(float(x0), t0, r, dt_half) for x0 in centers]
    return fam


def _kruzhkov_terms(z, lam, out):
    """Entropy |z - lam|, its flux sgn(z - lam)(z^2 - lam^2)/2 (the Q, up to
    constants, with Q'(z) = eta'(z) z) and eta'(z) = sgn(z - lam), the sign
    taken once, written to the first three of the four arrays ``out`` of the
    broadcast shape of z and lam (a column of lambdas); the fourth is
    scratch."""
    eta, q, sgn, work = out
    np.subtract(z, lam, out=work)
    np.abs(work, out=eta)
    np.sign(work, out=sgn)
    np.multiply(sgn, 0.5, out=q)
    np.subtract(z * z, lam ** 2, out=work)
    np.multiply(q, work, out=q)
    return eta, q, sgn


class ResidualQuadrature:
    """Weak-form and Kruzhkov entropy-form integrals against J bumps, as a
    run's snapshot sink (see ``trajectory.drain``): called ``(t, u)``
    for each snapshot in order, it adds each snapshot interval's pairing to
    the sums when the interval's right end arrives.  ``value()`` is the weak
    residual of each bump, initial term included, (J,), and the Kruzhkov
    integrals, one row per lambda, (L, J).

    With lambdas, whose forms have no initial term, every bump must vanish
    at t = 0; ``lambdas=None`` takes nine levels across +-1.5 max|u0| from
    the first snapshot.  Without its initial term the weak form is the
    entropy form of (u, u^2/2, 1).  For an entropy eta with flux q, each
    snapshot interval [t_k, t_k+1] adds
    h <eta_bar, phi_k+1 - phi_k> + dt <q_bar, g_bar>
    - dt h (<s_k, phi_k> + <s_k+1, phi_k+1>) / 2, where bars average the two
    ends, g is the cell-interface difference of phi (wrapped at the seam on
    the torus) and s = eta'(u) K'*u.  The first two pairings telescope, over
    time and over the window, so in exact arithmetic constants contribute
    nothing, and an entropy with lambda outside the solution range reduces to
    -+ the weak form; in floating point both hold to round-off.

    Every bump is separable, phi = psi(zx) psi(zt) with psi exactly zero off
    its support, so phi at t_k is P a_k (P is n x J, built once with G; a_k
    is one time factor per bump).  An end is contracted once, into the rows
    eta @ P, q @ G and s @ P from one K'*u (the weak row apart: stacked on
    the lambda rows, its products would round differently), when the first
    interval that needs it is paired; a right end bitwise equal to the left,
    as a stationary field's are, takes a copy of the left end's rows.  Only
    an interval with a nonzero time factor at either end is paired; any
    other adds zeros to the sums.  One copy of the newest snapshot is held,
    with its rows once an interval has needed them.  Memory is
    O(n (J + L)), whatever the number of snapshots.
    """

    def __init__(self, domain: Domain, n: int, family, lambdas=()):
        h = domain.length / n
        need_zero_at_t0 = lambdas is None or np.size(lambdas) > 0
        for tf in family:
            if tf.r < 8.0 * h:
                raise ValueError(f"test function at x0={tf.x0} is "
                                 f"unresolved: r={tf.r} < 8h")
            if not domain.periodic and (tf.x0 - tf.r < domain.a
                                        or tf.x0 + tf.r > domain.b):
                raise ValueError("test function support leaves the window")
            if need_zero_at_t0 and tf.t0 - tf.s <= 0.0:
                raise ValueError("entropy-form test functions need t0 - s > 0")
        self._family = family
        self._lambdas = lambdas
        self._domain, self._h = domain, h
        self._op = KernelOp(domain, n)
        periodic = domain.periodic
        x = domain.cell_centers(n)
        xi = domain.a + np.arange(n + (not periodic)) * h
        self._P = np.column_stack([_psi(tf._zx(x, periodic)) for tf in family])
        self._G = _interface_diff(np.column_stack([_psi(tf._zx(xi, periodic))
                                                   for tf in family]),
                                  periodic)
        self._t0 = np.array([tf.t0 for tf in family])
        self._s = np.array([tf.s for tf in family])
        # per bump: a nonzero time factor at some snapshot
        self._seen = np.zeros(len(family), dtype=bool)
        self._prev = None  # a copy of the newest snapshot, at time _t
        self._paired = False  # whether _rows[0] are _prev's

    def _start(self, t: float, u: np.ndarray) -> None:
        """Set up at the first snapshot, u0: the entropy levels, the row
        buffers, the sums and the initial term of the weak form."""
        lambdas = self._lambdas
        if lambdas is None:
            linf = max(norm(GridFn(self._domain, u), "Linf"), 1e-6)
            lambdas = np.linspace(-1.5 * linf, 1.5 * linf, 9)
        self._lam = np.atleast_1d(np.asarray(lambdas,
                                             dtype=np.float64))[:, None]
        L, J = self._lam.shape[0], len(self._family)
        self._buf = np.empty((4, L, u.size))
        # the (E, Q, S) rows of the newest snapshot, once contracted, and
        # the buffer the next snapshot's are written to
        self._rows = np.empty((3, 1 + L, J)), np.empty((3, 1 + L, J))
        self._sum = np.zeros((1 + L, J))  # the weak row, then one per lambda
        x = self._domain.cell_centers(u.size)
        periodic = self._domain.periodic
        self._initial = self._h * np.array([np.dot(u, tf.phi(x, t, periodic))
                                            for tf in self._family])

    def _contract(self, u: np.ndarray, rows: np.ndarray) -> None:
        """Write the rows (eta @ P, q @ G, s @ P) of u, weak row first."""
        P, G, buf = self._P, self._G, self._buf
        kpu = self._op.conv_Kprime_values(u)
        np.matmul(u[None], P, out=rows[0, :1])
        np.matmul((0.5 * u * u)[None], G, out=rows[1, :1])
        np.matmul(kpu[None], P, out=rows[2, :1])
        eta, q, deta = _kruzhkov_terms(u, self._lam, buf)
        np.matmul(eta, P, out=rows[0, 1:])
        np.matmul(q, G, out=rows[1, 1:])
        np.matmul(np.multiply(deta, kpu, out=buf[3]), P, out=rows[2, 1:])

    def __call__(self, t: float, u: np.ndarray) -> None:
        a1 = _psi((t - self._t0) / self._s)
        self._seen |= a1 != 0.0
        if self._prev is None:
            self._start(t, u)
            self._prev = u.copy()  # the sink must copy what it keeps
        else:
            a0 = self._a
            paired = a0.any() or a1.any()
            if paired:
                rows0, rows1 = self._rows
                if not self._paired:  # the first interval to need _prev
                    self._contract(self._prev, rows0)
                if np.array_equal(u, self._prev):  # a stationary field
                    np.copyto(rows1, rows0)
                else:
                    self._contract(u, rows1)
                E0, Q0, S0 = rows0
                E1, Q1, S1 = rows1
                dt, h = t - self._t, self._h
                self._sum += (h * 0.5 * (E0 + E1) * (a1 - a0)
                              + dt * 0.5 * (Q0 + Q1) * 0.5 * (a0 + a1)
                              - 0.5 * dt * h * (S0 * a0 + S1 * a1))
                self._rows = rows1, rows0
            self._paired = paired
            np.copyto(self._prev, u)
        self._t, self._a = t, a1

    def value(self):
        if self._prev is None:
            raise ValueError("no snapshot was recorded")
        t_end = self._t
        for tf, seen in zip(self._family, self._seen):
            if tf.t0 + tf.s > t_end + 1e-12:
                raise ValueError("test function support extends past the "
                                 "last recorded time")
            # a bump zero at every snapshot gives integrals of exactly 0
            # whatever the solution; psi underflows to 0 short of |zt| = 1
            if not seen:
                raise ValueError(f"test function at t0={tf.t0} is zero at "
                                 f"every snapshot: psi((t - t0)/s), s={tf.s}, "
                                 f"is 0 at every snapshot time")
        return self._sum[0] + self._initial, self._sum[1:]


def _residuals(traj: Trajectory, family, lambdas=()):
    """``ResidualQuadrature``'s (weak, Kruzhkov) integrals of a stored
    trajectory, its snapshots fed in order."""
    quad = ResidualQuadrature(traj.domain, traj.n, family, lambdas)
    drain(iter(traj), quad)
    return quad.value()


def weak_residual(traj: Trajectory, family) -> float:
    """max |R(phi)| of the weak form: R = integral of u phi_t + (u^2/2) phi_x
    - (K'*u) phi, plus the initial term."""
    w, _ = _residuals(traj, family)
    return float(np.abs(w).max(initial=0.0))


def kruzhkov_residual(traj: Trajectory, lambdas, family) -> float:
    """min over (lambda, phi) of the entropy-form integral; admissible runs
    keep it above -tol, an inadmissible up-jump drives it strongly negative.
    ``_residuals`` gives the matrix, one row per lambda and one column per
    bump."""
    _, mat = _residuals(traj, family, lambdas)
    return float(mat.min())


# ---------------------------------------------------------------------------
# conservation

@dataclass
class ConservationReport:
    mass_drift: float
    l2_drift_rel: float


def conservation_report(traj: Trajectory) -> ConservationReport:
    mass = traj.series["mass"]
    l2 = traj.series["l2"]
    mass_drift = float(np.abs(mass - mass[0]).max())
    l2_0 = float(l2[0])
    rel = float(np.abs(l2 - l2[0]).max()) / l2_0 if l2_0 > 0 else 0.0
    return ConservationReport(mass_drift, rel)


# ---------------------------------------------------------------------------
# combined entropy report

@dataclass
class EntropyReport:
    weak_residual_max: float
    kruzhkov_min: float
    oleinik_margin: float
    oleinik_scale: float


OLEINIK_TIMES = (0.25, 0.5, 1.0)


class EntropyCheck:
    """Weak + Kruzhkov + Oleinik values of a run whose snapshots end at
    t_end, as its snapshot sink (see ``trajectory.drain``); ``value()``
    is the ``EntropyReport``, which the caller compares with its
    ``Thresholds``.

    The residuals are a ``ResidualQuadrature`` over ``family``, by default
    ``make_test_family(domain, t_end)``, at the nine Kruzhkov levels across
    +-1.5 max|u0|, u0 the first snapshot.  The Oleinik bound is checked at the
    snapshot nearest each Oleinik time up to t_end (the earlier of two
    equally near), so a copy of the nearest so far is held for each; at
    t = 0 the bound says nothing.  With no Oleinik time up to t_end the
    check would pass vacuously, so that raises ValueError here, before a run.
    """

    def __init__(self, domain: Domain, n: int, t_end: float, family=None):
        self._domain, self._t_end = domain, t_end
        self._times = [t for t in OLEINIK_TIMES if t <= t_end + 1e-12]
        if not self._times:
            raise ValueError(f"oleinik_times={OLEINIK_TIMES!r}, "
                             f"t_end={t_end!r}: no Oleinik time up to t_end")
        if family is None:
            family = make_test_family(domain, t_end)
        self._quad = ResidualQuadrature(domain, n, family, None)
        self._near = {}  # Oleinik time -> [distance, t, copy of u]
        self._u0_l1 = None

    def __call__(self, t: float, u: np.ndarray) -> None:
        self._quad(t, u)
        if self._u0_l1 is None:
            self._u0_l1 = norm(GridFn(self._domain, u), "L1")
        for to in self._times:
            best = self._near.get(to)
            if best is None:
                self._near[to] = [abs(t - to), t, u.copy()]
            elif abs(t - to) < best[0]:
                best[:2] = abs(t - to), t
                np.copyto(best[2], u)

    def value(self) -> EntropyReport:
        w, mat = self._quad.value()
        checked = [(float(t), u) for _, t, u in self._near.values() if t > 0]
        if not checked:
            raise ValueError(f"oleinik_times={OLEINIK_TIMES!r}, "
                             f"t_end={self._t_end!r}: no snapshot in "
                             f"(0, t_end] is the nearest to one of these "
                             f"times")
        u0_l1 = self._u0_l1
        margin = min(oleinik_check(GridFn(self._domain, u), ti, u0_l1)
                     for ti, u in checked)
        scale = max([1.0] + [oleinik_coefficient(ti, u0_l1)
                             for ti, _ in checked])
        return EntropyReport(float(np.abs(w).max(initial=0.0)),
                             float(mat.min()), margin, scale)


def entropy_report(traj: Trajectory, family=None) -> EntropyReport:
    """``EntropyCheck``'s values on a stored trajectory, its snapshots fed
    in order."""
    check = EntropyCheck(traj.domain, traj.n, float(traj.snap_times[-1]),
                         family)
    drain(iter(traj), check)
    return check.value()

