"""Spatial domains, sampled grid functions, norms, quadrature, differentiation,
slope extrema and CSV output.

Everything downstream operates on cell-centered samples: a ``GridFn`` holds
``n`` values at ``x_i = a + (i + 1/2) h``.  The torus has period 1 by
convention; line domains are truncation windows on which fields are treated
as zero outside ``[a, b]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Domain",
    "GridFn",
    "torus",
    "line",
    "sample",
    "norm",
    "derivative",
    "second_difference",
    "PROFILES",
    "slope_extrema_values",
    "write_csv",
    "write_snapshot_csv",
    "read_snapshot_csv",
]


@dataclass(frozen=True)
class Domain:
    """Periodic unit torus or a truncated line window ``[a, b]``."""

    kind: str  # "torus" | "line"
    a: float = 0.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("torus", "line"):
            raise ValueError(f"unknown domain kind: {self.kind!r}")
        if self.kind == "torus" and not (self.a == 0.0 and self.b == 1.0):
            raise ValueError("torus domain has fixed period 1 on [0, 1]")
        if not self.b > self.a:
            raise ValueError("line domain requires a < b")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def periodic(self) -> bool:
        return self.kind == "torus"

    def cell_centers(self, n: int) -> np.ndarray:
        h = self.length / n
        return self.a + (np.arange(n) + 0.5) * h


def torus() -> Domain:
    return Domain("torus", 0.0, 1.0)


def line(a: float = -20.0, b: float = 20.0) -> Domain:
    return Domain("line", float(a), float(b))


@dataclass(frozen=True)
class GridFn:
    """Immutable real-valued function sampled at cell centers."""

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 4:
            raise ValueError("GridFn needs a 1-d array with n >= 4")
        if not np.all(np.isfinite(vals)):
            raise ValueError("GridFn values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def h(self) -> float:
        return self.domain.length / self.n

    @property
    def x(self) -> np.ndarray:
        return self.domain.cell_centers(self.n)

    def compatible(self, other: "GridFn") -> bool:
        return self.domain == other.domain and self.n == other.n

    def with_values(self, values: np.ndarray) -> "GridFn":
        return GridFn(self.domain, values)

    def __add__(self, other):
        if isinstance(other, GridFn):
            self._check(other)
            return GridFn(self.domain, self.values + other.values)
        return GridFn(self.domain, self.values + other)

    def __mul__(self, alpha):
        if isinstance(alpha, GridFn):
            self._check(alpha)
            return GridFn(self.domain, self.values * alpha.values)
        return GridFn(self.domain, self.values * alpha)

    __rmul__ = __mul__

    def _check(self, other: "GridFn"):
        if not self.compatible(other):
            raise ValueError("incompatible grids: domain and n must match")


# ---------------------------------------------------------------------------
# analytic profiles

def _profile_zero(x):
    return np.zeros_like(x)


def _profile_constant(x, value=1.0):
    return np.full_like(x, float(value))


def _profile_sine(x, amplitude=0.2, offset=0.5, wavenumber=1):
    return offset + amplitude * np.sin(2.0 * np.pi * wavenumber * x)


def _profile_peakon(x, center=0.0):
    # traveling-wave crest 4/3 with a Lipschitz corner at the center
    return (4.0 / 3.0) * np.exp(-np.abs(x - center) / 2.0)


def _profile_gaussian(x, amplitude=1.0, width=1.0, center=0.0):
    z = (x - center) / width
    return amplitude * np.exp(-z * z)


def _profile_gaussian_derivative(x, beta=2.0, center=0.0):
    z = x - center
    return -beta * z * np.exp(-z * z / 2.0)


def _profile_step(x, left=1.0, right=-1.0, center=0.0, width=0.0):
    if width > 0.0:
        s = 1.0 / (1.0 + np.exp(-(x - center) / width))  # 0 -> 1 ramp
        return left + (right - left) * s
    return np.where(x < center, float(left), float(right))


def _psi(z: np.ndarray) -> np.ndarray:
    """The smooth bump exp(-1/(1 - z^2)) on |z| < 1, exactly zero off it."""
    out = np.zeros_like(z)
    m = np.abs(z) < 1.0
    out[m] = np.exp(-1.0 / (1.0 - z[m] ** 2))
    return out


def _profile_bump(x, amplitude=1.0, center=0.0, radius=1.0):
    return amplitude * _psi((x - center) / radius)


def _profile_kernel(x):
    return np.exp(-np.abs(x)) / 2.0


PROFILES = {
    "zero": _profile_zero,
    "constant": _profile_constant,
    "sine": _profile_sine,
    "peakon": _profile_peakon,
    "gaussian": _profile_gaussian,
    "gaussian_derivative": _profile_gaussian_derivative,
    "step": _profile_step,
    "bump": _profile_bump,
    "kernel": _profile_kernel,
}


def sample(profile: str, domain: Domain, n: int, **params) -> GridFn:
    """Sample a named closed-form profile at the cell centers.

    Raises ``ValueError`` for unknown names, non-finite parameters, or n < 4.
    """
    if n < 4:
        raise ValueError("n must be at least 4")
    try:
        fn = PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"choices: {sorted(PROFILES)}") from None
    for key, val in params.items():
        if not math.isfinite(float(val)):
            raise ValueError(f"profile parameter {key}={val!r} is not finite")
    x = domain.cell_centers(n)
    return GridFn(domain, fn(x, **params))


# ---------------------------------------------------------------------------
# norms and quadrature (midpoint rule, weight h per cell)

def norm(g: GridFn, which: str) -> float:
    v = g.values
    h = g.h
    if which == "L1":
        return float(h * np.abs(v).sum())
    if which == "L2":
        return float(np.sqrt(h * (v * v).sum()))
    if which == "Linf":
        return float(np.abs(v).max())
    if which == "TV":
        d = np.abs(np.diff(v))
        if g.domain.periodic:
            return float(d.sum() + abs(v[0] - v[-1]))
        return float(d.sum())
    raise ValueError(f"unknown norm {which!r}; choices: L1, L2, Linf, TV")


# ---------------------------------------------------------------------------
# differentiation

def _spectral_ik(n: int) -> np.ndarray:
    """The rfft multiplier 2 pi i k of d/dx on the torus; the unpaired
    Nyquist mode of an even n carries no derivative and gets 0."""
    ik = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        ik[-1] = 0.0
    return ik


def _spectral_dx(values: np.ndarray) -> np.ndarray:
    n = values.size
    return np.fft.irfft(np.fft.rfft(values) * _spectral_ik(n), n)


def _central_dx(values: np.ndarray, h: float,
                out: np.ndarray | None = None) -> np.ndarray:
    d = np.empty_like(values) if out is None else out
    np.subtract(values[2:], values[:-2], out=d[1:-1])
    d[1:-1] /= 2.0 * h
    d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
    d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return d


def derivative(g: GridFn) -> GridFn:
    """Discrete d/dx: Fourier multiplier on the torus, second-order central
    differences (one-sided at the ends) on the line."""
    if g.domain.periodic:
        return g.with_values(_spectral_dx(g.values))
    return g.with_values(_central_dx(g.values, g.h))


def second_difference(values: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    """Three-point second derivative; zero ghost cells on the line."""
    out = np.empty_like(values)
    if periodic:
        out[:] = np.roll(values, -1) - 2.0 * values + np.roll(values, 1)
    else:
        out[1:-1] = values[2:] - 2.0 * values[1:-1] + values[:-2]
        out[0] = values[1] - 2.0 * values[0]
        out[-1] = values[-2] - 2.0 * values[-1]
    return out / (h * h)


def slope_extrema_values(values: np.ndarray, h: float, periodic: bool,
                         a: float):
    """(m1, xi1, m2, xi2) from forward differences; ties pick the smallest
    index.  Locations are interface positions (the wrap interface of the
    torus reports x = a)."""
    if periodic:
        n = values.size
        d = np.empty(n)  # forward differences, the last across the wrap
        np.subtract(values[1:], values[:-1], out=d[:-1])
        d[-1] = values[0] - values[-1]
        d /= h
        i1 = int(np.argmin(d))
        i2 = int(np.argmax(d))

        def loc(i):
            x = a + (i + 1) * h
            return a if i == n - 1 else x  # wrap interface
        return float(d[i1]), loc(i1), float(d[i2]), loc(i2)
    d = np.diff(values) / h
    i1 = int(np.argmin(d))
    i2 = int(np.argmax(d))
    return (float(d[i1]), a + (i1 + 1) * h,
            float(d[i2]), a + (i2 + 1) * h)


# ---------------------------------------------------------------------------
# CSV output: 17 significant digits, so every float round-trips exactly

def write_csv(path, header, columns) -> None:
    """Equal-length columns as CSV: header names, then one row per index."""
    cols = [np.asarray(c).tolist() for c in columns]
    row = ",".join(["{:.17g}"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row.format(*vals) for vals in zip(*cols))


def write_snapshot_csv(g: GridFn, path) -> None:
    """Snapshot CSV with header x,u."""
    write_csv(path, ("x", "u"), (g.x, g.values))


def read_snapshot_csv(path, domain: Domain) -> GridFn:
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return GridFn(domain, data[:, 1])
