"""Spatial domains, sampled grid functions, norms, quadrature, differentiation,
slope extrema and CSV output.

Everything downstream operates on cell-centered samples: a ``GridFn`` holds
``n`` values at ``x_i = a + (i + 1/2) h``.  The torus has period 1 by
convention; line domains are truncation windows on which fields are treated
as zero outside ``[a, b]``.  What lies past the last cell is ``_pad``
(wrapped ghost cells on the torus, zero ones on the line) and
``_interface_diff`` (n differences on the torus, n - 1 on the line); only
``strong``'s upwind RHS also writes the line's zero ghost cells, for speed.
"""

from __future__ import annotations

import inspect
import math
import numbers
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

    def with_values(self, values: np.ndarray) -> "GridFn":
        return GridFn(self.domain, values)

    def __mul__(self, alpha: float) -> "GridFn":
        return GridFn(self.domain, self.values * alpha)

    __rmul__ = __mul__


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
    """Sample a named closed-form profile at the cell centers.  Raises
    ``ValueError`` for an unknown name, a parameter the profile does not
    take, a parameter that is no real number (a bool, a string or a list)
    or not finite, or n < 4."""
    if n < 4:
        raise ValueError("n must be at least 4")
    try:
        fn = PROFILES[profile]
    except KeyError:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"choices: {sorted(PROFILES)}") from None
    takes = list(inspect.signature(fn).parameters)[1:]  # x comes first
    for key, val in params.items():
        if key not in takes:
            raise ValueError(f"profile {profile!r} takes {takes}, not {key!r}")
        if isinstance(val, bool) or not isinstance(val, numbers.Real):
            raise ValueError(f"profile {profile!r} parameter {key}={val!r} "
                             f"is not a real number")
        if not math.isfinite(val):
            raise ValueError(f"profile {profile!r} parameter {key}={val!r} "
                             f"is not finite")
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
        return float(np.abs(_interface_diff(v, g.domain.periodic)).sum())
    raise ValueError(f"unknown norm {which!r}; choices: L1, L2, Linf, TV")


# ---------------------------------------------------------------------------
# the boundary rule: ghost cells and interface differences

def _pad(values: np.ndarray, periodic: bool) -> np.ndarray:
    """values with one ghost cell at each end of the first axis: the wrapped
    neighbour on the torus, zero (the far field) on the line."""
    e = np.empty((values.shape[0] + 2,) + values.shape[1:])
    e[1:-1] = values
    e[0], e[-1] = (values[-1], values[0]) if periodic else (0.0, 0.0)
    return e


def _interface_diff(values: np.ndarray, periodic: bool,
                    out: np.ndarray | None = None) -> np.ndarray:
    """values[i + 1] - values[i] along the first axis: n differences on the
    torus, the last across the seam, n - 1 on the line.  With ``out``, they
    are written into its leading rows, and that view is returned."""
    n = values.shape[0]
    m = n if periodic else n - 1
    d = np.empty((m,) + values.shape[1:]) if out is None else out[:m]
    np.subtract(values[1:], values[:-1], out=d[:n - 1])
    if periodic:
        d[-1] = values[0] - values[-1]
    return d


# ---------------------------------------------------------------------------
# differentiation

def _spectral_ik(n: int) -> np.ndarray:
    """The rfft multiplier 2 pi i k of d/dx on the torus; the unpaired
    Nyquist mode of an even n carries no derivative and gets 0."""
    ik = 2j * np.pi * np.fft.rfftfreq(n, d=1.0 / n)
    if n % 2 == 0:
        ik[-1] = 0.0
    return ik


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
    v, n = g.values, g.n
    if g.domain.periodic:
        return g.with_values(np.fft.irfft(np.fft.rfft(v) * _spectral_ik(n), n))
    return g.with_values(_central_dx(v, g.h))


def second_difference(values: np.ndarray, h: float, periodic: bool) -> np.ndarray:
    """Three-point second derivative over the ghost cells of ``_pad``."""
    e = _pad(values, periodic)
    return (e[2:] - 2.0 * e[1:-1] + e[:-2]) / (h * h)


def slope_extrema_values(values: np.ndarray, h: float, periodic: bool,
                         a: float, out: np.ndarray | None = None):
    """(m1, xi1, m2, xi2) from forward differences; ties pick the smallest
    index.  Locations are interface positions (the wrap interface of the
    torus reports x = a).  ``out``, n long, takes the differences."""
    d = _interface_diff(values, periodic, out)
    d /= h
    i1 = int(d.argmin())
    i2 = int(d.argmax())
    n = values.size  # the torus's wrap interface n lies at a
    return (float(d[i1]), a + ((i1 + 1) % n) * h,
            float(d[i2]), a + ((i2 + 1) % n) * h)


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
