"""Discrete convolution with the exponential kernel K(x) = exp(-|x|)/2.

K is the fundamental solution of 1 - d^2/dx^2, so K*g is computed by solving
(I - D2) w = g instead of by quadrature: a Fourier multiplier on the torus,
a symmetric tridiagonal solve on the line (LAPACK ``dpbtrs`` on a banded
Cholesky factor, in place).  K'*g is the derivative of that
smooth field.  The operator is fixed by the grid, so each function builds
its ``KernelOp`` from the domain and n of its own input.  Direct quadrature
against the closed-form kernel is kept only as a test oracle.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs

from .grid import Domain, GridFn, _central_dx, _spectral_ik

__all__ = ["KernelOp", "conv_K", "conv_Kprime", "kernel_eval"]

_E = math.e


class KernelOp:
    """Precomputed inverse-Helmholtz operator for one (domain, n) pair.

    Torus: multipliers 1/(1 + (2 pi k)^2) over rfft modes.
    Line: Cholesky factor of the tridiagonal (I - D2) with zero ghost cells.
    """

    def __init__(self, domain: Domain, n: int):
        if n < 4:
            raise ValueError("n must be at least 4")
        self.domain = domain
        self.n = n
        self.h = domain.length / n
        if domain.periodic:
            k = np.fft.rfftfreq(n, d=1.0 / n)
            self.multipliers = 1.0 / (1.0 + (2.0 * np.pi * k) ** 2)
            self._ik = _spectral_ik(n)
        else:
            band = np.zeros((2, n))
            band[0, 1:] = -1.0 / self.h ** 2
            band[1, :] = 1.0 + 2.0 / self.h ** 2
            self._cho = cholesky_banded(band)

    # raw ndarray fast paths, used inside solver loops -----------------------

    def conv_K_values(self, values: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
        """K*values, written into ``out`` and returned when it is given."""
        if self.domain.periodic:
            wh = np.fft.rfft(values) * self.multipliers
            return np.fft.irfft(wh, self.n, out=out)
        # the routine cho_solve_banded calls, without its per-call finiteness
        # checks: a non-finite right-hand side gives a non-finite w, which the
        # solvers report as overflow
        if out is None:
            w = np.array(values, dtype=np.float64)
        else:
            w = out
            np.copyto(w, values)
        x, info = dpbtrs(self._cho, w, overwrite_b=1)
        if info != 0:
            raise ValueError(f"dpbtrs: illegal value in argument {-info}")
        if x is not w:  # a non-contiguous out is solved in a copy
            w[...] = x
        return w

    def conv_Kprime_values(self, values: np.ndarray) -> np.ndarray:
        if self.domain.periodic:
            wh = np.fft.rfft(values) * self.multipliers * self._ik
            return np.fft.irfft(wh, self.n)
        return _central_dx(self.conv_K_values(values), self.h)


def conv_K(g: GridFn) -> GridFn:
    """w = K*g, i.e. the solution of (I - D2) w = g."""
    return g.with_values(KernelOp(g.domain, g.n).conv_K_values(g.values))


def conv_Kprime(g: GridFn) -> GridFn:
    """K'*g = d/dx (K*g); continuous even for merely bounded g."""
    return g.with_values(KernelOp(g.domain, g.n).conv_Kprime_values(g.values))


# ---------------------------------------------------------------------------
# closed-form kernel values

def kernel_eval(which: str, x) -> np.ndarray | float:
    """Evaluate K or K' in closed form.

    ``K_line``      exp(-|x|)/2 on the real line
    ``Kprime_line`` -sgn(x) exp(-|x|)/2  (value 0 at x = 0)
    ``K_torus``     (e^x + e^(1-x)) / (2(e-1)) with x reduced mod 1
    """
    x = np.asarray(x, dtype=np.float64)
    if which == "K_line":
        out = np.exp(-np.abs(x)) / 2.0
    elif which == "Kprime_line":
        out = -np.sign(x) * np.exp(-np.abs(x)) / 2.0
    elif which == "K_torus":
        r = np.mod(x, 1.0)
        out = (np.exp(r) + np.exp(1.0 - r)) / (2.0 * (_E - 1.0))
    else:
        raise ValueError(f"unknown kernel {which!r}")
    if out.ndim == 0:
        return float(out)
    return out
