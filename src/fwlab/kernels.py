"""Discrete convolution with the exponential kernel K(x) = exp(-|x|)/2.

K is the fundamental solution of 1 - d^2/dx^2, so K*g is computed by solving
(I - D2) w = g instead of by quadrature: a Fourier multiplier on the torus,
a symmetric tridiagonal solve on the line.  The line solve is LAPACK's banded
Cholesky factor ``dpbtrf`` and solve ``dpbtrs``, called through ``ctypes``
from the LAPACK that numpy itself links, so the program loads no second BLAS
and no scipy.  The torus transforms are the pocketfft gufuncs that
``numpy.fft.rfft`` and ``irfft`` call, bound once per operator, so each costs
the transform and not the wrapper's per-call work; the same bits come out.
K'*g is the derivative of that smooth field.  The operator is fixed by the
grid, so each function builds its ``KernelOp`` from the domain and n of its
own input.  Direct quadrature against the closed-form kernel is kept only as
a test oracle.
"""

from __future__ import annotations

import ctypes
import math

import numpy as np
from numpy.linalg import _umath_linalg

from .grid import Domain, GridFn, _central_dx, _profile_kernel, _spectral_ik

__all__ = ["KernelOp", "conv_K", "conv_Kprime", "kernel_eval"]

_E = math.e

# (dpbtrf, dpbtrs, Fortran INTEGER) for each LAPACK numpy may link: the
# ILP64 OpenBLAS of numpy >= 2 wheels, then an LP64 system LAPACK
_LAPACK_SYMBOLS = (
    ("scipy_dpbtrf_64_", "scipy_dpbtrs_64_", ctypes.c_int64),
    ("dpbtrf_", "dpbtrs_", ctypes.c_int32),
)


def _bind_lapack():
    """dpbtrf, dpbtrs and their INTEGER type from numpy's own LAPACK.

    dlsym on the handle of numpy's linalg extension also searches the
    libraries it links, so no library is named or loaded a second time.
    The functions take no argtypes, which would convert every argument on
    every call: callers pass ready ctypes objects, the hidden length of the
    UPLO string last.
    """
    lib = ctypes.CDLL(_umath_linalg.__file__)
    for trf_name, trs_name, integer in _LAPACK_SYMBOLS:
        try:
            trf, trs = getattr(lib, trf_name), getattr(lib, trs_name)
        except AttributeError:
            continue
        trf.restype = trs.restype = None
        return trf, trs, integer
    raise ImportError("numpy's LAPACK exports none of "
                      + ", ".join(t for t, _, _ in _LAPACK_SYMBOLS))


_UPLO, _UPLO_LEN = ctypes.c_char_p(b"U"), ctypes.c_size_t(1)
_dpbtrf, _dpbtrs, _lapack_int = _bind_lapack()


def _cholesky_banded(band: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of a symmetric positive definite band matrix.

    ``band`` holds the superdiagonals over the diagonal in LAPACK's upper
    band storage, as ``scipy.linalg.cholesky_banded`` takes it; the factor
    comes back in the same storage, Fortran-ordered.
    """
    ab = np.array(band, dtype=np.float64, order="F")
    kd, n = ab.shape[0] - 1, ab.shape[1]
    info = _lapack_int()
    _dpbtrf(_UPLO, ctypes.byref(_lapack_int(n)),
            ctypes.byref(_lapack_int(kd)), ctypes.c_void_p(ab.ctypes.data),
            ctypes.byref(_lapack_int(kd + 1)), ctypes.byref(info), _UPLO_LEN)
    if info.value < 0:
        raise ValueError(f"dpbtrf: illegal value in argument {-info.value}")
    if info.value > 0:
        raise ValueError(f"dpbtrf: leading minor {info.value} is not "
                         "positive definite")
    return ab


def _bind_pocketfft(n: int):
    """``rfft(values, out=None)`` and ``irfft(spectrum, out=None)`` of n
    points along the last axis, bit for bit ``numpy.fft.rfft`` and ``irfft``.

    They call the pocketfft gufuncs of numpy's own extension, as numpy.fft
    does, with the factors of its default backward norm: 1 forward, 1/n
    inverse.  What they skip is numpy.fft's per-call norm, axis and shape
    handling, about half the cost of one transform at n = 128 to 256.  So
    nothing checks a shape: the gufuncs take the transform length from the
    bound n and from ``out``, and a wrong shape gives a wrong transform, not
    an error.  Bound only where a torus operator is built, so a line run does
    not import numpy.fft.
    """
    from numpy.fft import _pocketfft_umath

    names = ("rfft_n_even" if n % 2 == 0 else "rfft_n_odd", "irfft")
    missing = [name for name in names if not hasattr(_pocketfft_umath, name)]
    if missing:
        raise ImportError("numpy.fft._pocketfft_umath has no "
                          + ", ".join(missing))
    forward, inverse = (getattr(_pocketfft_umath, name) for name in names)
    modes, inv_n = n // 2 + 1, 1.0 / n

    def rfft(values, out=None):
        if out is None:
            out = np.empty(np.shape(values)[:-1] + (modes,), dtype=complex)
        return forward(values, 1.0, out=out)

    def irfft(spectrum, out=None):
        if out is None:
            out = np.empty(np.shape(spectrum)[:-1] + (n,))
        return inverse(spectrum, inv_n, out=out)

    return rfft, irfft


def _finite_inverse_square(h: float) -> bool:
    """Whether 1/h^2, which the line operator's band holds, is finite and
    nonzero for the cell width h (h ** 2 raises OverflowError where h * h is
    inf)."""
    return h * h > 0.0 and 0.0 < 1.0 / (h * h) < math.inf


class KernelOp:
    """Precomputed inverse-Helmholtz operator for one (domain, n) pair.

    Torus: multipliers 1/(1 + (2 pi k)^2) over rfft modes, and the real
    transforms ``_rfft`` and ``_irfft`` of ``_bind_pocketfft``.
    Line: Cholesky factor of the tridiagonal (I - D2) with zero ghost cells.
    A line operator solves in one buffer of its own, so two threads must not
    share one.  On either domain, values or an ``out`` of any shape but (n,)
    are refused before any transform or solve; on the line, so is a cell
    width h whose 1/h^2 is zero or not finite.
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
            self._rfft, self._irfft = _bind_pocketfft(n)
        else:
            if not _finite_inverse_square(self.h):
                raise ValueError(f"h={self.h!r}: the line operator needs a "
                                 f"finite, nonzero 1/h^2")
            band = np.zeros((2, n))
            band[0, 1:] = -1.0 / self.h ** 2
            band[1, :] = 1.0 + 2.0 / self.h ** 2
            self._cho = _cholesky_banded(band)
            # LAPACK writes the right-hand side in place, so it is only ever
            # given the operator's own buffer.  Its dpbtrs arguments, pointers
            # included, are built here once: a pointer made per solve costs
            # more than the copy into that buffer
            self._rhs = np.empty(n)
            self._info = _lapack_int()
            n_ref = ctypes.byref(_lapack_int(n))
            one = ctypes.byref(_lapack_int(1))
            self._dpbtrs_args = (_UPLO, n_ref, one, one,
                                 ctypes.c_void_p(self._cho.ctypes.data),
                                 ctypes.byref(_lapack_int(2)),
                                 ctypes.c_void_p(self._rhs.ctypes.data),
                                 n_ref, ctypes.byref(self._info), _UPLO_LEN)

    def _check(self, values, out=None) -> None:
        # the torus transforms check no shape, and a line solve must not
        # broadcast into its buffer
        for name, a in (("values", values), ("out", out)):
            if a is not None and np.shape(a) != (self.n,):
                raise ValueError(f"the kernel operator takes {name} of shape "
                                 f"({self.n},), not {np.shape(a)}")

    def _solve(self, values: np.ndarray) -> np.ndarray:
        """The line solve of ``values``, in and as the operator's buffer."""
        # the routine cho_solve_banded calls, without its per-call finiteness
        # checks: a non-finite right-hand side gives a non-finite w, which the
        # solvers report as overflow
        np.copyto(self._rhs, values)
        _dpbtrs(*self._dpbtrs_args)
        if self._info.value < 0:
            raise ValueError(f"dpbtrs: illegal value in argument "
                             f"{-self._info.value}")
        return self._rhs

    # raw ndarray fast paths, used inside solver loops -----------------------

    def conv_K_values(self, values: np.ndarray) -> np.ndarray:
        """K*values, as a fresh array."""
        self._check(values)
        if self.domain.periodic:
            wh = self._rfft(values)
            wh *= self.multipliers
            return self._irfft(wh)
        return self._solve(values).copy()

    def conv_Kprime_values(self, values: np.ndarray,
                           out: np.ndarray | None = None) -> np.ndarray:
        """K'*values, written into ``out`` and returned when it is given."""
        self._check(values, out)
        if self.domain.periodic:
            wh = self._rfft(values)
            wh *= self.multipliers
            wh *= self._ik
            return self._irfft(wh, out)
        return _central_dx(self._solve(values), self.h, out=out)


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
        out = _profile_kernel(x)
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
