import math

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded

from fwlab import (GridFn, KernelOp, conv_K, conv_Kprime, derivative,
                   kernel_eval, line, norm, sample, torus)
from fwlab.grid import second_difference
from fwlab.kernels import _bind_pocketfft, _cholesky_banded

E = math.e


def direct_convolution(kernel_fn, g: GridFn) -> np.ndarray:
    """Quadrature oracle: (K*g)(x_i) = h sum_j K(x_i - x_j) g_j."""
    x = g.x
    out = np.empty_like(g.values)
    for i, xi in enumerate(x):
        out[i] = g.h * np.sum(np.asarray(kernel_fn(xi - x)) * g.values)
    return out


def test_kernel_eval_values():
    assert kernel_eval("K_line", 0.0) == 0.5
    assert kernel_eval("K_torus", 0.0) == pytest.approx((1 + E) / (2 * (E - 1)),
                                                        rel=1e-14)
    # jump of K' across the origin is -1
    delta = 1e-9
    jump = kernel_eval("Kprime_line", delta) - kernel_eval("Kprime_line", -delta)
    assert jump == pytest.approx(-1.0, abs=1e-8)
    with pytest.raises(ValueError):
        kernel_eval("bogus", 0.0)


def test_kernel_integrals():
    # line kernel integrates to 1 (analytic); periodic kernel too
    x = np.linspace(-40, 40, 400001)
    assert np.trapezoid(kernel_eval("K_line", x), x) == pytest.approx(1.0, abs=1e-6)
    xt = (np.arange(200000) + 0.5) / 200000
    assert np.mean(kernel_eval("K_torus", xt)) == pytest.approx(1.0, abs=1e-9)
    # evenness and positivity
    assert np.all(kernel_eval("K_line", x) > 0)
    assert np.allclose(kernel_eval("K_line", x), kernel_eval("K_line", -x))
    # K is written once, in grid: the sampled profile is kernel_eval's K
    assert np.array_equal(kernel_eval("K_line", x), np.exp(-np.abs(x)) / 2.0)
    g = sample("kernel", line(-40, 40), 8000)
    assert np.array_equal(g.values, kernel_eval("K_line", g.x))


def test_conv_K_zero():
    z = sample("zero", torus(), 256)
    assert np.all(conv_K(z).values == 0.0)


def test_conv_K_constant_torus():
    one = sample("constant", torus(), 256, value=1.0)
    w = conv_K(one)
    assert np.abs(w.values - 1.0).max() < 1e-12


def test_conv_K_self_at_zero():
    # (K*K)(0) = int K^2 = 1/4; oracle: direct quadrature of the convolution
    dom = line(-30, 30)
    n = 6000
    g = sample("kernel", dom, n)
    w = conv_K(g)
    i0 = np.argmin(np.abs(g.x))
    oracle = direct_convolution(lambda y: kernel_eval("K_line", y),
                                g).max()  # peak of K*K sits at 0
    assert abs(w.values[i0] - 0.25) < 1e-5
    assert abs(oracle - 0.25) < 1e-5
    assert abs(w.values[i0] - oracle) < 1e-5


def test_conv_K_matches_direct_quadrature(rng):
    dom = line(-20, 20)
    n = 2000
    g = sample("gaussian", dom, n, amplitude=1.3, width=1.5)
    w = conv_K(g).values
    oracle = direct_convolution(lambda y: kernel_eval("K_line", y), g)
    assert np.abs(w - oracle).max() < 5e-5


def test_conv_Kprime_constant_torus():
    c = sample("constant", torus(), 256, value=2.5)
    assert np.abs(conv_Kprime(c).values).max() < 1e-12


def test_conv_Kprime_of_kernel():
    # K'*K is odd; at x=1 it equals d/dx[(1+|x|)e^{-|x|}/4] = -e^{-1}/4
    dom = line(-30, 30)
    n = 6000
    g = sample("kernel", dom, n)
    w = conv_Kprime(g).values
    # odd function: x = 0 is a cell interface, so interpolate across it
    assert abs(0.5 * (w[n // 2 - 1] + w[n // 2])) < 1e-8
    i1 = np.argmin(np.abs(g.x - 1.0))
    assert abs(w[i1] - (-math.exp(-1) / 4)) < 1e-4
    oracle = direct_convolution(lambda y: kernel_eval("Kprime_line", y), g)
    assert abs(oracle[i1] - (-math.exp(-1) / 4)) < 1e-4


def test_helmholtz_identity_torus(rng):
    # (I - D^2)(K*g) = g with the spectral second derivative
    n = 256
    op = KernelOp(torus(), n)
    k = np.fft.rfftfreq(n, d=1.0 / n)
    for _ in range(5):
        coef = rng.normal(size=20) / (1 + np.arange(20) ** 2)
        x = torus().cell_centers(n)
        g = sum(c * np.sin(2 * np.pi * (j + 1) * x + j)
                for j, c in enumerate(coef))
        w = op.conv_K_values(g)
        wh = np.fft.rfft(w)
        lap = np.fft.irfft(-(2 * np.pi * k) ** 2 * wh, n)
        assert np.abs(w - lap - g).max() < 1e-10


def test_helmholtz_identity_line(rng):
    # the tridiagonal solve makes (I - D2) w = g hold at interior cells
    dom = line(-10, 10)
    n = 512
    op = KernelOp(dom, n)
    g = rng.normal(size=n)
    w = op.conv_K_values(g)
    resid = w - second_difference(w, op.h, periodic=False) - g
    assert np.abs(resid[1:-1]).max() < 1e-12


@pytest.mark.parametrize("n", [2000, 4000, 8000, 20480])
def test_line_solve_is_the_banded_cholesky_solve(rng, n):
    # the line solve must round exactly as LAPACK dpbtrs on the banded
    # Cholesky factor, which cho_solve_banded also calls; another solver
    # (say a tridiagonal LDL^T) changes the outputs of the presets
    op = KernelOp(line(-20, 20), n)
    v = rng.normal(size=n)
    assert np.array_equal(op.conv_K_values(v),
                          cho_solve_banded((op._cho, False), v))


@pytest.mark.parametrize("n", [256, 2000, 4000, 8000, 20480])
def test_line_factor_is_scipys_banded_cholesky_factor(n):
    # dpbtrf from numpy's LAPACK gives the factor scipy's gives, bit for bit
    op = KernelOp(line(-20, 20), n)
    band = np.zeros((2, n))
    band[0, 1:] = -1.0 / op.h ** 2
    band[1, :] = 1.0 + 2.0 / op.h ** 2
    assert np.array_equal(op._cho, cholesky_banded(band))


def test_banded_cholesky_refuses_what_dpbtrf_refuses():
    # a band that is not positive definite (info > 0) and an illegal
    # argument (kd = -1, info < 0) both raise instead of returning a factor
    indefinite = np.array([[0.0, 2.0, 2.0, 2.0], [1.0, 1.0, 1.0, 1.0]])
    with pytest.raises(ValueError, match="not positive definite"):
        _cholesky_banded(indefinite)
    with pytest.raises(ValueError, match="illegal value in argument 3"):
        _cholesky_banded(np.zeros((0, 4)))


@pytest.mark.parametrize("a, b", [(0.0, 1e-300), (-1e200, 1e200),
                                  (-1e308, 1e308)])
def test_line_operator_refuses_a_width_without_a_finite_inverse_square(a, b):
    # h^2 underflowing to 0 was a ZeroDivisionError, h^2 past the float range
    # an OverflowError, and an infinite length a band of 0 and 1
    with pytest.raises(ValueError, match=r"finite, nonzero 1/h\^2"):
        KernelOp(line(a, b), 16)


@pytest.mark.parametrize("dom, values_len, out_len", [
    pytest.param(dom, values_len, out_len,
                 id=f"{prefix}{values_len}-{out_len}")
    for dom, prefix in ((line(-10, 10), ""), (torus(), "torus-"))
    for values_len, out_len in ((255, None), (257, None), (255, 256),
                                (1, 256), (256, 255), (256, 257))])
def test_line_solve_refuses_a_wrong_length(dom, values_len, out_len):
    # both domains refuse before any solve or transform: an rfft of 257
    # points also has 129 modes, and an irfft takes its length from out
    n = 256
    op = KernelOp(dom, n)
    out = None if out_len is None else np.full(out_len, 7.0)
    with pytest.raises(ValueError, match="shape"):
        op.conv_Kprime_values(np.ones(values_len), out=out)
    if values_len != n:
        with pytest.raises(ValueError, match="shape"):
            op.conv_K_values(np.ones(values_len))
    with pytest.raises(ValueError, match=r"shape \(256,\), not \(256, 1\)"):
        op.conv_K_values(np.ones((n, 1)))
    if out is not None:
        assert np.all(out == 7.0)  # refused before anything was written


@pytest.mark.parametrize("rows", [(), (2,)], ids=["one_row", "two_rows"])
@pytest.mark.parametrize("n", [127, 128, 255, 256])
def test_bound_transforms_are_numpys(rng, n, rows):
    # the pocketfft gufuncs bound once per operator give numpy.fft.rfft and
    # irfft bit for bit, into a fresh array or into out
    rfft, irfft = _bind_pocketfft(n)
    v = rng.normal(size=rows + (n,))
    spec = (rng.normal(size=rows + (n // 2 + 1,))
            + 1j * rng.normal(size=rows + (n // 2 + 1,)))
    assert np.array_equal(rfft(v), np.fft.rfft(v))
    assert np.array_equal(irfft(spec), np.fft.irfft(spec, n))
    out_spec = np.full(rows + (n // 2 + 1,), np.nan, dtype=complex)
    out_v = np.full(rows + (n,), np.nan)
    assert rfft(v, out_spec) is out_spec
    assert irfft(spec, out_v) is out_v
    assert np.array_equal(out_spec,
                          np.fft.rfft(v, out=np.empty_like(out_spec)))
    assert np.array_equal(out_v,
                          np.fft.irfft(spec, n, out=np.empty_like(out_v)))


def test_line_solve_reports_an_illegal_dpbtrs_argument():
    op = KernelOp(line(-10, 10), 16)
    op._dpbtrs_args[1]._obj.value = -1  # N < 0: dpbtrs returns info = -2
    with pytest.raises(ValueError, match="illegal value in argument 2"):
        op.conv_K_values(np.ones(16))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_line_solve_of_a_non_finite_rhs_is_non_finite(rng, bad):
    # no finiteness check per call: the non-finite value spreads through
    # the solve, and the solvers report the run as overflow
    n = 512
    op = KernelOp(line(-10, 10), n)
    v = rng.normal(size=n)
    v[100] = bad
    assert not np.all(np.isfinite(op.conv_K_values(v)))
    with np.errstate(invalid="ignore"):
        kpv = op.conv_Kprime_values(v)
        out = np.empty(n)
        assert op.conv_Kprime_values(v, out=out) is out
    assert not np.all(np.isfinite(kpv))
    assert np.array_equal(kpv, out, equal_nan=True)


@pytest.mark.parametrize("dom", [torus(), line(-10, 10)], ids=["torus", "line"])
def test_conv_Kprime_values_out(rng, dom):
    # K'*v written into a caller's out equals the fresh result; K*v is always
    # a fresh array, never the operator's own buffer
    n = 256
    op = KernelOp(dom, n)
    v = rng.normal(size=n)
    v0 = v.copy()
    out = np.empty(n)
    assert op.conv_Kprime_values(v, out=out) is out
    assert np.array_equal(v, v0)
    assert np.array_equal(out, op.conv_Kprime_values(v))
    first = op.conv_K_values(v)
    second = op.conv_K_values(v)
    assert np.array_equal(first, second)
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, v)
    assert np.array_equal(v, v0)


def test_conv_K_symmetry(rng):
    for dom, n in ((torus(), 128), (line(-10, 10), 128)):
        op = KernelOp(dom, n)
        v = rng.normal(size=n)
        w = rng.normal(size=n)
        left = np.dot(op.conv_K_values(v), w)
        right = np.dot(v, op.conv_K_values(w))
        assert abs(left - right) <= 1e-10 * max(1.0, abs(left))


def test_conv_Kprime_skew_torus(rng):
    op = KernelOp(torus(), 256)
    h = 1.0 / 256
    for _ in range(10):
        v = rng.normal(size=256)
        assert abs(h * np.dot(op.conv_Kprime_values(v), v)) < 1e-10


def test_conv_Kprime_zero_mean_torus(rng):
    op = KernelOp(torus(), 128)
    for _ in range(5):
        g = rng.normal(size=128)
        assert abs(op.conv_Kprime_values(g).mean()) < 1e-13


def test_operator_bounds_line(rng):
    # |K'*u|_1 <= |u|_1 and |K'*u|_inf <= |u|_inf up to grid slack,
    # since |K'|_1 = 1; fields tapered so the window plays no role
    dom = line(-20, 20)
    n = 1024
    op = KernelOp(dom, n)
    x = dom.cell_centers(n)
    taper = np.exp(-(x / 6.0) ** 2)
    h = op.h
    for _ in range(20):
        u = rng.normal(size=n) * taper
        ku = op.conv_Kprime_values(u)
        assert h * np.abs(ku).sum() <= 1.02 * h * np.abs(u).sum()
        assert np.abs(ku).max() <= 1.02 * np.abs(u).max()


def test_derivative_of_conv_Kprime_bound(rng):
    # |d/dx (K'*u)|_inf <= 2 |u|_inf via K'' = K - delta
    for dom, n in ((torus(), 512), (line(-20, 20), 1024)):
        op = KernelOp(dom, n)
        for _ in range(10):
            u = rng.normal(size=n)
            du = derivative(GridFn(dom, op.conv_Kprime_values(u))).values
            assert np.abs(du).max() <= 2.04 * np.abs(u).max()


@pytest.mark.parametrize("n", [128, 255, 256])
def test_spectral_multiplier_matches_explicit_nyquist_zeroing(rng, n):
    # one multiplier 2 pi i k with the unpaired Nyquist mode set to 0 gives
    # bit for bit what multiplying and then zeroing that mode gave
    op = KernelOp(torus(), n)
    u = rng.normal(size=n)
    k = np.fft.rfftfreq(n, d=1.0 / n)
    du_h = np.fft.rfft(u) * (2j * np.pi * k)
    kpu_h = np.fft.rfft(u) * op.multipliers * (2j * np.pi * k)
    if n % 2 == 0:
        du_h[-1] = kpu_h[-1] = 0.0
        assert op._ik[-1] == 0
    else:
        assert op._ik[-1] != 0
    du, kpu = np.fft.irfft(du_h, n), np.fft.irfft(kpu_h, n)
    assert np.array_equal(derivative(GridFn(torus(), u)).values, du)
    assert np.array_equal(op.conv_Kprime_values(u), kpu)
