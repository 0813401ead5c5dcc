import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fwlab import GridFn, derivative, line, norm, sample, torus
from fwlab.grid import (read_snapshot_csv, slope_extrema_values, write_csv,
                        write_snapshot_csv)


def test_sample_zero_is_zero():
    g = sample("zero", torus(), 8)
    assert np.all(g.values == 0.0)


def test_sample_sine_small_grid_values():
    g = sample("sine", torus(), 4, amplitude=0.2, offset=0.5)
    x = np.array([1 / 8, 3 / 8, 5 / 8, 7 / 8])
    assert np.allclose(g.values, 0.5 + 0.2 * np.sin(2 * np.pi * x), atol=1e-15)
    assert np.allclose(g.x, x)


def test_sample_peakon_crest():
    g = sample("peakon", line(-20, 20), 4000)
    assert abs(g.values.max() - 4.0 / 3.0) < g.h
    assert abs(g.x[np.argmax(g.values)]) < g.h


def test_sample_errors():
    with pytest.raises(ValueError, match="unknown profile"):
        sample("nope", torus(), 8)
    with pytest.raises(ValueError, match="not finite"):
        sample("sine", torus(), 8, amplitude=float("nan"))
    with pytest.raises(ValueError):
        sample("zero", torus(), 2)


def test_sample_bump_matches_masked_expression():
    dom = line(-3, 3)
    x = dom.cell_centers(600)
    z = (x - 0.4) / 1.7
    ref = np.zeros_like(x)
    m = np.abs(z) < 1.0
    ref[m] = 0.01 * np.exp(-1.0 / (1.0 - z[m] ** 2))
    g = sample("bump", dom, 600, amplitude=0.01, center=0.4, radius=1.7)
    assert np.array_equal(g.values, ref)
    assert m.any() and not m.all()


def test_norm_zero():
    z = sample("zero", torus(), 16)
    for which in ("L1", "L2", "Linf", "TV"):
        assert norm(z, which) == 0.0


def test_norm_kernel_l1_converges_to_one():
    # oracle: the analytic integral of exp(-|x|)/2 over the line is 1;
    # midpoint quadrature undershoots by h^2/24 * int f'' = h^2/24
    for n, tol in ((6000, 5e-6), (16384, 1e-6)):
        g = sample("kernel", line(-30, 30), n)
        err = abs(norm(g, "L1") - 1.0)
        assert err < tol
        assert err < 1.2 * g.h ** 2 / 24 + 1e-12


def test_norm_tv_sine():
    # oracle: brute-force fine-grid total variation of a*sin(2 pi x)
    a = 0.3
    xf = np.linspace(0, 1, 200001)
    tv_oracle = np.abs(np.diff(a * np.sin(2 * np.pi * xf))).sum()
    assert abs(tv_oracle - 4 * a) < 1e-8
    for n in (128, 256, 512):
        g = sample("sine", torus(), n, amplitude=a, offset=0.0)
        assert abs(norm(g, "TV") - 4 * a) < 5.0 / n


@given(alpha=st.floats(-10, 10, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_norm_scaling(alpha):
    rng = np.random.default_rng(7)
    g = GridFn(torus(), rng.normal(size=64))
    for which in ("L1", "L2", "Linf", "TV"):
        assert norm(alpha * g, which) == pytest.approx(
            abs(alpha) * norm(g, which), rel=1e-12, abs=1e-12)


def test_norm_triangle_inequality(rng):
    for _ in range(20):
        f = GridFn(line(-5, 5), rng.normal(size=64))
        g = GridFn(line(-5, 5), rng.normal(size=64))
        for which in ("L1", "L2", "Linf"):
            assert norm(f + g, which) <= norm(f, which) + norm(g, which) + 1e-12


def test_derivative_constant():
    g = sample("constant", torus(), 32, value=3.0)
    assert np.abs(derivative(g).values).max() < 1e-13
    gl = sample("constant", line(-5, 5), 32, value=3.0)
    assert np.abs(derivative(gl).values).max() < 1e-11


def test_derivative_resolved_mode_exact():
    g = sample("sine", torus(), 64, amplitude=1.0, offset=0.0)
    expected = 2 * np.pi * np.cos(2 * np.pi * g.x)
    assert np.abs(derivative(g).values - expected).max() < 1e-10


def test_derivative_peakon_off_corner():
    # analytic derivative of (4/3) exp(-|x|/2) at x = +-2 is -+(2/3) e^-1
    g = sample("peakon", line(-20, 20), 4000)
    d = derivative(g).values
    for sign in (+1, -1):
        i = np.argmin(np.abs(g.x - sign * 2.0))
        assert abs(d[i] - (-sign) * (2 / 3) * math.exp(-1)) < 1e-3


def test_torus_derivative_mean_zero(rng):
    g = GridFn(torus(), rng.normal(size=128))
    assert abs(derivative(g).values.mean()) < 1e-13


def test_quadrature_second_order():
    # midpoint error halves at order 2 when n doubles; the exponential
    # kernel's corner keeps the error off the superconvergent regime
    errs = []
    for n in (750, 1500, 3000):
        g = sample("kernel", line(-30, 30), n)
        errs.append(abs(norm(g, "L1") - 1.0))
    assert math.log2(errs[0] / errs[1]) > 1.9
    assert math.log2(errs[1] / errs[2]) > 1.9
    # fully smooth decaying profiles are already at machine accuracy
    g = sample("gaussian", line(-10, 10), 100)
    assert abs(norm(g, "L1") - math.sqrt(math.pi)) < 1e-12


def test_gridfn_validation():
    with pytest.raises(ValueError):
        GridFn(torus(), np.array([1.0, np.inf, 0.0, 0.0]))
    f = GridFn(torus(), np.zeros(8))
    g = GridFn(torus(), np.zeros(16))
    with pytest.raises(ValueError, match="incompatible"):
        _ = f + g


def test_gridfn_immutable():
    g = sample("sine", torus(), 16)
    with pytest.raises(ValueError):
        g.values[0] = 99.0


def test_snapshot_csv_roundtrip(tmp_path):
    g = sample("gaussian", line(-5, 5), 64, amplitude=0.7)
    path = tmp_path / "snap.csv"
    write_snapshot_csv(g, path)
    back = read_snapshot_csv(path, g.domain)
    assert np.allclose(back.values, g.values, rtol=0, atol=0)
    header = path.read_text().splitlines()[0]
    assert header == "x,u"


def test_write_csv_formats_ints_floats_and_nan(tmp_path):
    # the convergence table mixes an integer n column with a leading nan
    path = tmp_path / "t.csv"
    write_csv(path, ("n", "err", "order"),
              ([2000, 4000], np.array([0.1, 1 / 3]), [math.nan, 1.0]))
    assert path.read_text() == ("n,err,order\n"
                                "2000,0.10000000000000001,nan\n"
                                "4000,0.33333333333333331,1\n")


def _periodic_slope_ref(values, h, a):
    d = (np.roll(values, -1) - values) / h
    i1, i2 = int(np.argmin(d)), int(np.argmax(d))

    def loc(i):
        return a if i == values.size - 1 else a + (i + 1) * h
    return float(d[i1]), loc(i1), float(d[i2]), loc(i2)


def test_periodic_slope_extrema_match_roll_reference(rng):
    n = 64
    h = 1.0 / n
    x = torus().cell_centers(n)
    ramp = x.copy()  # the one drop is across the wrap interface
    cases = [rng.normal(size=n), np.full(n, 0.7), ramp, -ramp,
             np.sin(2 * np.pi * x) + 0.1]
    for values in cases:
        got = slope_extrema_values(values, h, True, 0.0)
        assert got == _periodic_slope_ref(values, h, 0.0)
    # ties pick the smallest index; a wrap extremum reports x = a
    assert slope_extrema_values(np.full(n, 0.7), h, True, 0.0) == (
        0.0, h, 0.0, h)
    m1, xi1, _, _ = slope_extrema_values(ramp, h, True, 0.0)
    assert (m1, xi1) == ((x[0] - x[-1]) / h, 0.0)
    _, _, m2, xi2 = slope_extrema_values(-ramp, h, True, 0.0)
    assert (m2, xi2) == ((x[-1] - x[0]) / h, 0.0)
