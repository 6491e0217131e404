"""Least-squares line fits: exact under power-of-two scaling, at any scale."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from infogeo import fit_line

# multiples of 2^-10 in [-1000, 1000]: scaled by 2^k for |k| <= 450 they,
# and the slopes of their fits, stay normal floats
_values = st.integers(-1024000, 1024000).map(lambda i: i / 1024.0)
_exponents = st.integers(-450, 450)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(points=st.lists(st.tuples(_values, _values), min_size=2, max_size=40),
       k=_exponents, j=_exponents)
def test_scaling_by_powers_of_two_maps_the_fit_exactly(points, k, j):
    # y ~ a x + b gives y 2^j ~ (a 2^(j-k)) (x 2^k) + b 2^j, bit for bit
    x, y = (np.array(v) for v in zip(*points))
    assume(np.ptp(x) > 0.0)
    base = fit_line(x, y)
    scaled = fit_line(np.ldexp(x, k), np.ldexp(y, j))
    assert scaled.slope == np.ldexp(base.slope, j - k)
    assert scaled.r_squared == base.r_squared


@pytest.mark.parametrize("x_scale,y_scale", [(1e300, 1e300), (1e-300, 1e-300),
                                             (1e300, 1.0), (1e-300, 1.0)])
def test_extreme_scales_recover_the_line_without_a_warning(x_scale, y_scale):
    # np.polyfit squares the abscissae: past about 1e154 they overflowed and
    # the slope came back 0, below about 1e-154 its SVD did not converge
    x = np.linspace(1.0, 10.0, 50) * x_scale
    slope = 2.5 * y_scale / x_scale
    y = slope * x + 7.0 * y_scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_line(x, y)
    assert fit.slope == pytest.approx(slope, rel=1e-13)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-14)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_non_finite_values_are_refused_in_silence(bad, axis, capfd):
    # a NaN abscissa printed six DLASCL lines from LAPACK before the SVD
    # failed to converge, and an inf one warned from np.polyfit
    points = {"x": np.linspace(1.0, 10.0, 10), "y": np.linspace(2.0, 5.0, 10)}
    points[axis][3] = bad
    with pytest.raises(ValueError, match="non-finite values in the fit window"):
        fit_line(points["x"], points["y"])
    assert capfd.readouterr() == ("", "")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x,y", [([1.0], [2.0]), ([3.0, 3.0, 3.0], [1.0, 2.0, 4.0])],
                         ids=["one-point", "equal-abscissae"])
def test_a_line_needs_two_distinct_abscissae(x, y, capfd):
    # the closed form divides by the spread of the abscissae
    with pytest.raises(ValueError, match="need at least two"):
        fit_line(x, y)
    assert capfd.readouterr() == ("", "")


def _reference_fit(x, y) -> tuple:
    """One fit of 1-D x and y as the closed form was first written, on
    Python floats and 1-D numpy sums: the reference each row must match."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    ex, ey = (math.frexp(float(np.abs(v).max()))[1] for v in (x, y))
    u, v = np.ldexp(x, -ex), np.ldexp(y, -ey)
    du, dv = u - u.mean(), v - v.mean()
    sxy, sxx, syy = float(du @ dv), float(du @ du), float(dv @ dv)
    r2 = 1.0 if syy == 0.0 else sxy * sxy / (sxx * syy)
    return float(np.ldexp(sxy / sxx, ey - ex)), r2


def _assert_rows_match_the_reference(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = fit_line(x, y)
    assert fit.slope.shape == fit.r_squared.shape == (x.shape[0],)
    for i in range(x.shape[0]):
        assert (fit.slope[i], fit.r_squared[i]) == _reference_fit(x[i], y[i])
        one = fit_line(x[i], y[i])
        assert type(one.slope) is type(one.r_squared) is float
        assert (one.slope, one.r_squared) == _reference_fit(x[i], y[i])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.integers(1, 5), n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1),
       x_exp=st.integers(-300, 300), y_exp=st.integers(-300, 300),
       layout=st.sampled_from(["C", "F", "transposed"]))
def test_each_row_fits_bit_for_bit_as_its_own_points(rows, n, seed, x_exp, y_exp, layout):
    # rows at scales from 1e-300 to 1e300, in any memory layout (a
    # transposed view among them), fit as the 1-D reference fits each row;
    # the slope, about 10^(y_exp - x_exp), stays in range
    assume(abs(y_exp - x_exp) <= 300)
    rng = np.random.default_rng(seed)
    x = np.sort(rng.normal(size=(rows, n)), axis=1) * 10.0 ** x_exp
    y = (rng.normal(size=(rows, n)) + rng.normal() * x / 10.0 ** x_exp) * 10.0 ** y_exp
    if layout == "F":
        x, y = np.asfortranarray(x), np.asfortranarray(y)
    elif layout == "transposed":
        x, y = np.ascontiguousarray(x.T).T, np.ascontiguousarray(y.T).T
    _assert_rows_match_the_reference(x, y)


@pytest.mark.filterwarnings("error")
def test_two_point_and_constant_rows_fit_as_their_own_points():
    # a two-point row, a constant-y row (R^2 = 1, slope 0), a row at 1e300
    # and one at 1e-300 fitted together, and through a transposed view
    x = np.array([[1.0, 3.0, 0.0], [1.0, 2.0, 3.0], [1e300, 2e300, 4e300],
                  [1e-300, 3e-300, 4e-300]])[:, :2]
    y = np.array([[2.0, -5.0], [7.0, 7.0], [1e300, -1e300], [-3e-300, 5e-300]])
    _assert_rows_match_the_reference(x, y)
    _assert_rows_match_the_reference(np.ascontiguousarray(x.T).T, np.ascontiguousarray(y.T).T)
    fit = fit_line(x, y)
    assert (fit.slope[1], fit.r_squared[1]) == (0.0, 1.0)
    assert fit.r_squared[0] == 1.0


@pytest.mark.filterwarnings("error")
def test_a_row_that_cannot_be_fitted_refuses_the_whole_fit(capfd):
    # one row of equal abscissae or one non-finite value refuses every row
    x = np.array([[1.0, 2.0, 3.0], [4.0, 4.0, 4.0]])
    with pytest.raises(ValueError, match="need at least two"):
        fit_line(x, np.ones_like(x))
    x[1] = [4.0, 5.0, math.nan]
    with pytest.raises(ValueError, match="non-finite values in the fit window"):
        fit_line(x, np.ones_like(x))
    assert capfd.readouterr() == ("", "")
