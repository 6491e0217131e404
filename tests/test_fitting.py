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
