"""Least-squares line fits for the tail slopes and growth exponents.

``fit_basis`` has no caller in the package: it stays only because the
benchmark tracer (``bench/tracing.py``) binds it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LineFit:
    slope: float
    r_squared: float


def fit_line(x, y) -> LineFit:
    """Ordinary least squares y ~ slope * x + intercept: the slope, with R^2.

    From the centred sums on u = x / 2^ex and v = y / 2^ey, 2^ex and 2^ey
    the binary orders of max |x| and max |y|: slope = sum du dv / sum du^2,
    scaled back, and R^2 = (sum du dv)^2 / (sum du^2 sum dv^2), 1 for a
    constant y.  Division by a power of two is exact, so the fit maps
    exactly under such scalings, and the squares stay in range at any scale.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or x.min() == x.max():
        raise ValueError("need at least two distinct abscissae for a line fit")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in the fit window")
    ex, ey = (math.frexp(float(np.abs(v).max()))[1] for v in (x, y))
    u, v = np.ldexp(x, -ex), np.ldexp(y, -ey)
    du, dv = u - u.mean(), v - v.mean()
    sxy, sxx, syy = float(du @ dv), float(du @ du), float(dv @ dv)
    r2 = 1.0 if syy == 0.0 else sxy * sxy / (sxx * syy)
    return LineFit(float(np.ldexp(sxy / sxx, ey - ex)), r2)


def fit_basis(x, y, basis_functions):
    """Coefficients c minimizing ||y - sum_j c_j f_j(x)|| plus the relative
    residual max |misfit| / max |y|."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    design = np.column_stack([f(x) for f in basis_functions])
    coeffs, *_ = np.linalg.lstsq(design, y, rcond=None)
    misfit = y - design @ coeffs
    scale = float(np.abs(y).max()) or 1.0
    return coeffs, float(np.abs(misfit).max()) / scale
