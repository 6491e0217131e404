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

    Fitted to x / 2^ex and y / 2^ey, 2^ex and 2^ey the binary orders of
    max |x| and max |y|, and scaled back: ``np.polyfit`` squares x, which
    overflows past about 1e154 and underflows below 1e-154.  Division by a
    power of two is exact, so elsewhere the fit is the same bit for bit.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points for a line fit")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite values in the fit window")
    ex, ey = (math.frexp(float(np.abs(v).max()))[1] for v in (x, y))
    u, v = np.ldexp(x, -ex), np.ldexp(y, -ey)
    slope, intercept = np.polyfit(u, v, 1)
    resid = v - (slope * u + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((v - v.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LineFit(float(np.ldexp(slope, ey - ex)), r2)


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
