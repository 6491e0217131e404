"""Least-squares line fits for the tail slopes and growth exponents.

``fit_basis`` has no caller in the package: it stays only because the
benchmark tracer (``bench/tracing.py``) binds it by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LineFit:
    slope: float        # an array of one per row for a fit of rows
    r_squared: float


def fit_line(x, y) -> LineFit:
    """Ordinary least squares y ~ slope * x + intercept: the slope, with R^2.

    From the centred sums on u = x / 2^ex and v = y / 2^ey, 2^ex and 2^ey
    the binary orders of max |x| and max |y|: slope = sum du dv / sum du^2,
    scaled back, and R^2 = (sum du dv)^2 / (sum du^2 sum dv^2), 1 for a
    constant y.  Division by a power of two is exact, so the fit maps
    exactly under such scalings, and the squares stay in range at any scale.
    Two 2-D x and y fit each row on its own, into arrays of slopes and R^2;
    a 1-D pair is the one-row case.  Each row is summed in one C-contiguous
    run (pairwise ``mean``, BLAS ``dot``), so a row fits bit for bit as the
    same points fitted alone, whatever the layout they come in.
    """
    x = np.ascontiguousarray(x, dtype=float)
    y = np.ascontiguousarray(y, dtype=float)
    u, v = np.atleast_2d(x, y)
    lo, hi = u.min(axis=1), u.max(axis=1)
    if u.shape[1] < 2 or (lo == hi).any():
        raise ValueError("need at least two distinct abscissae for a line fit")
    v_lo, v_hi = v.min(axis=1), v.max(axis=1)
    if not np.isfinite([lo, hi, v_lo, v_hi]).all():   # a NaN or inf leaves its row's min or max
        raise ValueError("non-finite values in the fit window")
    ex, ey = (np.frexp(np.maximum(-a, b))[1][:, None] for a, b in ((lo, hi), (v_lo, v_hi)))
    u, v = np.ldexp(u, -ex), np.ldexp(v, -ey)
    du, dv = u - u.mean(axis=1, keepdims=True), v - v.mean(axis=1, keepdims=True)
    sxy, sxx, syy = (np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]
                     for a, b in ((du, dv), (du, du), (dv, dv)))
    r2 = np.divide(sxy * sxy, sxx * syy, out=np.ones_like(syy), where=syy != 0.0)
    slope = np.ldexp(sxy / sxx, (ey - ex)[:, 0])
    return LineFit(slope, r2) if x.ndim == 2 else LineFit(float(slope[0]), float(r2[0]))


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
