"""Fisher information by quadrature over the microspace.

The metric entries are covariances of the score, g_lm = E[d_l log p d_m log p]
under p itself.  Scores are coded in closed form (they are low-degree
polynomials in the standardized microvariables), so quadrature is the only
error source.

Two schemes:

* ``gauss-hermite-product``: nodes mapped by x = mu + sqrt(2) sigma u so the
  Gaussian weight is exact.  Score moments are polynomial, hence the result
  is exact to rounding for >= 3 nodes per axis.
* ``truncated-grid``: composite Simpson on [mu - R sigma, mu + R sigma] per
  axis.  Slower to converge; kept as a structurally different cross-check.

All loops are vectorized with fixed (pairwise) numpy summation order, so
results are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import DomainError
from .models import (MicroSample, Model2DConfig, ParameterPoint2D, ParameterPoint3D,
                     pdf_2d, pdf_3d)

_SCHEMES = ("gauss-hermite-product", "truncated-grid")


@dataclass(frozen=True)
class QuadratureSpec:
    scheme: str = "gauss-hermite-product"
    nodes_per_axis: int = 32
    truncation_radius: float = 8.0  # in units of sigma, grid scheme only

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}, expected one of {_SCHEMES}")
        if self.nodes_per_axis < 8:
            raise DomainError("nodes_per_axis must be >= 8")
        if self.scheme == "truncated-grid" and self.truncation_radius < 6.0:
            raise DomainError("truncation_radius must be >= 6 sigma")

    def doubled(self) -> "QuadratureSpec":
        return QuadratureSpec(self.scheme, 2 * self.nodes_per_axis, self.truncation_radius)


def _scores_3d(theta: ParameterPoint3D, x, y):
    """d log p / d(mu_x, sigma_x, sigma_y) on arrays of microspace points."""
    sx, sy = theta.sigma_x, theta.sigma_y
    dx = x - theta.mu_x
    return (dx / sx**2,
            dx**2 / sx**3 - 1.0 / sx,
            y**2 / sy**3 - 1.0 / sy)


def _scores_2d(theta: ParameterPoint2D, cfg: Model2DConfig, x, y):
    """d log p / d(mu_x, sigma) under the product constraint."""
    s = theta.sigma
    s2 = cfg.capital_sigma_sq
    dx = x - theta.mu_x
    return (dx / s**2,
            dx**2 / s**3 - s * y**2 / s2**2)


@cache
def _hermite_nodes(n: int) -> tuple:
    # physicists' weight exp(-u^2); the weights are normalised to sum to 1
    u, w = np.polynomial.hermite.hermgauss(n)
    w = w / np.sqrt(np.pi)
    u.flags.writeable = w.flags.writeable = False   # one pair shared by every call
    return u, w


def _gauss_hermite(mu_x, sigma_x, sigma_y, score_fn, n):
    """Scores on the n x n product grid of N(mu_x, sigma_x^2) x N(0, sigma_y^2), weights."""
    # nodes mapped by x = mu + sqrt(2) sigma u
    u, w = _hermite_nodes(n)
    x = mu_x + np.sqrt(2.0) * sigma_x * u
    y = np.sqrt(2.0) * sigma_y * u
    return score_fn(x[:, None], y[None, :]), w


def _simpson_weights(n: int) -> np.ndarray:
    if n % 2 == 0:
        n += 1  # composite Simpson needs an odd node count
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _expectation_matrix(scores, weights_x, weights_y, density=None):
    """E[s_l s_m] over a product grid; symmetrized (lm + ml)/2."""
    n = len(scores)
    grid_shape = (weights_x.size, weights_y.size)
    out = np.empty((n, n))
    for l in range(n):
        for m in range(l, n):
            integrand = scores[l] * scores[m]
            if density is not None:
                integrand = integrand * density
            integrand = np.broadcast_to(integrand, grid_shape)
            val = float(weights_x @ integrand @ weights_y)
            out[l, m] = out[m, l] = val
    return out


def _fisher_truncated_grid(mu_x, sigma_x, sigma_y, score_fn, pdf, q):
    wx = _simpson_weights(q.nodes_per_axis)
    nn, radius = wx.size, q.truncation_radius
    x = np.linspace(mu_x - radius * sigma_x, mu_x + radius * sigma_x, nn)
    y = np.linspace(-radius * sigma_y, radius * sigma_y, nn)
    hx = x[1] - x[0]
    hy = y[1] - y[0]
    sc = score_fn(x[:, None], y[None, :])
    dens = pdf(MicroSample(x[:, None], y[None, :]))
    return _expectation_matrix(sc, wx * hx, wx * hy, density=dens)


def fisher_numeric_3d(theta: ParameterPoint3D, q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Quadrature estimate of the 3x3 Fisher matrix at theta."""
    score_fn = lambda x, y: _scores_3d(theta, x, y)
    if q.scheme == "gauss-hermite-product":
        sc, w = _gauss_hermite(theta.mu_x, theta.sigma_x, theta.sigma_y, score_fn, q.nodes_per_axis)
        return _expectation_matrix(sc, w, w)
    return _fisher_truncated_grid(theta.mu_x, theta.sigma_x, theta.sigma_y, score_fn,
                                  partial(pdf_3d, theta), q)


def fisher_numeric_2d(theta: ParameterPoint2D, cfg: Model2DConfig = Model2DConfig(),
                      q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Quadrature estimate of the 2x2 Fisher matrix at theta.

    The y-marginal has effective scale Sigma^2 / sigma; the result must not
    depend on Sigma^2.
    """
    sy_eff = cfg.sigma_y(theta.sigma)
    score_fn = lambda x, y: _scores_2d(theta, cfg, x, y)
    if q.scheme == "gauss-hermite-product":
        sc, w = _gauss_hermite(theta.mu_x, theta.sigma, sy_eff, score_fn, q.nodes_per_axis)
        return _expectation_matrix(sc, w, w)
    return _fisher_truncated_grid(theta.mu_x, theta.sigma, sy_eff, score_fn,
                                  partial(pdf_2d, theta, cfg), q)


def _score_means(sc, w) -> np.ndarray:
    grid = (w.size, w.size)
    return np.array([float(w @ np.broadcast_to(s, grid) @ w) for s in sc])


def score_mean_3d(theta: ParameterPoint3D, q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """E[d_l log p]; identically zero, quadrature sanity check."""
    return _score_means(*_gauss_hermite(theta.mu_x, theta.sigma_x, theta.sigma_y,
                                        lambda x, y: _scores_3d(theta, x, y),
                                        q.nodes_per_axis))


def score_mean_2d(theta: ParameterPoint2D, cfg: Model2DConfig = Model2DConfig(),
                  q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    return _score_means(*_gauss_hermite(theta.mu_x, theta.sigma, cfg.sigma_y(theta.sigma),
                                        lambda x, y: _scores_2d(theta, cfg, x, y),
                                        q.nodes_per_axis))


def convergence_defect(compute, q: QuadratureSpec) -> float:
    """Max absolute entry change when the node count is doubled.

    ``compute`` maps a QuadratureSpec to a matrix.  A large defect flags
    quadrature nonconvergence; callers decide what to do with it.
    """
    coarse = compute(q)
    fine = compute(q.doubled())
    return float(np.abs(fine - coarse).max())
