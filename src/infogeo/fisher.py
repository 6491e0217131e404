"""Fisher information by quadrature over the microspace.

The metric entries are covariances of the score, g_lm = E[d_l log p d_m log p]
under p itself.  Scores are coded in closed form for the unconstrained family
(low-degree polynomials in the standardized microvariables), so quadrature is
the only error source.  The constrained family is that family on the curve
(mu_x, sigma) -> (mu_x, sigma, Sigma^2 / sigma): its scores are J^T s with
J = d(mu_x, sigma_x, sigma_y) / d(mu_x, sigma), on the grid of the lifted
point, so its metric is the pullback J^T F_3 J.  ``_grid`` picks the scheme:

* ``gauss-hermite-product``: nodes mapped by x = mu + sqrt(2) sigma u so the
  Gaussian weight is exact.  Score moments are polynomial, hence the result
  is exact to rounding for >= 3 nodes per axis.
* ``truncated-grid``: composite Simpson on [mu - R sigma, mu + R sigma] per
  axis times the density.  Slower to converge; kept as a structurally
  different cross-check.

A grid is N flattened nodes with weights w.  The score means are one product
s @ w; E[s s^T] is one Gram product t @ t^T of t = s sqrt(w), so each Fisher
matrix is exactly symmetric.  What does not depend on theta is computed once
per node count and shared as read-only arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError
from .models import MicroSample, Model2DConfig, ParameterPoint2D, ParameterPoint3D, pdf_3d

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


def _scores(mu_x, sigma_x, sigma_y, x, y) -> np.ndarray:
    """d log p / d(mu_x, sigma_x, sigma_y) of the unconstrained family on the
    product grid of the axes x and y, node (i, j) at column i * y.size + j."""
    dx = (x - mu_x)[:, None]
    s = np.empty((3, x.size, y.size))
    s[0] = dx / sigma_x**2
    s[1] = dx**2 / sigma_x**3 - 1.0 / sigma_x
    s[2] = y**2 / sigma_y**3 - 1.0 / sigma_y
    return s.reshape(3, -1)


@cache
def _hermite_nodes(n: int) -> tuple:
    """Nodes u for the physicists' weight exp(-u^2), and the weights of the
    flattened n x n product rule, normalised to sum to 1."""
    u, w = np.polynomial.hermite.hermgauss(n)
    w = w / np.sqrt(np.pi)
    w = np.outer(w, w).ravel()
    u.flags.writeable = w.flags.writeable = False   # one pair shared by every call
    return u, w


@cache
def _simpson_weights(n: int) -> np.ndarray:
    if n % 2 == 0:
        n += 1  # composite Simpson needs an odd node count
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w /= 3.0
    w.flags.writeable = False
    return w


def _grid(theta: ParameterPoint3D, q: QuadratureSpec) -> tuple:
    """The unconstrained scores (3, N) at the N nodes of q's product grid
    around theta, and the node weights (N,)."""
    if q.scheme == "gauss-hermite-product":
        u, w = _hermite_nodes(q.nodes_per_axis)
        x = theta.mu_x + np.sqrt(2.0) * theta.sigma_x * u
        y = np.sqrt(2.0) * theta.sigma_y * u
    else:
        wx, radius = _simpson_weights(q.nodes_per_axis), q.truncation_radius
        x = np.linspace(theta.mu_x - radius * theta.sigma_x,
                        theta.mu_x + radius * theta.sigma_x, wx.size)
        y = np.linspace(-radius * theta.sigma_y, radius * theta.sigma_y, wx.size)
        w = (np.outer(wx * (x[1] - x[0]), wx * (y[1] - y[0]))
             * pdf_3d(theta, MicroSample(x[:, None], y[None, :]))).ravel()
    return _scores(theta.mu_x, theta.sigma_x, theta.sigma_y, x, y), w


def _grid_2d(theta: ParameterPoint2D, cfg: Model2DConfig, q: QuadratureSpec) -> tuple:
    """The constrained scores J^T s (2, N) on the grid of the lifted point
    (mu_x, sigma, Sigma^2 / sigma), and the node weights (N,)."""
    sy = cfg.sigma_y(theta.sigma)
    s, w = _grid(ParameterPoint3D(theta.mu_x, theta.sigma, sy), q)
    jac_t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -sy / theta.sigma]])
    return jac_t @ s, w


def _covariance(s, w) -> np.ndarray:
    t = s * np.sqrt(w)
    return t @ t.T


def fisher_numeric_3d(theta: ParameterPoint3D, q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Quadrature estimate of the 3x3 Fisher matrix at theta."""
    return _covariance(*_grid(theta, q))


def fisher_numeric_2d(theta: ParameterPoint2D, cfg: Model2DConfig = Model2DConfig(),
                      q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Quadrature estimate of the 2x2 Fisher matrix at theta; it must not
    depend on Sigma^2."""
    return _covariance(*_grid_2d(theta, cfg, q))


def score_mean_3d(theta: ParameterPoint3D, q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """E[d_l log p]; identically zero, quadrature sanity check."""
    return np.dot(*_grid(theta, q))


def score_mean_2d(theta: ParameterPoint2D, cfg: Model2DConfig = Model2DConfig(),
                  q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    return np.dot(*_grid_2d(theta, cfg, q))

