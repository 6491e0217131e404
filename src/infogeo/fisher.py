"""Fisher information by quadrature over the microspace.

The metric entries are covariances of the score, g_lm = E[d_l log p d_m log p]
under p itself.  Scores are coded in closed form for the unconstrained family
(low-degree polynomials in the standardized microvariables), so quadrature is
the only error source.  The constrained family is that family on the curve
(mu_x, sigma) -> (mu_x, sigma, Sigma^2 / sigma): its scores are J^T s with
J = d(mu_x, sigma_x, sigma_y) / d(mu_x, sigma), on the grid of the lifted
point, so its metric is the pullback J^T F_3 J.

Both schemes integrate in the standardized variables z = (x - mu_x) / sigma_x
and y / sigma_y, where p is the standard density for every theta, so one grid
per scheme and node count serves every point: the nodes z and the product
weights are built once and shared as read-only arrays, and only the scores
z / sigma_x, (z^2 - 1) / sigma_x and (z_y^2 - 1) / sigma_y depend on theta.
No node is placed at mu_x and no power of sigma above 1 is formed, so the
result holds at any mu_x and for sigma from about 1e-150 to 1e150.

* ``gauss-hermite-product``: z = sqrt(2) u at the nodes u of the weight
  exp(-u^2), so the Gaussian weight is exact.  Score moments are polynomial,
  hence the result is exact to rounding for >= 3 nodes per axis.
* ``truncated-grid``: composite Simpson on [-R, R] per axis, R =
  ``TRUNCATION_RADIUS``, times the standard density ``pdf_3d`` at (0, 1, 1).
  Slower to converge; kept as a structurally different cross-check.

A grid is N flattened nodes with weights w.  E[s s^T] is one Gram product
t @ t^T of t = s sqrt(w), so each Fisher matrix is exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from numbers import Integral

import numpy as np

from .errors import DomainError
from .models import MicroSample, Model2DConfig, ParameterPoint2D, ParameterPoint3D, pdf_3d

_SCHEMES = ("gauss-hermite-product", "truncated-grid")
TRUNCATION_RADIUS = 8.0  # half-width of the truncated grid, in units of sigma


@dataclass(frozen=True)
class QuadratureSpec:
    scheme: str = "gauss-hermite-product"
    nodes_per_axis: int = 32

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise DomainError(f"unknown scheme {self.scheme!r}, expected one of {_SCHEMES}")
        if not isinstance(self.nodes_per_axis, Integral) or self.nodes_per_axis < 8:
            raise DomainError(f"nodes_per_axis must be an integer >= 8: {self.nodes_per_axis!r}")


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


@cache
def _standard_grid(scheme: str, n: int) -> tuple:
    """The nodes z of one standardized axis and the weights of the flattened
    product rule for the standard density, node (i, j) at i * z.size + j."""
    if scheme == "gauss-hermite-product":
        u, w = np.polynomial.hermite.hermgauss(n)
        z, w = np.sqrt(2.0) * u, np.outer(w, w).ravel() / np.pi
    else:
        wz = _simpson_weights(n)
        z = np.linspace(-TRUNCATION_RADIUS, TRUNCATION_RADIUS, wz.size)
        wz = wz * (z[1] - z[0])
        w = (np.outer(wz, wz) * pdf_3d(ParameterPoint3D(0.0, 1.0, 1.0),
                                       MicroSample(z[:, None], z[None, :]))).ravel()
    z.flags.writeable = w.flags.writeable = False   # one pair shared by every call
    return z, w


def _scores(sigma_x, sigma_y, z) -> np.ndarray:
    """d log p / d(mu_x, sigma_x, sigma_y) of the unconstrained family on the
    product grid of the standardized axis z, node (i, j) at column i * z.size + j."""
    c = z * z - 1.0
    s = np.empty((3, z.size, z.size))
    s[0] = (z / sigma_x)[:, None]
    s[1] = (c / sigma_x)[:, None]
    s[2] = c / sigma_y
    return s.reshape(3, -1)


def _grid(theta: ParameterPoint3D, q: QuadratureSpec) -> tuple:
    """The unconstrained scores (3, N) at theta on q's standardized product
    grid, and the node weights (N,)."""
    z, w = _standard_grid(q.scheme, q.nodes_per_axis)
    return _scores(theta.sigma_x, theta.sigma_y, z), w


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
