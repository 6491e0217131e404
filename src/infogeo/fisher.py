"""Fisher information by Gauss-Hermite quadrature over the microspace.

The metric entries are covariances of the score, g_lm = E[d_l log p d_m log p]
under p itself.  Scores are coded in closed form for the unconstrained family
(low-degree polynomials in the standardized microvariables), so quadrature is
the only error source.  The constrained family is that family on the curve
(mu_x, sigma) -> (mu_x, sigma, Sigma^2 / sigma): its scores are J^T s with
J = d(mu_x, sigma_x, sigma_y) / d(mu_x, sigma), on the grid of the lifted
point, so its metric is the pullback J^T F_3 J.

The rule integrates in the standardized variables z = (x - mu_x) / sigma_x
and y / sigma_y, where p is the standard density for every theta, so one grid
per node count serves every point: z = sqrt(2) u at the nodes u of the weight
exp(-u^2), and the product weights, are built once and shared as read-only
arrays; only the scores z / sigma_x, (z^2 - 1) / sigma_x and
(z_y^2 - 1) / sigma_y depend on theta.  The Gaussian weight is exact and the
score moments are polynomial, so the result is exact to rounding for >= 3
nodes per axis.  No node is placed at mu_x and no power of sigma above 1 is
formed, so the result holds at any mu_x and for sigma from about 1e-150 to
1e150.

A grid is N flattened nodes with weights w.  E[s s^T] is one Gram product
t @ t^T of t = s sqrt(w), so each Fisher matrix is exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from numbers import Integral

import numpy as np

from .errors import DomainError
from .models import Model2DConfig, ParameterPoint2D, ParameterPoint3D


@dataclass(frozen=True)
class QuadratureSpec:
    nodes_per_axis: int = 32

    def __post_init__(self):
        if not isinstance(self.nodes_per_axis, Integral) or self.nodes_per_axis < 8:
            raise DomainError(f"nodes_per_axis must be an integer >= 8: {self.nodes_per_axis!r}")


@cache
def _standard_grid(n: int) -> tuple:
    """The nodes z of one standardized axis and the weights of the flattened
    product rule for the standard density, node (i, j) at i * z.size + j."""
    u, w = np.polynomial.hermite.hermgauss(n)
    z, w = np.sqrt(2.0) * u, np.outer(w, w).ravel() / np.pi
    z.flags.writeable = w.flags.writeable = False   # one pair shared by every call
    return z, w


def _scores(theta: ParameterPoint3D, z) -> np.ndarray:
    """d log p / d(mu_x, sigma_x, sigma_y) of the unconstrained family at theta
    on the product grid of the standardized axis z, node (i, j) at column
    i * z.size + j."""
    c = z * z - 1.0
    s = np.empty((3, z.size, z.size))
    s[0] = (z / theta.sigma_x)[:, None]
    s[1] = (c / theta.sigma_x)[:, None]
    s[2] = c / theta.sigma_y
    return s.reshape(3, -1)


def _scores_2d(theta: ParameterPoint2D, cfg: Model2DConfig, z) -> np.ndarray:
    """The constrained scores J^T s (2, N) on the grid of the lifted point
    (mu_x, sigma, Sigma^2 / sigma)."""
    sy = cfg.sigma_y(theta.sigma)
    s = _scores(ParameterPoint3D(theta.mu_x, theta.sigma, sy), z)
    jac_t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -sy / theta.sigma]])
    return jac_t @ s


def _covariance(s, w) -> np.ndarray:
    t = s * np.sqrt(w)
    return t @ t.T


def fisher_numeric_3d(theta: ParameterPoint3D, q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Quadrature estimate of the 3x3 Fisher matrix at theta."""
    z, w = _standard_grid(q.nodes_per_axis)
    return _covariance(_scores(theta, z), w)


def fisher_numeric_2d(theta: ParameterPoint2D, cfg: Model2DConfig = Model2DConfig(),
                      q: QuadratureSpec = QuadratureSpec()) -> np.ndarray:
    """Quadrature estimate of the 2x2 Fisher matrix at theta; it must not
    depend on Sigma^2."""
    z, w = _standard_grid(q.nodes_per_axis)
    return _covariance(_scores_2d(theta, cfg, z), w)
