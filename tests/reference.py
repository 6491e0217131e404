"""Test-side references: the Gaussian densities, the truncated-grid Fisher
scheme and a flat metric field.

The package computes the Fisher matrix by a Gauss-Hermite product rule, whose
weight is the Gaussian itself.  The truncated grid is a structurally
different cross-check and the one place the density enters a Fisher matrix:
composite Simpson on [-R, R] per standardized axis, R = ``TRUNCATION_RADIUS``,
times the standard density ``pdf_3d`` at (0, 1, 1).  It shares the package's
scores, so it differs from Gauss-Hermite only in its nodes and weights, and
its values are those ``oracle_bits.json`` records under ``truncated-grid``.
It converges more slowly: 32 nodes per axis (33 Simpson nodes) hold the
closed form to 1.3e-6 of the largest entry.
"""

import math
from functools import cache

import numpy as np

from infogeo import fisher
from infogeo.models import Model2DConfig, ParameterPoint3D
from infogeo.numgeo import MetricField

TRUNCATION_RADIUS = 8.0  # half-width of the truncated grid, in units of sigma
_TWO_PI = 2.0 * math.pi


def pdf_3d(theta, x, y):
    """Density (1 / (2 pi sx sy)) exp(-(x-mu)^2 / (2 sx^2) - y^2 / (2 sy^2)),
    at one sample (x, y) or on a grid of broadcasting arrays."""
    dx = x - theta.mu_x
    expo = -0.5 * (dx / theta.sigma_x) ** 2 - 0.5 * (y / theta.sigma_y) ** 2
    return np.exp(expo) / (_TWO_PI * theta.sigma_x * theta.sigma_y)


def pdf_2d(theta, cfg, x, y):
    """Density of the constrained family.

    Equals ``pdf_3d`` evaluated at (mu_x, sigma, Sigma^2 / sigma): the
    normalization 1 / (2 pi Sigma^2) absorbs the constraint.
    """
    s2 = cfg.capital_sigma_sq
    dx = x - theta.mu_x
    expo = (-0.5 * (dx / theta.sigma) ** 2
            - 0.5 * (theta.sigma * y) ** 2 / s2**2)
    return np.exp(expo) / (_TWO_PI * s2)


@cache
def truncated_grid(nodes_per_axis: int) -> tuple:
    """The nodes z of one standardized axis (``nodes_per_axis`` rounded up to
    odd) and the flattened product weights, Simpson's times the standard
    density, node (i, j) at i * z.size + j."""
    n = nodes_per_axis | 1      # composite Simpson needs an odd node count
    wz = np.ones(n)
    wz[1:-1:2] = 4.0
    wz[2:-1:2] = 2.0
    wz /= 3.0
    z = np.linspace(-TRUNCATION_RADIUS, TRUNCATION_RADIUS, n)
    wz = wz * (z[1] - z[0])
    w = (np.outer(wz, wz) * pdf_3d(ParameterPoint3D(0.0, 1.0, 1.0),
                                   z[:, None], z[None, :])).ravel()
    z.flags.writeable = w.flags.writeable = False
    return z, w


def fisher_grid_3d(theta, nodes_per_axis=32):
    """The 3x3 Fisher matrix at theta on the truncated grid."""
    z, w = truncated_grid(nodes_per_axis)
    return fisher._covariance(fisher._scores(theta, z), w)


def fisher_grid_2d(theta, cfg=Model2DConfig(), nodes_per_axis=32):
    """The 2x2 Fisher matrix at theta on the truncated grid, by the package's
    pullback of the lifted point's scores."""
    z, w = truncated_grid(nodes_per_axis)
    return fisher._covariance(fisher._scores_2d(theta, cfg, z), w)


def euclidean_field(dimension: int) -> MetricField:
    """The identity metric at every row: a field with no connection."""
    return MetricField(dimension, lambda rows: np.broadcast_to(
        np.eye(dimension), (len(rows), dimension, dimension)))
