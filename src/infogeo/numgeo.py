"""Curvature from a metric field by finite differences.

Independent numerical route to the connection and curvature of any smooth
metric field: no closed forms are assumed, only pointwise metric values.
Used to cross-validate the analytic results in :mod:`infogeo.models`.

Two step sizes are involved.  Metric derivatives use second-order central
differences with a small relative step.  Christoffel derivatives (needed
for the Riemann tensor) difference an already-differenced quantity, so a
plain nested central difference with the same step would amplify rounding
error to ~1e-5; instead we use a wider step with a fourth-order five-point
stencil, which keeps the truncation error down at that width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .models import (ParameterPoint2D, ParameterPoint3D, metric_2d, metric_3d)
from .tensors import ChristoffelSymbols, MetricTensor, RicciTensor, RiemannTensor

METRIC_STEP = 1e-5        # relative step for d g / d theta (central, 2nd order)
CHRISTOFFEL_STEP = 1e-3   # relative step for d Gamma / d theta (5-point, 4th order)


@dataclass(frozen=True)
class MetricField:
    """A metric as a function of the parameter vector.

    ``evaluate`` must return a symmetric positive definite (dimension x
    dimension) array.  ``lower_bounds`` marks open lower limits of the
    coordinate domain (e.g. 0 for scale parameters) so finite-difference
    stencils can refuse to step across them.
    """

    dimension: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    lower_bounds: tuple = None

    def __post_init__(self):
        if self.lower_bounds is None:
            object.__setattr__(self, "lower_bounds", (-np.inf,) * self.dimension)
        elif len(self.lower_bounds) != self.dimension:
            raise ValueError("lower_bounds length must match dimension")

    def metric_at(self, theta: np.ndarray) -> MetricTensor:
        """Evaluate and validate (symmetry + positive definiteness)."""
        g = np.asarray(self.evaluate(np.asarray(theta, dtype=float)), dtype=float)
        if g.shape != (self.dimension, self.dimension):
            raise DomainError(f"metric field returned shape {g.shape}, "
                              f"expected {(self.dimension, self.dimension)}")
        return MetricTensor(g)


def field_3d() -> MetricField:
    """The unconstrained Gaussian model as a metric field."""
    return MetricField(3, lambda t: metric_3d(ParameterPoint3D.from_array(t)).components,
                       lower_bounds=(-np.inf, 0.0, 0.0))


def field_2d() -> MetricField:
    """The constrained Gaussian model as a metric field."""
    return MetricField(2, lambda t: metric_2d(ParameterPoint2D.from_array(t)).components,
                       lower_bounds=(-np.inf, 0.0))


def euclidean_field(dimension: int) -> MetricField:
    return MetricField(dimension, lambda t: np.eye(dimension))


def _steps(theta: np.ndarray, rel: float) -> np.ndarray:
    return rel * np.maximum(1.0, np.abs(theta))


def _check_step(field: MetricField, theta: np.ndarray, h: np.ndarray, reach: float):
    lo = np.asarray(field.lower_bounds)
    if np.any(theta - reach * h <= lo):
        raise DomainError(
            f"finite-difference step {h} reaches the domain boundary at theta={theta}")


def metric_derivatives(field: MetricField, theta, h: float = METRIC_STEP) -> np.ndarray:
    """d g_ij / d theta^k by central differences, indexed [k, i, j]."""
    theta = np.asarray(theta, dtype=float)
    hs = _steps(theta, h)
    _check_step(field, theta, hs, 1.0)
    n = field.dimension
    dg = np.empty((n, n, n))
    for k in range(n):
        step = np.zeros(n)
        step[k] = hs[k]
        gp = field.evaluate(theta + step)
        gm = field.evaluate(theta - step)
        dg[k] = (gp - gm) / (2.0 * hs[k])
    return dg


def christoffel_numeric(field: MetricField, theta, h: float = METRIC_STEP) -> ChristoffelSymbols:
    """Gamma^k_ij = (1/2) g^km (d_i g_mj + d_j g_im - d_m g_ij) with numeric d g."""
    theta = np.asarray(theta, dtype=float)
    ginv = field.metric_at(theta).inverse
    dg = metric_derivatives(field, theta, h)
    # lower-index bracket, indexed [m, i, j]
    bracket = (np.einsum("imj->mij", dg) + np.einsum("jim->mij", dg)
               - np.einsum("mij->mij", dg))
    gamma = 0.5 * np.einsum("km,mij->kij", ginv, bracket)
    return ChristoffelSymbols(gamma)


def _christoffel_derivatives(field: MetricField, theta,
                             h_metric: float, h_gamma: float) -> np.ndarray:
    """d Gamma^k_ij / d theta^n via a 4th-order stencil, indexed [n, k, i, j]."""
    theta = np.asarray(theta, dtype=float)
    hs = _steps(theta, h_gamma)
    _check_step(field, theta, hs, 2.0 + h_metric / h_gamma)
    n = field.dimension
    dgamma = np.empty((n, n, n, n))
    for k in range(n):
        step = np.zeros(n)
        step[k] = hs[k]
        gm2 = christoffel_numeric(field, theta - 2 * step, h_metric).components
        gm1 = christoffel_numeric(field, theta - step, h_metric).components
        gp1 = christoffel_numeric(field, theta + step, h_metric).components
        gp2 = christoffel_numeric(field, theta + 2 * step, h_metric).components
        dgamma[k] = (gm2 - 8.0 * gm1 + 8.0 * gp1 - gp2) / (12.0 * hs[k])
    return dgamma


def riemann_numeric(field: MetricField, theta, h: float = METRIC_STEP,
                    h_gamma: float = CHRISTOFFEL_STEP) -> RiemannTensor:
    """R^a_mnr = d_n Gamma^a_mr - d_r Gamma^a_mn
               + Gamma^a_bn Gamma^b_mr - Gamma^a_br Gamma^b_mn."""
    gamma = christoffel_numeric(field, theta, h).components
    dgamma = _christoffel_derivatives(field, theta, h, h_gamma)
    term_d = np.einsum("namr->amnr", dgamma) - np.einsum("ramn->amnr", dgamma)
    term_q = (np.einsum("abn,bmr->amnr", gamma, gamma)
              - np.einsum("abr,bmn->amnr", gamma, gamma))
    return RiemannTensor(term_d + term_q)


def ricci_numeric(field: MetricField, theta, h: float = METRIC_STEP,
                  h_gamma: float = CHRISTOFFEL_STEP) -> RicciTensor:
    return riemann_numeric(field, theta, h, h_gamma).ricci()


def scalar_numeric(field: MetricField, theta, h: float = METRIC_STEP,
                   h_gamma: float = CHRISTOFFEL_STEP) -> float:
    ricci = ricci_numeric(field, theta, h, h_gamma)
    return ricci.scalar(field.metric_at(np.asarray(theta, dtype=float)))
