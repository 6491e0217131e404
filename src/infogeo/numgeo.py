"""Curvature from a metric field by finite differences.

Independent numerical route to the connection and curvature of any smooth
metric field: no closed forms are assumed, only pointwise metric values.
Used to cross-validate the analytic results in :mod:`infogeo.models`.

Every step is relative to the field's own scale of its coordinate (sigma_k(i)
for the Gaussian models, 1 by default), so the stencils commute with the
scaling isometry (mu, sigma) -> (c mu, c sigma) and never reach sigma = 0.
Two step sizes are involved.  Metric derivatives use second-order central
differences with a small step.  Christoffel derivatives (needed for the
Riemann tensor) difference an already-differenced quantity, so a plain
nested central difference with the same step would amplify rounding error
to ~1e-5; instead we use a wider step with a fourth-order five-point
stencil, which keeps the truncation error down at that width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .models import MODEL_2D, MODEL_3D
from .tensors import ChristoffelSymbols, MetricTensor, RiemannTensor, validate_metrics

METRIC_STEP = 1e-5        # d g / d theta, in coordinate scales (central, 2nd order)
CHRISTOFFEL_STEP = 1e-3   # d Gamma / d theta, in coordinate scales (5-point, 4th order)


@dataclass(frozen=True)
class MetricField:
    """A metric as a function of the parameter vector.

    ``evaluate`` maps (m, dimension) rows of parameters to the (m,
    dimension, dimension) stack of metrics at them, each of which must be
    symmetric positive definite.  ``scales`` maps rows (or a point) to the
    scale of each coordinate there, the unit of its finite-difference steps.
    """

    dimension: int
    evaluate: Callable[[np.ndarray], np.ndarray]
    scales: Callable[[np.ndarray], np.ndarray] = np.ones_like

    def _evaluate(self, rows: np.ndarray) -> np.ndarray:
        g = np.asarray(self.evaluate(rows), dtype=float)
        expected = (len(rows), self.dimension, self.dimension)
        if g.shape != expected:
            raise DomainError(f"metric field returned shape {g.shape}, expected {expected}")
        return g

    def metric_at(self, theta: np.ndarray) -> MetricTensor:
        """Evaluate and validate (symmetry + positive definiteness)."""
        return MetricTensor(self._evaluate(np.asarray(theta, dtype=float)[None])[0])


def field_3d() -> MetricField:
    """The unconstrained Gaussian model as a metric field."""
    return MetricField(3, MODEL_3D.metric_rows, MODEL_3D.scales)


def field_2d() -> MetricField:
    """The constrained Gaussian model as a metric field."""
    return MetricField(2, MODEL_2D.metric_rows, MODEL_2D.scales)


def euclidean_field(dimension: int) -> MetricField:
    return MetricField(dimension, lambda rows: np.broadcast_to(
        np.eye(dimension), (len(rows), dimension, dimension)))


def _check_finite(field: MetricField, rows: np.ndarray):
    """Refuse a non-finite row, with the field's own error if it rejects it."""
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        i = finite.argmin()
        field.evaluate(rows[i:i + 1])
        raise DomainError(f"finite-difference point theta={rows[i]} is not finite")


def _christoffel_rows(field: MetricField, rows: np.ndarray, h: float) -> np.ndarray:
    """Gamma^k_ij = (1/2) g^km (d_i g_mj + d_j g_im - d_m g_ij) at each of the
    m rows, indexed [row, k, i, j], with d g by central differences.

    The m centres and their 2n m stencil points are evaluated in one call
    and validated as one batch.
    """
    m, n = rows.shape
    _check_finite(field, rows)
    hs = h * field.scales(rows)
    steps = hs[:, :, None] * np.eye(n)                  # [row, k, :] = hs_k e_k
    g = field._evaluate(np.concatenate([rows, (rows[:, None] + steps).reshape(-1, n),
                                        (rows[:, None] - steps).reshape(-1, n)]))
    validate_metrics(g)
    gp, gm = g[m:].reshape(2, m, n, n, n)
    dg = (gp - gm) / (2.0 * hs)[:, :, None, None]      # [row, k, i, j] = d_k g_ij
    # lower-index bracket, indexed [row, m, i, j]
    bracket = (np.einsum("pimj->pmij", dg) + np.einsum("pjim->pmij", dg)
               - np.einsum("pmij->pmij", dg))
    # sum over m by broadcasting: a batched einsum buffers its operands (more peak memory)
    return 0.5 * (np.linalg.inv(g[:m])[..., None, None] * bracket[:, None]).sum(axis=2)


def christoffel_numeric(field: MetricField, theta, h: float = METRIC_STEP) -> ChristoffelSymbols:
    """Gamma^k_ij = (1/2) g^km (d_i g_mj + d_j g_im - d_m g_ij) with numeric d g."""
    return ChristoffelSymbols(_christoffel_rows(field, np.asarray(theta, dtype=float)[None], h)[0])


def riemann_numeric(field: MetricField, theta) -> RiemannTensor:
    """R^a_mnr = d_n Gamma^a_mr - d_r Gamma^a_mn
               + Gamma^a_bn Gamma^b_mr - Gamma^a_br Gamma^b_mn.

    d Gamma^k_ij / d theta^n comes from a 4th-order five-point stencil; Gamma
    at the centre and at the 4n stencil points is one batched call.
    """
    theta = np.asarray(theta, dtype=float)[None]
    _check_finite(field, theta)     # before the steps: an infinite scale times 0 warns
    hs = CHRISTOFFEL_STEP * field.scales(theta[0])
    n = field.dimension
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])[:, None, None] * (hs * np.eye(n))
    gam = _christoffel_rows(field, np.concatenate([theta, (theta + offsets).reshape(-1, n)]),
                            METRIC_STEP)
    gamma = gam[0]
    gm2, gm1, gp1, gp2 = gam[1:].reshape(4, n, n, n, n)
    # d Gamma^k_ij / d theta^n, indexed [n, k, i, j]
    dgamma = (gm2 - 8.0 * gm1 + 8.0 * gp1 - gp2) / (12.0 * hs)[:, None, None, None]
    term_d = np.einsum("namr->amnr", dgamma) - np.einsum("ramn->amnr", dgamma)
    term_q = (np.einsum("abn,bmr->amnr", gamma, gamma)
              - np.einsum("abr,bmn->amnr", gamma, gamma))
    return RiemannTensor(term_d + term_q)


def scalar_numeric(field: MetricField, theta) -> float:
    """R = g^ij R_ij from the finite-difference Riemann tensor."""
    ricci = riemann_numeric(field, theta).ricci()
    return ricci.scalar(field.metric_at(np.asarray(theta, dtype=float)))
