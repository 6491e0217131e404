"""Curvature from a metric field by finite differences.

Independent numerical route to the connection and curvature of any smooth
metric field: no closed forms are assumed, only pointwise metric values.
Used to cross-validate the analytic results in :mod:`infogeo.models`.

Every difference is taken in the metric's unit chart at the centre, u =
theta / S with S_i = g_ii^(-1/2) read there: ghat = S g S has a unit diagonal
and O(1) entries at any scale (sigma from 1e-150 to 1e154 for the Gaussian
models), and the stencils commute with (mu, sigma) -> (c mu, c sigma) and
never reach sigma = 0.  Gamma and R map back by S_k / (S_i S_j) and
(S_a / S_m) / (S_n S_r); the scalar curvature is the same in both charts.
Metric derivatives are central differences with a small step.  Christoffel
derivatives (for the Riemann tensor) difference a differenced quantity, where
a nested central difference would amplify rounding error to ~1e-5; they use a
wider step with a fourth-order five-point stencil instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .models import MODEL_2D, MODEL_3D
from .tensors import ChristoffelSymbols, RiemannTensor, validate_metrics

METRIC_STEP = 1e-5        # d ghat / d u (central, 2nd order)
CHRISTOFFEL_STEP = 1e-3   # d Gamma-hat / d u (5-point, 4th order)


@dataclass(frozen=True)
class MetricField:
    """A metric as a function of the parameter vector.

    ``evaluate`` maps (m, dimension) rows of parameters to the (m,
    dimension, dimension) stack of metrics at them, each of which must be
    symmetric positive definite.
    """

    dimension: int
    evaluate: Callable[[np.ndarray], np.ndarray]

    def _evaluate(self, rows: np.ndarray) -> np.ndarray:
        g = np.asarray(self.evaluate(rows), dtype=float)
        expected = (len(rows), self.dimension, self.dimension)
        if g.shape != expected:
            raise DomainError(f"metric field returned shape {g.shape}, expected {expected}")
        return g


def field_3d() -> MetricField:
    """The unconstrained Gaussian model as a metric field."""
    return MetricField(3, MODEL_3D.metric_rows)


def field_2d() -> MetricField:
    """The constrained Gaussian model as a metric field."""
    return MetricField(2, MODEL_2D.metric_rows)


def _chart(field: MetricField, theta) -> tuple:
    """theta, g there and the scales S of its unit chart; a non-finite theta
    is refused, with the field's own error if it rejects it."""
    theta = np.asarray(theta, dtype=float)
    g = field._evaluate(theta[None])
    if not np.isfinite(theta).all():
        raise DomainError(f"finite-difference point theta={theta} is not finite")
    diagonal = np.diagonal(g[0])
    if not all(0.0 < d < np.inf for d in diagonal.tolist()):
        validate_metrics(g)     # never a valid metric: the error names its defect
    return theta, g[0], 1.0 / np.sqrt(diagonal)


def _christoffel_rows(field: MetricField, rows: np.ndarray, s: np.ndarray, h: float) -> np.ndarray:
    """Gamma-hat^k_ij = (1/2) ghat^km (d_i ghat_mj + d_j ghat_im - d_m ghat_ij)
    at each of the m rows, indexed [row, k, i, j], in the unit chart of scales
    s[row], by central steps h in u.  The m centres and their 2n m stencil
    points are evaluated in one call and validated as one batch."""
    m, n = rows.shape
    steps = (h * s)[:, :, None] * np.eye(n)             # [row, k, :] = h S_k e_k
    g = field._evaluate(np.concatenate([rows, (rows[:, None] + steps).reshape(-1, n),
                                        (rows[:, None] - steps).reshape(-1, n)]))
    validate_metrics(g)
    ss = s[:, :, None] * s[:, None, :]
    gp, gm = g[m:].reshape(2, m, n, n, n) * ss[:, None]
    dg = (gp - gm) / (2.0 * h)                          # [row, k, i, j] = d_k ghat_ij
    # lower-index bracket, indexed [row, m, i, j]
    bracket = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 3, 2, 1) - dg
    # sum over m by broadcasting: a batched einsum buffers its operands (more peak memory)
    return 0.5 * (np.linalg.inv(g[:m] * ss)[..., None, None] * bracket[:, None]).sum(axis=2)


def christoffel_numeric(field: MetricField, theta) -> ChristoffelSymbols:
    """Gamma^k_ij = (1/2) g^km (d_i g_mj + d_j g_im - d_m g_ij) with numeric d g."""
    theta, _, s = _chart(field, theta)
    gam = _christoffel_rows(field, theta[None], s[None], METRIC_STEP)[0]
    return ChristoffelSymbols(gam * s[:, None, None] / np.multiply.outer(s, s))


def _riemann_hat(field: MetricField, theta) -> tuple:
    """ghat, S and R-hat at theta.  d Gamma-hat / d u comes from a 4th-order
    five-point stencil; Gamma-hat at the centre and at the 4n stencil points,
    all in the centre's chart, is one batched call."""
    theta, g, s = _chart(field, theta)
    n = field.dimension
    offsets = np.array([-2.0, -1.0, 1.0, 2.0])[:, None, None] * (CHRISTOFFEL_STEP * s * np.eye(n))
    rows = np.concatenate([theta[None], (theta + offsets).reshape(-1, n)])
    gam = _christoffel_rows(field, rows, np.broadcast_to(s, rows.shape), METRIC_STEP)
    gamma = gam[0]
    gm2, gm1, gp1, gp2 = gam[1:].reshape(4, n, n, n, n)
    # d Gamma-hat^k_ij / d u^n, indexed [n, k, i, j]; exactly 0 where Gamma-hat is constant
    dgamma = (8.0 * (gp1 - gm1) - (gp2 - gm2)) / (12.0 * CHRISTOFFEL_STEP)
    term_d = dgamma.transpose(1, 2, 0, 3) - dgamma.transpose(1, 2, 3, 0)   # [a, m, n, r]
    term_q = (np.einsum("abn,bmr->amnr", gamma, gamma)
              - np.einsum("abr,bmn->amnr", gamma, gamma))
    return g * np.multiply.outer(s, s), s, term_d + term_q


def riemann_numeric(field: MetricField, theta) -> RiemannTensor:
    """R^a_mnr = d_n Gamma^a_mr - d_r Gamma^a_mn + Gamma^a_bn Gamma^b_mr
    - Gamma^a_br Gamma^b_mn, mapped back from R-hat by a factor symmetric in
    n and r, so the antisymmetry stays exact."""
    _, s, riem = _riemann_hat(field, theta)
    return RiemannTensor(riem * (s[:, None] / s)[:, :, None, None] / np.multiply.outer(s, s))


def scalar_numeric(field: MetricField, theta) -> float:
    """R = g^ij R_ij, formed as ghat^ij R-hat_ij."""
    ghat, _, riem = _riemann_hat(field, theta)
    return float(np.einsum("ij,kikj->", np.linalg.inv(ghat), riem))
