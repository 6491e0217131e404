"""The two Gaussian statistical models and their closed-form geometry.

Model A ("3D"): uncorrelated bivariate Gaussians over a microspace (x, y)
with macro-coordinates theta = (mu_x, sigma_x, sigma_y).  Its Fisher-Rao
metric is diag(1/sigma_x^2, 2/sigma_x^2, 2/sigma_y^2) and the manifold has
constant scalar curvature -1.

Model B ("2D"): the same family restricted by the product constraint
sigma_x * sigma_y = Sigma^2 (a minimum-uncertainty-like relation), leaving
macro-coordinates theta = (mu_x, sigma) with sigma = sigma_x.  The metric
becomes (1/sigma^2) diag(1, 4), independent of Sigma^2, and the scalar
curvature is -1/2.  The constrained manifold is therefore less negatively
curved than the unconstrained one.

Both metrics have the diagonal-scale form g_ii = c_i / sigma_{k(i)}^2, so
one :class:`DiagonalScaleModel` value per model (``MODEL_3D``, ``MODEL_2D``)
holds the weights c and the scale map k, and the connection, curvature and
geodesic equations of both models are derived from it.

The dimensionality labels count macro-variables; the microspace is always
two dimensional.  Everything here is a pure function of immutable values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DomainError
from .tensors import ChristoffelSymbols, MetricTensor, RicciTensor, RiemannTensor

_TWO_PI = 2.0 * math.pi


def _require_finite(name, value):
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


def _require_positive(name, value):
    _require_finite(name, value)
    if value <= 0.0:
        raise DomainError(f"{name} must be > 0, got {value!r}")


@dataclass(frozen=True)
class MicroSample:
    """A point (x, y) of the microspace, or a grid of them (broadcasting arrays).

    For the constrained model x plays the role of a position and y of its
    conjugate momentum.
    """

    x: float
    y: float

    def __post_init__(self):
        for name in ("x", "y"):
            if not np.isfinite(getattr(self, name)).all():
                raise DomainError(f"{name} must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ParameterPoint3D:
    """Macro-coordinates (mu_x, sigma_x, sigma_y); scales strictly positive."""

    mu_x: float
    sigma_x: float
    sigma_y: float

    def __post_init__(self):
        _require_finite("mu_x", self.mu_x)
        _require_positive("sigma_x", self.sigma_x)
        _require_positive("sigma_y", self.sigma_y)

    def as_array(self) -> np.ndarray:
        return np.array([self.mu_x, self.sigma_x, self.sigma_y])


@dataclass(frozen=True)
class ParameterPoint2D:
    """Macro-coordinates (mu_x, sigma); sigma strictly positive."""

    mu_x: float
    sigma: float

    def __post_init__(self):
        _require_finite("mu_x", self.mu_x)
        _require_positive("sigma", self.sigma)

    def as_array(self) -> np.ndarray:
        return np.array([self.mu_x, self.sigma])


@dataclass(frozen=True)
class Model2DConfig:
    """The constraint constant Sigma^2 of sigma_x * sigma_y = Sigma^2."""

    capital_sigma_sq: float = 1.0

    def __post_init__(self):
        _require_positive("capital_sigma_sq", self.capital_sigma_sq)

    def sigma_y(self, sigma: float) -> float:
        """The sigma_y value the constraint assigns to a given sigma."""
        return self.capital_sigma_sq / sigma


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def pdf_3d(theta: ParameterPoint3D, sample: MicroSample):
    """Density (1 / (2 pi sx sy)) exp(-(x-mu)^2 / (2 sx^2) - y^2 / (2 sy^2)),
    at one sample or on a grid."""
    dx = sample.x - theta.mu_x
    expo = -0.5 * (dx / theta.sigma_x) ** 2 - 0.5 * (sample.y / theta.sigma_y) ** 2
    return np.exp(expo) / (_TWO_PI * theta.sigma_x * theta.sigma_y)


def pdf_2d(theta: ParameterPoint2D, cfg: Model2DConfig, sample: MicroSample):
    """Density of the constrained family.

    Equals ``pdf_3d`` evaluated at (mu_x, sigma, Sigma^2 / sigma): the
    normalization 1 / (2 pi Sigma^2) absorbs the constraint.
    """
    s2 = cfg.capital_sigma_sq
    dx = sample.x - theta.mu_x
    expo = (-0.5 * (dx / theta.sigma) ** 2
            - 0.5 * (theta.sigma * sample.y) ** 2 / s2**2)
    return np.exp(expo) / (_TWO_PI * s2)


# ---------------------------------------------------------------------------
# the diagonal-scale model description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalScaleModel:
    """A Fisher-Rao metric g_ii = c_i / sigma_{k(i)}^2 and what follows from it.

    Coordinate 0 is the mean; every other coordinate j is a scale with
    k(j) = j, and k(0) names the scale the mean is measured in.  Then each
    nonzero Gamma^a_bc, d Gamma^a_bc / d theta^n and R^a_bcd involves only
    the scale of its upper index a: each is a constant unit tensor (its
    value at unit scales, exact in binary for these weights) divided by
    that scale (Gamma) or its square (d Gamma, R, Ricci).  Scales other
    than k(0) are flat one-dimensional factors.  The same structure makes
    the Jacobi coefficients constant tensors contracted with the velocity
    ratios theta'_i / sigma_k(i).
    """

    label: str          # "3d" or "2d"
    weights: tuple      # c
    scale_map: tuple    # k, as coordinate indices
    point: type         # validated parameter point; its fields name the coordinates

    def __post_init__(self):
        n, k = len(self.weights), self.scale_map
        if (len(k) != n or not 1 <= k[0] < n or min(self.weights) <= 0.0
                or any(k[j] != j for j in range(1, n))):
            raise ValueError(f"not a diagonal-scale model: c={self.weights}, k={k}")

    @cached_property
    def dimension(self) -> int:
        return len(self.weights)

    @cached_property
    def coordinates(self) -> tuple:
        return tuple(f.name for f in fields(self.point))

    @cached_property
    def flat_coordinates(self) -> tuple:
        """Scale coordinates the mean does not use (sigma_y of the 3D model)."""
        return tuple(j for j in range(1, self.dimension) if j != self.scale_map[0])

    @cached_property
    def mean_span(self) -> float:
        """sqrt(c_1 / c_0): the mean span per sigma0 of the exact geodesics."""
        return math.sqrt(self.weights[1] / self.weights[0])

    @cached_property
    def volume_weight(self) -> float:
        """sqrt(prod c): sqrt(det g) times the product of the scales."""
        return math.sqrt(math.prod(self.weights))

    @cached_property
    def _k(self) -> np.ndarray:
        return np.array(self.scale_map)

    @cached_property
    def _unit_tensors(self) -> tuple:
        # Gamma, d Gamma (upper index first) and R at unit scales
        n = self.dimension
        eye, c = np.eye(n), np.array(self.weights)
        K = eye[self._k]                        # K[a, j] = delta_j,k(a)
        # Gamma^a_bc = (delta_bc delta_a,k(b) c_b / c_a - delta_ac delta_b,k(a)
        #               - delta_ab delta_c,k(a)) / sigma_k(a)
        gam = (np.einsum("bc,ba->abc", eye, K) * (c[None, :, None] / c[:, None, None])
               - np.einsum("ac,ab->abc", eye, K) - np.einsum("ab,ac->abc", eye, K))
        # d_n Gamma^a_bc = -U^a_bc delta_n,k(a) / sigma_k(a)^2, indexed [a, n, b, c]
        dgam = np.einsum("an,abc->anbc", K, -gam) + 0.0
        # R^a_mnr = d_n G^a_mr - d_r G^a_mn + G^a_bn G^b_mr - G^a_br G^b_mn
        riem = (np.einsum("anmr->amnr", dgam) - np.einsum("armn->amnr", dgam)
                + np.einsum("abn,bmr->amnr", gam, gam) - np.einsum("abr,bmn->amnr", gam, gam))
        return gam, dgam, riem

    @cached_property
    def _jacobi_tensors(self) -> tuple:
        # With theta'_b = sigma_k(b) rho_b and theta''_b = -sigma_k(b) U^b_cd
        # rho_c rho_d, every sigma power in the Jacobi coefficients cancels,
        # because each nonzero unit entry involves one scale only:
        #   B^m_a = 2 U^m_ab rho_b,
        #   C^m_a = (-U^m_ab U^b_cd + dU^m_cad + U^m_rd U^r_ac + R^m_cad) rho_c rho_d
        gam, dgam, riem = self._unit_tensors
        t_c = (np.einsum("mrd,rac->macd", gam, gam) - np.einsum("mab,bcd->macd", gam, gam)
               + np.einsum("mcad->macd", dgam) + np.einsum("mcad->macd", riem))
        return 2.0 * gam, 0.5 * (t_c + np.swapaxes(t_c, 2, 3))

    @cached_property
    def scalar_curvature(self) -> float:
        """R = g^ii R_ii = sum_i Ricci_unit_ii / c_i, the same at every point."""
        ricci = np.einsum("kmkr->mr", self._unit_tensors[2])
        return float(sum(np.diag(ricci) / np.array(self.weights)))

    @cached_property
    def _ratio_tensor(self) -> np.ndarray:
        # rho_a = theta'_a / sigma_k(a) obeys rho_a' = Q_a(rho) - rho_a rho_k(a),
        # Q the acceleration at unit scales; rho_a' = q[a] : rho rho
        q = -self._unit_tensors[0]
        for a, ka in enumerate(self.scale_map):
            q[a, a, ka] -= 0.5
            q[a, ka, a] -= 0.5
        return q

    @cached_property
    def geodesic_system(self) -> np.ndarray:
        """T with y' = T @ v_hat @ v_hat for the geodesic state y = (theta, v),
        v_hat = (1, v), once the acceleration rows are divided by sigma_k.

        T is indexed [row of y', v_hat, v_hat]: rows 0..n-1 hold theta' = v,
        rows n..2n-1 hold -Gamma at unit scales.
        """
        n = self.dimension
        t = np.zeros((2 * n, n + 1, n + 1))
        t[:n, 0, 1:] = np.eye(n)
        t[n:, 1:, 1:] = -self._unit_tensors[0]
        t.flags.writeable = False   # shared by every geodesic run of the model
        return t

    @cached_property
    def jacobi_system(self) -> np.ndarray:
        """T with y' = (T @ rho_hat @ rho_hat) @ z for the scaled Jacobi state
        y = (mu, log sigma, rho, K, K'), where rho_hat = (1, rho), z = (1, K, K').

        T is indexed [row of y', z, rho_hat, rho_hat].  Its row blocks are
        (log sigma_j)' = rho_j (row 0, mu' = rho_0 sigma_k(0), is left 0 for
        the caller), rho' = q : rho rho from the ratio tensor, K' itself,
        and the tail K'' of the scaled field K = J / sigma_k.  With r = rho_k
        the log-rates of the scales, J = S K gives
        K'' = -(B (K' + r K) + C K + r (2 K' + r K) + r' K),
        with B = T_B rho, C = T_C rho rho and r' = q_k rho rho: quadratic in
        rho on K, linear on K'.  The entries are O(1) constants, and B and C
        are block diagonal, so no sigma_x / sigma_y ratio appears at any
        horizon.  :func:`infogeo.jacobi.integrate_jlc` carries J^mu and J^mu'
        in the K_0 and K_0' slots; it rebuilds K_0, K_0' for z and maps the
        two rows of the mean back.
        """
        n = self.dimension
        t_b, t_c = self._jacobi_tensors
        eye = np.eye(n)
        sel = eye[self._k]                      # r = sel @ rho
        diag = eye[:, :, None]                  # delta_ma
        t = np.zeros((4 * n, 2 * n + 1, n + 1, n + 1))
        t[1:n, 0, 0, 1:] = eye[1:]
        t[n:2 * n, 0, 1:, 1:] = self._ratio_tensor
        t[2 * n:3 * n, n + 1:, 0, 0] = eye
        tail = t[3 * n:, 1:]
        tail[:, :n, 1:, 1:] = -(np.einsum("mac,ad->macd", t_b, sel) + t_c
                                + diag[..., None] * (np.einsum("mc,md->mcd", sel, sel)
                                                     + self._ratio_tensor[self._k])[:, None])
        tail[:, n:, 0, 1:] = -(t_b + 2.0 * diag * sel[:, None, :])
        t.flags.writeable = False   # shared by every Jacobi run of the model
        return t

    def scales(self, theta) -> np.ndarray:
        """sigma_{k(i)} for every coordinate i, of one point or of each row."""
        return np.asarray(theta, dtype=float).T[self._k].T

    def metric_rows(self, theta) -> np.ndarray:
        """g_ii = c_i / sigma_{k(i)}^2 at each row of ``theta`` (or the point),
        shape (rows, n, n).  A row with a non-finite coordinate or a scale
        <= 0 raises the DomainError of ``point``."""
        rows = np.atleast_2d(np.asarray(theta, dtype=float))
        inside = np.isfinite(rows).all(axis=1) & (rows[:, 1:] > 0.0).all(axis=1)
        if not inside.all():
            self.point(*(float(v) for v in rows[inside.argmin()]))
        g = np.zeros(rows.shape + rows.shape[-1:])
        diagonal = np.arange(self.dimension)
        # libm pow, as for a float64 scalar: np.square differs from it in the last bit;
        # a square that under- or overflows leaves an entry the validation rejects
        with np.errstate(divide="ignore", over="ignore"):
            g[:, diagonal, diagonal] = np.divide(self.weights, np.float_power(self.scales(rows), 2))
        return g

    def metric(self, theta) -> MetricTensor:
        return MetricTensor(self.metric_rows(theta)[0])

    def tensors(self, theta) -> tuple:
        """Gamma^k_ij [k, i, j] and R^a_mnr [a, m, n, r] (first index
        raised) at one point."""
        gam, _, riem = self._unit_tensors
        s = self.scales(theta)
        return gam / s[:, None, None], riem / (s * s)[:, None, None, None]

    def jacobi_coefficients(self, rho) -> tuple:
        """The matrices (B, C) of J'' = -(B J' + C J) along a geodesic, from
        the velocity ratios rho_i = theta'_i / sigma_{k(i)} alone.

        They are the same for J and for the scaled field J / sigma_k, and
        stay O(1) however far the scales decay.
        """
        t_b, t_c = self._jacobi_tensors
        return t_b @ rho, t_c @ rho @ rho

    def acceleration(self, theta, v) -> np.ndarray:
        """-Gamma^a_lm v^l v^m = -U^a_lm v^l v^m / sigma_k(a), at one point or per row.

        Total in sigma: sigma = 0 or an overflow gives inf/nan, without a warning.
        """
        neg_gam = self.geodesic_system[self.dimension:, 1:, 1:]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.einsum("kab,...a,...b->...k", neg_gam, v, v) / self.scales(theta)

    def speed(self, theta, v):
        """g_lm v^l v^m = sum_i c_i v_i^2 / sigma_{k(i)}^2, at one point or per row."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return (np.multiply(self.weights, np.square(v))
                    / np.square(self.scales(theta))).sum(-1)

    def volume_density(self, theta) -> float:
        """sqrt(det g) = sqrt(prod c) / prod_i sigma_{k(i)}."""
        return self.volume_weight / float(np.prod(self.scales(theta)))


MODEL_3D = DiagonalScaleModel("3d", (1.0, 2.0, 2.0), (1, 1, 2), ParameterPoint3D)
MODEL_2D = DiagonalScaleModel("2d", (1.0, 4.0), (1, 1), ParameterPoint2D)
_MODELS = {m.dimension: m for m in (MODEL_3D, MODEL_2D)}


def model_of(theta) -> DiagonalScaleModel:
    """The model whose coordinates (or velocities) the last axis of ``theta`` holds."""
    n = np.shape(theta)[-1]
    model = _MODELS.get(n)
    if model is None:
        raise DomainError(f"no model has {n} coordinates")
    return model


SCALAR_CURVATURE_3D = MODEL_3D.scalar_curvature
SCALAR_CURVATURE_2D = MODEL_2D.scalar_curvature


# ---------------------------------------------------------------------------
# closed forms at a parameter point
# ---------------------------------------------------------------------------

def metric_3d(theta: ParameterPoint3D) -> MetricTensor:
    """diag(1/sx^2, 2/sx^2, 2/sy^2)."""
    return MODEL_3D.metric(theta.as_array())


def metric_2d(theta: ParameterPoint2D) -> MetricTensor:
    """(1/sigma^2) diag(1, 4), independent of the constraint constant."""
    return MODEL_2D.metric(theta.as_array())


def christoffel_3d(theta: ParameterPoint3D) -> ChristoffelSymbols:
    """Non-vanishing symbols:

    Gamma^1_12 = Gamma^1_21 = -1/sx,  Gamma^2_11 = 1/(2 sx),
    Gamma^2_22 = -1/sx,               Gamma^3_33 = -1/sy.
    """
    return ChristoffelSymbols(MODEL_3D.tensors(theta.as_array())[0])


def christoffel_2d(theta: ParameterPoint2D) -> ChristoffelSymbols:
    """Gamma^1_12 = Gamma^1_21 = -1/s,  Gamma^2_11 = 1/(4 s),  Gamma^2_22 = -1/s."""
    return ChristoffelSymbols(MODEL_2D.tensors(theta.as_array())[0])


def riemann_3d(theta: ParameterPoint3D) -> RiemannTensor:
    """Mixed components, first index raised.

    The only independent non-vanishing component is R^1_212 = -1/sx^2.
    Lowering with the diagonal metric and using the pair symmetry of
    R_amnr yields R^2_121 = -1/(2 sx^2); the remaining entries follow
    from antisymmetry in the last two indices.  The sigma_y direction is
    flat (the manifold is a product with a 1D factor).
    """
    return RiemannTensor(MODEL_3D.tensors(theta.as_array())[1])


def riemann_2d(theta: ParameterPoint2D) -> RiemannTensor:
    """R^1_212 = -1/s^2 and R^2_121 = -1/(4 s^2), plus antisymmetric partners."""
    return RiemannTensor(MODEL_2D.tensors(theta.as_array())[1])


def ricci_3d(theta: ParameterPoint3D) -> RicciTensor:
    """diag(-1/(2 sx^2), -1/sx^2, 0)."""
    return riemann_3d(theta).ricci()


def ricci_2d(theta: ParameterPoint2D) -> RicciTensor:
    """diag(-1/(4 s^2), -1/s^2)."""
    return riemann_2d(theta).ricci()

