"""Entropic complexity of the geodesic flow: swept volumes and their growth.

The indicator is the logarithm of the time-averaged statistical volume swept
by a geodesic.  For a path theta(s), 0 <= s <= tau', the swept region is the
coordinate box [min(theta^k(0), theta^k(tau')), max(...)] per coordinate,
weighted by the natural volume density rho(theta) = sqrt(det g(theta)):

    vol(tau')   = integral of rho over the box,
    avg_vol(tau) = (1/tau) * integral_0^tau vol(tau') dtau',
    S(tau)      = log avg_vol(tau).

The densities are 2 / (sigma_x^2 sigma_y) and 2 / sigma^2, so the box
integral factorizes into elementary 1D pieces; a product-quadrature
cross-check is provided.  S grows linearly in tau with slope
sigma0 * lambda (the sigma-decay rate of the model), and the slope ratio of
a constrained/unconstrained pair built from one spec is
lambda_plus / lambda_plus' = 1/sqrt(2): the constraint softens the entropy
growth.

Everything is computed in log space: on useful fit windows the volumes reach
exp(400) and beyond, far outside double range.

Closed-form reference volumes (``closed_form_volume_*``) keep only the
moving-endpoint antiderivative terms of each factor, which is why they carry
(mu0 + 2 sigma0) where the honest box carries the mean span 2 sigma0; the
two agree on the tail for mu0 = 0 and share the growth rate always.  The 3D
reference expression presumes the span-2 mean path, so 3D volumes default to
``mu_span = MU_SPAN_WIDE`` (see :mod:`infogeo.geodesics`); slopes and slope
ratios are span-independent.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from .fitting import LineFit, fit_line
from .geodesics import (MU_SPAN_WIDE, GeodesicSpec2D, GeodesicSpec3D,
                        _closed_form)
from .models import MODEL_2D, MODEL_3D, ParameterPoint2D, ParameterPoint3D

# default fit windows, in units of rate * tau (rate = sigma0 * lambda)
VOLUME_WINDOW = (20.0, 50.0)   # closed-form volume cross-checks
SLOPE_WINDOW = (200.0, 400.0)  # tail-slope fits; see note in ``ige``

LOG2 = math.log(2.0)


def fisher_density_3d(theta: ParameterPoint3D) -> float:
    """sqrt(det g) = 2 / (sigma_x^2 sigma_y)."""
    return MODEL_3D.volume_density(theta.as_array())


def fisher_density_2d(theta: ParameterPoint2D) -> float:
    """sqrt(det g) = 2 / sigma^2."""
    return MODEL_2D.volume_density(theta.as_array())


def _log_tanh(u):
    with np.errstate(divide="ignore"):
        return np.log(np.tanh(u))


def _log_cosh_minus_one(u):
    # cosh u - 1 = e^u (1 - e^-u)^2 / 2, stable for u in [0, inf)
    with np.errstate(divide="ignore"):
        return u - LOG2 + 2.0 * np.log1p(-np.exp(-u))


def log_box_volume(spec, tau_prime, mu_span: Optional[float] = None):
    """log of the box volume at tau'; broadcasts over tau' arrays.

    3D: |dmu| * [2/sigma_x(tau') - 2/sigma0] * log(sigma0'/sigma_y(tau'))
    2D: |dmu| * [2/sigma(tau') - 2/sigma0]

    with |dmu| = mu_span * sigma0 * tanh(rate * tau'): the (mu, sigma)
    plane gives the first two factors, each flat scale one logarithm.
    """
    tau_prime = np.asarray(tau_prime, dtype=float)
    if np.any(tau_prime < 0.0):
        raise DomainError("tau_prime must be nonnegative")
    u = spec.rate * tau_prime
    s0 = spec.sigma0
    span = MU_SPAN_WIDE if mu_span is None else mu_span
    log_dmu = math.log(span * s0) + _log_tanh(u)
    log_sx_factor = math.log(spec.model.volume_weight / s0) + _log_cosh_minus_one(u)
    total = log_dmu + log_sx_factor
    for _, decay in spec.flat_factors:
        with np.errstate(divide="ignore"):
            total = total + np.log(decay * tau_prime)
    return total


def box_volume(spec, tau_prime, mu_span: Optional[float] = None):
    return np.exp(log_box_volume(spec, tau_prime, mu_span))


def _panelled_gauss(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights, composite over geometric panels.

    Scale coordinates can span a wide ratio (sigma shrinks exponentially);
    one panel per octave keeps 1/sigma^2-like integrands fully resolved.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    n_panels = max(1, int(math.ceil(math.log2(b / a))))
    edges = np.geomspace(a, b, n_panels + 1)
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (hi - lo) * x + 0.5 * (lo + hi))
        ws.append(0.5 * (hi - lo) * w)
    return np.concatenate(xs), np.concatenate(ws)


def box_volume_quadrature(spec, tau_prime: float, nodes=(8, 32, 32),
                          mu_span: Optional[float] = None) -> float:
    """Product Gauss-Legendre quadrature of sqrt(det g) over the box.

    Independent of the factorized closed form: the density is evaluated
    pointwise through the model metric determinant.
    """
    def gl(a, b, n):
        x, w = np.polynomial.legendre.leggauss(n)
        return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w

    span = MU_SPAN_WIDE if mu_span is None else mu_span
    theta1, _ = _closed_form(spec, tau_prime, span, 0.0)
    theta0, _ = _closed_form(spec, 0.0, span, 0.0)
    los = np.minimum(theta0, theta1)
    his = np.maximum(theta0, theta1)
    mus, wmu = gl(los[0], his[0], nodes[0])
    # the density does not depend on the mean: one node list per scale
    axes = [list(zip(*_panelled_gauss(los[j], his[j], nodes[j])))
            for j in range(1, spec.model.dimension)]
    total = 0.0
    for node in itertools.product(*axes):
        scales, weights = zip(*node)
        dens = math.sqrt(spec.model.metric((0.0, *scales)).determinant)
        total += math.prod(weights) * dens
    return float(total * wmu.sum())


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(values - m))))


def _simpson_log_weights(n_nodes: int) -> np.ndarray:
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.log(w / 3.0)


def log_time_average(log_fn, tau: float, n_grid: int = 2049) -> float:
    """log of (1/tau) * integral_0^tau exp(log_fn(tau')) dtau'.

    Composite Simpson on a uniform grid, accumulated with log-sum-exp so
    arbitrarily late tails stay representable.  ``log_fn`` must accept an
    array of times; ``n_grid`` is the node count (>= 65, forced odd).
    """
    if tau <= 0.0:
        raise DomainError("tau must be positive")
    if n_grid < 64:
        raise DomainError("n_grid must be >= 64")
    if n_grid % 2 == 0:
        n_grid += 1  # composite Simpson needs an odd node count
    ts = np.linspace(0.0, tau, n_grid)
    h = ts[1] - ts[0]
    logv = np.asarray(log_fn(ts), dtype=float)
    log_integral = _logsumexp(logv + _simpson_log_weights(n_grid)) + math.log(h)
    return log_integral - math.log(tau)


def log_averaged_volume(spec, tau: float, n_grid: int = 2049,
                        mu_span: Optional[float] = None) -> float:
    """log of the time-averaged swept volume at tau."""
    return log_time_average(lambda ts: log_box_volume(spec, ts, mu_span),
                            tau, n_grid)


def averaged_volume(spec, tau: float, n_grid: int = 2049,
                    mu_span: Optional[float] = None) -> float:
    return math.exp(log_averaged_volume(spec, tau, n_grid, mu_span))


# ---------------------------------------------------------------------------
# closed-form reference volumes
# ---------------------------------------------------------------------------

def log_closed_form_volume_3d(spec: GeodesicSpec3D, tau):
    """Closed-form averaged 3D volume (moving-endpoint terms only), in logs.

    Returns -inf/nan where the expression is nonpositive, which happens
    before the tail for some parameter corners; the expression is meaningful
    on tail windows.
    """
    tau = np.asarray(tau, dtype=float)
    s0, lp, lf = spec.sigma0, spec.lambda_plus_prime, spec.lambda_f
    mu0, ls = spec.mu0, math.log(spec.sigma0_prime)
    k = spec.rate
    e2 = np.exp(-2.0 * k * tau)
    bracket = ((2.0 * s0 + mu0) * s0 * lf * lp * tau
               + (2.0 * s0 - mu0) * s0 * lf * lp * tau * e2
               - (lf + lp * s0 * ls) * (2.0 * s0 + mu0)
               - (s0 * lp * ls - lf) * (2.0 * s0 - mu0) * e2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (k * tau - np.log(tau) - math.log(s0**3 * lp**2) + np.log(bracket))


def log_closed_form_volume_2d(spec: GeodesicSpec2D, tau):
    tau = np.asarray(tau, dtype=float)
    s0, lp, mu0 = spec.sigma0, spec.lambda_plus, spec.mu0
    k = spec.rate
    body = (mu0 + 2.0 * s0) + (2.0 * s0 - mu0) * np.exp(-2.0 * k * tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        return k * tau - np.log(tau) - math.log(lp * s0**2) + np.log(body)


def closed_form_volume_3d(spec: GeodesicSpec3D, tau):
    return np.exp(log_closed_form_volume_3d(spec, tau))


def closed_form_volume_2d(spec: GeodesicSpec2D, tau):
    return np.exp(log_closed_form_volume_2d(spec, tau))


# the closed-form volumes are the paper's per-model expressions
_LOG_CLOSED_FORM_VOLUMES = {MODEL_3D: log_closed_form_volume_3d,
                            MODEL_2D: log_closed_form_volume_2d}


def log_closed_form_volume(spec, tau):
    return _LOG_CLOSED_FORM_VOLUMES[spec.model](spec, tau)


# ---------------------------------------------------------------------------
# the entropy curve and its tail slope
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IGEResult:
    """Sampled entropy curve S(tau) = log avg_vol plus the fitted tail slope."""

    model: str                     # "3d" or "2d"
    taus: np.ndarray
    log_vol: np.ndarray            # instantaneous box volume, log
    log_avg_vol: np.ndarray        # temporal average, log: the entropy S
    entropy_closed_form: np.ndarray
    fit: LineFit
    rate: float                    # sigma0 * lambda of the model
    mu_span: float


def ige_curve(spec, slope_window: tuple = SLOPE_WINDOW, n_grid: int = 2049,
        mu_span: Optional[float] = None, lead_points: int = 24,
        window_points: int = 33) -> IGEResult:
    """Entropy curve and fitted tail slope for one model.

    ``slope_window`` is expressed in units of rate * tau.  The default sits
    far out on the tail: the 2D averaged volume carries a 1/tau factor whose
    -log(tau) contribution biases an ordinary least-squares slope by roughly
    -1/(rate*tau); at rate*tau ~ 300 the bias is ~0.3%, negligible against
    the fit tolerances, while on [20, 50] it would be ~3%.
    """
    rate = spec.rate
    w0, w1 = slope_window[0] / rate, slope_window[1] / rate
    lead = np.linspace(w0 / lead_points, w0, lead_points, endpoint=False)
    window = np.linspace(w0, w1, window_points)
    taus = np.concatenate([lead, window])
    span = MU_SPAN_WIDE if mu_span is None else mu_span
    log_avg = np.array([log_averaged_volume(spec, t, n_grid, span) for t in taus])
    logv = log_box_volume(spec, taus, span)
    s_closed = log_closed_form_volume(spec, taus)
    fit = fit_line(window, log_avg[lead_points:])
    return IGEResult(model=spec.model.label, taus=taus, log_vol=logv,
                     log_avg_vol=log_avg, entropy_closed_form=s_closed, fit=fit,
                     rate=rate, mu_span=span)


@dataclass(frozen=True)
class IgeSoftening:
    """Tail-slope comparison of a coupled pair built from one 3D spec."""

    result_3d: IGEResult
    result_2d: IGEResult
    slope_3d: float
    slope_2d: float
    ratio: float                   # slope_2d / slope_3d, approaches 1/sqrt(2)

    @property
    def expected_ratio(self) -> float:
        return 1.0 / math.sqrt(2.0)


def softening_ratio_ige(spec3d: GeodesicSpec3D,
                        slope_window: tuple = SLOPE_WINDOW,
                        n_grid: int = 2049) -> IgeSoftening:
    """Fitted S-slope ratio of the constrained vs unconstrained model.

    The 2D companion shares (mu0, sigma0) and uses lambda_plus =
    lambda_plus' / sqrt(2), so the slopes are rate_2d = sigma0 lambda_plus
    and rate_3d = sigma0 lambda_plus' and the ratio cancels sigma0.
    """
    spec2d = GeodesicSpec2D.from_3d(spec3d)
    r3 = ige_curve(spec3d, slope_window, n_grid)
    r2 = ige_curve(spec2d, slope_window, n_grid)
    return IgeSoftening(result_3d=r3, result_2d=r2,
                        slope_3d=r3.fit.slope, slope_2d=r2.fit.slope,
                        ratio=r2.fit.slope / r3.fit.slope)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def ige_to_csv(result: IGEResult) -> str:
    """Columns: tau, vol, avg_vol, S, S_closed_form (volumes may print inf
    past the double range; S columns stay finite)."""
    buf = io.StringIO()
    buf.write("# infogeo ige csv schema=1\n")
    buf.write("tau,vol,avg_vol,S,S_closed_form\n")
    with np.errstate(over="ignore"):
        vol = np.exp(result.log_vol)
        avg = np.exp(result.log_avg_vol)
    for i, tau in enumerate(result.taus):
        row = [tau, vol[i], avg[i], result.log_avg_vol[i], result.entropy_closed_form[i]]
        buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()
