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

Closed-form reference volumes (``log_closed_form_volume_*``) keep only the
moving-endpoint antiderivative terms of each factor, which is why they carry
(mu0 + 2 sigma0) where the honest box carries the mean span 2 sigma0; the
two agree on the tail for mu0 = 0 and share the growth rate always.  The 3D
reference expression presumes the span-2 mean path, so the entropy curve
always sweeps it (``MU_SPAN_WIDE``, see :mod:`infogeo.geodesics`); only the
volume primitives take another ``mu_span``.  Slopes and slope ratios are
span-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import Optional

import numpy as np

from .errors import DomainError
from .fisher import _simpson_weights
from .fitting import LineFit, fit_line
from .geodesics import (MU_SPAN_WIDE, GeodesicSpec2D, GeodesicSpec3D,
                        _closed_form, series_to_csv)
from .models import MODEL_2D, MODEL_3D

# default fit windows, in units of rate * tau (rate = sigma0 * lambda)
VOLUME_WINDOW = (20.0, 50.0)   # closed-form volume cross-checks
SLOPE_WINDOW = (200.0, 400.0)  # tail-slope fits; see note in ``ige_curve``
LEAD_POINTS = 24               # samples of the entropy curve before the slope window
WINDOW_POINTS = 33             # samples inside it

LOG2 = math.log(2.0)


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


@cache
def _legendre_nodes(n: int) -> tuple:
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False   # one pair shared by every call
    return x, w


def _panelled_gauss(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights, composite over geometric panels.

    Scale coordinates can span a wide ratio (sigma shrinks exponentially);
    one panel per octave keeps 1/sigma^2-like integrands fully resolved.
    """
    x, w = _legendre_nodes(n)
    n_panels = max(1, int(math.ceil(math.log2(b / a))))
    edges = np.geomspace(a, b, n_panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]     # one row per panel
    return (0.5 * (hi - lo) * x + 0.5 * (lo + hi)).ravel(), (0.5 * (hi - lo) * w).ravel()


def box_volume_quadrature(spec, tau_prime: float, nodes=(8, 32, 32),
                          mu_span: Optional[float] = None) -> float:
    """Product Gauss-Legendre quadrature of sqrt(det g) over the box.

    Independent of the factorized closed form: at every node of the scale
    mesh the density is the square root of the product of the metric
    diagonal c_i / sigma_k(i)^2.
    """
    span = MU_SPAN_WIDE if mu_span is None else mu_span
    theta1, _ = _closed_form(spec, tau_prime, span)
    theta0, _ = _closed_form(spec, 0.0, span)
    los = np.minimum(theta0, theta1)
    his = np.maximum(theta0, theta1)
    # the density does not depend on the mean: only the mean weights enter
    wmu = 0.5 * (his[0] - los[0]) * _legendre_nodes(nodes[0])[1]
    model = spec.model
    axes = [_panelled_gauss(los[j], his[j], nodes[j]) for j in range(1, model.dimension)]
    # coordinate j > 0 varies along mesh axis j - 1; the mean is never a scale
    scales = [None, *np.meshgrid(*(x for x, _ in axes), indexing="ij", sparse=True)]
    weights = np.meshgrid(*(w for _, w in axes), indexing="ij", sparse=True)
    det = math.prod(c / scales[k] ** 2 for c, k in zip(model.weights, model.scale_map))
    return float((math.prod(weights) * np.sqrt(det)).sum() * wmu.sum())


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(values - m))))


@cache
def _simpson_log_weights(n_nodes: int) -> np.ndarray:
    w = np.log(_simpson_weights(n_nodes))
    w.flags.writeable = False   # one array shared by every call
    return w


def log_time_average(log_fn, tau, n_grid: int = 2049):
    """log of (1/tau) * integral_0^tau exp(log_fn(tau')) dtau'.

    Composite Simpson on a uniform grid, accumulated with log-sum-exp so
    arbitrarily late tails stay representable.  ``tau`` is one time (the
    result is a float) or an array of times (an array of that shape).
    ``log_fn`` must accept an array of times; ``n_grid`` is the node count
    (at least 64; an even count is raised to the next odd one).
    """
    taus = np.asarray(tau, dtype=float)
    if (taus <= 0.0).any():
        raise DomainError("tau must be positive")
    if n_grid < 64:
        raise DomainError("n_grid must be >= 64")
    log_w = _simpson_log_weights(n_grid)   # an even n_grid gets one more node
    # one time at a time: a batched (times, nodes) grid measured no faster,
    # since the elementwise logs dominate, and its temporaries take megabytes
    out = [_log_time_average(log_fn, t, log_w) for t in taus.ravel().tolist()]
    return out[0] if taus.ndim == 0 else np.array(out).reshape(taus.shape)


def _log_time_average(log_fn, tau: float, log_w: np.ndarray) -> float:
    ts = np.linspace(0.0, tau, log_w.size)
    h = ts[1] - ts[0]
    logv = np.asarray(log_fn(ts), dtype=float)
    return _logsumexp(logv + log_w) + math.log(h) - math.log(tau)


def log_averaged_volume(spec, tau):
    """log of the time-averaged swept volume at tau (a float, or an array of times)."""
    return log_time_average(lambda ts: log_box_volume(spec, ts), tau)


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
    # k * tau first: with s0 * lp * tau, s0^2 underflows at tiny sigma0
    bracket = ((2.0 * s0 + mu0) * lf * (k * tau)
               + (2.0 * s0 - mu0) * lf * (k * tau) * e2
               - (lf + lp * s0 * ls) * (2.0 * s0 + mu0)
               - (s0 * lp * ls - lf) * (2.0 * s0 - mu0) * e2)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (k * tau - np.log(tau) - (3.0 * math.log(s0) + 2.0 * math.log(lp))
                + np.log(bracket))


def log_closed_form_volume_2d(spec: GeodesicSpec2D, tau):
    tau = np.asarray(tau, dtype=float)
    s0, lp, mu0 = spec.sigma0, spec.lambda_plus, spec.mu0
    k = spec.rate
    body = (mu0 + 2.0 * s0) + (2.0 * s0 - mu0) * np.exp(-2.0 * k * tau)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (k * tau - np.log(tau) - (math.log(lp) + 2.0 * math.log(s0))
                + np.log(body))


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


def ige_curve(spec, slope_window: tuple = SLOPE_WINDOW) -> IGEResult:
    """Entropy curve and fitted tail slope for one model.

    ``slope_window`` is expressed in units of rate * tau.  The default sits
    far out on the tail: the 2D averaged volume carries a 1/tau factor whose
    -log(tau) contribution biases an ordinary least-squares slope by roughly
    -1/(rate*tau); at rate*tau ~ 300 the bias is ~0.3%, negligible against
    the fit tolerances, while on [20, 50] it would be ~3%.  The line is
    fitted in rate * tau, where its abscissae stay O(100) however small the
    rate, and its slope is then scaled to one per unit tau.
    """
    rate = spec.rate
    w0, w1 = slope_window[0] / rate, slope_window[1] / rate
    lead = np.linspace(w0 / LEAD_POINTS, w0, LEAD_POINTS, endpoint=False)
    window = np.linspace(w0, w1, WINDOW_POINTS)
    taus = np.concatenate([lead, window])
    log_avg = log_averaged_volume(spec, taus)
    logv = log_box_volume(spec, taus)
    s_closed = log_closed_form_volume(spec, taus)
    fit = fit_line(rate * window, log_avg[LEAD_POINTS:])
    fit = replace(fit, slope=fit.slope * rate, window=(w0, w1))
    return IGEResult(model=spec.model.label, taus=taus, log_vol=logv,
                     log_avg_vol=log_avg, entropy_closed_form=s_closed, fit=fit,
                     rate=rate)


@dataclass(frozen=True)
class IgeSoftening:
    """Tail-slope comparison of a coupled pair built from one 3D spec."""

    result_3d: IGEResult
    result_2d: IGEResult
    slope_3d: float
    slope_2d: float
    ratio: float                   # slope_2d / slope_3d, approaches 1/sqrt(2)


def softening_ratio_ige(spec3d: GeodesicSpec3D,
                        slope_window: tuple = SLOPE_WINDOW) -> IgeSoftening:
    """Fitted S-slope ratio of the constrained vs unconstrained model.

    The 2D companion shares (mu0, sigma0) and uses lambda_plus =
    lambda_plus' / sqrt(2), so the slopes are rate_2d = sigma0 lambda_plus
    and rate_3d = sigma0 lambda_plus' and the ratio cancels sigma0.
    """
    spec2d = GeodesicSpec2D.from_3d(spec3d)
    r3 = ige_curve(spec3d, slope_window)
    r2 = ige_curve(spec2d, slope_window)
    return IgeSoftening(result_3d=r3, result_2d=r2,
                        slope_3d=r3.fit.slope, slope_2d=r2.fit.slope,
                        ratio=r2.fit.slope / r3.fit.slope)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def ige_to_csv(result: IGEResult) -> str:
    """Columns: tau, vol, avg_vol, S, S_closed_form (volumes may print inf
    past the double range; S columns stay finite)."""
    with np.errstate(over="ignore"):
        vol = np.exp(result.log_vol)
        avg = np.exp(result.log_avg_vol)
    return series_to_csv("ige", ["tau", "vol", "avg_vol", "S", "S_closed_form"],
                         [result.taus, vol, avg, result.log_avg_vol,
                          result.entropy_closed_form])
