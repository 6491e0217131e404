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
growth.  ``softening_ratio_ige`` fits that ratio for a list of such pairs in
one pass, a row per pair, each row bit for bit its specs' ``ige_curve`` fits.

The time average is exact (``log_averaged_volume``): with U = rate * tau it
is span * w * prod(lambda_f / rate) * F_n(U) / U, where F_n(U) is the
integral of u^n (sinh u - tanh u) over [0, U] and n counts the flat factors.
F_n is a closed form (a dilogarithm series in 3D) from U = 2 on and a
cancellation-free Gauss rule below, so the entropy curve and its slopes need
no quadrature.  Composite Simpson over the box volume (``log_time_average``)
stays as the independent cross-check that ``ige`` reports, and
``box_volume_quadrature`` checks the box volume itself.

Everything is computed in log space: on useful fit windows the volumes reach
exp(400) and beyond, far outside double range.

Closed-form reference volumes (``log_closed_form_volume_*``) keep only the
moving-endpoint antiderivative terms of each factor, which is why they carry
(mu0 + 2 sigma0) where the honest box carries the mean span 2 sigma0; the
two agree on the tail for mu0 = 0 and share the growth rate always.  The 3D
reference expression presumes the span-2 mean path, so every box swept here
is the span-2 box (``MU_SPAN_WIDE``, see :mod:`infogeo.geodesics`); only
``box_volume_quadrature`` takes another ``mu_span``.  Slopes and slope
ratios are span-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .csvtext import series_to_csv
from .errors import DomainError
from .fitting import LineFit, fit_line
from .geodesics import (MU_SPAN_WIDE, GeodesicSpec2D, GeodesicSpec3D,
                        _closed_form)
from .models import MODEL_2D, MODEL_3D

# default fit windows, in units of rate * tau (rate = sigma0 * lambda)
VOLUME_WINDOW = (20.0, 50.0)   # closed-form volume cross-checks
SLOPE_WINDOW = (200.0, 400.0)  # tail-slope fits; see note in ``ige_curve``
LEAD_POINTS = 24               # samples of the entropy curve before the slope window
WINDOW_POINTS = 33             # samples inside it

LOG2 = math.log(2.0)


def log_box_volume(spec, tau_prime):
    """log of the box volume at tau'; broadcasts over tau' arrays.

    3D: |dmu| * [2/sigma_x(tau') - 2/sigma0] * log(sigma0'/sigma_y(tau'))
    2D: |dmu| * [2/sigma(tau') - 2/sigma0]

    with |dmu| = 2 sigma0 tanh(rate * tau') (``MU_SPAN_WIDE``): the (mu, sigma)
    plane gives the first two factors, each flat scale one logarithm.
    """
    tau_prime = np.asarray(tau_prime, dtype=float)
    if not np.all(tau_prime >= 0.0):   # NaN too
        raise DomainError("tau_prime must be nonnegative")
    u = spec.rate * tau_prime
    s0 = spec.sigma0
    with np.errstate(divide="ignore", over="ignore"):   # log 0 = -inf, log inf = inf
        # cosh u - 1 = e^u (1 - e^-u)^2 / 2, with 1 - e^-u = -expm1(-u) exact to
        # an ulp for every u in [0, inf)
        total = ((math.log(MU_SPAN_WIDE * s0) + np.log(np.tanh(u)))
                 + (math.log(spec.model.volume_weight / s0)
                    + (u - LOG2 + 2.0 * np.log(-np.expm1(-u)))))
        for _, decay in spec.flat_factors:
            total = total + np.log(decay * tau_prime)
    return total


def box_volume(spec, tau_prime):
    """The box volume at tau'; inf, without a warning, past the double range."""
    log_vol = log_box_volume(spec, tau_prime)
    with np.errstate(over="ignore"):
        return np.exp(log_vol)


@cache
def _legendre_nodes(n: int) -> tuple:
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False   # one pair shared by every call
    return x, w


def _panelled_gauss(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights, composite over geometric panels.

    Scale coordinates can span a wide ratio (sigma shrinks exponentially);
    one panel per octave keeps 1/sigma^2-like integrands fully resolved.
    The panel edges are ``np.geomspace(a, b, n_panels + 1)``, ends exact.
    """
    x, w = _legendre_nodes(n)
    ratio = float(b) / float(a) if a > 0.0 else math.inf
    if not ratio < math.inf:
        raise DomainError("box_volume_quadrature: the scale ratio leaves the double range")
    n_panels = max(1, int(math.ceil(math.log2(ratio))))
    edges = 10.0 ** np.linspace(np.log10(a), np.log10(b), n_panels + 1)
    edges[0], edges[-1] = a, b
    lo, hi = edges[:-1, None], edges[1:, None]     # one row per panel
    return (0.5 * (hi - lo) * x + 0.5 * (lo + hi)).ravel(), (0.5 * (hi - lo) * w).ravel()


def box_volume_quadrature(spec, tau_prime: float, nodes=(8, 32, 32),
                          mu_span: Optional[float] = None) -> float:
    """Product Gauss-Legendre quadrature of sqrt(det g) over the box.

    Independent of the factorized closed form: sqrt(det g) is the product of
    sqrt(c_i) / sigma_k(i) over the metric diagonal, so the tensor-product
    rule over the box is the product of one Gauss sum per scale axis j, over
    the factors with k(i) = j at that axis's nodes.  A negative or NaN tau',
    or a box whose scale ratio or node density (tested at each axis's
    smallest node, where it peaks) leaves the double range, is refused.
    """
    if not tau_prime >= 0.0:
        raise DomainError("tau_prime must be nonnegative")
    span = MU_SPAN_WIDE if mu_span is None else mu_span
    corners, _ = _closed_form(spec, [0.0, tau_prime], span)
    los, his = corners.min(axis=0), corners.max(axis=0)
    # the density does not depend on the mean: only the mean weights enter
    total = float(0.5 * (his[0] - los[0]) * _legendre_nodes(nodes[0])[1].sum())
    model = spec.model
    for j in range(1, model.dimension):
        x, w = _panelled_gauss(los[j], his[j], nodes[j])
        with np.errstate(over="ignore", divide="ignore"):
            density = math.prod(math.sqrt(c) / x
                                for c, k in zip(model.weights, model.scale_map) if k == j)
        if not density[0] < math.inf:
            raise DomainError("box_volume_quadrature: the node density leaves the double range")
        total *= float(w @ density)
    return total


SIMPSON_NODES = 2049   # nodes of the Simpson time average, an odd count
# the log of the composite Simpson weights (1, 4, 2, 4, ..., 2, 4, 1) / 3
_SIMPSON_LOG_W = np.log(np.concatenate([[1.0], np.tile([4.0, 2.0], SIMPSON_NODES // 2)[:-1],
                                        [1.0]]) / 3.0)


def simpson_nodes(t) -> np.ndarray:
    """The ``SIMPSON_NODES`` even nodes of the time average to t."""
    return np.linspace(0.0, t, SIMPSON_NODES)


def log_time_average(log_fn, tau):
    """log of (1/tau) * integral_0^tau exp(log_fn(tau')) dtau', by quadrature.

    Composite Simpson on ``SIMPSON_NODES`` uniform nodes, accumulated with
    log-sum-exp so arbitrarily late tails stay representable.  ``tau`` is one
    positive finite time (the result is a float) or an array of them (an
    array of that shape).  ``log_fn`` must accept an array of times.  For
    the swept volume this is the independent cross-check of the exact
    ``log_averaged_volume``.
    """
    taus = np.asarray(tau, dtype=float)
    if not ((taus > 0.0) & (taus < math.inf)).all():
        raise DomainError("tau must be positive finite")
    # one time at a time: a batched (times, nodes) grid measured no faster,
    # since the elementwise logs dominate, and its temporaries take megabytes
    out = []
    for t in taus.ravel().tolist():
        ts = simpson_nodes(t)
        logv = np.asarray(log_fn(ts), dtype=float) + _SIMPSON_LOG_W
        top = float(np.max(logv))   # log-sum-exp, unless the top is not finite
        if math.isfinite(top):
            top += math.log(float(np.sum(np.exp(logv - top))))
        out.append(top + math.log(ts[1] - ts[0]) - math.log(t))
    return out[0] if taus.ndim == 0 else np.array(out).reshape(taus.shape)


# the exact time average: F_n(U) = integral_0^U u^n (sinh u - tanh u) du
EXACT_SWITCH = 2.0     # U below which F_n comes from the Gauss rule
# Li2(-q) = sum_k (-q)^k / k^2; 20 terms reach rounding for q <= e^-2 (U >= 1)
_LI2_K = np.arange(1, 21)
_LI2_NEG = (-1.0) ** _LI2_K / _LI2_K ** 2
# below this q (U > 19.1), |Li2(-q) / 2| < q / 2 is under half an ulp of pi^2 / 24 and
# pi^2 / 24 - Li2(-q) / 2 rounds to pi^2 / 24: floats and array elements sum it from here up
_LI2_NEGLIGIBLE = 2.0 ** -55


def _log_moment_gauss(n: int, U: np.ndarray) -> np.ndarray:
    """log F_n(U) by 24-node Gauss-Legendre; at rounding level for U <= 4.

    F_n(U) = U^(n+4) integral_0^1 t^(n+3) g(U t) dt with
    g(u) = (tanh u / u) * 2 (sinh(u/2) / u)^2, a positive integrand free of
    cancellation and of underflow; g(0) = 1/2, so F_n ~ U^(n+4) / (2 (n+4)).
    A u below the smallest normal float (0/0 at u = 0) takes that limit.
    """
    x, w = _legendre_nodes(24)   # not at import: the first leggauss sets up LAPACK (ms, MB)
    t = 0.5 * (x + 1.0)
    u = U[:, None] * t
    with np.errstate(invalid="ignore"):
        g = np.tanh(u) / u * 2.0 * (np.sinh(0.5 * u) / u) ** 2
    g[u < np.finfo(float).tiny] = 0.5
    return (n + 4) * np.log(U) + np.log(g @ (0.5 * w * t ** (n + 3)))


def _bracket(n: int, U, q, e, log1p_q):
    """F_n(U) * 2 e^-U from U, q = e^(-2U), e = e^-U and log1p(q).

    Written once for Python floats and for arrays alike, so a single time
    and an array of times run the same IEEE operations in the same order.
    """
    if n == 0:
        return 1.0 + q - 2.0 * e * (1.0 + U - LOG2 + log1p_q)
    # -Li2(-q) / 2: each q from _LI2_NEGLIGIBLE up against every power, 0 below
    if isinstance(q, np.ndarray):
        half_li2 = np.zeros_like(q)
        near = q >= _LI2_NEGLIGIBLE
        if near.any():
            half_li2[near] = (0.5 * q[near][:, None] ** _LI2_K) @ _LI2_NEG
    elif q < _LI2_NEGLIGIBLE:
        half_li2 = 0.0
    else:
        half_li2 = float((0.5 * q ** _LI2_K) @ _LI2_NEG)
    eu = e * U
    e_t = 0.5 * eu * U - e * (math.pi ** 2 / 24.0 + half_li2) + eu * log1p_q
    return U - 1.0 + (U + 1.0) * q - 2.0 * e_t


def _log_moment_closed(n: int, U: np.ndarray) -> np.ndarray:
    """log F_n(U) in closed form with e^U / 2 factored out; for U >= 1.

    F_0 = cosh U - 1 - log cosh U and F_1 = U cosh U - sinh U - T(U), where
    T(U) = integral_0^U u tanh u du
         = U^2/2 - pi^2/24 - Li2(-q)/2 + U log(1 + q),  q = e^(-2U).
    Products with e^-U are taken first (``_bracket``), so no term overflows
    at any U.  The result has the shape of ``U``.
    """
    q, e = np.exp(-2.0 * U), np.exp(-U)
    return U - LOG2 + np.log(_bracket(n, U, q, e, np.log1p(q)))


def _log_moment(n: int, U: np.ndarray) -> np.ndarray:
    """log F_n(U) for n = 0 or 1 flat factors and an array of U > 0.

    With no U below ``EXACT_SWITCH`` the closed form takes U as it is;
    otherwise the U below go to the Gauss rule as one 1-D batch, whose
    ``g @ w`` groups its sum by batch size (a few ulps).
    """
    small = U < EXACT_SWITCH
    if not small.any():
        return _log_moment_closed(n, U)
    out = np.empty_like(U)
    out[small] = _log_moment_gauss(n, U[small])
    out[~small] = _log_moment_closed(n, U[~small])
    return out


def _log_averaged_volume_at(spec, tau: float) -> float:
    """:func:`log_averaged_volume` at one time, on Python floats.

    The arithmetic is that of a 1-element array, operation for operation.
    numpy takes only the transcendental functions, on one float at a time,
    and the Li2 series (``math.exp`` and ``math.log`` differ from numpy's in
    the last bit); a U below ``EXACT_SWITCH`` goes to the Gauss rule as a
    1-element batch.
    """
    if not 0.0 < tau < math.inf:   # NaN too
        raise DomainError("tau must be positive finite")
    rate, n = spec.rate, len(spec.flat_factors)
    U = rate * tau
    if U < EXACT_SWITCH:
        log_f = float(_log_moment_gauss(n, np.array([U]))[0])
    else:
        q, e = float(np.exp(-2.0 * U)), float(np.exp(-U))
        log_f = U - LOG2 + float(np.log(_bracket(n, U, q, e, float(np.log1p(q)))))
    return spec.log_volume_constant + log_f - float(np.log(U))


def log_averaged_volume(spec, tau):
    """log of the time-averaged swept volume at tau (a float, or an array of times).

    Exact: log(span * w * prod(lambda_f / rate) * F_n(U) / U) with
    U = rate * tau, which involves sigma0 only through U and the rate.  Every
    tau must be positive finite.  A single time (a float, an ``np.float64``
    or a 0-d array) returns a float, computed on Python floats with the bits
    of a 1-element array; an array returns an array of its shape.  ``spec``
    may also be a list of specs of one model, with one row of ``tau`` each: a
    row has the bits of its spec's own call wherever all of its U reach
    ``EXACT_SWITCH`` (below it the Gauss rule groups its sums by batch).
    """
    if not isinstance(spec, list) and (isinstance(tau, float) or np.ndim(tau) == 0):
        return _log_averaged_volume_at(spec, float(tau))
    taus = np.asarray(tau, dtype=float)
    if not ((taus > 0.0) & (taus < math.inf)).all():
        raise DomainError("tau must be positive finite")
    if isinstance(spec, list):
        rate = np.array([s.rate for s in spec])[:, None]
        log_const = np.array([s.log_volume_constant for s in spec])[:, None]
        n = len(spec[0].flat_factors)
    else:
        rate, log_const, n = spec.rate, spec.log_volume_constant, len(spec.flat_factors)
    U = rate * taus
    return log_const + _log_moment(n, U) - np.log(U)


# ---------------------------------------------------------------------------
# closed-form reference volumes
# ---------------------------------------------------------------------------

def log_closed_form_volume_3d(spec: GeodesicSpec3D, tau):
    """Closed-form averaged 3D volume (moving-endpoint terms only), in logs.

    Returns -inf/nan where the expression is nonpositive, which happens
    before the tail for some parameter corners, or overflows (|mu0| near
    1e308); the expression is meaningful on tail windows.
    """
    tau = np.asarray(tau, dtype=float)
    s0, lp, lf = spec.sigma0, spec.lambda_plus_prime, spec.lambda_f
    mu0, ls = spec.mu0, math.log(spec.sigma0_prime)
    k = spec.rate
    e2 = np.exp(-2.0 * k * tau)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # k * tau first: with s0 * lp * tau, s0^2 underflows at tiny sigma0
        bracket = ((2.0 * s0 + mu0) * lf * (k * tau)
                   + (2.0 * s0 - mu0) * lf * (k * tau) * e2
                   - (lf + lp * s0 * ls) * (2.0 * s0 + mu0)
                   - (s0 * lp * ls - lf) * (2.0 * s0 - mu0) * e2)
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

    taus: np.ndarray
    log_vol: np.ndarray            # instantaneous box volume, log
    log_avg_vol: np.ndarray        # temporal average, log: the entropy S
    entropy_closed_form: np.ndarray
    fit: LineFit


def slope_times(rate: float, window: tuple) -> np.ndarray:
    """The entropy curve's times: ``LEAD_POINTS`` before ``window`` (in
    rate * tau), then the ``WINDOW_POINTS`` of the fit on it; a column per
    rate for an array of rates."""
    w0, w1 = window[0] / rate, window[1] / rate
    lead = np.linspace(w0 / LEAD_POINTS, w0, LEAD_POINTS, endpoint=False)
    return np.concatenate([lead, np.linspace(w0, w1, WINDOW_POINTS)])


def volume_times(rate: float, window: tuple) -> np.ndarray:
    """The 16 even times of the volume checks on ``window``, in rate * tau (a
    column per rate for an array of rates)."""
    return np.linspace(window[0] / rate, window[1] / rate, 16)


def ige_curve(spec, slope_window: tuple = SLOPE_WINDOW) -> IGEResult:
    """Entropy curve and fitted tail slope for one model.

    ``slope_window`` is expressed in units of rate * tau.  The default sits
    far out on the tail: the 2D averaged volume carries a 1/tau factor whose
    -log(tau) contribution biases an ordinary least-squares slope by roughly
    -1/(rate*tau); at rate*tau ~ 300 the bias is ~0.3%, negligible against
    the fit tolerances, while on [20, 50] it would be ~3%.  The line is
    fitted in tau itself: ``fit_line`` scales its abscissae by a power of
    two, so it needs no rescaling by the rate, however small or large.  A
    window that is not an increasing pair of positive finite reals is a
    DomainError.
    """
    w0, w1 = slope_window
    if not 0.0 < w0 < w1 < math.inf:   # NaN too
        raise DomainError(f"slope_window must be an increasing pair of positive finite "
                          f"reals, got {slope_window}")
    taus = slope_times(spec.rate, slope_window)
    log_avg = log_averaged_volume(spec, taus)
    logv = log_box_volume(spec, taus)
    s_closed = log_closed_form_volume(spec, taus)
    return IGEResult(taus=taus, log_vol=logv, log_avg_vol=log_avg, entropy_closed_form=s_closed,
                     fit=fit_line(taus[LEAD_POINTS:], log_avg[LEAD_POINTS:]))


@dataclass(frozen=True)
class IgeSoftening:
    """Tail-slope fits of coupled pairs, a row per pair, and their ratios."""

    fit_3d: LineFit
    fit_2d: LineFit
    ratio: np.ndarray              # 2D over 3D fitted slope, approaches 1/sqrt(2)


def softening_ratio_ige(pairs: list, taus: np.ndarray) -> IgeSoftening:
    """Fitted S-slope ratio of the constrained vs unconstrained model, for each
    coupled pair (3D spec, its ``GeodesicSpec2D.from_3d``) of ``pairs``, at
    each spec's column of ``taus`` (:func:`slope_times`), 3D then 2D per pair
    (``cli`` builds them once per configuration): one time average and one
    fit of each model's rows, each row bit for bit its spec's :func:`ige_curve`
    fit.  The 2D companion shares (mu0, sigma0) and uses lambda_plus =
    lambda_plus' / sqrt(2), so the slopes are rate_2d = sigma0 lambda_plus
    and rate_3d = sigma0 lambda_plus' and the ratio cancels sigma0.
    """
    fits = []
    for m, specs in enumerate(zip(*pairs)):   # the 3D specs, then the 2D
        t = taus[LEAD_POINTS:, m::2].T
        fits.append(fit_line(t, log_averaged_volume(list(specs), t)))
    fit_3d, fit_2d = fits
    return IgeSoftening(fit_3d=fit_3d, fit_2d=fit_2d, ratio=fit_2d.slope / fit_3d.slope)


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
