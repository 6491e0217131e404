"""Jacobi field dynamics along the geodesic flow.

The separation J between neighboring geodesics obeys the geodesic deviation
(Jacobi-Levi-Civita) equation

    D^2 J^k / D tau^2 + R^k_nml theta'^n J^m theta'^l = 0,

linear in J, with coefficients built from the base geodesic.  Expanding the
covariant derivative in coordinates gives

    J''^mu = -( B^mu_a J'^a + C^mu_a J^a ),
    B^mu_a = 2 Gamma^mu_ab theta'^b,
    C^mu_a = Gamma^mu_ab theta''^b + dGamma^mu_ab/dtheta^n theta'^n theta'^b
           + Gamma^mu_rb Gamma^r_as theta'^s theta'^b + R^mu_nal theta'^n theta'^l,

assembled here from the analytic symbols, their analytic derivatives and the
analytic curvature; no large-tau simplification enters the dynamics.  Along
the closed-form geodesics the coefficients settle exponentially fast to
constants, and the components relax to

    3D:  J^1 ~ c0 + (c1 + c2 tau) e^(-2L tau),   J^2 ~ (c1 + c2 tau) e^(-L tau),
         J^3 = (c1 + c2 tau) e^(-lam_f tau)   (exactly critically damped),
    2D:  J^1 ~ c0 + (c1 + c2 tau) e^(-2L tau),   J^2 ~ (c1 + c2 tau) e^(-L tau),

with L = sigma0 * lambda the sigma-decay rate of the model; the secular
tau e^(-2L tau) term of J^1 is J^2 forcing it at its resonant rate, and
:func:`asymptotic_constants` gives every constant from the start data.  The
metric norm of J (the intensity) then grows like e^(L tau) because the
constant J^1 mode is measured against the shrinking sigma scale: the growth
exponent equals L, and the constrained model's exponent is smaller by the
factor 1/sqrt(2), the same softening as the entropy slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .csvtext import series_to_csv
from .errors import DomainError, NumericalAbort
from .fitting import LineFit, fit_line
from .geodesics import _generate_rhs, _sampled_run, _sech, check_sample_times, check_tol
from .models import model_of

EXPONENT_WINDOW = (20.0, 50.0)  # in units of rate * tau


def default_initial(dimension: int):
    """J(0) = (1, ..., 1)/sqrt(n), J'(0) = 0: excites the constant mode."""
    return np.full(dimension, 1.0 / math.sqrt(dimension)), np.zeros(dimension)


def jlc_coefficients(theta: np.ndarray, theta_dot: np.ndarray):
    """The matrices (B, C) of J'' = -(B J' + C J) at one geodesic state.

    They depend on the state only through the velocity ratios theta'_i /
    sigma_k(i); see :meth:`infogeo.models.DiagonalScaleModel.jacobi_coefficients`.
    """
    theta = np.asarray(theta, dtype=float)
    model = model_of(theta)
    return model.jacobi_coefficients(np.asarray(theta_dot, dtype=float) / model.scales(theta))


def intensity(theta: np.ndarray, J: np.ndarray):
    """Metric norm sqrt(g_lm J^l J^m), at one point or per row (diagonal metric)."""
    theta = np.asarray(theta, dtype=float)
    return np.sqrt(model_of(theta).speed(theta, np.asarray(J, dtype=float)))


@dataclass(frozen=True, kw_only=True)
class JacobiTrajectory:
    """Jacobi samples along the closed-form geodesic plus solver metadata."""

    taus: np.ndarray
    J: np.ndarray             # (n_samples, dim); may underflow to 0
    rate: float               # sigma0 * lambda of the underlying model
    log_intensities: np.ndarray   # log sqrt(g(J, J)), formed without J itself
    slots: np.ndarray         # (J^mu / sigma0, K_1, ..., their s-rates) in ``units``
    units: np.ndarray         # per slot and its rate: its factor's start max-norm
    n_steps: int
    complete: bool = True
    abort_reason: Optional[str] = None

    def intensities(self) -> np.ndarray:
        """sqrt(g(J, J)) per sample: inf past the double range."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_intensities)


def window_mask(taus: np.ndarray, rate: float, window: tuple) -> np.ndarray:
    """The samples of ``taus`` on ``window``, in rate * tau with a slack of
    1e-12 there; a DomainError when fewer than 4, too few to fit (in some
    column, for a column of times per rate in an array of rates)."""
    s = np.asarray(taus) * rate
    mask = (s >= window[0] - 1e-12) & (s <= window[1] + 1e-12)
    if mask.sum(axis=0).min() < 4:
        raise DomainError("exponent window contains too few samples")
    return mask


@cache
def _jlc_rhs(model):
    """w' at s for the field slots w of :func:`integrate_jlc`, from a list to
    a list: ``model.jacobi_system`` at g_hat = (1, sech s, -tanh s, flat
    rates), the exact geodesic in rate units, as one generated function.
    The flat rates -lambda_f / rate have no term (K_f'' = 0), so one
    function serves every spec of the model; a term in them would fail as
    an unbound name at the first call."""
    head = ("x = exp(-t)",   # sech s = 2 x / (1 + x^2) underflows to 0, cosh would overflow
            "g1 = 2.0 * x / (1.0 + x * x)", "g2 = -tanh(t)")
    return _generate_rhs(model.jacobi_system, ("z", "g", "g"),
                         [f"z{i}" for i in range(1, 2 * model.dimension + 1)], head, math.exp)


def _nan_max(values) -> float:   # max(values) as numpy takes it: nan if any value is nan
    return math.nan if any(map(math.isnan, values)) else max(values)


def _start_slots(spec, initial_J, initial_J_dot) -> tuple:
    """The field slots w(0) of a start (J, J'), (J^mu / sigma0, K_1, ...) and
    their s-rates with K_i = J^i / sigma_i, each factor's divided by its
    max-norm, and those ``units`` per slot.  The factors do not couple, so
    each keeps its own relative accuracy under an absolute tolerance.  A
    start past the double range gives nan slots.  On Python floats, in the
    IEEE operations and order of an elementwise numpy pass."""
    rate, dim = spec.rate, spec.model.dimension
    J0, Jd0 = default_initial(dim)
    J0 = J0 if initial_J is None else np.asarray(initial_J, dtype=float)
    Jd0 = Jd0 if initial_J_dot is None else np.asarray(initial_J_dot, dtype=float)
    if J0.shape != (dim,) or Jd0.shape != (dim,):
        raise DomainError(f"Jacobi initial data must have shape ({dim},)")
    J0, Jd0 = J0.tolist(), Jd0.tolist()
    if not all(map(math.isfinite, J0 + Jd0)):
        raise DomainError("Jacobi initial data must be finite")
    # the slot scales (sigma0, sigma_1, ...) and their log-rates (0, -tanh s, flat) at s = 0;
    # J' / rate is inf or nan, as in numpy, where the rate underflows to 0
    scales0 = [spec.sigma0, spec.sigma0, *(start for start, _ in spec.flat_factors)]
    log_rates0 = [0.0, 0.0, *(-decay / rate for _, decay in spec.flat_factors)]
    Jd0 = [v / rate if rate else (math.copysign(math.inf, v) if v else math.nan) for v in Jd0]
    field0 = [v / c for v, c in zip(J0 + [d - r * j for d, r, j in zip(Jd0, log_rates0, J0)],
                                    scales0 * 2)]
    units = [_nan_max((abs(v), abs(d))) for v, d in zip(field0, field0[dim:])]
    units[:2] = [_nan_max(units[:2])] * 2   # the (mu, sigma) plane: m and K_1 couple
    units = [_nan_max(units) or 1.0 if u == 0.0 else u for u in units]
    return np.array([v / u for v, u in zip(field0, units * 2)]), np.array(units)


def _log_norms(model, s, K, units) -> np.ndarray:
    """log sqrt(g(J, J)) per row of the slots K in ``units`` at rate * tau =
    s: g(J, J) = sum_i c_i t_i^2 for t = (J^mu / sigma_x, K_1, ...), summed
    in logs, with log |J^mu / sigma_x| = log |K_0| - log sech s.  A zero row
    gives -inf.  With a leading axis of one spec each in s, K and ``units``,
    each spec's norms are its own call's, bit for bit."""
    top_unit = units.max(axis=-1, keepdims=True)
    logs = np.log(np.abs(K)) + (np.log(units) - np.log(top_unit))[..., None, :]
    logs[..., 0] -= math.log(2.0) - s - np.log1p(np.exp(-2.0 * s))
    top = logs.max(axis=-1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    log_top_unit = np.reshape([math.log(u) for u in top_unit.ravel()], top_unit.shape)
    return (log_top_unit + top[..., 0]
            + 0.5 * np.log(np.exp(2.0 * (logs - top)) @ np.array(model.weights)))


def _from_slots(spec, taus, w, units, **fields) -> JacobiTrajectory:
    """The trajectory of the field slots ``w`` (in ``units``) at ``taus``: J,
    the slots times their scales sigma0, sigma_x, sigma_y formed as in
    ``closed_form`` (it may underflow to 0), and log intensities from the slots."""
    model, rate = spec.model, spec.rate
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        s = taus * rate
        flat = [start * np.exp(-decay * taus) for start, decay in spec.flat_factors]
        scales = np.column_stack([np.full_like(s, spec.sigma0), spec.sigma0 * _sech(s), *flat])
        K = w[:, :model.dimension]
        return JacobiTrajectory(taus=taus, J=units * scales * K, rate=rate, slots=w, units=units,
                                log_intensities=_log_norms(model, s, K, units), **fields)


def integrate_jlc(spec, initial_J=None, initial_J_dot=None,
                  tau_max: Optional[float] = None, tol: float = 1e-10,
                  sample_taus=None) -> JacobiTrajectory:
    """Integrate the Jacobi field along the exact geodesic of ``spec``.

    The base geodesic is the closed form, so the run carries the field
    alone, in rate units s = rate * tau: J^mu / sigma0, which tends to a
    constant (the Killing mode d/dmu), and the metric-normalized K_i =
    J^i / sigma_i, which tend to a constant, decay or (a flat scale) grow
    linearly, with their s-rates, each factor's divided by the max-norm of
    its start (see :func:`_start_slots`).  The coefficients,
    ``model.jacobi_system`` at sech s, -tanh s and -lambda_f / rate, stay
    O(1) at every s: no slot grows with the intensity and no horizon stops
    the run.  The 2D run depends on the spec only through rounding and the
    3D run only on lambda_f / rate.  The record keeps the field alone (J may
    underflow to 0; log intensities come from the slots and log sech s), by
    default from :func:`default_initial`; :func:`exact_jacobi` is its closed form.
    """
    w0, units = _start_slots(spec, initial_J, initial_J_dot)
    check_tol(tol)
    # a start vector past the double range gives nan slots: the run stops at its start
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        taus, w, fields = _sampled_run(_jlc_rhs(spec.model), w0,
                                       EXPONENT_WINDOW[1] / spec.rate if tau_max is None else tau_max,
                                       tol, sample_taus, spec.rate)
    return _from_slots(spec, taus, w, units, **fields)


def _integration_constants(spec, initial_J, initial_J_dot) -> tuple:
    """The start slots and ``units`` of :func:`_start_slots`, then the
    constants of :func:`exact_jacobi`: b = 2 sqrt(c_1), m(0), K(0), m'(0),
    A = K'(0), B = -K(0) - a C / 2 and C = m'(0) - b K(0)."""
    w0, units = _start_slots(spec, initial_J, initial_J_dot)
    dim = spec.model.dimension
    root = math.sqrt(spec.model.weights[1])
    b, a = 2.0 * root, 2.0 / root
    m0, K0, m_rate0, A = w0[0], w0[1], w0[dim], w0[dim + 1]
    C = m_rate0 - b * K0
    return w0, units, b, m0, K0, m_rate0, A, -K0 - 0.5 * a * C, C


def exact_jacobi(spec, taus, initial_J=None, initial_J_dot=None) -> JacobiTrajectory:
    """The field of :func:`integrate_jlc` in closed form at the sample times.

    Both manifolds are products of a hyperbolic plane and flat lines, so
    the slot equations, with c_1 the sigma weight, b = 2 sqrt(c_1) and
    a = 2 / sqrt(c_1),

        m'' = -2 tanh s m' + b sech^2 s K',   K'' = 2 sech^2 s K - a m',
        K_f'' = 0,

    integrate once to cosh^2 s m' = b K + C, C = m'(0) - b K(0), which
    leaves K'' + 2 sech^2 s K = -a C sech^2 s: the l = 1 Poschl-Teller
    equation.  With A = K'(0) and B = -K(0) - a C / 2 (a b = 4),

        K = A tanh s + B (s tanh s - 1) - a C / 2 = K(0) + (A + B s) tanh s,
        m = m(0) + (b A / 2) tanh^2 s - (b B / 2)(s sech^2 s + tanh s) - C tanh s
          = m(0) + (b / 2)(A tanh^2 s + K(0)(s sech^2 s + tanh s)) + C s sech^2 s,
        K_f = K_f(0) + K_f'(0) s,

    evaluated in the second forms, which give the start exactly at s = 0
    and m -> m(0) + (b / 2)(K(0) + K'(0)) without cancellation.
    It reads the model's weights only, never ``model.jacobi_system``.  A
    start past the double range gives a run stopped at its start, as in
    :func:`integrate_jlc`.
    """
    constants = _integration_constants(spec, initial_J, initial_J_dot)
    w0, units, b, _, _, m_rate0, A, B, _ = constants
    taus = check_sample_times(taus)
    if not np.all(np.isfinite(w0)):
        # where the slot system's right-hand side is not finite at s = 0
        return _from_slots(spec, taus[:1], w0[None, :], units, n_steps=0,
                           complete=False,
                           abort_reason="right-hand side is not finite at the initial state")
    s = taus * spec.rate
    values, sech2, tanh, grown = _closed_form_values(constants, s)
    rates = (sech2 * (m_rate0 + b * grown), A * sech2 + B * (tanh + s * sech2))   # m', K'
    flat_rates = np.broadcast_to(w0[values.shape[1] + 2:], values[:, 2:].shape)
    return _from_slots(spec, taus, np.column_stack([values, *rates, flat_rates]), units,
                       n_steps=0)


def _closed_form_values(constants, s) -> tuple:
    """The value slots (m, K, K_f) of :func:`exact_jacobi` at rate * tau = s,
    from the constants of :func:`_integration_constants`, then sech^2 s,
    tanh s and (A + B s) tanh s, which its rate slots reuse; with a leading
    axis of one spec each in s and the constants, each spec's values are its
    own call's."""
    w0, _, b, m0, K0, _, A, B, C = constants
    dim = w0.shape[-1] // 2
    sech2 = _sech(s) ** 2
    tanh = np.tanh(s)
    grown = (A + B * s) * tanh
    m = m0 + 0.5 * b * (A * tanh**2 + K0 * (s * sech2 + tanh)) + C * s * sech2
    flat = w0[..., None, 2:dim] + s[..., None] * w0[..., None, dim + 2:]
    return np.concatenate([np.stack([m, K0 + grown], axis=-1), flat], axis=-1), sech2, tanh, grown


def field_relative_error(traj: JacobiTrajectory, ref: JacobiTrajectory) -> float:
    """max over the samples of |J - J_ref| / |J_ref| in the metric, for two
    fields from one start at the same sample times: formed from their slots,
    so that no J^mu / sigma_x is formed and nothing overflows.  A sample
    where the two agree exactly counts 0, even where J_ref = 0.  Fields of
    two models or at other sample times are a DomainError."""
    if traj.J.shape[1] != ref.J.shape[1] or not np.array_equal(traj.taus, ref.taus):
        raise DomainError("field_relative_error needs two fields of one model at the same times")
    s = ref.taus * ref.rate
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        model = model_of(ref.J)
        K, K_ref = traj.slots[:, :model.dimension], ref.slots[:, :model.dimension]
        diff = _log_norms(model, s, K - K_ref, ref.units)
        errors = np.exp(diff - _log_norms(model, s, K_ref, ref.units))
        return float(np.where(diff == -math.inf, 0.0, errors).max())


# ---------------------------------------------------------------------------
# asymptotic structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiConstants:
    """Constants of the asymptotic forms c0 + (c1 + c2 tau) e^(-r tau), one
    row (c0, c1, c2) of ``C`` and one rate r of ``rates`` per component:

        J^1 = C11 + (C12 + C13 tau) e^(-2L tau)
        J^2 = (C21 + C22 tau) e^(-L tau)           (c0 = 0)
        J^3 = (C31 + C32 tau) e^(-lam_f tau)       (3D only; c0 = 0)

    with L = sigma0 * lambda.
    """

    rates: np.ndarray           # (dim,)
    C: np.ndarray               # (dim, 3)


def asymptotic_constants(spec, initial_J=None, initial_J_dot=None) -> JacobiConstants:
    """The constants of the asymptotic forms of the field of :func:`exact_jacobi`
    from the start (J, J'), read off its closed form as s = L tau -> inf.

    With e = e^(-2s), tanh s = 1 - 2e + O(e^2) and sech^2 s = 4e + O(e^2),
    so tanh^2 s = 1 - 4e + O(e^2), and the closed-form m becomes

        m = m(0) + (b/2)(K(0) + A) - b (2A + K(0)) e + 4 (C + (b/2) K(0)) s e
            + O(s e^2),

    where C + (b/2) K(0) = m'(0) - sqrt(c_1) K(0).  J^1 = sigma0 m gives

        C11 = sigma0 (m(0) + (b/2)(K(0) + A)),   C12 = -b sigma0 (2A + K(0)),
        C13 = 4 sigma0 L (m'(0) - sqrt(c_1) K(0)):

    the secular term is J^2 forcing J^1 at its resonant rate e^(-2L tau).
    With sech s = 2 e^(-s)(1 + O(e)) and tanh s = 1 + O(e),
    J^2 = sigma_x K = sigma0 sech s (K(0) + (A + B s) tanh s) gives

        J^2 = 2 sigma0 (K(0) + A + B L tau) e^(-L tau) (1 + O(s e)),
        C21 = 2 sigma0 (K(0) + A),   C22 = 2 sigma0 B L.

    J^3 = sigma_y K_f = sigma0' e^(-lam_f tau)(K_f(0) + K_f'(0) L tau) at
    every tau, so C31 = sigma0' K_f(0) and C32 = sigma0' K_f'(0) L are
    exact.  The slots are in start units, so each row is times its ``units``
    (see :func:`_start_slots`) and its start scale, sigma0 or sigma0'.
    """
    w0, units, b, m0, K0, m_rate0, A, B, _ = _integration_constants(spec, initial_J,
                                                                    initial_J_dot)
    dim, L = spec.model.dimension, spec.rate
    rows = [(m0 + 0.5 * b * (K0 + A), -b * (2.0 * A + K0), 4.0 * L * (m_rate0 - 0.5 * b * K0)),
            (0.0, 2.0 * (K0 + A), 2.0 * B * L)]
    rows += [(0.0, Kf, Kf_rate * L) for Kf, Kf_rate in zip(w0[2:dim], w0[dim + 2:])]
    starts = [spec.sigma0, spec.sigma0, *(start for start, _ in spec.flat_factors)]
    rates = [2.0 * L, L, *(decay for _, decay in spec.flat_factors)]
    return JacobiConstants(rates=np.array(rates), C=np.array(rows) * (units * starts)[:, None])


def asymptotic_solutions(constants: JacobiConstants, tau) -> np.ndarray:
    """The asymptotic component forms of ``constants`` at ``tau``, one
    column per component."""
    C = constants.C
    tau = np.asarray(tau, dtype=float)[..., None]
    return C[:, 0] + critically_damped(constants.rates, C[:, 1], C[:, 2], tau)


def critically_damped(lam: float, c1: float, c2: float, tau):
    """(c1 + c2 tau) e^(-lam tau): the double-root solution of
    J'' + 2 lam J' + lam^2 J = 0; inf or nan, unwarned, where c2 tau overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (c1 + c2 * tau) * np.exp(-lam * tau)


# ---------------------------------------------------------------------------
# growth exponents and the softening gap
# ---------------------------------------------------------------------------

def exponent_fit(traj: JacobiTrajectory, window: tuple = EXPONENT_WINDOW) -> LineFit:
    """Least-squares slope of log intensity on the window (rate * tau units).

    The window must start past the crossover where the constant J^1 mode
    dominates; before it the secular tau-terms of the decaying components
    are still visible.  The line is fitted in tau itself: ``fit_line``
    scales its abscissae by a power of two, so it needs no rescaling by the
    window, however small or large.
    """
    mask = window_mask(traj.taus, traj.rate, window)
    log_inten = traj.log_intensities[mask]
    if not np.all(log_inten > -math.inf):
        raise DomainError("intensity must be positive on the fit window")
    return fit_line(traj.taus[mask], log_inten)


def exponent_times(rate: float, window: tuple) -> np.ndarray:
    """The 401 even sample times of an exponent run, to rate * tau = window[1]
    (a column per rate for an array of rates)."""
    return np.linspace(0.0, window[1] / rate, 401)


def exponent_run(spec, window: tuple, tol: Optional[float] = None) -> JacobiTrajectory:
    """The default-initial field at the :func:`exponent_times` of ``window``, by
    :func:`exact_jacobi`, or with a ``tol`` by :func:`integrate_jlc`; a DomainError
    when too few fall on ``window``, a NumericalAbort when the run stops short."""
    taus = exponent_times(spec.rate, window)
    window_mask(taus, spec.rate, window)
    traj = (exact_jacobi(spec, taus) if tol is None
            else integrate_jlc(spec, tau_max=taus[-1], tol=tol, sample_taus=taus))
    if not traj.complete:
        raise NumericalAbort(f"jacobi run {spec.model.label}: {traj.abort_reason}", partial=traj)
    return traj


@dataclass(frozen=True)
class JacobiSoftening:
    """Growth-exponent fits of coupled pairs, a row per pair, and their gaps."""

    fit_3d: LineFit
    fit_2d: LineFit
    gap: np.ndarray   # fit_3d.slope - fit_2d.slope > 0


def softening_gap(pairs: list, taus: np.ndarray, on_window: np.ndarray) -> JacobiSoftening:
    """Fitted intensity-growth exponents of each coupled pair (3D spec, its
    ``GeodesicSpec2D.from_3d``) of ``pairs`` and their gaps, from the exact
    field of the default Jacobi initial data at each spec's column of ``taus``
    (:func:`exponent_times`) and ``on_window`` (their :func:`window_mask`), 3D
    then 2D per pair (``cli`` builds both once per configuration).  Each model
    fits the value slots of its rows of each count of samples on the window at
    once, each row bit for bit its spec's :func:`exponent_fit` of its
    :func:`exponent_run`; a start past the double range is that run's
    NumericalAbort, the 3D specs' first."""
    fits = []
    for m, specs in enumerate(zip(*pairs)):   # the 3D specs, then the 2D
        model, rates = specs[0].model, np.array([spec.rate for spec in specs])
        t_all, mask = taus[:, m::2].T, on_window[:, m::2].T
        # a row per spec of each constant: the start slots, the units, then the scalars
        constants = [np.array(c) for c in zip(*(_integration_constants(spec, None, None)
                                                for spec in specs))]
        for spec, t, finite in zip(specs, t_all, np.isfinite(constants[0]).all(axis=1)):
            if not finite:   # its exponent run's abort, with the run stopped at its start
                traj = exact_jacobi(spec, t)
                raise NumericalAbort(f"jacobi run {model.label}: {traj.abort_reason}",
                                     partial=traj)
        counts = mask.sum(axis=1)
        slopes, r_squared = np.empty(len(specs)), np.empty(len(specs))
        for count in sorted(set(counts.tolist())):   # np.unique would import numpy.ma
            rows = counts == count
            t = t_all[rows][mask[rows]].reshape(-1, count)
            s = t * rates[rows, None]
            values, *_ = _closed_form_values(
                [c[rows] if c.ndim == 2 else c[rows, None] for c in constants], s)
            log_inten = _log_norms(model, s, values, constants[1][rows])
            if not np.all(log_inten > -math.inf):
                raise DomainError("intensity must be positive on the fit window")
            fit = fit_line(t, log_inten)
            slopes[rows], r_squared[rows] = fit.slope, fit.r_squared
        fits.append(LineFit(slopes, r_squared))
    fit_3d, fit_2d = fits
    return JacobiSoftening(fit_3d=fit_3d, fit_2d=fit_2d, gap=fit_3d.slope - fit_2d.slope)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def jacobi_to_csv(traj: JacobiTrajectory) -> str:
    """Columns: tau, J components, intensity, log intensity."""
    names = [f"J{k + 1}" for k in range(traj.J.shape[1])]
    return series_to_csv("jacobi", ["tau", *names, "intensity", "log_intensity"],
                         [traj.taus, traj.J, traj.intensities(), traj.log_intensities])
