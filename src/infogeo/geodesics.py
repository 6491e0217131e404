"""Geodesic flow on the two Gaussian manifolds.

The geodesic equations d^2 theta^k / d tau^2 + Gamma^k_lm theta'^l theta'^m = 0
read, component by component,

3D:  mu''  = (2 / sx) mu' sx'
     sx''  = -mu'^2 / (2 sx) + sx'^2 / sx
     sy''  = sy'^2 / sy

2D:  mu''  = (2 / s) mu' s'
     s''   = -mu'^2 / (4 s) + s'^2 / s

Both systems admit the first integral mu' = A1 sigma^2 (A1 constant), which
reduces the sigma equation to s s'' - s'^2 + a s^4 = 0 with a = A1^2 / 2
(3D) or A1^2 / 4 (2D).  Solutions with s'(0) = 0 are

    sigma(tau)  = sigma0 * sech(sigma0 * lam * tau),       lam = sqrt(a),
    mu_x(tau)   = mu0 + span * sigma0 * tanh(sigma0 * lam * tau),

where the mean span per sigma0 is fixed by the first integral:
span = A1 / lam, i.e. sqrt(2) for the 3D system and 2 for the 2D system.
The third 3D coordinate decays independently, sigma_y = sigma0' e^(-lam_f tau).

Every closed form takes the model's own span, the unique value that solves
its system exactly.  The closed-form swept-volume expressions in
:mod:`infogeo.ige` are built on a span-2 mean path (``MU_SPAN_WIDE``), which
in 3D satisfies the mu equation but not the sigma_x equation (residual
lam^2 sigma_x^3); ``closed_form_3d`` and ``box_volume_quadrature`` reach it
through their ``mu_span`` argument.  All growth/decay rates are
span-independent.

``integrate_geodesic`` solves the equations in s = rate * tau on the state
((mu - mu0) / sigma0, log(sigma / sigma(0)), rho / rate), rho_i = theta'_i /
sigma_k(i), with the mean's ratio as its log (``DiagonalScaleModel.ratio_system``):
sigma and mu' keep their relative accuracy as they decay, and the step
depends neither on lambda_f nor on the horizon.  The run starts from its
spec, bit for bit the closed form in that chart at s = 0, and
``residual_check`` compares its exact s-derivative with the right-hand side
the run integrates: one form of the geodesic equations serves both, and an
exact solution leaves rounding alone at every scale of sigma and lambda_f.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import ClassVar, Optional

import numpy as np

from .csvtext import series_to_csv
from .errors import DomainError
from . import rk
from .models import MODEL_2D, MODEL_3D, DiagonalScaleModel, model_of

MU_SPAN_WIDE = 2.0  # span assumed by the closed-form volume expressions


def _positive(name, v):
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"{name} must be a positive real, got {v!r}")


def check_tol(tol):
    """Integrator tolerances outside [1e-13, 1e-6] are rejected."""
    if not 1e-13 <= tol <= 1e-6:
        raise DomainError("tol must lie in [1e-13, 1e-6]")


@dataclass(frozen=True)
class _GeodesicSpec:
    """Start (mu0, sigma0) of the (mu, sigma) plane; every later field is > 0."""

    mu0: float
    sigma0: float

    def __post_init__(self):
        if not math.isfinite(self.mu0):
            raise DomainError("mu0 must be finite")
        for f in dataclasses.fields(self)[1:]:
            _positive(f.name, getattr(self, f.name))
        if not math.isfinite(self._mean_velocity(self.model.mean_span)):
            raise DomainError(f"{self.lam_field} = {self.lam!r} with sigma0 = {self.sigma0!r} "
                              "overflows the initial mean velocity")

    def _mean_velocity(self, span: float) -> float:
        """mu'(0) = (rate * span) * sigma0 on a mean path of ``span``: the mean's
        velocity ratio times its scale, grouped as ``Trajectory.velocities`` forms it."""
        return self.rate * span * self.sigma0

    @property
    def lam(self) -> float:
        return getattr(self, self.lam_field)

    @property
    def rate(self) -> float:
        """sigma0 * lam: decay rate of sigma, growth rate of volumes."""
        return self.sigma0 * self.lam

    @cached_property   # at the first time average, never for specs that only fit
    def log_volume_constant(self) -> float:
        """log(span * w * prod(lambda_f / rate)) of ``ige.log_averaged_volume``."""
        return math.log(MU_SPAN_WIDE * self.model.volume_weight) + sum(
            math.log(decay) - math.log(self.rate) for _, decay in self.flat_factors)


@dataclass(frozen=True)
class GeodesicSpec3D(_GeodesicSpec):
    """Initial data (mu0, sigma0, sigma0') and rates (lambda_plus', lambda_f).

    ``lam`` is lambda_plus', ``flat_factors`` the (initial value, decay
    rate) of each flat scale coordinate.
    """

    sigma0_prime: float
    lambda_plus_prime: float
    lambda_f: float
    model: ClassVar[DiagonalScaleModel] = MODEL_3D
    lam_field: ClassVar[str] = "lambda_plus_prime"

    @staticmethod
    def from_final_spread(mu0, sigma0, sigma0_prime, lambda_plus_prime,
                          tau_f, epsilon, lambda_f=None) -> "GeodesicSpec3D":
        """Build lambda_f from a target sigma_y(tau_f) = epsilon < sigma0'.

        If ``lambda_f`` is also given it must agree to 1e-12.
        """
        _positive("tau_f", tau_f)
        _positive("epsilon", epsilon)
        if epsilon >= sigma0_prime:
            raise DomainError("epsilon must be smaller than sigma0_prime")
        lf = math.log(sigma0_prime / epsilon) / tau_f
        if lambda_f is not None and abs(lambda_f - lf) > 1e-12 * max(1.0, abs(lf)):
            raise DomainError(f"inconsistent lambda_f: given {lambda_f}, "
                              f"derived {lf} from (tau_f, epsilon)")
        return GeodesicSpec3D(mu0, sigma0, sigma0_prime, lambda_plus_prime, lf)

    @property
    def flat_factors(self) -> tuple:
        return ((self.sigma0_prime, self.lambda_f),)


@dataclass(frozen=True)
class GeodesicSpec2D(_GeodesicSpec):
    lambda_plus: float
    model: ClassVar[DiagonalScaleModel] = MODEL_2D
    lam_field: ClassVar[str] = "lambda_plus"
    flat_factors: ClassVar[tuple] = ()

    @classmethod
    def from_3d(cls, spec: GeodesicSpec3D) -> "GeodesicSpec2D":
        """Coupled companion: the ``cls.model`` geodesic from the same (mu0, sigma0)
        and mu'(0) = sqrt(c_1 / c_0) lam sigma0^2, so lam scales as sqrt(c_0 / c_1)."""
        (a0, a1), (b0, b1) = cls.model.weights, spec.model.weights[:2]
        return cls(spec.mu0, spec.sigma0, spec.lambda_plus_prime / math.sqrt((a1 / a0) / (b1 / b0)))


def _sech(u):
    e = np.exp(-np.abs(u))
    return 2.0 * e / (1.0 + e * e)


# ---------------------------------------------------------------------------
# closed-form paths
# ---------------------------------------------------------------------------

def _closed_form(spec, tau, mu_span: Optional[float]):
    # the (mu, sigma) plane follows the sech/tanh path, every flat scale
    # coordinate decays exponentially
    tau = np.asarray(tau, dtype=float)
    span = spec.model.mean_span if mu_span is None else mu_span
    k = spec.rate
    u = k * tau
    sech = _sech(u)
    tanh = np.tanh(u)
    s = spec.sigma0 * sech
    coords = [spec.mu0 + span * spec.sigma0 * tanh, s]
    rates = [spec._mean_velocity(span) * sech**2, -k * spec.sigma0 * sech * tanh]
    for start, decay in spec.flat_factors:
        # decay * tau past the double range: the scale is 0; decay * start past it: the rate is -inf
        with np.errstate(over="ignore"):
            coords.append(start * np.exp(-decay * tau))
            rates.append(-decay * coords[-1])
    theta = np.stack(np.broadcast_arrays(*coords), axis=-1)
    vel = np.stack(np.broadcast_arrays(*rates), axis=-1)
    return theta, vel


def closed_form_3d(spec: GeodesicSpec3D, tau, mu_span: Optional[float] = None):
    """Closed-form path and velocity at tau (arrays broadcast over tau).

    Returns ``(theta, velocity)`` with rows (mu_x, sigma_x, sigma_y).  At
    tau = 0 the state is (mu0, sigma0, sigma0') with velocity
    (mu_span * lambda_plus' * sigma0^2, 0, -lambda_f * sigma0');
    ``mu_span=None`` is the model's exact span sqrt(2).
    """
    return _closed_form(spec, tau, mu_span)


def closed_form_2d(spec: GeodesicSpec2D, tau):
    """Closed-form 2D path; the (mu, sigma) shape matches the 3D one with
    mean span 2 and rate sigma0 * lambda_plus."""
    return _closed_form(spec, tau, None)


def closed_form(spec, tau):
    """Closed-form path of either model with its exact mean span."""
    return _closed_form(spec, tau, None)


@dataclass(frozen=True)
class Trajectory:
    """Sampled geodesic: times, states, velocity ratios plus solver metadata."""

    taus: np.ndarray
    states: np.ndarray      # (len(taus), dim)
    ratios: np.ndarray      # (len(taus), dim): rho_i = theta'_i / sigma_k(i)
    n_steps: int
    complete: bool = True
    abort_reason: Optional[str] = None

    @property
    def velocities(self) -> np.ndarray:
        """theta'_i = rho_i sigma_k(i) per sample; 0 where sigma underflows, inf
        where the product passes the double range."""
        with np.errstate(over="ignore"):
            return self.ratios * model_of(self.states).scales(self.states)

    def speeds(self) -> np.ndarray:
        """g_lm v^l v^m = sum_i c_i rho_i^2 per sample, conserved along geodesics:
        from the ratios, so it stays a number where sigma and v underflow."""
        with np.errstate(over="ignore"):
            return np.multiply(model_of(self.states).weights, np.square(self.ratios)).sum(-1)

    def speed_drift(self) -> float:
        """max |speed - speed(0)| / speed(0), from :meth:`speeds` of the ratios over
        2^e, e the binary order of their largest |rho|: exact, so it is the unscaled
        drift where that loses nothing to the double range, and a number past it."""
        _, e = np.frexp(np.abs(self.ratios).max())
        speeds = dataclasses.replace(self, ratios=np.ldexp(self.ratios, -e)).speeds()
        with np.errstate(divide="ignore", invalid="ignore"):   # a start speed of 0 fails by name
            return float(np.abs(speeds - speeds[0]).max() / speeds[0])


def check_sample_times(taus, tau_max: float = math.inf) -> np.ndarray:
    """``taus`` as a flat float array; a DomainError unless they are finite
    and strictly increase in [0, ``tau_max``]."""
    taus = np.ravel(np.asarray(taus, dtype=float))
    if (not np.all(np.isfinite(taus) & (taus >= 0.0) & (taus <= tau_max))
            or np.any(np.diff(taus) <= 0.0)):   # diff after isfinite: inf - inf warns
        raise DomainError(f"sample times must be finite and strictly increase in [0, {tau_max:g}]")
    return taus


def _sampled_run(rhs, y0, tau_max: float, tol: float, sample_taus, rate: float) -> tuple:
    """One rk run to ``tau_max`` from ``y0`` at rtol = atol = ``tol``, in s =
    rate * tau: ``(taus, ys, fields)``, ``fields`` a record's solver keywords.
    Samples are the ``sample_taus`` the run reached (dense output), checked by
    :func:`check_sample_times`, or its steps without them or before a first step.
    A ``tau_max`` that is not positive and finite is a DomainError."""
    _positive("tau_max", tau_max)
    sample_taus = None if sample_taus is None else check_sample_times(sample_taus, tau_max)
    sol = rk.integrate(rhs, (0.0, tau_max * rate), y0, rtol=tol, atol=tol)
    if sample_taus is not None and sol.n_steps:
        taus = sample_taus[sample_taus * rate <= sol.t[-1]]
        ys = sol(taus * rate)
    else:
        taus, ys = sol.t / rate, sol.y
    return taus, ys, dict(n_steps=sol.n_steps, complete=sol.complete, abort_reason=sol.abort_reason)


def nonzero_terms(tensor: np.ndarray) -> list:
    """``(row, indices..., coefficient)`` of each nonzero entry of a system
    tensor, in index order, as Python ints and floats.  The system tensors
    are almost empty (7 of the 672 entries of the 3D Jacobi one), and
    :func:`_generate_rhs` writes each row of a right-hand side as the sum of
    its terms."""
    return [(*map(int, index), float(tensor[tuple(index)])) for index in np.argwhere(tensor)]


def _generate_rhs(tensor: np.ndarray, axes: tuple, state: list, head: tuple, exp):
    """The contraction of a system tensor as one straight-line ``rhs(t, y)``,
    from a list y to a list: ``axes`` names the vector of each index after
    the row; slot 0 of each vector is the constant 1, and slot i of vector
    "v" is the name ``vi``.  y is unpacked into the names ``state``, then
    the ``head`` lines define the other names (the ``exp`` given and
    ``tanh`` are in scope).  Row r is the sum, in index order, of its terms
    c * x[last index] * ... * x[first index], multiplied left to right and
    added to 0.0, so it equals a loop over :func:`nonzero_terms` bit for
    bit; factors of 1.0 (the constant slots, unit coefficients) are left
    out, as they are exact.  It also runs on columns, y arrays and ``exp``
    mapping them: each row is then its values per sample, bit for bit."""
    rows = [["0.0"] for _ in range(tensor.shape[0])]
    for row, *index, c in nonzero_terms(tensor):
        factors = [f"{axes[j]}{i}" for j, i in reversed(list(enumerate(index))) if i]
        rows[row].append("*".join([repr(c)] * (c != 1.0 or not factors) + factors))
    sums = [" + ".join(terms) for terms in rows]
    source = "\n    ".join(["def rhs(t, y):", f"{', '.join(state)}, = y", *head,
                             f"return [{', '.join(sums)}]"])
    namespace = {"exp": exp, "tanh": math.tanh}
    exec(compile(source, "<generate_rhs>", "exec"), namespace)
    return namespace["rhs"]


# rk runs the geodesic at tol / 8: at tol / 3 its absolute deviation from the
# closed form is about 2x a run's that carried r_0 itself (median over 160 specs
# drawn as the geodesic-horizon benchmark draws them, the larger of each spec's
# two models: 1.75e-10 against 8.35e-11); tol / 8 keeps it below (7.2e-11) in
# 40,911 steps against 60,500, and 121 and 123 at the default config
_TOL_DIVISOR = 8.0


@cache
def _ratio_rhs(model, exp):
    """y' = ``model.ratio_system`` g_hat g_hat, g_hat = (1, exp(l_k(0)), exp(h),
    r_1, ...), for y = (m, l_1, ..., h, r_1, ...): one generated function, from
    a list to a list, that calls ``exp`` (``math.exp`` for a state, or
    :func:`_exp_each` for columns)."""
    n = model.dimension
    state = ["m", *(f"l{j}" for j in range(1, n)), "h2", *(f"g{i}" for i in range(3, n + 2))]
    head = (f"g1 = exp(l{model.scale_map[0]})", "g2 = exp(h2)")
    return _generate_rhs(model.ratio_system, ("g", "g"), state, head, exp)


def _exp_each(v: np.ndarray) -> np.ndarray:
    """``math.exp`` of each element: numpy's exp may differ in the last bit."""
    return np.fromiter(map(math.exp, v.tolist()), float, v.size)


def _ratio_columns(spec, s) -> tuple:
    """The closed form in the chart of ``model.ratio_system`` at s = rate * tau:
    ``(y, dy)``, y = (m, l_1, ..., h, r_1, ...) and its exact s-derivative,
    each a list of arrays over s, or floats where constant.  m = span tanh s,
    l_1 = log sech s, l_j = r_j s for each flat scale, h = log span + log
    sech s, r_1 = -tanh s and r_j = -lambda_f / rate; no entry underflows
    where sigma does."""
    s = np.asarray(s, dtype=float)
    span = spec.model.mean_span
    sech, tanh, a = _sech(s), np.tanh(s), np.abs(s)
    log_sech = np.log(2.0) - a - np.log1p(np.exp(-2.0 * a))
    flat = [-decay / spec.rate for _, decay in spec.flat_factors]
    with np.errstate(over="ignore"):   # r_j s past the double range: sigma_j is 0
        y = [span * tanh, log_sech, *(r * s for r in flat),
             math.log(span) + log_sech, -tanh, *flat]
    dy = [span * sech * sech, -tanh, *flat, -tanh, -sech * sech, *[0.0] * len(flat)]
    return y, dy


def integrate_geodesic(spec, tau_max: float, tol: float = 1e-10,
                       sample_taus=None) -> Trajectory:
    """Integrate the geodesic initial value problem up to ``tau_max``.

    The run is made in s = rate * tau from y0 = (0, ..., 0, log span, 0,
    -lambda_f / rate, ...) on the state of ``model.ratio_system`` and mapped
    back to (theta, rho) from theta0 = (mu0, sigma0, sigma0', ...): the spec's
    floats, bit for bit the closed forms at s = 0.  sigma underflows to 0 past
    the double range.  Samples are the solver steps, or ``sample_taus`` by dense
    output.  A run that stops short returns the partial trajectory, ``complete=False``.
    """
    check_tol(tol)
    rate, n, flat = spec.rate, spec.model.dimension, spec.flat_factors
    y0 = [0.0] * n + [math.log(spec.model.mean_span), 0.0, *(-decay / rate for _, decay in flat)]
    with np.errstate(over="ignore"):   # dense output: log sigma past the double range is -inf
        taus, ys, fields = _sampled_run(_ratio_rhs(spec.model, math.exp), y0, tau_max,
                                        tol / _TOL_DIVISOR, sample_taus, rate)
    theta0 = [spec.mu0, spec.sigma0, *(start for start, _ in flat)]
    exp_slots = np.exp(ys[:, 1:n + 1])   # sigma_j / sigma_j(0), then r_0
    states = np.column_stack([theta0[0] + spec.sigma0 * ys[:, 0], theta0[1:] * exp_slots[:, :-1]])
    ratios = rate * np.column_stack([exp_slots[:, -1], ys[:, n + 1:]])
    return Trajectory(taus=taus, states=states, ratios=ratios, **fields)


def residual_check(spec, tau_grid) -> float:
    """Max absolute residual |y'(s) - f(y(s))| of the closed form on a grid, in
    the chart the integrator runs in: y and y' from :func:`_ratio_columns`,
    f the right-hand side rk integrates.  Both are exact, so an exact solution
    leaves rounding alone, at every scale of sigma and lambda_f.  f runs once
    on the grid's columns, bit for bit a call per sample, with overflow and
    inf - inf as silent as on floats."""
    y, dy = _ratio_columns(spec, spec.rate * np.ravel(tau_grid).astype(float))
    with np.errstate(over="ignore", invalid="ignore"):
        f = _ratio_rhs(spec.model, _exp_each)(0.0, y)
    return float(np.max([np.abs(d - v).max(initial=0.0) for d, v in zip(dy, f)]))


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text: tau, state components, velocity components."""
    names = model_of(traj.states[0]).coordinates
    return series_to_csv("trajectory", ["tau", *names, *(f"d{name}" for name in names)],
                         [traj.taus, traj.states, traj.velocities])
