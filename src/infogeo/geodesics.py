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

``closed_form_3d`` therefore defaults to span sqrt(2) (``MU_SPAN_EXACT_3D``),
the unique value that solves the system exactly.  A span-2 variant of the 3D
mean path (``MU_SPAN_WIDE``) is also reachable through the ``mu_span``
argument; it satisfies the mu equation but not the sigma_x equation (residual
lam^2 sigma_x^3) and exists only because the closed-form swept-volume
expressions in :mod:`infogeo.ige` are built on it.  All growth/decay rates
are span-independent.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .errors import DomainError
from . import rk
from .models import MODEL_2D, MODEL_3D, DiagonalScaleModel, model_of

SIGMA_FLOOR = 1e-300
MU_SPAN_EXACT_3D = MODEL_3D.mean_span
MU_SPAN_WIDE = 2.0  # span assumed by the closed-form volume expressions


def _positive(name, v):
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"{name} must be a positive real, got {v!r}")


def _check_initial_velocity(spec):
    # mu'(0) grouped as ``_closed_form`` forms it; a float ** raises OverflowError
    if not math.isfinite(spec.model.mean_span * spec.lam * (spec.sigma0 * spec.sigma0)):
        raise DomainError(f"sigma0 = {spec.sigma0!r} overflows the initial mean velocity")


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
        _check_initial_velocity(self)

    @property
    def rate(self) -> float:
        """sigma0 * lam: decay rate of sigma, growth rate of volumes."""
        return self.sigma0 * self.lam


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
    def lam(self) -> float:
        return self.lambda_plus_prime

    @property
    def flat_factors(self) -> tuple:
        return ((self.sigma0_prime, self.lambda_f),)


@dataclass(frozen=True)
class GeodesicSpec2D(_GeodesicSpec):
    lambda_plus: float
    model: ClassVar[DiagonalScaleModel] = MODEL_2D
    flat_factors: ClassVar[tuple] = ()

    @staticmethod
    def from_3d(spec: GeodesicSpec3D) -> "GeodesicSpec2D":
        """Coupled companion: lambda_plus = lambda_plus' / sqrt(2)."""
        return GeodesicSpec2D(spec.mu0, spec.sigma0,
                              spec.lambda_plus_prime / math.sqrt(2.0))

    @property
    def lam(self) -> float:
        return self.lambda_plus


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
    rates = [span * spec.lam * s**2, -k * spec.sigma0 * sech * tanh]
    for start, decay in spec.flat_factors:
        coords.append(start * np.exp(-decay * tau))
        rates.append(-decay * coords[-1])
    theta = np.stack(np.broadcast_arrays(*coords), axis=-1)
    vel = np.stack(np.broadcast_arrays(*rates), axis=-1)
    return theta, vel


def closed_form_3d(spec: GeodesicSpec3D, tau, mu_span: float = MU_SPAN_EXACT_3D):
    """Closed-form path and velocity at tau (arrays broadcast over tau).

    Returns ``(theta, velocity)`` with rows (mu_x, sigma_x, sigma_y).  At
    tau = 0 the state is (mu0, sigma0, sigma0') with velocity
    (mu_span * lambda_plus' * sigma0^2, 0, -lambda_f * sigma0').
    """
    return _closed_form(spec, tau, mu_span)


def closed_form_2d(spec: GeodesicSpec2D, tau):
    """Closed-form 2D path; the (mu, sigma) shape matches the 3D one with
    mean span 2 and rate sigma0 * lambda_plus."""
    return _closed_form(spec, tau, None)


def closed_form(spec, tau):
    """Closed-form path of either model with its exact mean span."""
    return _closed_form(spec, tau, None)


# ---------------------------------------------------------------------------
# geodesic equations
# ---------------------------------------------------------------------------

def geodesic_acceleration(theta: np.ndarray, velocity: np.ndarray) -> np.ndarray:
    """theta'' = -Gamma^k_lm v^l v^m using the analytic symbols, at one point or per row.

    The model follows from the last axis (3 or 2); rejects a non-finite
    coordinate or a sigma <= 0 in any row.
    """
    theta = np.asarray(theta, dtype=float)
    model = model_of(theta)
    if not (np.all(np.isfinite(theta)) and np.all(theta[..., 1:] > 0.0)):
        raise DomainError(f"{model.label} coordinates must be finite with every sigma > 0")
    return model.acceleration(theta, np.asarray(velocity, dtype=float))


def fisher_speed(theta: np.ndarray, velocity: np.ndarray):
    """g_lm v^l v^m, conserved along geodesics; at one point or for each row."""
    theta = np.asarray(theta, dtype=float)
    return model_of(theta).speed(theta, np.asarray(velocity, dtype=float))


@dataclass(frozen=True)
class Trajectory:
    """Sampled geodesic: times, states, velocities plus solver metadata.
    :class:`infogeo.jacobi.JacobiTrajectory` adds the Jacobi field."""

    taus: np.ndarray
    states: np.ndarray      # (len(taus), dim)
    velocities: np.ndarray  # (len(taus), dim)
    tolerance: float
    n_steps: int
    complete: bool = True
    abort_reason: Optional[str] = None

    def __post_init__(self):
        taus = np.asarray(self.taus, dtype=float)
        if np.any(np.diff(taus) <= 0.0):
            raise DomainError("sample times must be strictly increasing")

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    def speeds(self) -> np.ndarray:
        return fisher_speed(self.states, self.velocities)


def _sampled_run(rhs, initial, tau_max: float, tol: float, floor, sample_taus) -> tuple:
    """One rk run to ``tau_max``: ``(taus, ys, fields)``, ``fields`` being the
    solver keywords of :class:`Trajectory`.  ``initial()`` builds y0 after the
    tolerance check, so its own checks run second.  Samples are the
    ``sample_taus`` the run reached (dense output), or its steps when no
    ``sample_taus`` are given or it stopped before its first step."""
    check_tol(tol)
    sol = rk.integrate(rhs, (0.0, tau_max), initial(), rtol=tol, atol=tol,
                       floor=floor, raise_on_abort=False)
    if sample_taus is not None and sol.n_steps:
        taus = np.asarray(sample_taus, dtype=float)
        taus = taus[taus <= sol.t[-1]]
        ys = sol(taus)
    else:
        taus, ys = sol.t, sol.y
    return taus, ys, dict(tolerance=tol, n_steps=sol.n_steps,
                          complete=sol.complete, abort_reason=sol.abort_reason)


def _sigma_floor(dim):
    def check(y):
        if np.any(y[1:dim] <= SIGMA_FLOOR):
            return f"sigma coordinate fell to the positivity floor {SIGMA_FLOOR:g}"
        return None
    return check


def nonzero_terms(tensor: np.ndarray) -> list:
    """``(row, indices..., coefficient)`` of each nonzero entry of a system
    tensor, in index order, as Python ints and floats.  The system tensors
    are almost empty (16 of the 1,344 entries of the 3D Jacobi one), so an
    RHS summing these terms on floats costs less than contracting the whole
    tensor with numpy."""
    return [(*map(int, index), float(tensor[tuple(index)])) for index in np.argwhere(tensor)]


def _geodesic_rhs(model):
    """y' = T v_hat v_hat for y = (theta, v), T = ``model.geodesic_system``,
    v_hat = (1, v), with the acceleration rows divided by sigma_k.  The
    terms are summed on Python floats."""
    dim = model.dimension
    terms, k = nonzero_terms(model.geodesic_system), model.scale_map

    def rhs(t, y):
        v = y.tolist()
        v_hat = [1.0, *v[dim:]]
        dy = [0.0] * (2 * dim)
        for row, a, b, c in terms:
            dy[row] += c * v_hat[b] * v_hat[a]
        for row, j in enumerate(k, start=dim):
            # a trial sigma of 0 gives inf or nan, as numpy divides by 0, not an error
            dy[row] = dy[row] / v[j] if v[j] else dy[row] * math.inf
        return np.array(dy)
    return rhs


def integrate_geodesic(spec, tau_max: float, tol: float = 1e-10,
                       sample_taus=None) -> Trajectory:
    """Integrate the geodesic initial value problem up to ``tau_max``.

    Initial conditions come from the exact closed form at tau = 0.  Samples
    are taken at solver steps, or on ``sample_taus`` via dense output.
    Aborts (positivity floor, step underflow) return the partial trajectory
    flagged ``complete=False``.
    """
    dim = spec.model.dimension
    taus, ys, fields = _sampled_run(_geodesic_rhs(spec.model),
                                    lambda: np.concatenate(closed_form(spec, 0.0)),
                                    tau_max, tol, _sigma_floor(dim), sample_taus)
    return Trajectory(taus=taus, states=ys[:, :dim], velocities=ys[:, dim:], **fields)


def residual_check(spec, tau_grid, mu_span: Optional[float] = None) -> float:
    """Max absolute geodesic-equation residual of the closed form on a grid.

    First derivatives are analytic; second derivatives are central
    differences of the analytic velocity, so the only residual for an exact
    solution is O(h^2) differentiation error.
    """
    h = 1e-5
    tau_grid = np.asarray(tau_grid, dtype=float)
    theta, vel = _closed_form(spec, tau_grid, mu_span)
    _, vel_p = _closed_form(spec, tau_grid + h, mu_span)
    _, vel_m = _closed_form(spec, tau_grid - h, mu_span)
    resid = (vel_p - vel_m) / (2.0 * h) - geodesic_acceleration(theta, vel)
    return float(np.abs(resid).max(initial=0.0))


def series_to_csv(kind: str, names, cols) -> str:
    """A ``# infogeo <kind> csv schema=1`` file: the header ``names``, then
    one row per sample of the columns ``cols`` (1-D, or 2-D blocks of
    columns), each value as %.17g, which parses back to the exact double."""
    rows = np.column_stack(cols).tolist()
    lines = [f"# infogeo {kind} csv schema=1", ",".join(names)]
    lines += [",".join(f"{v:.17g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV text: tau, state components, velocity components."""
    names = model_of(traj.states[0]).coordinates
    return series_to_csv("trajectory", ["tau", *names, *(f"d{name}" for name in names)],
                         [traj.taus, traj.states, traj.velocities])
