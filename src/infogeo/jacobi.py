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

    3D:  J^1 -> const + decaying,   J^2 ~ (c1 + c2 tau) e^(-L tau),
         J^3 = (c1 + c2 tau) e^(-lam_f tau)   (exactly critically damped),
    2D:  J^1 -> const + decaying,   J^2 ~ (c1 + c2 tau) e^(-L tau),

with L = sigma0 * lambda the sigma-decay rate of the model.  The metric norm
of J (the intensity) then grows like e^(L tau) because the constant J^1 mode
is measured against the shrinking sigma scale: the growth exponent equals L,
and the constrained model's exponent is smaller by the factor 1/sqrt(2),
the same softening as the entropy slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalAbort
from .fitting import LineFit, fit_basis, fit_line
from .geodesics import (GeodesicSpec2D, GeodesicSpec3D, Trajectory, _sampled_run,
                        closed_form, compile_terms, series_to_csv)
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
class JacobiTrajectory(Trajectory):
    """Jacobi samples along the closed-form geodesic, with its states and velocities."""

    J: np.ndarray             # (n_samples, dim); may underflow to 0
    J_dot: np.ndarray
    rate: float               # sigma0 * lambda of the underlying model
    log_intensities: np.ndarray   # log sqrt(g(J, J)), formed without J itself

    def intensities(self) -> np.ndarray:
        """sqrt(g(J, J)) per sample: inf past the double range."""
        with np.errstate(over="ignore"):
            return np.exp(self.log_intensities)


def window_mask(taus: np.ndarray, rate: float, window: tuple,
                fit: Optional[str] = None) -> np.ndarray:
    """The samples of ``taus`` on ``window``, compared in rate * tau units
    with a slack of 1e-12 there; a DomainError when a ``fit`` ("exponent",
    "extraction") would get fewer than 4."""
    s = np.asarray(taus) * rate
    mask = (s >= window[0] - 1e-12) & (s <= window[1] + 1e-12)
    if fit and mask.sum() < 4:
        raise DomainError(f"{fit} window contains too few samples")
    return mask


@cache
def _kernel(model):
    return compile_terms(model.jacobi_system, ("z", "g", "g"))


def _jlc_rhs(spec):
    """w' at s for the field slots w of :func:`integrate_jlc`, from a list to
    a list: the compiled kernel of ``model.jacobi_system`` at g_hat = (1,
    sech s, -tanh s, -lambda_f / rate), the exact geodesic in rate units."""
    kernel = _kernel(spec.model)
    flat = [-decay / spec.rate for _, decay in spec.flat_factors]

    def rhs(s, w):
        x = math.exp(-s)   # sech s = 2 x / (1 + x^2) underflows to 0, cosh would overflow
        return kernel(*w, 2.0 * x / (1.0 + x * x), -math.tanh(s), *flat)
    return rhs


def integrate_jlc(spec, initial_J=None, initial_J_dot=None,
                  tau_max: Optional[float] = None, tol: float = 1e-10,
                  sample_taus=None) -> JacobiTrajectory:
    """Integrate the Jacobi field along the exact geodesic of ``spec``.

    The base geodesic is the closed form, so the run carries the field
    alone, in rate units s = rate * tau: J^mu / sigma0, which tends to a
    constant (the Killing mode d/dmu), and the metric-normalized K_i =
    J^i / sigma_i, which tend to a constant, decay or (a flat scale) grow
    linearly, with their s-rates, all divided by the max-norm of their start
    vector.  The coefficients, ``model.jacobi_system`` at sech s, -tanh s
    and -lambda_f / rate, stay O(1) at every s: no slot grows with the
    intensity and no horizon stops the run.  The 2D run depends on the spec
    only through rounding and the 3D run only on lambda_f / rate.  States
    and velocities are the closed form at the sample times; J and J' are
    mapped back from the slots, where they may underflow to 0, and the log
    intensities come from the slots and log sech s.  The field defaults to
    :func:`default_initial`.
    """
    model, rate = spec.model, spec.rate
    dim = model.dimension
    J0, Jd0 = default_initial(dim)
    J0 = J0 if initial_J is None else np.asarray(initial_J, dtype=float)
    Jd0 = Jd0 if initial_J_dot is None else np.asarray(initial_J_dot, dtype=float)
    if J0.shape != (dim,) or Jd0.shape != (dim,):
        raise DomainError(f"Jacobi initial data must have shape ({dim},)")
    if not (np.all(np.isfinite(J0)) and np.all(np.isfinite(Jd0))):
        raise DomainError("Jacobi initial data must be finite")
    flat = [-decay / rate for _, decay in spec.flat_factors]
    # the slot scales (sigma0, sigma_1, ...) and their log-rates (0, -tanh s, flat) at s = 0
    scales0 = np.array([spec.sigma0, spec.sigma0, *(start for start, _ in spec.flat_factors)])
    # a start vector past the double range gives nan slots: the run stops at its start
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        field0 = np.concatenate([J0, Jd0 / rate - np.array([0.0, 0.0, *flat]) * J0])
        field0 /= np.tile(scales0, 2)
        unit = np.abs(field0).max() or 1.0
        taus, w, fields = _sampled_run(_jlc_rhs(spec), field0 / unit,
                                       EXPONENT_WINDOW[1] / rate if tau_max is None else tau_max,
                                       tol, None, sample_taus, rate)
        states, velocities = closed_form(spec, taus)
        s = taus * rate
        scales = np.column_stack([np.full_like(s, spec.sigma0), states[:, 1:]])
        log_rates = np.column_stack([np.zeros_like(s), -np.tanh(s),
                                     *(np.full_like(s, r) for r in flat)])
        K, Kd = w[:, :dim], w[:, dim:]
        # g(J, J) = unit^2 sum_i c_i t_i^2 for t = (J^mu / sigma_x, K_1, ...) in units of
        # the start field, summed in logs: log |J^mu / sigma_x| = log |K_0| - log sech s
        logs = np.log(np.abs(K))
        logs[:, 0] -= math.log(2.0) - s - np.log1p(np.exp(-2.0 * s))
        top = logs.max(axis=1, keepdims=True)
        top[~np.isfinite(top)] = 0.0   # a zero field: its log intensity is -inf
        log_inten = (math.log(unit) + top[:, 0]
                     + 0.5 * np.log(np.exp(2.0 * (logs - top)) @ np.array(model.weights)))
        return JacobiTrajectory(taus=taus, states=states, velocities=velocities,
                                J=unit * scales * K,
                                J_dot=rate * unit * scales * (Kd + log_rates * K),
                                rate=rate, log_intensities=log_inten, **fields)


# ---------------------------------------------------------------------------
# asymptotic structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JacobiConstants:
    """Integration constants of the asymptotic component forms.

    ``C[k]`` holds the two constants of component k+1.  ``lambda_decay``
    is L = sigma0 * lambda; for the 3D model ``lambda_f`` drives the third
    component.  A coupled pair built from one 3D spec always satisfies
    L_3d > L_2d > 0 (their ratio is sqrt(2)).
    """

    lambda_decay: float
    C: np.ndarray               # (dim, 2)
    lambda_f: Optional[float] = None

    @property
    def damped_rates(self) -> list:
        """The rate of each critically damped component, J^2 onwards."""
        return [self.lambda_decay] + [self.lambda_f] * (len(self.C) - 2)


def component_bases(constants: JacobiConstants):
    """Basis functions {f1, f2} of each component's asymptotic solution."""
    L = constants.lambda_decay
    bases = [(lambda t: np.ones_like(t), lambda t: np.exp(-2.0 * L * t))]
    for lam in constants.damped_rates:
        bases.append((partial(critically_damped, lam, 1.0, 0.0),
                      partial(critically_damped, lam, 0.0, 1.0)))
    return bases


def asymptotic_solutions(constants: JacobiConstants, tau) -> np.ndarray:
    """Evaluate the asymptotic component forms:

    J^1 = C11 + C12 e^(-2L tau)
    J^2 = (C21 + C22 tau) e^(-L tau)
    J^3 = (C31 + C32 tau) e^(-lam_f tau)        (3D only)
    """
    tau = np.asarray(tau, dtype=float)
    cols = []
    for k, (f1, f2) in enumerate(component_bases(constants)):
        c1, c2 = constants.C[k]
        cols.append(c1 * f1(tau) + c2 * f2(tau))
    return np.stack(cols, axis=-1)


def asymptotic_residual(constants: JacobiConstants, tau_grid) -> float:
    """Substitute the asymptotic forms into the constant-coefficient limit ODEs

        J''^1 + 2L J'^1 = 0,   J''^2 + 2L J'^2 + L^2 J^2 = 0,
        J''^3 + 2 lam_f J'^3 + lam_f^2 J^3 = 0,

    with exact derivatives of the forms, and return the max numeric residual
    (pure rounding for any constants).
    """
    L = constants.lambda_decay
    tau = np.asarray(tau_grid, dtype=float)
    c2 = constants.C[0, 1]
    e = np.exp(-2.0 * L * tau)
    d1 = -2.0 * L * c2 * e
    d2 = 4.0 * L * L * c2 * e
    worst = np.abs(d2 + 2.0 * L * d1)
    for k, lam in enumerate(constants.damped_rates, start=1):
        # each derivative of (c1 + c2 tau) e^(-lam tau) is again of that form
        c1, c2 = constants.C[k]
        val = critically_damped(lam, c1, c2, tau)
        d1 = critically_damped(lam, c2 - lam * c1, -lam * c2, tau)
        d2 = critically_damped(lam, lam * lam * c1 - 2.0 * lam * c2, lam * lam * c2, tau)
        worst = np.maximum(worst, np.abs(d2 + 2.0 * lam * d1 + lam * lam * val))
    return float(worst.max(initial=0.0))


def critically_damped(lam: float, c1: float, c2: float, tau):
    """(c1 + c2 tau) e^(-lam tau): the double-root solution of
    J'' + 2 lam J' + lam^2 J = 0."""
    tau = np.asarray(tau, dtype=float)
    return (c1 + c2 * tau) * np.exp(-lam * tau)


def extract_constants(traj: JacobiTrajectory, window: tuple = (8.0, 25.0),
                      lambda_f: Optional[float] = None) -> tuple:
    """Fit each component's tail to its asymptotic basis.

    Returns ``(JacobiConstants, residuals)`` where residuals[k] is the max
    misfit of component k relative to its own scale on the window.  The
    window (in rate * tau units) should start late enough that the
    exponentially decaying coefficient corrections are below the target
    accuracy, but not so late that the decaying bases underflow.
    """
    mask = window_mask(traj.taus, traj.rate, window, "extraction")
    constants = JacobiConstants(lambda_decay=traj.rate, C=np.zeros((traj.dimension, 2)),
                                lambda_f=lambda_f)
    residuals = []
    for k, basis in enumerate(component_bases(constants)):
        constants.C[k], resid = fit_basis(traj.taus[mask], traj.J[mask, k], basis)
        residuals.append(resid)
    return constants, residuals


# ---------------------------------------------------------------------------
# growth exponents and the softening gap
# ---------------------------------------------------------------------------

def exponent_fit(traj: JacobiTrajectory, window: tuple = EXPONENT_WINDOW) -> LineFit:
    """Least-squares slope of log intensity on the window (rate * tau units).

    The window must start past the crossover where the constant J^1 mode
    dominates; before it the secular tau-terms of the decaying components
    are still visible.  The line is fitted in tau over the window's last
    sample time, where the abscissae stay O(1) however small or large the
    window, and its slope is then scaled to one per unit tau.
    """
    mask = window_mask(traj.taus, traj.rate, window, "exponent")
    log_inten = traj.log_intensities[mask]
    if not np.all(log_inten > -math.inf):
        raise DomainError("intensity must be positive on the fit window")
    taus = traj.taus[mask]
    end = taus[-1]
    fit = fit_line(taus / end, log_inten)
    return replace(fit, slope=fit.slope / end, window=(float(taus[0]), float(end)))


@dataclass(frozen=True)
class JacobiSoftening:
    trajectory_3d: JacobiTrajectory
    trajectory_2d: JacobiTrajectory
    fit_3d: LineFit
    fit_2d: LineFit
    exponent_3d: float
    exponent_2d: float
    gap: float                 # exponent_3d - exponent_2d > 0
    expected_gap: float        # sigma0 * lambda_plus' * (1 - 1/sqrt(2))


def exponent_times(rate: float, window: tuple) -> np.ndarray:
    """The 401 even sample times of an exponent run, to rate * tau = window[1];
    a DomainError when too few of them fall on ``window`` to fit."""
    taus = np.linspace(0.0, window[1] / rate, 401)
    window_mask(taus, rate, window, "exponent")
    return taus


def exponent_run(spec, window: tuple, tol: float) -> JacobiTrajectory:
    """The default-initial Jacobi run to fit on ``window``: see
    :func:`exponent_times`; a NumericalAbort when it stops short."""
    taus = exponent_times(spec.rate, window)
    traj = integrate_jlc(spec, tau_max=taus[-1], tol=tol, sample_taus=taus)
    if not traj.complete:
        raise NumericalAbort(f"jacobi run {spec.model.label}: {traj.abort_reason}", partial=traj)
    return traj


def softening_gap(spec3d: GeodesicSpec3D, window: tuple = EXPONENT_WINDOW,
                  tol: float = 1e-10) -> JacobiSoftening:
    """Fitted intensity-growth exponents of the coupled pair and their gap,
    from the default Jacobi initial data."""
    pair = (spec3d, GeodesicSpec2D.from_3d(spec3d))
    t3, t2 = (exponent_run(spec, window, tol) for spec in pair)
    f3, f2 = exponent_fit(t3, window), exponent_fit(t2, window)
    expected = spec3d.rate * (1.0 - 1.0 / math.sqrt(2.0))
    return JacobiSoftening(trajectory_3d=t3, trajectory_2d=t2,
                           fit_3d=f3, fit_2d=f2,
                           exponent_3d=f3.slope, exponent_2d=f2.slope,
                           gap=f3.slope - f2.slope, expected_gap=expected)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def jacobi_to_csv(traj: JacobiTrajectory) -> str:
    """Columns: tau, J components, intensity, log intensity."""
    names = [f"J{k + 1}" for k in range(traj.dimension)]
    return series_to_csv("jacobi", ["tau", *names, "intensity", "log_intensity"],
                         [traj.taus, traj.J, traj.intensities(), traj.log_intensities])
