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

from .errors import DomainError
from .fitting import LineFit, fit_basis, fit_line
from .geodesics import (GeodesicSpec2D, GeodesicSpec3D, Trajectory, _sampled_run,
                        closed_form, compile_terms, series_to_csv)
from .models import model_of

J_OVERFLOW = 1e300
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
    """Co-integrated geodesic + Jacobi samples."""

    J: np.ndarray             # (n_samples, dim)
    J_dot: np.ndarray
    rate: float               # sigma0 * lambda of the underlying model

    def intensities(self) -> np.ndarray:
        return intensity(self.states, self.J)


def window_mask(taus: np.ndarray, rate: float, window: tuple,
                fit: Optional[str] = None) -> np.ndarray:
    """The samples of ``taus`` on ``window`` (rate * tau units); a DomainError
    when a ``fit`` ("exponent", "extraction") would get fewer than 4."""
    lo, hi = window[0] / rate, window[1] / rate
    mask = (taus >= lo - 1e-12) & (taus <= hi + 1e-12)
    if fit and mask.sum() < 4:
        raise DomainError(f"{fit} window contains too few samples")
    return mask


# the reported intensity g(J, J) carries 1/sigma^2, so the JLC run needs
# sigma comfortably above sqrt(double minimum), tighter than the geodesic floor
_JLC_LOG_FLOOR = math.log(1e-150)


@cache
def _floor(model):
    """The stop test of a Jacobi run: why it stops at the accepted state y =
    (mu, log sigma..., rho..., J^mu, K..., J^mu', K'...), a list, or None.
    It runs straight-line on floats, with one exp per scale coordinate."""
    n, (k0, *k) = model.dimension, model.scale_map
    normalized, raw = (f"{kind}Jacobi component exceeded {J_OVERFLOW:g}"
                       for kind in ("normalized ", ""))

    def floor(y):
        log_sigma = y[1:n]
        for s in log_sigma:
            if s <= _JLC_LOG_FLOOR:
                return ("sigma coordinate fell below 1e-150; the reported "
                        "intensity g(J, J) carries 1/sigma^2")
        sigma = [1.0, *map(math.exp, log_sigma)]     # sigma_k by coordinate index k
        J_mu, K = abs(y[2 * n]), y[2 * n + 1:3 * n]
        if J_mu / sigma[k0] > J_OVERFLOW:
            return normalized
        for x in K:
            if abs(x) > J_OVERFLOW:
                return normalized
        if J_mu > J_OVERFLOW:
            return raw
        for x, ki in zip(K, k):
            if abs(x) * sigma[ki] > J_OVERFLOW:
                return raw
        return None
    return floor


def _slot_scales(model, theta, rho) -> tuple:
    """The scale and log-rate of each Jacobi slot, per row: sigma_k(i) and
    rho_k(i), except 1 and 0 for the mean slot, which carries J^mu itself."""
    scales, rates = model.scales(theta), model.scales(rho)
    scales[..., 0], rates[..., 0] = 1.0, 0.0
    return scales, rates


@cache
def _jlc_rhs(model):
    """y' for the scaled Jacobi state y = (mu, log sigma, rho, J^mu, K, J^mu', K')
    of :func:`integrate_jlc`: T rho_hat rho_hat z, T = ``model.jacobi_system``,
    rho_hat = (1, rho), z = (1, K_0, K, K_0', K'), from the compiled kernel
    of T, then the rows of mu and of the mean slot; from a list y to a list."""
    dim = model.dimension
    n_geo = 2 * dim
    kernel = compile_terms(model.jacobi_system, ("z", "r", "r"))
    k0 = model.scale_map[0]
    r0, jm, jmd = dim + k0, n_geo, n_geo + dim   # slots of rho_k(0), J^mu, J^mu'

    def rhs(t, y):
        # the tensor acts on K_0 = J^mu / s and its rate, s = sigma_k(0) and
        # r = rho_k(0) = s'/s; J^mu'' = r J^mu' + s (K_0'' + r' K_0 + r K_0')
        s, r = math.exp(y[k0]), y[r0]
        if s:
            K0, K0d = y[jm] / s, y[jmd] / s
        else:   # exp underflowed: inf or nan, as numpy divides by 0, not an error
            K0, K0d = y[jm] * math.inf, y[jmd] * math.inf
        K0d -= r * K0
        z = y[n_geo:]
        z[0], z[dim] = K0, K0d
        dy = kernel(*z, *y[dim:n_geo])
        dy[0] = y[dim] * s
        dy[jm] = y[jmd]
        dy[jmd] = r * y[jmd] + s * (dy[jmd] + dy[r0] * K0 + r * K0d)
        return dy
    return rhs


def integrate_jlc(spec, initial_J=None, initial_J_dot=None,
                  tau_max: Optional[float] = None, tol: float = 1e-10,
                  sample_taus=None) -> JacobiTrajectory:
    """Co-integrate geodesic and Jacobi field as one first-order system.

    The augmented state has dimension 2n + 2n: the geodesic factor
    (parameterized by mu, log sigma and the velocity/sigma ratios) plus the
    Jacobi field and its rate.  The field's mean component J^mu is carried
    as it is: it tends to a constant, the Killing mode d/dmu.  Every other
    component is carried metric-normalized, K_i = J^i / sigma_k(i), which
    tends to a constant or decays.  So no slot grows with the intensity,
    the step size is set by the transient alone, and every quantity stays
    relative-accurate however far sigma has decayed; reported values are
    mapped back to (theta, theta', J, J').  Geodesic initial data come from
    the exact closed form at tau = 0; Jacobi initial data default to
    :func:`default_initial`.  Stops early, flagged ``complete=False``, on the
    sigma positivity floor or a normalized component exceeding 1e300.
    """
    model = spec.model
    dim = model.dimension
    if tau_max is None:
        tau_max = EXPONENT_WINDOW[1] / spec.rate
    n_geo = 2 * dim

    def initial():
        J0, Jd0 = default_initial(dim)
        if initial_J is not None:
            J0 = np.asarray(initial_J, dtype=float)
        if initial_J_dot is not None:
            Jd0 = np.asarray(initial_J_dot, dtype=float)
        if J0.shape != (dim,) or Jd0.shape != (dim,):
            raise DomainError(f"Jacobi initial data must have shape ({dim},)")
        if not (np.all(np.isfinite(J0)) and np.all(np.isfinite(Jd0))):
            raise DomainError("Jacobi initial data must be finite")
        # (mu, log sigma..., scaled velocities): sigma decays exponentially on
        # useful horizons, so raw coordinates lose all relative accuracy once
        # sigma drops below the absolute tolerance; logs and the ratios
        # rho_i = theta'_i / sigma_k(i) (u = mu'/sigma_x, v = sigma_x'/sigma_x,
        # w = sigma_y'/sigma_y) stay O(1)
        theta0, vel0 = closed_form(spec, 0.0)
        geo0 = np.concatenate([theta0[:1], np.log(theta0[1:]), vel0 / model.scales(theta0)])
        scales0, rates0 = _slot_scales(model, theta0, geo0[dim:])
        return np.concatenate([geo0, J0 / scales0, (Jd0 - rates0 * J0) / scales0])

    taus, ys, fields = _sampled_run(_jlc_rhs(model), initial, tau_max, tol,
                                    _floor(model), sample_taus)
    states = ys[:, :dim].copy()
    states[:, 1:] = np.exp(states[:, 1:])
    rho = ys[:, dim:n_geo]
    scales, rates = _slot_scales(model, states, rho)
    K, Kd = ys[:, n_geo:n_geo + dim], ys[:, n_geo + dim:]
    J, J_dot = scales * K, scales * (Kd + rates * K)
    return JacobiTrajectory(taus=taus, states=states, velocities=rho * model.scales(states),
                            J=J, J_dot=J_dot, rate=spec.rate, **fields)


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
    inten = traj.intensities()[mask]
    if np.any(inten <= 0.0):
        raise DomainError("intensity must be positive on the fit window")
    taus = traj.taus[mask]
    end = taus[-1]
    fit = fit_line(taus / end, np.log(inten))
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
    """The default-initial Jacobi run to fit on ``window``: see :func:`exponent_times`."""
    taus = exponent_times(spec.rate, window)
    return integrate_jlc(spec, tau_max=taus[-1], tol=tol, sample_taus=taus)


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
    inten = traj.intensities()
    with np.errstate(divide="ignore"):
        log_inten = np.log(inten)
    return series_to_csv("jacobi", ["tau", *names, "intensity", "log_intensity"],
                         [traj.taus, traj.J, inten, log_inten])
