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

import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError
from . import rk
from .fitting import LineFit, fit_basis, fit_line
from .geodesics import GeodesicSpec2D, GeodesicSpec3D, check_tol, closed_form
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


def jlc_acceleration(theta, theta_dot, J, J_dot) -> np.ndarray:
    """d^2 J / d tau^2 from the full (non-asymptotic) equation."""
    B, C = jlc_coefficients(theta, theta_dot)
    return -(B @ np.asarray(J_dot, dtype=float) + C @ np.asarray(J, dtype=float))


def intensity(theta: np.ndarray, J: np.ndarray):
    """Metric norm sqrt(g_lm J^l J^m), at one point or per row (diagonal metric)."""
    theta = np.asarray(theta, dtype=float)
    return np.sqrt(model_of(theta).speed(theta, np.asarray(J, dtype=float)))


@dataclass(frozen=True)
class JacobiTrajectory:
    """Co-integrated geodesic + Jacobi samples."""

    taus: np.ndarray
    states: np.ndarray        # geodesic theta(tau), (n_samples, dim)
    velocities: np.ndarray
    J: np.ndarray             # (n_samples, dim)
    J_dot: np.ndarray
    rate: float               # sigma0 * lambda of the underlying model
    tolerance: float
    n_steps: int
    complete: bool = True
    abort_reason: Optional[str] = None

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    def intensities(self) -> np.ndarray:
        return intensity(self.states, self.J)

    def window_mask(self, window: tuple) -> np.ndarray:
        lo, hi = window[0] / self.rate, window[1] / self.rate
        return (self.taus >= lo - 1e-12) & (self.taus <= hi + 1e-12)


# the reported intensity g(J, J) carries 1/sigma^2, so the JLC run needs
# sigma comfortably above sqrt(double minimum), tighter than the geodesic floor
_JLC_LOG_FLOOR = math.log(1e-150)


def _scaled_geodesic_state(model, theta0: np.ndarray, vel0: np.ndarray) -> np.ndarray:
    # (mu, log sigma..., scaled velocities): sigma decays exponentially on
    # useful horizons, so raw coordinates lose all relative accuracy once
    # sigma drops below the absolute tolerance; logs and the ratios
    # rho_i = theta'_i / sigma_k(i) (u = mu'/sigma_x, v = sigma_x'/sigma_x,
    # w = sigma_y'/sigma_y) stay O(1).
    return np.concatenate([theta0[:1], np.log(theta0[1:]), vel0 / model.scales(theta0)])


def integrate_jlc(spec, initial_J=None, initial_J_dot=None,
                  tau_max: Optional[float] = None, tol: float = 1e-10,
                  sample_taus=None, raise_on_abort: bool = False) -> JacobiTrajectory:
    """Co-integrate geodesic and Jacobi field as one first-order system.

    The augmented state has dimension 2n + 2n: the geodesic factor
    (parameterized by mu, log sigma and the velocity/sigma ratios) plus the
    metric-normalized Jacobi components K = J / sigma-scale and their
    rates.  Both parameterizations keep every quantity relative-accurate
    however far sigma has decayed; reported values are mapped back to
    (theta, theta', J, J').  Geodesic initial data come from the exact
    closed form at tau = 0; Jacobi initial data default to
    :func:`default_initial`.  Stops early (flagged, or raising when
    ``raise_on_abort``) on the sigma positivity floor or a normalized
    component exceeding 1e300.
    """
    model = spec.model
    dim = model.dimension
    check_tol(tol)
    if tau_max is None:
        tau_max = EXPONENT_WINDOW[1] / spec.rate
    J0, Jd0 = default_initial(dim)
    if initial_J is not None:
        J0 = np.asarray(initial_J, dtype=float)
    if initial_J_dot is not None:
        Jd0 = np.asarray(initial_J_dot, dtype=float)
    if J0.shape != (dim,) or Jd0.shape != (dim,):
        raise DomainError(f"Jacobi initial data must have shape ({dim},)")
    if not (np.all(np.isfinite(J0)) and np.all(np.isfinite(Jd0))):
        raise DomainError("Jacobi initial data must be finite")

    theta0, vel0 = closed_form(spec, 0.0)
    geo0 = _scaled_geodesic_state(model, theta0, vel0)
    scales0 = model.scales(theta0)
    rates0 = model.scales(geo0[dim:])     # d log sigma_k(i) / d tau = rho_k(i)
    K0 = J0 / scales0
    Kd0 = (Jd0 - rates0 * J0) / scales0
    y0 = np.concatenate([geo0, K0, Kd0])
    n_geo = 2 * dim

    def rhs(t, y):
        rho = y[dim:n_geo]
        K, Kd = y[n_geo:n_geo + dim], y[n_geo + dim:]
        rho_dot = model.ratio_acceleration(rho)
        r, r_dot = model.scales(rho), model.scales(rho_dot)
        B, C = model.jacobi_coefficients(rho)
        # J = S K with S = diag(sigma scales), R = diag(r), r = S'/S: the
        # transformed system K'' = -(M1 K' + M0 K), M1 = B + 2R,
        # M0 = C + R' + R^2 + B R, has O(1) entries at any horizon (B and C
        # are block diagonal, so no sigma_x/sigma_y scale ratios appear)
        rK = r * K
        Kdd = -(B @ (Kd + rK) + C @ K + r * (2.0 * Kd + rK) + r_dot * K)
        # mu' = rho_0 sigma_k(0); (log sigma_j)' = rho_j
        mu_dot = rho[0] * math.exp(y[model.scale_map[0]])
        return np.concatenate([(mu_dot,), rho[1:], rho_dot, Kd, Kdd])

    def floor(y):
        if np.any(y[1:dim] <= _JLC_LOG_FLOOR):
            return ("sigma coordinate fell below 1e-150; the reported "
                    "intensity g(J, J) carries 1/sigma^2")
        K = y[n_geo:n_geo + dim]
        if np.any(np.abs(K) > J_OVERFLOW):
            return f"normalized Jacobi component exceeded {J_OVERFLOW:g}"
        if np.any(np.abs(K) * np.exp(model.scales(y[:dim])) > J_OVERFLOW):
            return f"Jacobi component exceeded {J_OVERFLOW:g}"
        return None

    sol = rk.integrate(rhs, (0.0, tau_max), y0, rtol=tol, atol=tol,
                       floor=floor, raise_on_abort=raise_on_abort)
    if sample_taus is not None and sol.complete:
        taus = np.asarray(sample_taus, dtype=float)
        ys = sol(taus)
    else:
        taus, ys = sol.t, sol.y
    states = ys[:, :dim].copy()
    states[:, 1:] = np.exp(states[:, 1:])
    scales, rates = model.scales(states), model.scales(ys[:, dim:n_geo])
    velocities = ys[:, dim:n_geo] * scales
    K, Kd = ys[:, n_geo:n_geo + dim], ys[:, n_geo + dim:]
    J, J_dot = scales * K, scales * (Kd + rates * K)
    return JacobiTrajectory(taus=taus, states=states, velocities=velocities,
                            J=J, J_dot=J_dot,
                            rate=spec.rate, tolerance=tol, n_steps=sol.n_steps,
                            complete=sol.complete, abort_reason=sol.abort_reason)


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
    def dimension(self) -> int:
        return self.C.shape[0]


def component_bases(constants: JacobiConstants):
    """Basis functions {f1, f2} of each component's asymptotic solution."""
    L = constants.lambda_decay
    bases = [(lambda t: np.ones_like(t), lambda t: np.exp(-2.0 * L * t))]
    for lam in [L] + [constants.lambda_f] * (constants.dimension - 2):
        bases.append((lambda t, lam=lam: np.exp(-lam * t),
                      lambda t, lam=lam: t * np.exp(-lam * t)))
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
    rates = [L] + [constants.lambda_f] * (constants.dimension - 2)
    tau = np.asarray(tau_grid, dtype=float)
    c2 = constants.C[0, 1]
    e = np.exp(-2.0 * L * tau)
    d1 = -2.0 * L * c2 * e
    d2 = 4.0 * L * L * c2 * e
    worst = np.abs(d2 + 2.0 * L * d1)
    for k, lam in enumerate(rates, start=1):
        c1, c2 = constants.C[k]
        e = np.exp(-lam * tau)
        val = (c1 + c2 * tau) * e
        d1 = (c2 - lam * (c1 + c2 * tau)) * e
        d2 = (lam * lam * (c1 + c2 * tau) - 2.0 * lam * c2) * e
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
    mask = traj.window_mask(window)
    if mask.sum() < 4:
        raise DomainError("extraction window contains too few samples")
    taus = traj.taus[mask]
    L = traj.rate
    constants = JacobiConstants(lambda_decay=L,
                                C=np.zeros((traj.dimension, 2)),
                                lambda_f=lambda_f)
    C = np.zeros((traj.dimension, 2))
    residuals = []
    for k, basis in enumerate(component_bases(constants)):
        coeffs, resid = fit_basis(taus, traj.J[mask, k], basis)
        C[k] = coeffs
        residuals.append(resid)
    return (JacobiConstants(lambda_decay=L, C=C, lambda_f=lambda_f),
            residuals)


# ---------------------------------------------------------------------------
# growth exponents and the softening gap
# ---------------------------------------------------------------------------

def exponent_fit(traj: JacobiTrajectory, window: tuple = EXPONENT_WINDOW) -> LineFit:
    """Least-squares slope of log intensity on the window (rate * tau units).

    The window must start past the crossover where the constant J^1 mode
    dominates; before it the secular tau-terms of the decaying components
    are still visible.
    """
    mask = traj.window_mask(window)
    if mask.sum() < 4:
        raise DomainError("exponent window contains too few samples")
    inten = traj.intensities()[mask]
    if np.any(inten <= 0.0):
        raise DomainError("intensity must be positive on the fit window")
    return fit_line(traj.taus[mask], np.log(inten))


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


def softening_gap(spec3d: GeodesicSpec3D, initial_J=None, initial_J_dot=None,
                  window: tuple = EXPONENT_WINDOW, tol: float = 1e-10) -> JacobiSoftening:
    """Fitted intensity-growth exponents of the coupled pair and their gap."""
    spec2d = GeodesicSpec2D.from_3d(spec3d)
    runs = []
    for spec in (spec3d, spec2d):
        tau_max = window[1] / spec.rate
        samples = np.linspace(0.0, tau_max, 401)
        traj = integrate_jlc(spec, initial_J, initial_J_dot,
                             tau_max=tau_max, tol=tol, sample_taus=samples)
        runs.append((traj, exponent_fit(traj, window)))
    (t3, f3), (t2, f2) = runs
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
    names = ",".join(f"J{k + 1}" for k in range(traj.dimension))
    buf = io.StringIO()
    buf.write("# infogeo jacobi csv schema=1\n")
    buf.write(f"tau,{names},intensity,log_intensity\n")
    inten = traj.intensities()
    with np.errstate(divide="ignore"):
        log_inten = np.log(inten)
    for i, tau in enumerate(traj.taus):
        row = [tau, *traj.J[i], inten[i], log_inten[i]]
        buf.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return buf.getvalue()
