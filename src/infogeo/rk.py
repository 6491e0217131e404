"""Embedded Runge-Kutta 5(4) integrator with PI step control.

Dormand-Prince pair: six function evaluations per attempted step (plus the
FSAL evaluation reused from the previous step), fifth-order propagation,
fourth-order embedded solution for the local error estimate, and the
standard free fourth-order interpolant for dense output.  The last stage
f(t + h, y_new) is reused (FSAL) only from an accepted step: it is kept in
its own array, so a rejected attempt, which overwrites the stage buffer,
leaves the first stage of the retry at f(t, y).

Step control is proportional-integral: the step factor uses both the
current and the previous error estimate, which damps the accept/reject
oscillation of the plain controller on smooth problems.

A ``floor`` callback lets callers stop the integration when the state
leaves its physical domain (e.g. a scale coordinate falling to the
positivity floor); the partial solution is attached to the raised
:class:`NumericalAbort`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import NumericalAbort

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b - b_hat: weights of the embedded error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])
# dense output polynomial (theta, theta^2, theta^3, theta^4 coefficients per stage)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ALPHA = 0.17  # current-error exponent of the PI controller
_BETA = 0.04   # previous-error exponent


@dataclass
class OdeSolution:
    """Accepted steps plus per-step interpolation data."""

    t: np.ndarray                       # accepted times, strictly increasing
    y: np.ndarray                       # states at accepted times, shape (len(t), dim)
    complete: bool
    abort_reason: Optional[str]
    n_steps: int
    n_rejected: int
    h: np.ndarray                       # step i runs from t[i] to t[i] + h[i]
    Q: np.ndarray                       # its dense-output coefficients, (n_steps, dim, 4)

    def __call__(self, t_eval) -> np.ndarray:
        """Dense evaluation at sorted times inside the covered range."""
        t_eval = np.atleast_1d(np.asarray(t_eval, dtype=float))
        if t_eval.size and (t_eval[0] < self.t[0] - 1e-12 or t_eval[-1] > self.t[-1] + 1e-12):
            raise ValueError("t_eval outside the integrated range")
        k = np.clip(np.searchsorted(self.t[:-1], t_eval, side="right") - 1, 0, self.h.size - 1)
        h = self.h[k]
        theta = np.clip((t_eval - self.t[k]) / h, 0.0, 1.0)
        # float_power calls the C library pow, like the scalar theta**n: the
        # SIMD power loop of numpy can differ from it in the last bit
        powers = np.float_power(theta[:, None], np.arange(1.0, 5.0))
        return self.y[k] + h[:, None] * np.matmul(self.Q[k], powers[:, :, None])[:, :, 0]


def _error_norm(err, y_old, y_new, rtol, atol) -> float:
    # the RMS of np.mean, bit for bit, without its Python-level wrapper
    r = err / (atol + rtol * np.maximum(np.abs(y_old), np.abs(y_new)))
    return math.sqrt(float(np.add.reduce(r * r)) / r.size)


def _initial_step(f, t0, y0, f0, rtol, atol) -> float:
    # standard two-trial heuristic, run inside the np.errstate of integrate
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    if not (np.isfinite(d0) and np.isfinite(d1)):
        return 1e-6
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * f0
    f1 = f(t0 + h0, y1)
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if not np.isfinite(d2):
        return 1e-6
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def integrate(f: Callable[[float, np.ndarray], np.ndarray],
              t_span: tuple,
              y0,
              rtol: float = 1e-10,
              atol: float = 1e-12,
              floor: Optional[Callable[[np.ndarray], Optional[str]]] = None,
              raise_on_abort: bool = True) -> OdeSolution:
    """Integrate y' = f(t, y) over ``t_span`` = (t0, t1), t1 > t0.

    ``floor(y)`` may return a reason string to stop at the current state;
    step-size underflow, and f(t0, y0) not finite, also stop.  With
    ``raise_on_abort`` the partial solution rides on the
    :class:`NumericalAbort`; otherwise it is returned with ``complete=False``.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    y = np.array(y0, dtype=float)
    dim = y.size
    t = t0
    ts, ys = [t0], [y]
    steps, coeffs = [], []
    n_steps = 0
    n_rejected = 0
    err_prev = 1.0
    abort_reason = None
    K = np.empty((7, dim))
    # one np.errstate for the whole run: a trial stage past the domain gives
    # inf/nan or raises (math functions in the RHS), and is rejected below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f_curr = np.asarray(f(t, y), dtype=float)
        if np.isfinite(f_curr).all():
            h = min(_initial_step(f, t0, y, f_curr, rtol, atol), t1 - t0)
        else:
            abort_reason = "right-hand side is not finite at the initial state"
        while abort_reason is None and t < t1:
            last = h >= t1 - t
            if last:
                h = t1 - t
            if h < 1e-14 * max(1.0, abs(t)) and not last:
                abort_reason = "step size underflow"
                break

            K[0] = f_curr
            # ndarray.dot makes the same BLAS call as @ with less dispatch per step
            try:
                for s in range(1, 6):
                    ys_stage = y + h * _A[s].dot(K[:s])
                    K[s] = f(t + _C[s] * h, ys_stage)
                y_new = y + h * _B[:6].dot(K[:6])
                K[6] = f(t + h, y_new)
                err_norm = _error_norm(h * _E.dot(K), y, y_new, rtol, atol)
            except ArithmeticError:
                err_norm = math.inf
            if not math.isfinite(err_norm):
                # trial stage left the domain (e.g. sigma sign flip): retry smaller
                h *= _MIN_FACTOR
                n_rejected += 1
                continue

            if err_norm <= 1.0:  # accept
                factor = _SAFETY * (err_norm + 1e-16) ** (-_ALPHA) * (err_prev + 1e-16) ** _BETA
                err_prev = max(err_norm, 1e-16)
                steps.append(h)
                coeffs.append(K.T.dot(_P))
                t = t1 if last else t + h
                y = y_new  # a fresh array: no copy needed
                f_curr = K[6].copy()  # FSAL: the next attempt overwrites K[6]
                ts.append(t)
                ys.append(y)
                n_steps += 1
                if floor is not None:
                    reason = floor(y)
                    if reason:
                        abort_reason = reason
                        break
            else:
                factor = _SAFETY * err_norm ** (-_ALPHA)
                n_rejected += 1
            h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))

    sol = OdeSolution(t=np.array(ts), y=np.array(ys),
                      complete=abort_reason is None, abort_reason=abort_reason,
                      n_steps=n_steps, n_rejected=n_rejected, h=np.array(steps),
                      Q=np.array(coeffs).reshape(n_steps, dim, 4))
    if abort_reason is not None and raise_on_abort:
        raise NumericalAbort(abort_reason, partial=sol)
    return sol
