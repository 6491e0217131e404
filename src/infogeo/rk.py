"""Embedded Runge-Kutta 5(4) integrator with PI step control.

Dormand-Prince pair (Hairer, Norsett & Wanner, Solving ODEs I, II.5): six
function evaluations per attempted step plus the FSAL one, reused only from
an accepted step; fifth-order propagation, a fourth-order embedded error
estimate, and the free fourth-order dense output, built at the end of a run.

The states have 4 or 6 components, where a numpy call costs more than its
arithmetic.  So the accept/reject loop is one Python function per state
dimension, generated from the tableau and cached (:func:`_loop`), with the
state and the stages as local floats.  An accepted step keeps only K2, ...,
K6: the dense output reads no K1, and K0 is f(t0, y0) or the last K6.

Step control is proportional-integral, which damps the accept/reject
oscillation of the plain controller on smooth problems.  A run that stops
short returns its partial solution, flagged ``complete=False``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cache
from typing import Callable, Optional

import numpy as np

# Dormand-Prince 5(4) tableau as one stage matrix: each row combines y and
# the stages K0, ..., K6 (the K columns scaled by h).  Rows 0-4 are the
# states of stages 1-5 (a_ij), row 5 is y_new (b_j), row 6 the error
# estimate (b_j - b_hat_j).  Stages 1-5 are taken at t + c_i h.
_STAGES = np.array([
    [1, 1 / 5, 0, 0, 0, 0, 0, 0],
    [1, 3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [1, 44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [1, 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [1, 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [1, 35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    [0, 71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
])
_STAGE_TIMES = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)   # c_1..c_5
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


def _sum(terms: list) -> str:
    """The sum of ``terms`` left to right: numpy's add.reduce order for up
    to 7 squares (its leading 0.0 changes no square)."""
    return f"({' + '.join(terms)})"


def _norm_lines(dim: int) -> list:
    """Body lines from an error vector e_i, y_i and y_new n_i to ``err_norm``,
    the RMS of e_i / (atol + rtol max(|y_i|, |n_i|)) (a conditional costs
    less than max()).  Below 8 components (the geodesic and Jacobi states
    have 4 or 6) it equals np.sqrt(np.mean(...)) bit for bit."""
    lines = []
    for i in range(dim):
        lines += [f"a, b = abs(y{i}), abs(n{i})",
                  f"e{i} = e{i} / (atol + rtol * (a if a > b else b))"]
    return lines + [f"err_norm = sqrt({_sum([f'e{i} * e{i}' for i in range(dim)])} / {dim})"]


_LOOP = """\
def loop(f, t, t1, y, k, rtol, atol, ts, ys, steps, stages):
    if not all(-inf < v < inf for v in k):
        return 0, "right-hand side is not finite at the initial state"
    h = min(initial_step(f, t, y, k, rtol, atol), t1 - t)
    h_min = 1e-14 * max(abs(t), abs(t1))   # below it a step underflows, at any time scale
    n_rejected, err_prev = 0, 1.0
    {y}, = y
    {k0}, = k
    while t < t1:
        last = h >= t1 - t
        if last:
            h = t1 - t
        elif h < h_min:
            return n_rejected, "step size underflow"
        try:
            {attempt}
        except ArithmeticError:
            err_norm = inf
        if err_norm <= 1.0:   # accept
            factor = 0.9 * (err_norm + 1e-16) ** -0.17 * (err_prev + 1e-16) ** 0.04
            err_prev = err_norm if err_norm > 1e-16 else 1e-16
            steps.append(h)
            stages.fromlist([{kept}])
            t = t1 if last else t + h
            {y}, = n
            {k0} = {k6}   # FSAL: the next step starts from f(t + h, y_new)
            ts.append(t)
            ys.fromlist(n)
        else:   # reject; by 0.2 where a trial stage left the domain
            factor = 0.9 * err_norm ** -0.17 if err_norm < inf else 0.0
            n_rejected += 1
        h *= (factor if factor < 10.0 else 10.0) if factor > 0.2 else 0.2
    return n_rejected, None
"""


@cache
def _loop(dim: int):
    """``_LOOP`` on ``dim`` floats, from t, y and k = f(t, y) to t1: it appends
    each accepted t, y, h and K2, ..., K6 to ts, ys, steps and stages, and
    returns the rejected count and the abort reason (None at t1).  Each stage
    state, y_new and the error estimate sums its nonzero tableau entries left
    to right."""
    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in range(dim))

    def combination(row, i):
        coefficients = enumerate(_STAGES[row, 1:].tolist())
        terms = " + ".join(f"{c!r} * k{j}_{i}" for j, c in coefficients if c)
        return f"y{i} + h * ({terms})" if _STAGES[row, 0] else f"h * ({terms})"

    attempt = []
    for s, c in enumerate((*_STAGE_TIMES, 1.0), start=1):   # the last state is y_new
        at = "t + h" if c == 1.0 else f"t + {c!r} * h"
        attempt.append(f"{names(f'k{s}_')}, = f({at}, n := "
                       f"[{', '.join(combination(s - 1, i) for i in range(dim))}])")
    attempt += [f"{names('n')}, = n", *(f"e{i} = {combination(-1, i)}" for i in range(dim))]
    source = _LOOP.format(y=names("y"), k0=names("k0_"), k6=names("k6_"),
                          attempt="\n            ".join(attempt + _norm_lines(dim)),
                          kept=", ".join(f"k{s}_{i}" for s in range(2, 7) for i in range(dim)))
    namespace = {"sqrt": math.sqrt, "inf": math.inf, "initial_step": _initial_step}
    exec(compile(source, f"<rk loop {dim}>", "exec"), namespace)
    return namespace["loop"]


def _initial_step(f, t0, y0, f0, rtol, atol) -> float:
    # standard two-trial heuristic, run inside the np.errstate of integrate;
    # h comes back a float, or every stage value would be an np.float64
    y0, f0 = np.array(y0), np.array(f0, dtype=float)
    scale = atol + rtol * np.abs(y0)
    d0 = np.sqrt(np.mean((y0 / scale) ** 2))
    d1 = np.sqrt(np.mean((f0 / scale) ** 2))
    if not (np.isfinite(d0) and np.isfinite(d1)):
        return 1e-6
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else float(0.01 * d0 / d1)
    try:   # a probe past the domain is treated like a non-finite one
        f1 = np.asarray(f(t0 + h0, (y0 + h0 * f0).tolist()), dtype=float)
    except ArithmeticError:
        return 1e-6
    d2 = np.sqrt(np.mean(((f1 - f0) / scale) ** 2)) / h0
    if not np.isfinite(d2):
        return 1e-6
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return float(min(100 * h0, h1))


def integrate(f: Callable[[float, list], list], t_span: tuple, y0,
              rtol: float = 1e-10, atol: float = 1e-12) -> OdeSolution:
    """Integrate y' = f(t, y) over ``t_span`` = (t0, t1), t1 > t0.

    ``f(t, y)`` gets t as a float and y as a list of floats, and returns a
    list (or an array) of the size of y.  A step below 1e-14 max(|t0|, |t1|)
    (step size underflow) or f(t0, y0) not finite stops the run, and its
    partial solution comes back with ``complete=False`` and the reason.

    A run calls f 2 + 6 (n_steps + n_rejected) times (f(t0, y0), the
    initial-step probe, six stages per attempt), except: once if f(t0, y0)
    is not finite; an attempt whose stage raises ArithmeticError stops
    there; and no probe (h = 1e-6) where the scaled norm of y0 or f(t0, y0)
    overflows.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must satisfy t1 > t0")
    y = np.array(y0, dtype=float).tolist()
    dim = len(y)
    ts, ys, steps, stages = [t0], array("d", y), [], array("d")
    # one np.errstate for the whole run (initial step, an f on arrays): a trial
    # stage past the domain gives inf/nan or raises, and is rejected
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        k = f(t0, y)
        n_rejected, abort_reason = _loop(dim)(f, t0, t1, y, k, rtol, atol, ts, ys, steps, stages)

    # K0 is f(t0, y0), then the previous step's K6 (FSAL); K1 stays 0 (_P row 0)
    K = np.zeros((len(steps), len(_P), dim))
    K[:, 2:] = np.frombuffer(stages).reshape(len(steps), 5, dim)
    K[:1, 0], K[1:, 0] = k, K[:-1, 6]
    return OdeSolution(t=np.array(ts), y=np.frombuffer(ys).reshape(-1, dim),
                       complete=abort_reason is None, abort_reason=abort_reason,
                       n_steps=len(steps), n_rejected=n_rejected, h=np.array(steps),
                       Q=np.matmul(K.transpose(0, 2, 1), _P))
