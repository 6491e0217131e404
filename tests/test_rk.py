"""The embedded 5(4) integrator on problems with known solutions."""

import warnings

import numpy as np
import pytest

from infogeo import rk
from infogeo.errors import NumericalAbort


def test_exponential_decay_accuracy():
    sol = rk.integrate(lambda t, y: -y, (0.0, 5.0), [1.0], rtol=1e-10, atol=1e-12)
    assert sol.complete
    assert abs(sol.y[-1, 0] - np.exp(-5.0)) < 1e-10


def test_dense_output_accuracy():
    sol = rk.integrate(lambda t, y: np.array([y[1], -y[0]]), (0.0, 10.0),
                       [1.0, 0.0], rtol=1e-10, atol=1e-12)
    ts = np.linspace(0.0, 10.0, 257)
    vals = sol(ts)
    assert np.abs(vals[:, 0] - np.cos(ts)).max() < 5e-8


def test_dense_output_matches_the_per_sample_formula():
    # the per-sample loop the batched evaluation replaced, kept as the reference;
    # long steps make a last-bit change of theta**n visible in the output
    sol = rk.integrate(lambda t, y: np.array([y[1], -y[0]]), (0.0, 10.0), [0.0, 1.0],
                       rtol=1e-4, atol=1e-4)
    ts = np.concatenate([np.linspace(0.0, 10.0, 2001), sol.t])
    ts.sort()
    ref = np.empty((ts.size, 2))
    for i, tv in enumerate(ts):
        k = min(max(int(np.searchsorted(sol.t[:-1], tv, side="right")) - 1, 0), sol.n_steps - 1)
        theta = np.clip((tv - sol.t[k]) / sol.h[k], 0.0, 1.0)
        ref[i] = sol.y[k] + sol.h[k] * (sol.Q[k] @ np.array([theta, theta**2, theta**3, theta**4]))
    np.testing.assert_array_equal(sol(ts), ref)


def test_tolerance_controls_error():
    def run(tol):
        sol = rk.integrate(lambda t, y: -y, (0.0, 8.0), [1.0], rtol=tol, atol=tol)
        return abs(sol.y[-1, 0] - np.exp(-8.0))
    assert run(1e-6) > run(1e-10)


def test_floor_abort_carries_partial_solution():
    with pytest.raises(NumericalAbort) as err:
        rk.integrate(lambda t, y: -y, (0.0, 10.0), [1.0], rtol=1e-10, atol=1e-12,
                     floor=lambda y: "hit the floor" if y[0] < 0.5 else None)
    partial = err.value.partial
    assert partial is not None and not partial.complete
    assert partial.t[-1] < 10.0
    assert partial.y[-1, 0] < 0.5


def test_abort_can_return_partial_instead():
    sol = rk.integrate(lambda t, y: -y, (0.0, 10.0), [1.0], rtol=1e-10, atol=1e-12,
                       floor=lambda y: "floor" if y[0] < 0.5 else None,
                       raise_on_abort=False)
    assert not sol.complete and sol.abort_reason == "floor"


def test_nonfinite_initial_derivative_aborts_at_once():
    # y / t is inf at t0 = 0: no step is tried, and the division warns nowhere
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = rk.integrate(lambda t, y: y / t, (0.0, 1.0), [1.0], raise_on_abort=False)
    assert not caught
    assert not sol.complete and sol.n_steps == 0 and sol.n_rejected == 0
    assert sol.abort_reason == "right-hand side is not finite at the initial state"
    np.testing.assert_array_equal(sol.y, [[1.0]])


def test_t_span_must_increase():
    with pytest.raises(ValueError):
        rk.integrate(lambda t, y: -y, (1.0, 1.0), [1.0])


def test_eval_outside_range_rejected():
    sol = rk.integrate(lambda t, y: -y, (0.0, 1.0), [1.0])
    with pytest.raises(ValueError):
        sol(np.array([2.0]))


def test_error_norm_is_the_mean_square_root_bit_for_bit():
    rng = np.random.default_rng(7)
    for size in (1, 2, 5, 8, 12, 17, 100):
        for _ in range(300):
            err, y_old, y_new = (rng.normal(size=size) * 10.0 ** rng.uniform(-12, 12, size)
                                 for _ in range(3))
            scale = 1e-10 + 1e-10 * np.maximum(np.abs(y_old), np.abs(y_new))
            ref = float(np.sqrt(np.mean((err / scale) ** 2)))
            assert rk._error_norm(err, y_old, y_new, 1e-10, 1e-10) == ref


def test_a_retry_starts_from_the_derivative_at_the_accepted_state():
    # a square wave in t forces a rejection at each jump; the stage-2 argument
    # y + h/5 k1 of every attempt gives back its first stage k1, which must be
    # f(t, y) at the last accepted state, not the last stage of the rejected trial
    def square(t, y):
        return np.array([1.0 if t % 1.0 < 0.5 else -1.0, y[0]])

    def f(t, y):
        calls.append((t, y.copy()))
        return square(t, y)

    calls = []
    sol = rk.integrate(f, (0.0, 4.0), [0.0, 0.0], rtol=1e-8, atol=1e-8)
    assert sol.complete and sol.n_rejected >= 4
    # after f(t0, y0) and the initial-step probe, six stage calls per attempt
    attempts = [calls[i:i + 6] for i in range(2, len(calls), 6)]
    assert len(attempts) == sol.n_steps + sol.n_rejected
    base = 0
    for stages in attempts:
        t, y = sol.t[base], sol.y[base]
        (t2, y2), (_, y_new) = stages[0], stages[-1]
        h = 5.0 * (t2 - t)
        k1 = (y2 - y) / (0.2 * h)
        np.testing.assert_allclose(k1, square(t, y), rtol=1e-6, atol=1e-6)
        if np.array_equal(y_new, sol.y[base + 1]):   # accepted
            base += 1
    assert base == sol.n_steps


def test_a_non_finite_last_stage_is_retried_from_the_accepted_state():
    # the last stage of the third attempt is nan: that attempt is rejected,
    # and the retry must not start from it, or every later attempt is nan
    # and the run ends in step size underflow
    def f(t, y):
        calls[0] += 1
        return np.array([np.nan]) if calls[0] == 2 + 6 * 3 else -y

    calls = [0]
    sol = rk.integrate(f, (0.0, 5.0), [1.0], rtol=1e-10, atol=1e-12, raise_on_abort=False)
    assert sol.complete, sol.abort_reason
    assert sol.n_rejected == 1
    assert abs(sol.y[-1, 0] - np.exp(-5.0)) < 1e-10
