"""The embedded 5(4) integrator on problems with known solutions."""

import functools
import math
import operator
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infogeo import geodesics, jacobi, rk


def test_tableau_is_the_dormand_prince_one():
    # against scipy's copy (Hairer, Norsett & Wanner, Solving ODEs I, II.5);
    # its E is b_hat - b, the error row here b - b_hat.  The stage matrix
    # combines y, K0..K6: y enters each stage state and y_new once
    from scipy.integrate._ivp.rk import RK45
    m = rk._STAGES
    assert m.shape == (7, 8)
    np.testing.assert_array_equal(m[:, 0], [1, 1, 1, 1, 1, 1, 0])
    np.testing.assert_array_equal(m[:5, 1:6], RK45.A[1:])
    assert not m[:5, 6:].any() and m[5, 7] == 0.0
    np.testing.assert_array_equal(m[5, 1:7], RK45.B)
    np.testing.assert_array_equal(m[6, 1:], -RK45.E)
    np.testing.assert_array_equal(rk._STAGE_TIMES, RK45.C[1:])
    np.testing.assert_array_equal(rk._P, RK45.P)


def test_exponential_decay_accuracy():
    sol = rk.integrate(lambda t, y: -np.asarray(y), (0.0, 5.0), [1.0], rtol=1e-10, atol=1e-12)
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
        sol = rk.integrate(lambda t, y: -np.asarray(y), (0.0, 8.0), [1.0], rtol=tol, atol=tol)
        return abs(sol.y[-1, 0] - np.exp(-8.0))
    assert run(1e-6) > run(1e-10)


def test_abort_can_return_partial_instead():
    # y' = y^2 from y(0) = 1 blows up at t = 1: the steps shrink until they
    # underflow, and the run returns what it reached, flagged incomplete
    sol = rk.integrate(lambda t, y: [y[0] * y[0]], (0.0, 2.0), [1.0], rtol=1e-10, atol=1e-12)
    assert not sol.complete and sol.abort_reason == "step size underflow"
    assert 0.999 < sol.t[-1] < 1.0 and sol.y[-1, 0] > 1e6
    assert sol.n_steps == len(sol.t) - 1 == len(sol.h)


def test_nonfinite_initial_derivative_aborts_at_once():
    # y / t is inf at t0 = 0: no step is tried, and the division warns nowhere
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = rk.integrate(lambda t, y: np.asarray(y) / t, (0.0, 1.0), [1.0])
    assert not caught
    assert not sol.complete and sol.n_steps == 0 and sol.n_rejected == 0
    assert sol.abort_reason == "right-hand side is not finite at the initial state"
    np.testing.assert_array_equal(sol.y, [[1.0]])


def test_t_span_must_increase():
    with pytest.raises(ValueError):
        rk.integrate(lambda t, y: -np.asarray(y), (1.0, 1.0), [1.0])


def test_eval_outside_range_rejected():
    sol = rk.integrate(lambda t, y: -np.asarray(y), (0.0, 1.0), [1.0])
    with pytest.raises(ValueError):
        sol(np.array([2.0]))


def _error_norm(size):
    # the error-norm lines of the generated attempt, as a function of lists
    names = [", ".join(f"{v}{i}" for i in range(size)) for v in "eyn"]
    source = "\n    ".join(["def norm(e, y, n, rtol, atol):",
                             *(f"{row}, = {v}" for row, v in zip(names, "eyn")),
                             *rk._norm_lines(size), "return err_norm"])
    namespace = {"sqrt": math.sqrt}
    exec(source, namespace)
    return namespace["norm"]


def test_error_norm_is_the_mean_square_root_bit_for_bit():
    rng = np.random.default_rng(7)
    for size in range(1, 8):
        norm = _error_norm(size)
        for _ in range(300):
            err, y_old, y_new = (rng.normal(size=size) * 10.0 ** rng.uniform(-12, 12, size)
                                 for _ in range(3))
            scale = 1e-10 + 1e-10 * np.maximum(np.abs(y_old), np.abs(y_new))
            ref = float(np.sqrt(np.mean((err / scale) ** 2)))
            assert norm(err.tolist(), y_old.tolist(), y_new.tolist(), 1e-10, 1e-10) == ref


def test_sums_follow_numpy_add_reduce_bit_for_bit():
    # left to right is numpy's order below 8 terms
    rng = np.random.default_rng(3)
    for size in range(1, 8):
        names = [f"x{i}" for i in range(size)]
        total = eval(f"lambda {', '.join(names)}: {rk._sum(names)}")
        for _ in range(50):
            x = (rng.normal(size=size) * 10.0 ** rng.uniform(-12, 12, size)) ** 2
            assert total(*x.tolist()) == float(np.add.reduce(x))


def _matrix_attempt(f, t, h, y, k0, rtol, atol):
    # one attempt read off the stage matrix row by row, kept as the reference:
    # each stage state, y_new and the error estimate sums h a_j K_j over the
    # row's nonzero entries left to right in Python floats (reduce, as sum()
    # would start from 0 and turn a -0.0 into 0.0); the error norm is
    # numpy's RMS
    K = [list(k0)]

    def state(row):
        weights = [(j, c) for j, c in enumerate(rk._STAGES[row, 1:].tolist()) if c]
        out = []
        for i in range(len(y)):
            total = h * functools.reduce(operator.add, [c * K[j][i] for j, c in weights])
            out.append(y[i] + total if rk._STAGES[row, 0] else total)
        return out

    for s, c in enumerate((*rk._STAGE_TIMES, 1.0)):   # the last state is y_new
        y_new = state(s)
        K.append(list(f(t + c * h, y_new)))
    scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
    return y_new, K, float(np.sqrt(np.mean((np.array(state(6)) / scale) ** 2)))


def _reference_integrate(f, t_span, y0, rtol, atol):
    # the Python while loop rk.integrate ran before its loop was generated,
    # keeping all seven stages of each accepted step for the dense output
    t, t1 = t_span
    y, k = list(y0), f(t, list(y0))
    ts, ys, steps, stages, n_rejected, err_prev, reason = [t], [y], [], [], 0, 1.0, None
    if all(map(math.isfinite, k)):
        h = min(rk._initial_step(f, t, y, k, rtol, atol), t1 - t)
    else:
        reason, t1 = "right-hand side is not finite at the initial state", t
    while t < t1:
        last = h >= t1 - t
        if last:
            h = t1 - t
        if h < 1e-14 * max(abs(t_span[0]), abs(t_span[1])) and not last:
            reason = "step size underflow"
            break
        try:
            y_new, ks, err_norm = _matrix_attempt(f, t, h, y, k, rtol, atol)
        except ArithmeticError:
            err_norm = math.inf
        if not math.isfinite(err_norm):
            h *= 0.2
            n_rejected += 1
            continue
        if err_norm <= 1.0:
            factor = 0.9 * (err_norm + 1e-16) ** (-0.17) * (err_prev + 1e-16) ** 0.04
            err_prev = max(err_norm, 1e-16)
            steps.append(h)
            stages.append(ks)
            t = t1 if last else t + h
            y, k = y_new, ks[-1]
            ts.append(t)
            ys.append(y)
        else:
            factor = 0.9 * err_norm ** (-0.17)
            n_rejected += 1
        h *= min(10.0, max(0.2, factor))
    K = np.array(stages).reshape(len(steps), 7, len(y))
    return rk.OdeSolution(t=np.array(ts), y=np.array(ys), complete=not reason,
                          abort_reason=reason or None, n_steps=len(steps),
                          n_rejected=n_rejected, h=np.array(steps),
                          Q=np.matmul(K.transpose(0, 2, 1), rk._P))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([1, 2, 4, 6]),
       case=st.sampled_from(["smooth", "non-finite", "overflow"]),
       tol=st.sampled_from([1e-4, 1e-6, 1e-8]), t1=st.floats(0.5, 4.0),
       wall=st.floats(0.5, 3.0), data=st.data())
def test_whole_runs_match_the_reference_integrator_bit_for_bit(dim, case, tol, t1, wall, data):
    # a linear system with a square wave in t on its first row (which forces
    # rejections); past |y_0| = wall its first stage is nan ("non-finite")
    # or overflows math.exp ("overflow").  Every f call must see the same
    # arguments, in the same order
    entries = st.floats(-2.0, 2.0)
    A = np.array(data.draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)))
    A = A.reshape(dim, dim).tolist()
    y0 = data.draw(st.lists(entries, min_size=dim, max_size=dim))

    def rhs(t, y):
        out = [sum(a * v for a, v in zip(row, y)) for row in A]
        out[0] += 1.0 if t % 1.0 < 0.5 else -1.0
        if case == "non-finite" and abs(y[0]) > wall:
            out[0] = math.nan
        elif case == "overflow":
            out[0] += 1e-308 * math.exp(709.0 * abs(y[0]) / wall)
        return out

    def run(integrate):
        calls = []

        def f(t, y):
            calls.append(("f", t, list(y)))
            return rhs(t, y)
        try:   # f(t0, y0) itself may overflow
            sol = integrate(f, (0.0, t1), y0, tol, tol)
        except OverflowError:
            return None, calls
        return sol, calls

    with np.errstate(all="ignore"):
        ref, ref_calls = run(_reference_integrate)
    sol, calls = run(rk.integrate)
    assert repr(calls) == repr(ref_calls)
    if ref is None:
        assert sol is None
        return
    for name in ("t", "y", "h", "Q"):
        assert getattr(sol, name).tobytes() == getattr(ref, name).tobytes(), name
    assert ((sol.n_steps, sol.n_rejected, sol.abort_reason, sol.complete)
            == (ref.n_steps, ref.n_rejected, ref.abort_reason, ref.complete))


def _counted(f):
    # f behind a call counter
    counts = {"f": 0}

    def counted_f(t, y):
        counts["f"] += 1
        return f(t, y)
    return counted_f, counts


def test_rhs_calls_follow_the_counting_contract():
    # 2 + 6 (steps + rejected) RHS calls, through rejections and a step size
    # underflow; then the three documented exceptions to the count
    def square(t, y):
        return [1.0 if t % 1.0 < 0.5 else -1.0, y[0] * y[1] - y[1]]

    f, counts = _counted(square)
    sol = rk.integrate(f, (0.0, 4.0), [0.0, 1.0], rtol=1e-8, atol=1e-8)
    assert sol.complete and sol.n_rejected > 0
    assert counts["f"] == 2 + 6 * (sol.n_steps + sol.n_rejected)
    f, counts = _counted(lambda t, y: [y[0] * y[0]])   # blows up at t = 1
    sol = rk.integrate(f, (0.0, 2.0), [1.0])
    assert sol.abort_reason == "step size underflow"
    assert counts["f"] == 2 + 6 * (sol.n_steps + sol.n_rejected)

    # f(t0, y0) not finite: that one call, no initial-step probe, no attempt
    f, counts = _counted(lambda t, y: [math.inf])
    sol = rk.integrate(f, (0.0, 1.0), [1.0])
    assert counts["f"] == 1 and sol.n_steps == sol.n_rejected == 0

    # an attempt whose stage raises ArithmeticError ends at that stage: here
    # the third stage of the second attempt, so that attempt makes 3 calls
    def third_stage_of_second_attempt_raises(t, y):
        if counts["f"] == 2 + 6 + 3:
            raise OverflowError("math range error")
        return [-y[0]]

    f, counts = _counted(third_stage_of_second_attempt_raises)
    sol = rk.integrate(f, (0.0, 5.0), [1.0])
    assert sol.complete and sol.n_rejected == 1
    assert counts["f"] == 2 + 6 * (sol.n_steps + sol.n_rejected) - 3

    # y0 or f(t0, y0) so large against the tolerances that the initial-step
    # heuristic's scaled norm overflows: it takes h = 1e-6 without the probe
    f, counts = _counted(lambda t, y: [1e200])
    sol = rk.integrate(f, (0.0, 1.0), [1.0])
    assert sol.complete and counts["f"] == 1 + 6 * (sol.n_steps + sol.n_rejected)


def test_an_initial_step_probe_that_raises_falls_back_to_a_small_step():
    # the probe f(t0 + h0, y0 + h0 f0) at h0 = 0.01 raises OverflowError;
    # like a non-finite probe, it gives h = 1e-6, and the run goes on
    def f(t, y):
        return [math.exp(1e5 * t)]

    sol = rk.integrate(f, (0.0, 1e-3), [1.0], rtol=1e-6, atol=1e-6)
    assert sol.complete and sol.h[0] == 1e-6


def test_a_retry_starts_from_the_derivative_at_the_accepted_state():
    # a square wave in t forces a rejection at each jump; the stage-2 argument
    # y + h/5 k1 of every attempt gives back its first stage k1, which must be
    # f(t, y) at the last accepted state, not the last stage of the rejected trial
    def square(t, y):
        return np.array([1.0 if t % 1.0 < 0.5 else -1.0, y[0]])

    def f(t, y):
        calls.append((t, np.array(y)))
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
        return np.array([np.nan]) if calls[0] == 2 + 6 * 3 else -np.asarray(y)

    calls = [0]
    sol = rk.integrate(f, (0.0, 5.0), [1.0], rtol=1e-10, atol=1e-12)
    assert sol.complete, sol.abort_reason
    assert sol.n_rejected == 1
    assert abs(sol.y[-1, 0] - np.exp(-5.0)) < 1e-10


def test_an_rhs_returning_a_list_gives_the_same_solution_bit_for_bit():
    # the square wave forces rejections; the first call and the initial-step
    # probe see the list too
    def as_list(t, y):
        return [1.0 if t % 1.0 < 0.5 else -1.0, y[0] * y[1] - y[1], math.sin(y[0])]

    runs = [rk.integrate(f, (0.0, 4.0), [0.1, 1.0, -0.5], rtol=1e-8, atol=1e-8)
            for f in (as_list, lambda t, y: np.array(as_list(t, y)))]
    assert runs[0].n_rejected >= 4
    for name in ("t", "y", "h", "Q"):
        assert getattr(runs[0], name).tobytes() == getattr(runs[1], name).tobytes(), name
    assert (runs[0].n_steps, runs[0].n_rejected) == (runs[1].n_steps, runs[1].n_rejected)


def _assert_floats(y):
    assert type(y) is list and all(type(v) is float for v in y), y


def _strict(f):
    # f behind the contract check: t a float, y a list of exact floats; an
    # np.float64 h or state would make every stage an np.float64
    def checked_f(t, y):
        assert type(t) is float, type(t)
        _assert_floats(y)
        return f(t, y)
    return checked_f


def test_f_gets_a_list_of_floats_and_a_float_time(monkeypatch):
    # integer inputs, a square wave forcing rejections, and the geodesic and
    # Jacobi runs with their list right-hand sides
    def square(t, y):
        return [1.0 if t % 1.0 < 0.5 else -1.0, y[0] * y[1] - y[1]]

    sol = rk.integrate(_strict(square), (0, 4), [0, 1], rtol=1e-8, atol=1e-8)
    assert sol.complete and sol.n_rejected >= 4

    integrate, runs = rk.integrate, []

    def strict_integrate(f, t_span, y0, **kwargs):
        runs.append(f)
        return integrate(_strict(f), t_span, y0, **kwargs)

    monkeypatch.setattr(rk, "integrate", strict_integrate)
    spec = geodesics.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, 1.0)
    for s in (spec, geodesics.GeodesicSpec2D.from_3d(spec)):
        assert geodesics.integrate_geodesic(s, 20.0).complete
        assert jacobi.integrate_jlc(s).complete
    assert len(runs) == 4
