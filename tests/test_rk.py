"""The embedded 5(4) integrator on problems with known solutions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infogeo import geodesics, jacobi, rk
from infogeo.errors import NumericalAbort


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


def test_floor_abort_carries_partial_solution():
    with pytest.raises(NumericalAbort) as err:
        rk.integrate(lambda t, y: -np.asarray(y), (0.0, 10.0), [1.0], rtol=1e-10, atol=1e-12,
                     floor=lambda y: "hit the floor" if y[0] < 0.5 else None)
    partial = err.value.partial
    assert partial is not None and not partial.complete
    assert partial.t[-1] < 10.0
    assert partial.y[-1, 0] < 0.5


def test_abort_can_return_partial_instead():
    sol = rk.integrate(lambda t, y: -np.asarray(y), (0.0, 10.0), [1.0], rtol=1e-10, atol=1e-12,
                       floor=lambda y: "floor" if y[0] < 0.5 else None,
                       raise_on_abort=False)
    assert not sol.complete and sol.abort_reason == "floor"


def test_nonfinite_initial_derivative_aborts_at_once():
    # y / t is inf at t0 = 0: no step is tried, and the division warns nowhere
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = rk.integrate(lambda t, y: np.asarray(y) / t, (0.0, 1.0), [1.0],
                           raise_on_abort=False)
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
    for size in (1, 2, 5, 8, 12, 17, 100):
        norm = _error_norm(size)
        for _ in range(300):
            err, y_old, y_new = (rng.normal(size=size) * 10.0 ** rng.uniform(-12, 12, size)
                                 for _ in range(3))
            scale = 1e-10 + 1e-10 * np.maximum(np.abs(y_old), np.abs(y_new))
            ref = float(np.sqrt(np.mean((err / scale) ** 2)))
            assert norm(err.tolist(), y_old.tolist(), y_new.tolist(), 1e-10, 1e-10) == ref


def test_sums_follow_numpy_add_reduce_bit_for_bit():
    # below 8 terms, and 8 partial sums up to numpy's 128-term block
    rng = np.random.default_rng(3)
    for size in (1, 7, 8, 9, 15, 16, 23, 127, 128):
        names = [f"x{i}" for i in range(size)]
        total = eval(f"lambda {', '.join(names)}: {rk._sum(names)}")
        for _ in range(50):
            x = (rng.normal(size=size) * 10.0 ** rng.uniform(-12, 12, size)) ** 2
            assert total(*x.tolist()) == float(np.add.reduce(x))


def _matrix_attempt(f, t, h, y, k0):
    # the stage-matrix attempt the generated one replaced, kept as the
    # reference: one buffer [y; K0; ...; K6] and the tableau scaled by h,
    # one dot of a row with the buffer per stage state, y_new and error estimate
    buf = np.zeros((8, len(y)))
    buf[0], buf[1] = y, k0
    tableau = rk._STAGES * h
    tableau[:6, 0] = 1.0
    for s in range(5):
        buf[s + 2] = f(t + rk._STAGE_TIMES[s] * h, tableau[s].dot(buf))
    y_new = tableau[5].dot(buf)
    buf[7] = f(t + h, y_new)
    return y_new, buf[1:], tableau[6].dot(buf)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(dim=st.sampled_from([1, 2, 4, 6, 8, 12]), h=st.floats(1e-6, 10.0),
       t=st.floats(-10.0, 10.0), data=st.data())
def test_generated_attempt_matches_the_stage_matrix(dim, h, t, data):
    # f replays drawn stages, whatever state it gets, and records the states:
    # each stage state and y_new within 8 ulps of the sum of its terms'
    # magnitudes, the stages themselves exactly; the error estimate through
    # the norm at atol = 1, rtol = 0, where it is its RMS
    values = st.floats(-1e3, 1e3)
    y = data.draw(st.lists(values, min_size=dim, max_size=dim))
    K = np.array(data.draw(st.lists(values, min_size=7 * dim, max_size=7 * dim))).reshape(7, dim)

    def replay(into):
        def f(tk, yk):
            into.append((tk, np.asarray(yk, dtype=float)))
            return K[len(into)].tolist()
        return f

    seen, ref_seen = [], []
    y_new, stages, err_norm = rk._attempt(dim)(replay(seen), t, h, y, K[0].tolist(), 0.0, 1.0)
    ref_new, _, ref_err = _matrix_attempt(replay(ref_seen), t, h, np.array(y), K[0])
    np.testing.assert_array_equal(stages, K.ravel())
    terms = np.abs(rk._STAGES[:, :1]) * np.abs(y) + h * np.abs(rk._STAGES[:, 1:]) @ np.abs(K)
    eps = np.finfo(float).eps
    for row, ((tk, yk), (ref_tk, ref_yk)) in enumerate(zip(seen, ref_seen)):
        assert tk == ref_tk
        assert np.all(np.abs(yk - ref_yk) <= 8 * eps * terms[min(row, 5)])
    assert np.all(np.abs(np.array(y_new) - ref_new) <= 8 * eps * terms[5])
    ref_norm = math.sqrt(np.mean(ref_err ** 2))
    assert abs(err_norm - ref_norm) <= 8 * eps * (math.sqrt(np.mean(terms[6] ** 2)) + ref_norm)


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
    sol = rk.integrate(f, (0.0, 5.0), [1.0], rtol=1e-10, atol=1e-12, raise_on_abort=False)
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


def _strict(f, floor):
    # f and floor behind the contract check: t a float, y a list of exact
    # floats; an np.float64 h or state would make every stage an np.float64
    def checked_f(t, y):
        assert type(t) is float, type(t)
        _assert_floats(y)
        return f(t, y)

    def checked_floor(y):
        _assert_floats(y)
        return floor(y) if floor else None
    return checked_f, checked_floor


def test_f_and_floor_get_a_list_of_floats_and_a_float_time(monkeypatch):
    # integer inputs, a square wave forcing rejections, and the geodesic and
    # Jacobi runs with their list right-hand sides (the geodesic runs with
    # their floor; a Jacobi run has none)
    def square(t, y):
        return [1.0 if t % 1.0 < 0.5 else -1.0, y[0] * y[1] - y[1]]

    f, floor = _strict(square, None)
    sol = rk.integrate(f, (0, 4), [0, 1], rtol=1e-8, atol=1e-8, floor=floor)
    assert sol.complete and sol.n_rejected >= 4

    integrate, runs = rk.integrate, []

    def strict_integrate(f, t_span, y0, floor=None, **kwargs):
        runs.append(floor)
        f, floor = _strict(f, floor)
        return integrate(f, t_span, y0, floor=floor, **kwargs)

    monkeypatch.setattr(rk, "integrate", strict_integrate)
    spec = geodesics.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, 1.0)
    for s in (spec, geodesics.GeodesicSpec2D.from_3d(spec)):
        assert geodesics.integrate_geodesic(s, 20.0).complete
        assert jacobi.integrate_jlc(s).complete
    assert len(runs) == 4 and all(runs[::2]) and not any(runs[1::2])
