"""The embedded 5(4) integrator on problems with known solutions."""

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


def test_t_span_must_increase():
    with pytest.raises(ValueError):
        rk.integrate(lambda t, y: -y, (1.0, 1.0), [1.0])


def test_eval_outside_range_rejected():
    sol = rk.integrate(lambda t, y: -y, (0.0, 1.0), [1.0])
    with pytest.raises(ValueError):
        sol(np.array([2.0]))
