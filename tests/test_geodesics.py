"""Geodesic closed forms, numeric integration and their cross-validation."""

import dataclasses
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import infogeo as ig
from infogeo.errors import DomainError
from infogeo import rk
from infogeo.geodesics import _closed_form, _ratio_columns, _ratio_rhs, nonzero_terms
from infogeo.jacobi import _jlc_rhs, _start_slots
from infogeo.models import MODEL_2D, MODEL_3D, model_of

SPEC3 = ig.GeodesicSpec3D(mu0=0.0, sigma0=1.0, sigma0_prime=1.0,
                          lambda_plus_prime=1.0, lambda_f=1.0)
SPEC2 = ig.GeodesicSpec2D.from_3d(SPEC3)

# frozen oracle values at tau = 1 (sigma0 = lambda = 1):
SECH_1 = 2 * math.e / (1 + math.e**2)          # sigma_x(1) = sech(1)
MU_EXACT_1 = math.sqrt(2.0) * math.tanh(1.0)   # exact family mean span
MU_WIDE_1 = 2.0 * math.tanh(1.0)               # span-2 family


def _stacked_chart(spec, s):
    """:func:`_ratio_columns` stacked: ``(y, dy)``, each over the last axis, with
    +0 for the -0.0 of -tanh 0 and r_j 0."""
    return tuple(np.stack(np.broadcast_arrays(*v), axis=-1) + 0.0 for v in _ratio_columns(spec, s))


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(DomainError):
        ig.GeodesicSpec3D(0.0, -1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ig.GeodesicSpec3D(0.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        ig.GeodesicSpec2D(0.0, 1.0, -2.0)
    # the closed form starts at mu' = (rate * span) * sigma0, which must be finite
    for make in (lambda s0: ig.GeodesicSpec3D(0.0, s0, 1.0, 1.0, 1.0),
                 lambda s0: ig.GeodesicSpec2D(0.0, s0, 1.0)):
        assert np.all(np.isfinite(ig.closed_form(make(9e153), 0.0)))
        for s0 in (1.2e154, 1e200):
            with pytest.raises(DomainError, match="overflows"):
                make(s0)


_VALID_ARGS = {ig.GeodesicSpec3D: (0.0, 1.0, 1.0, 1.0, 1.0), ig.GeodesicSpec2D: (0.0, 1.0, 1.0)}


@pytest.mark.parametrize("cls,index,bad", [
    pytest.param(cls, i, bad, id=f"{cls.__name__}-{dataclasses.fields(cls)[i].name}-{bad}")
    for cls, args in _VALID_ARGS.items() for i in range(len(args))
    for bad in ((math.nan, -math.inf) if i == 0 else (0.0, -1.0, math.inf, math.nan))])
def test_each_spec_field_raises_its_own_message(cls, index, bad):
    # the field and every later one are bad: the message names this field,
    # so the checks run in declaration order
    name = dataclasses.fields(cls)[index].name
    args = list(_VALID_ARGS[cls])
    args[index:] = [bad] * (len(args) - index)
    message = "mu0 must be finite" if index == 0 else f"{name} must be a positive real, got {bad!r}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        cls(*args)


def test_lambda_f_from_final_spread():
    spec = ig.GeodesicSpec3D.from_final_spread(0.0, 1.0, 2.0, 1.0,
                                               tau_f=3.0, epsilon=0.5)
    assert spec.lambda_f == pytest.approx(math.log(4.0) / 3.0, rel=1e-14)
    # epsilon must undershoot the initial spread
    with pytest.raises(DomainError):
        ig.GeodesicSpec3D.from_final_spread(0.0, 1.0, 1.0, 1.0, 1.0, 2.0)
    # explicit lambda_f must agree to 1e-12
    with pytest.raises(DomainError):
        ig.GeodesicSpec3D.from_final_spread(0.0, 1.0, 2.0, 1.0, 3.0, 0.5,
                                            lambda_f=0.4)
    same = ig.GeodesicSpec3D.from_final_spread(0.0, 1.0, 2.0, 1.0, 3.0, 0.5,
                                               lambda_f=math.log(4.0) / 3.0)
    assert same.lambda_f == spec.lambda_f


def test_coupled_pair_rate():
    assert SPEC2.lambda_plus == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
    assert SPEC2.mu0 == SPEC3.mu0 and SPEC2.sigma0 == SPEC3.sigma0


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_form_3d_initial_state():
    theta, vel = ig.closed_form_3d(SPEC3, 0.0)
    np.testing.assert_allclose(theta, [0.0, 1.0, 1.0], atol=0)
    np.testing.assert_allclose(vel, [math.sqrt(2.0), 0.0, -1.0], atol=1e-15)


def test_closed_form_3d_at_tau_one():
    theta, _ = ig.closed_form_3d(SPEC3, 1.0)
    assert theta[1] == pytest.approx(SECH_1, rel=1e-12)
    assert theta[1] == pytest.approx(0.6480542736638853, rel=1e-12)
    assert theta[0] == pytest.approx(MU_EXACT_1, rel=1e-12)
    # the span-2 variant of the mean path used by the volume expressions
    theta_w, _ = ig.closed_form_3d(SPEC3, 1.0, mu_span=ig.MU_SPAN_WIDE)
    assert theta_w[0] == pytest.approx(MU_WIDE_1, rel=1e-12)
    assert theta_w[0] == pytest.approx(1.5231883119115297, rel=1e-12)


def test_closed_form_3d_asymptotics():
    theta, vel = ig.closed_form_3d(SPEC3, 200.0)
    assert theta[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert theta[1] < 1e-80 and theta[2] < 1e-80
    assert np.abs(vel).max() < 1e-80
    theta_w, _ = ig.closed_form_3d(SPEC3, 200.0, mu_span=ig.MU_SPAN_WIDE)
    assert theta_w[0] == pytest.approx(2.0, rel=1e-12)


def test_closed_form_2d_matches_3d_functional_form():
    # same (mu, sigma) shape with lambda_plus substituted for lambda_plus'
    proxy = ig.GeodesicSpec3D(SPEC2.mu0, SPEC2.sigma0, 1.0,
                              SPEC2.lambda_plus, 1.0)
    for tau in (0.0, 0.7, 2.5, 9.0):
        theta2, _ = ig.closed_form_2d(SPEC2, tau)
        theta3, _ = ig.closed_form_3d(proxy, tau, mu_span=2.0)
        np.testing.assert_allclose(theta2, theta3[:2], rtol=1e-14)


def test_closed_form_2d_rate_scaling():
    # the shape depends on tau only through sigma0 * lambda_plus * tau
    spec = ig.GeodesicSpec2D(0.0, 1.0, 1.0 / math.sqrt(2.0))
    theta, _ = ig.closed_form_2d(spec, math.sqrt(2.0))
    assert theta[1] == pytest.approx(SECH_1, rel=1e-12)


def test_first_integral_along_closed_forms():
    # mu' = A1 sigma^2 with A1 = sqrt(2) lambda' (3D) and 2 lambda (2D)
    a1_3d = math.sqrt(2.0) * SPEC3.lambda_plus_prime
    a1_2d = 2.0 * SPEC2.lambda_plus
    for tau in np.linspace(0.0, 12.0, 25):
        theta, vel = ig.closed_form_3d(SPEC3, tau)
        assert abs(vel[0] - a1_3d * theta[1] ** 2) < 1e-10
        theta, vel = ig.closed_form_2d(SPEC2, tau)
        assert abs(vel[0] - a1_2d * theta[1] ** 2) < 1e-10


def test_sigma_monotone_decreasing():
    taus = np.linspace(0.0, 15.0, 400)
    theta, _ = ig.closed_form_3d(SPEC3, taus)
    assert np.all(np.diff(theta[:, 1]) < 0.0)
    assert np.all(np.diff(theta[:, 2]) < 0.0)


# ---------------------------------------------------------------------------
# geodesic equations
# ---------------------------------------------------------------------------

def _acceleration(theta, vel):
    # theta'' = -Gamma^a_bc v^b v^c, contracted from the model's Christoffel symbols
    theta = np.asarray(theta, dtype=float)
    return -np.einsum("abc,b,c->a", model_of(theta).tensors(theta)[0], vel, vel)


def test_acceleration_examples():
    acc = _acceleration([0.0, 1.0, 1.0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(acc, [0.0, -0.5, 0.0], atol=1e-15)
    acc = _acceleration([0.0, 1.0], [2.0, 0.0])
    np.testing.assert_allclose(acc, [0.0, -1.0], atol=1e-15)
    acc = _acceleration([1.0, 0.7, 2.0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(acc, np.zeros(3), atol=0)


def test_acceleration_rows_match_points():
    # each random row's contraction equals the module docstring's component
    # equations at that point
    rng = np.random.default_rng(11)
    for dim, weight in ((3, 2.0), (2, 4.0)):
        theta = np.column_stack([rng.uniform(-2, 2, 50), rng.uniform(0.1, 3, (50, dim - 1))])
        vel = rng.normal(size=(50, dim))
        for (_, s, *flat), (dmu, ds, *dflat) in zip(theta, vel):
            ref = [2.0 / s * dmu * ds, -dmu**2 / (weight * s) + ds**2 / s,
                   *(dsy**2 / sy for sy, dsy in zip(flat, dflat))]
            np.testing.assert_allclose(_acceleration([0.0, s, *flat], [dmu, ds, *dflat]), ref,
                                       rtol=1e-14, atol=1e-14 * np.abs(ref).max())


def _ratio_rows_error(model, system, theta, vel):
    """|T g_hat g_hat - y'| per row of the scale-free state at theta, with
    start scales 1 and rate 1 (so m' = mu', e = sigma_k(0), l_j = log sigma_j,
    h = log rho_0 and r = rho), and each row's allowed error: 1e-14 of its
    largest term, plus, on the ratio rows, the underflow of the n^2 products
    Gamma v_b v_c (one subnormal step each) divided by sigma_k.  y' is
    assembled in sigma-space from the model's Christoffel symbols: r_a' =
    theta''_a / sigma_k(a) - rho_a rho_k(a), and h' = rho_0' / rho_0 =
    d theta''_0 / d v_0 - rho_k(0), as theta''_0 is linear in v_0."""
    scales = model.scales(theta)
    rho = vel / scales
    g_hat = np.concatenate([[1.0, scales[0]], rho])
    dy = system @ g_hat @ g_hat
    gam = model.tensors(theta)[0]
    terms = -gam * vel[:, None] * vel[None, :]
    log_terms = -(gam[0, 0] + gam[0, :, 0]) * vel
    rho_k = rho[list(model.scale_map)]
    rates = terms.sum(axis=(1, 2)) / scales - rho * rho_k
    biggest = np.maximum(np.abs(terms).max(axis=(1, 2)) / scales, np.abs(rho * rho_k))
    rates[0], biggest[0] = log_terms.sum() - rho_k[0], max(np.abs(log_terms).max(), abs(rho_k[0]))
    ref = np.concatenate([vel[:1], rho[1:], rates])
    largest = np.concatenate([np.abs(vel[:1]), np.abs(rho[1:]), biggest])
    underflow = model.dimension**2 * np.finfo(float).smallest_subnormal / scales
    return np.abs(dy - ref), 1e-14 * largest + np.concatenate([np.zeros(model.dimension),
                                                               underflow])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mu=st.floats(-5.0, 5.0), log_scales=st.tuples(*[st.floats(-140.0, 2.0)] * 2),
       rho=st.tuples(*[st.floats(-2.0, 2.0)] * 3), three=st.booleans())
def test_geodesic_system_matches_the_christoffel_symbols(mu, log_scales, rho, three):
    # the draws of test_coefficients_match_textbook_assembly: sigma in
    # [1e-140, 1e2]; each row of the scale-free system within 1e-14 of its
    # largest term, and the ratio rows also within their products' underflow
    model = MODEL_3D if three else MODEL_2D
    n = model.dimension
    theta = np.array([mu, *(10.0 ** np.array(log_scales))])[:n]
    vel = np.array(rho[:n]) * model.scales(theta)
    err, bound = _ratio_rows_error(model, model.ratio_system, theta, vel)
    assert np.all(err <= bound)


def test_a_perturbed_geodesic_block_fails_the_property():
    # each (row block, g_hat block, g_hat block) of T changed by 1e-7 moves
    # some row far past the bound; the g_hat blocks are the constant 1, e
    # and the ratios
    for model in (MODEL_3D, MODEL_2D):
        n = model.dimension
        theta = np.array([0.3, 0.7, 1.9])[:n]
        vel = np.array([0.7, 1.3, 0.4])[:n] * model.scales(theta)
        err, bound = _ratio_rows_error(model, model.ratio_system, theta, vel)
        assert np.all(err <= bound)
        blocks = (slice(0, 1), slice(1, 2), slice(2, n + 2))
        for rows in (slice(0, n), slice(n, 2 * n)):
            for first in blocks:
                for second in blocks:
                    mutant = model.ratio_system.copy()
                    mutant[rows, first, second] += 1e-7
                    err, bound = _ratio_rows_error(model, mutant, theta, vel)
                    assert np.any(err > 1e5 * bound)


def _dot_ratio_rhs(model):
    # the reshape-dot contraction, kept as the reference
    n = model.dimension
    system = model.ratio_system.reshape(-1, n + 2)

    def rhs(t, y):
        g_hat = np.array([1.0, math.exp(y[model.scale_map[0]]), math.exp(y[n]), *y[n + 1:]])
        return system.dot(g_hat).reshape(2 * n, -1).dot(g_hat)
    return rhs


def _scale_free_state(model, mu, log_scales, rho):
    # (m, l, h, r) at start scales 1 and rate 1, from a hypothesis draw: h =
    # log |rho_0|
    n = model.dimension
    h = math.log(abs(rho[0])) if rho[0] else -math.inf
    return [mu, *(math.log(10.0) * np.array(log_scales[:n - 1])), h, *rho[1:n]]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mu=st.floats(-5.0, 5.0), log_scales=st.tuples(*[st.floats(-140.0, 2.0)] * 2),
       rho=st.tuples(*[st.floats(-2.0, 2.0)] * 3), three=st.booleans())
def test_geodesic_rhs_matches_the_dot_contraction(mu, log_scales, rho, three):
    # the draws of test_coefficients_match_textbook_assembly; each row of the
    # generated RHS within 1e-15 of the sum of its terms' magnitudes
    model = MODEL_3D if three else MODEL_2D
    n = model.dimension
    y = _scale_free_state(model, mu, log_scales, rho)
    g_hat = np.abs([1.0, math.exp(y[model.scale_map[0]]), math.exp(y[n]), *y[n + 1:]])
    scale = np.abs(model.ratio_system) @ g_hat @ g_hat
    err = np.abs(np.asarray(_ratio_rhs(model, math.exp)(0.0, y)) - _dot_ratio_rhs(model)(0.0, y))
    assert np.all(err <= 1e-15 * scale)


@pytest.mark.parametrize("model", [MODEL_3D, MODEL_2D], ids=lambda m: m.label)
def test_nonzero_terms_rebuild_each_system_tensor(model):
    for tensor in (model.ratio_system, model.jacobi_system):
        rebuilt = np.zeros(tensor.shape)
        for *index, c in nonzero_terms(tensor):
            rebuilt[tuple(index)] = c
        np.testing.assert_array_equal(rebuilt, tensor)


@pytest.mark.parametrize("model", [MODEL_3D, MODEL_2D], ids=lambda m: m.label)
def test_geodesic_rhs_at_a_zero_sigma_is_finite(model):
    # sigma = 0 is l = -inf in the scale-free state: there e = 0 stops the
    # mean, and no row divides by a scale, so a trial stage that lands there
    # gets a finite derivative; past l = 709.78 exp raises OverflowError,
    # which rk rejects like a non-finite stage
    n = model.dimension
    rhs, rates = _ratio_rhs(model, math.exp), [0.5] * n
    dy = rhs(0.0, [0.0, *[-math.inf] * (n - 1), *rates])
    assert np.all(np.isfinite(dy)) and dy[0] == 0.0
    with pytest.raises(OverflowError):
        rhs(0.0, [0.0, *[710.0] * (n - 1), *rates])


def _term_loop(tensor, vectors):
    # the loop over nonzero_terms the right-hand sides ran before they were
    # generated, kept as the reference: slot 0 of each vector is 1.0
    dy = [0.0] * tensor.shape[0]
    for row, *index, c in nonzero_terms(tensor):
        term = c
        for j, i in reversed(list(enumerate(index))):
            term = term * vectors[j][i]
        dy[row] += term
    return dy


def _loop_ratio_rhs(model):
    # the term loop at g_hat = (1, exp(l_k(0)), exp(h), r_1, ...)
    n = model.dimension

    def rhs(t, y):
        g_hat = [1.0, math.exp(y[model.scale_map[0]]), math.exp(y[n]), *y[n + 1:]]
        return _term_loop(model.ratio_system, [g_hat, g_hat])
    return rhs


def _loop_jlc_rhs(model, flat):
    # the term loop at g_hat = (1, sech s, -tanh s, flat rates)
    def rhs(s, w):
        x = math.exp(-s)
        g_hat = [1.0, 2.0 * x / (1.0 + x * x), -math.tanh(s), *flat]
        return _term_loop(model.jacobi_system, [[1.0, *w], g_hat, g_hat])
    return rhs


_RHS_VALUES = st.one_of(st.floats(allow_nan=False, width=64),
                        st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=st.lists(_RHS_VALUES, min_size=7, max_size=7),
       s=st.one_of(st.floats(0.0, 800.0), st.floats(745.0, 1e6)), three=st.booleans())
@example(values=[0.5, 0.0, 0.0, 1.0, -2.0, 3.0, 0.25], s=746.0, three=True)
@example(values=[0.5, -math.inf, 1.0, -2.0, 0.0, 0.0, 0.25], s=1e6, three=False)
@example(values=[0.5, 710.0, 0.0, 1.0, -2.0, 3.0, 0.25], s=0.0, three=True)
@example(values=[0.5, 0.0, 0.0, 710.0, -2.0, 3.0, 0.25], s=0.0, three=True)
@example(values=[0.5, 0.0, -math.inf, 1.0, 0.0, 0.0, 0.25], s=0.0, three=False)
def test_generated_rhs_equals_the_term_loop_bit_for_bit(values, s, three):
    # overflow, inf - inf, signed zeros, a sigma or r_0 of 0 (l or h = -inf),
    # exp(l) or exp(h) past the double range (both raise OverflowError) and sech s underflowed
    # to 0 (s > 745) included; the flat rate has no term in the Jacobi system
    model = MODEL_3D if three else MODEL_2D
    n = model.dimension
    y = values[:2 * n]
    outcomes = []
    for rhs in (_ratio_rhs(model, math.exp), _loop_ratio_rhs(model)):
        try:
            outcomes.append(np.array(rhs(0.0, y)).tobytes())
        except OverflowError:
            outcomes.append("OverflowError")
    assert outcomes[0] == outcomes[1]
    flat = values[-1:] if three else []
    assert (np.array(_jlc_rhs(model)(s, y)).tobytes()
            == np.array(_loop_jlc_rhs(model, flat)(s, y)).tobytes())


def _run_pair(rhs, ref, t_end, y0, tol=1e-10):
    return [rk.integrate(f, (0.0, t_end), y0, rtol=tol, atol=tol) for f in (rhs, ref)]


def _assert_same_run(a, b):
    assert a.n_steps > 100
    assert (a.n_steps, a.n_rejected, a.abort_reason) == (b.n_steps, b.n_rejected, b.abort_reason)
    for name in ("t", "y", "h", "Q"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("spec", [SPEC3, SPEC2], ids=["3d", "2d"])
def test_geodesic_runs_of_the_generated_rhs_equal_the_term_loop_runs(spec):
    # to rate * tau = 50, from the start and at the tolerance of integrate_geodesic
    model = spec.model
    y0 = _stacked_chart(spec, 0.0)[0].tolist()
    runs = _run_pair(_ratio_rhs(model, math.exp), _loop_ratio_rhs(model), 50.0, y0,
                     1e-10 / ig.geodesics._TOL_DIVISOR)
    _assert_same_run(*runs)
    assert runs[0].complete


@pytest.mark.parametrize("spec", [SPEC3, SPEC2], ids=["3d", "2d"])
def test_jacobi_runs_of_the_generated_rhs_equal_the_term_loop_runs(spec):
    flat = [-decay / spec.rate for _, decay in spec.flat_factors]
    w0, _ = _start_slots(spec, None, None)
    runs = _run_pair(_jlc_rhs(spec.model), _loop_jlc_rhs(spec.model, flat), 50.0, w0)
    _assert_same_run(*runs)
    assert runs[0].complete


def test_residual_exact_family():
    grid = np.linspace(0.0, 10.0, 100)
    assert ig.residual_check(SPEC3, grid) < 1e-6
    assert ig.residual_check(SPEC2, grid) < 1e-6


def _residual_grid(spec):
    # rate * tau from 0 to 1e4, log-spaced past 1e-3
    return np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 200)]) / spec.rate


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(log_sigma0=st.floats(-150.0, 150.0), log_sigma0_prime=st.floats(-300.0, 300.0),
       log_lam=st.floats(-3.0, 300.0), log_lambda_f=st.floats(-3.0, 300.0))
@example(log_sigma0=0.0, log_sigma0_prime=300.0, log_lam=0.0, log_lambda_f=10.0)
@example(log_sigma0=-6.0, log_sigma0_prime=0.0, log_lam=0.0, log_lambda_f=0.0)
def test_residual_is_rounding_at_every_scale(log_sigma0, log_sigma0_prime, log_lam,
                                             log_lambda_f):
    # sigma0 in [1e-150, 1e150], sigma0' to 1e300, lambda' and lambda_f in
    # [1e-3, 1e300], on grids to rate * tau = 1e4, for the 3D spec and its
    # 2D companion: the exact family leaves a few ulp, without a warning
    # where sigma or sigma_y underflows or lambda_f sigma0' overflows
    try:
        spec3 = ig.GeodesicSpec3D(0.0, 10.0**log_sigma0, 10.0**log_sigma0_prime,
                                  10.0**log_lam, 10.0**log_lambda_f)
    except DomainError:   # mu'(0) past the double range
        assume(False)
    assume(math.isfinite(spec3.lambda_f / spec3.rate))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in (spec3, ig.GeodesicSpec2D.from_3d(spec3)):
            assert ig.residual_check(spec, _residual_grid(spec)) <= 1e-15


def _residual_by_rows(spec, s):
    """residual_check's value as a call of the rk right-hand side per sample."""
    y, dy = _stacked_chart(spec, s)
    rhs = _ratio_rhs(spec.model, math.exp)
    f = np.array([rhs(0.0, row) for row in y.tolist()]).reshape(dy.shape)
    return f, float(np.abs(dy - f).max(initial=0.0))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(log_sigma0=st.floats(-6.0, 10.0), log_lambda_f=st.floats(-2.0, 150.0),
       log_sigma0_prime=st.floats(-3.0, 3.0), rate_tau=st.floats(1.0, 2000.0),
       samples=st.integers(1, 120))
@example(log_sigma0=0.0, log_lambda_f=150.0, log_sigma0_prime=0.0, rate_tau=1500.0, samples=100)
@example(log_sigma0=-6.0, log_lambda_f=-2.0, log_sigma0_prime=3.0, rate_tau=800.0, samples=7)
def test_residual_on_columns_is_the_row_loop_bit_for_bit(log_sigma0, log_lambda_f,
                                                         log_sigma0_prime, rate_tau, samples):
    # sigma0 in [1e-6, 1e10] and lambda_f in [1e-2, 1e150], on grids from s = 0
    # to rate * tau up to 2000, past 745 where exp(l_1) = sech s underflows:
    # every value of the right-hand side run on columns, and the residual,
    # equal those of one call per sample, bit for bit
    spec3 = ig.GeodesicSpec3D(0.0, 10.0**log_sigma0, 10.0**log_sigma0_prime, 1.0,
                              10.0**log_lambda_f)
    for spec in (spec3, ig.GeodesicSpec2D.from_3d(spec3)):
        taus = np.linspace(0.0, rate_tau / spec.rate, samples)
        s = spec.rate * taus
        rows, residual = _residual_by_rows(spec, s)
        y, _ = ig.geodesics._ratio_columns(spec, s)
        with np.errstate(over="ignore", invalid="ignore"):
            cols = _ratio_rhs(spec.model, ig.geodesics._exp_each)(0.0, y)
        assert np.stack(np.broadcast_arrays(*cols), axis=-1).tobytes() == rows.tobytes()
        assert ig.residual_check(spec, taus).hex() == residual.hex()


@pytest.mark.parametrize("spec", [SPEC3, SPEC2, ig.GeodesicSpec3D(0.3, 0.7, 2.0, 1.3, 4.0)],
                         ids=["3d", "2d", "3d-off-unit"])
def test_ratio_closed_form_derivative_is_the_derivative_of_the_chart(spec):
    # y' against a central difference of y, so the residual's y' is the
    # derivative of the y it is tested at; far out, where sech s underflows,
    # l_1 = log sech s is still log 2 - s
    s = np.linspace(-3.0, 6.0, 91)
    h = 1e-5
    _, dy = _stacked_chart(spec, s)
    diff = (_stacked_chart(spec, s + h)[0] - _stacked_chart(spec, s - h)[0]) / (2.0 * h)
    assert np.abs(diff - dy).max() < 1e-9
    assert _stacked_chart(spec, 1e3)[0][1] == math.log(2.0) - 1e3


_LOG_SCALE = st.floats(-230.0, 230.0)   # e^-230 to e^230, about 1e-100 to 1e100


def _pair(mu0, log_sigma0, log_sigma0_prime, log_lam, log_lambda_f):
    spec = ig.GeodesicSpec3D(mu0, math.exp(log_sigma0), math.exp(log_sigma0_prime),
                             math.exp(log_lam), math.exp(log_lambda_f))
    return spec, ig.GeodesicSpec2D.from_3d(spec)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mu0=st.one_of(st.sampled_from([0.0, -0.0, 1e308, -1e308]), st.floats(-1e6, 1e6)),
       log_sigma0=_LOG_SCALE, log_sigma0_prime=_LOG_SCALE, log_lam=_LOG_SCALE,
       log_lambda_f=_LOG_SCALE)
@example(mu0=-0.0, log_sigma0=0.0, log_sigma0_prime=0.0, log_lam=0.0, log_lambda_f=0.0)
@example(mu0=1e308, log_sigma0=-230.0, log_sigma0_prime=230.0, log_lam=230.0, log_lambda_f=230.0)
def test_a_run_starts_where_the_closed_forms_do_bit_for_bit(mu0, log_sigma0, log_sigma0_prime,
                                                            log_lam, log_lambda_f):
    # the run reads its start off the spec: y0 = (0, ..., 0, log span, 0,
    # -lambda_f / rate, ...) is the chart's closed form at s = 0 with +0 (a
    # -0.0 would print as -0 in a step-sampled trajectory CSV), and the state
    # it maps y0 back to is closed_form's at tau = 0, mu0 = -0.0 and +-1e308
    # included; rk is replaced by a run that stops at its start
    started = []

    def start_only(rhs, y0, tau_max, tol, sample_taus, rate):
        started.append(y0)
        return np.zeros(1), np.array([y0]), dict(n_steps=0, complete=False, abort_reason="start")
    for spec in _pair(mu0, log_sigma0, log_sigma0_prime, log_lam, log_lambda_f):
        with mock.patch.object(ig.geodesics, "_sampled_run", start_only), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = ig.integrate_geodesic(spec, 1.0)
        y0, _ = _stacked_chart(spec, 0.0)
        assert np.array(started.pop()).tobytes() == y0.tobytes()
        assert traj.states[0].tobytes() == ig.closed_form(spec, 0.0)[0].tobytes()


_LOG2_SCALE = st.floats(-1074.0, 1023.99)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(log2_sigma0=_LOG2_SCALE, log2_lam=_LOG2_SCALE, three=st.booleans())
@example(log2_sigma0=math.log2(1e-100), log2_lam=math.log2(1.5e308), three=True)
@example(log2_sigma0=math.log2(0.7), log2_lam=math.log2(1.79e308), three=True)
@example(log2_sigma0=math.log2(0.75), log2_lam=math.log2(1.79e308), three=True)
@example(log2_sigma0=math.log2(1e200), log2_lam=0.0, three=False)
def test_a_spec_is_refused_exactly_where_the_initial_mean_velocity_overflows(log2_sigma0,
                                                                             log2_lam, three):
    # mu'(0) = (rate * span) * sigma0, the mean's velocity ratio times its
    # scale: a spec is a DomainError naming its lambda field and sigma0
    # exactly where that product leaves the double range, and the closed
    # form's mean velocity of every other spec is finite at tau = 0 and a
    # number where sech^2 underflows, without a warning
    sigma0, lam = 2.0**log2_sigma0, 2.0**log2_lam
    assume(sigma0 > 0.0 and lam > 0.0)
    cls, key, span = ((ig.GeodesicSpec3D, "lambda_plus_prime", math.sqrt(2.0)) if three
                      else (ig.GeodesicSpec2D, "lambda_plus", 2.0))
    args = (0.0, sigma0, 1.0, lam, 1.0) if three else (0.0, sigma0, lam)
    if not math.isfinite(sigma0 * lam * span * sigma0):
        message = f"{key} = {lam!r} with sigma0 = {sigma0!r} overflows the initial mean velocity"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            cls(*args)
        return
    spec = cls(*args)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, vel = ig.closed_form(spec, 0.0)
        assert math.isfinite(vel[0]) and vel[0] == sigma0 * lam * span * sigma0
        if spec.rate > 0.0 and 800.0 / spec.rate < math.inf:
            _, vel = ig.closed_form(spec, 800.0 / spec.rate)
            assert vel[0] == 0.0


def _drift(speeds):
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.abs(speeds - speeds[0]).max() / speeds[0])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(log_sigma0=_LOG_SCALE, log_sigma0_prime=_LOG_SCALE, log_lam=_LOG_SCALE,
       log_lambda_f=_LOG_SCALE, rate_tau=st.floats(0.5, 50.0))
@example(log_sigma0=0.0, log_sigma0_prime=0.0, log_lam=0.0, log_lambda_f=math.log(1e154),
         rate_tau=10.0)
@example(log_sigma0=math.log(1e-200), log_sigma0_prime=0.0, log_lam=0.0, log_lambda_f=0.0,
         rate_tau=10.0)
@example(log_sigma0=math.log(1e-160), log_sigma0_prime=0.0, log_lam=0.0, log_lambda_f=0.0,
         rate_tau=20.0)
def test_the_scaled_speed_drift_is_the_drift_of_the_speeds(log_sigma0, log_sigma0_prime,
                                                          log_lam, log_lambda_f, rate_tau):
    # the ratios divided by a power of two before squaring: wherever speeds()
    # loses nothing to the double range (each c_i rho_i^2 finite, and normal
    # unless rho_i is 0) the drift is its drift bit for bit; elsewhere, past
    # the double range (lambda_f = 1e154) or among the subnormals (the 2D
    # squares at sigma0 = 1e-160 and 1e-200), it is still a number, and a
    # geodesic's drift passes the 1e-6 bound
    for spec in _pair(0.0, log_sigma0, log_sigma0_prime, log_lam, log_lambda_f):
        tau_max = rate_tau / spec.rate
        traj = ig.integrate_geodesic(spec, tau_max, sample_taus=np.linspace(0.0, tau_max, 101))
        with np.errstate(over="ignore", under="ignore"):
            squares = np.multiply(spec.model.weights, np.square(traj.ratios))
        lossless = np.all(np.isfinite(squares)
                          & ((squares >= np.finfo(float).tiny) | (traj.ratios == 0.0)))
        drift = traj.speed_drift()
        if lossless:
            assert drift.hex() == _drift(traj.speeds()).hex()
        assert 0.0 <= drift < 1e-6


def test_residual_separates_the_two_spans(monkeypatch):
    # the span-2 mean path does not solve the 3D system (residual sech^2 s in
    # r_1'): m and m' scaled from span sqrt(2) to 2, h = log r_0 shifted by
    # the log of that factor (h' = -tanh s is span-free)
    scale = ig.MU_SPAN_WIDE / MODEL_3D.mean_span
    exact = ig.geodesics._ratio_columns

    def wide(spec, s):
        y, dy = exact(spec, s)
        y[0] = y[0] * scale
        dy[0] = dy[0] * scale
        y[spec.model.dimension] = y[spec.model.dimension] + math.log(scale)
        return y, dy
    monkeypatch.setattr(ig.geodesics, "_ratio_columns", wide)
    grid = np.linspace(0.0, 3.0, 30)
    assert ig.residual_check(SPEC3, grid) > 0.1


def test_residual_of_time_translates():
    # in coordinates, against the contracted Christoffel symbols: the closed
    # form's central-difference acceleration, shifted by 0.8
    grid = np.linspace(0.0, 5.0, 40)
    worst = 0.0
    for tau in grid:
        theta, vel = ig.closed_form_3d(SPEC3, tau + 0.8)
        _, vel_p = ig.closed_form_3d(SPEC3, tau + 1e-5 + 0.8)
        _, vel_m = ig.closed_form_3d(SPEC3, tau - 1e-5 + 0.8)
        acc_fd = (vel_p - vel_m) / 2e-5
        worst = max(worst, np.abs(acc_fd - _acceleration(theta, vel)).max())
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# numeric integration
# ---------------------------------------------------------------------------

def test_integration_tracks_closed_form_3d():
    grid = np.linspace(0.0, 10.0, 501)
    traj = ig.integrate_geodesic(SPEC3, 10.0, tol=1e-10, sample_taus=grid)
    ref_theta, ref_vel = ig.closed_form_3d(SPEC3, grid)
    assert np.abs(traj.states - ref_theta).max() < 1e-8
    assert np.abs(traj.velocities - ref_vel).max() < 1e-8


def test_integration_tracks_closed_form_2d():
    grid = np.linspace(0.0, 10.0, 501)
    traj = ig.integrate_geodesic(SPEC2, 10.0, tol=1e-10, sample_taus=grid)
    ref_theta, _ = ig.closed_form_2d(SPEC2, grid)
    assert np.abs(traj.states - ref_theta).max() < 1e-8


def test_speed_is_conserved():
    for spec in (SPEC3, SPEC2):
        traj = ig.integrate_geodesic(spec, 10.0, tol=1e-10)
        speeds = traj.speeds()
        assert np.abs(speeds - speeds[0]).max() / speeds[0] < 1e-6


def test_speeds_match_the_per_sample_formula():
    for spec in (SPEC3, SPEC2):
        traj = ig.integrate_geodesic(spec, 10.0, tol=1e-10, sample_taus=np.linspace(0, 10, 201))
        ref = np.array([spec.model.speed(th, v) for th, v in zip(traj.states, traj.velocities)])
        np.testing.assert_allclose(traj.speeds(), ref, rtol=1e-15, atol=0)


def test_initial_speed_value():
    theta, vel = ig.closed_form_3d(SPEC3, 0.0)
    expected = (2.0 * SPEC3.lambda_plus_prime**2 * SPEC3.sigma0**2
                + 2.0 * SPEC3.lambda_f**2)
    assert MODEL_3D.speed(theta, vel) == pytest.approx(expected, rel=1e-12)


def test_tightening_tolerance_improves_tracking():
    grid = np.linspace(0.0, 10.0, 101)
    devs = []
    for tol in (1e-7, 1e-10):
        traj = ig.integrate_geodesic(SPEC3, 10.0, tol=tol, sample_taus=grid)
        ref, _ = ig.closed_form_3d(SPEC3, grid)
        devs.append(np.abs(traj.states - ref).max())
    assert devs[0] > 4.0 * devs[1]


def test_tolerance_domain():
    with pytest.raises(DomainError):
        ig.integrate_geodesic(SPEC3, 1.0, tol=1e-3)
    with pytest.raises(DomainError):
        ig.integrate_geodesic(SPEC3, 1.0, tol=1e-15)
    # the user's tol is checked before rk gets tol / 8, so the ends both run
    for tol in (1e-13, 1e-6):
        assert ig.integrate_geodesic(SPEC3, 1.0, tol=tol).complete


def test_scales_near_the_smallest_double_keep_their_relative_accuracy():
    # sigma_y from 1e-295 to 2e-304, down among the smallest normal doubles
    spec = ig.GeodesicSpec3D(0.0, 1.0, 1e-295, 1.0, 2.0)
    grid = np.linspace(0.0, 10.0, 101)
    traj = ig.integrate_geodesic(spec, 10.0, tol=1e-10, sample_taus=grid)
    ref, _ = ig.closed_form(spec, grid)
    assert traj.complete
    np.testing.assert_allclose(traj.states[:, 1:], ref[:, 1:], rtol=1e-9, atol=0)


def test_sigma_y_keeps_its_relative_accuracy_far_below_tol():
    # lambda_f = 15 to tau = 40: sigma_y falls to e^-600 = 2.7e-261, far
    # below the absolute tolerance, and its log matches the closed form's
    spec = ig.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, 15.0)
    grid = np.linspace(0.0, 40.0, 401)
    traj = ig.integrate_geodesic(spec, 40.0, tol=1e-10, sample_taus=grid)
    ref, _ = ig.closed_form(spec, grid)
    assert traj.complete
    assert np.abs(np.log(traj.states[:, 2]) - np.log(ref[:, 2])).max() < 1e-9


def test_step_count_does_not_grow_with_lambda_f():
    # the flat ratio is constant and its log-scale linear, so the steps are
    # set by the (mu, sigma) plane: 126 to tau = 40 at lambda_f = 0.5, and
    # within a few of that where sigma_y underflows to 0; the speed, from
    # the ratios, stays a number there
    def run(lambda_f):
        return ig.integrate_geodesic(ig.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, lambda_f), 40.0)
    base = run(0.5).n_steps
    for lambda_f in (15.0, 1e5, 1e150):
        traj = run(lambda_f)
        assert traj.complete and abs(traj.n_steps - base) <= 5
        assert np.all(np.isfinite(traj.speeds()))


def test_a_run_to_rate_tau_1e4_takes_at_most_150_steps():
    # r_0 = span sech s is carried as its log, so it does not sit at the
    # absolute tolerance past s ~ 24, where DP5's stability on r_0' ~ -r_0
    # held the step near 3.3 (3,202 and 3,219 steps to 1e4)
    for spec in (SPEC3, SPEC2):
        traj = ig.integrate_geodesic(spec, 1e4 / spec.rate)
        assert traj.complete and traj.n_steps <= 150


def test_mean_velocity_keeps_its_relative_accuracy():
    # mu' = span lam sigma^2 falls to e^-100 of its start by rate * tau = 50;
    # it is the product of two ratios the run carries in logs, so it stays
    # within 1e-8 of the closed form's (12x off at rate * tau = 30 when the
    # run carried r_0 itself)
    for spec in (SPEC3, SPEC2):
        grid = np.linspace(0.0, 50.0, 501) / spec.rate
        traj = ig.integrate_geodesic(spec, grid[-1], sample_taus=grid)
        _, ref = ig.closed_form(spec, grid)
        np.testing.assert_allclose(traj.velocities[:, 0], ref[:, 0], rtol=1e-8, atol=0)


_ENTRY_POINTS = {
    "geodesic": lambda taus, tau_max: ig.integrate_geodesic(SPEC3, tau_max, sample_taus=taus),
    "jlc": lambda taus, tau_max: ig.integrate_jlc(SPEC2, tau_max=tau_max, sample_taus=taus),
    "exact_jacobi": lambda taus, tau_max: ig.exact_jacobi(SPEC3, taus),
}
_BAD_TIMES = {"repeat": [0.0, 0.0, 1.0], "decrease": [0.0, 2.0, 1.0], "negative": [-400.0, 1.0],
              "nan": [0.0, math.nan, 1.0], "inf": [0.0, 1.0, math.inf], "-inf": [-math.inf, 1.0]}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", _ENTRY_POINTS)
@pytest.mark.parametrize("case", _BAD_TIMES)
def test_sample_times_are_checked_where_they_enter(entry, case):
    # one DomainError and no warning: the exact field gave log intensity
    # +inf at tau = -400, nan at NaN and warned at inf; the rk routes
    # dropped a NaN sample, and rk raised its own ValueError at -400
    with pytest.raises(DomainError, match="sample times"):
        _ENTRY_POINTS[entry](np.array(_BAD_TIMES[case]), 2.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", ["geodesic", "jlc"])
@pytest.mark.parametrize("taus, tau_max, message", [
    # a sample past tau_max was dropped from a run reported complete
    ([0.0, 1.0, 2.5], 2.0, "sample times"),
    # rk's "t_span must satisfy t1 > t0", and a run aborted on a step underflow
    (None, math.nan, "tau_max"), (None, math.inf, "tau_max"),
    (None, 0.0, "tau_max"), (None, -1.0, "tau_max"),
])
def test_rk_routes_refuse_samples_past_their_end_and_a_bad_end(entry, taus, tau_max, message):
    with pytest.raises(DomainError, match=message):
        _ENTRY_POINTS[entry](taus, tau_max)


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_a_scalar_sample_time_is_one_sample(entry):
    # the exact field raised numpy's ValueError on a 0-d time
    traj = _ENTRY_POINTS[entry](1.5, 2.0)
    assert traj.complete and np.array_equal(traj.taus, [1.5])


def test_csv_export_roundtrip():
    grid = np.linspace(0.0, 2.0, 9)
    traj = ig.integrate_geodesic(SPEC3, 2.0, tol=1e-10, sample_taus=grid)
    text = ig.trajectory_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0].startswith("#") and "schema=1" in lines[0]
    assert lines[1] == "tau,mu_x,sigma_x,sigma_y,dmu_x,dsigma_x,dsigma_y"
    parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    np.testing.assert_allclose(parsed[:, 0], grid, atol=1e-15)
    np.testing.assert_allclose(parsed[:, 1:4], traj.states, rtol=1e-15)
