"""Jacobi field dynamics: assembled coefficients, integration, exponents."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import infogeo as ig
from infogeo import jacobi
from infogeo.errors import DomainError
from infogeo.models import MODEL_2D, MODEL_3D

SPEC3 = ig.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, 1.0)
SPEC2 = ig.GeodesicSpec2D.from_3d(SPEC3)
SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# assembled coefficient structure
# ---------------------------------------------------------------------------

def test_third_component_decouples():
    # the sigma_y direction is a flat product factor: no coupling either way
    for tau in (0.0, 0.5, 2.0, 10.0):
        theta, vel = ig.closed_form_3d(SPEC3, tau)
        B, C = ig.jlc_coefficients(theta, vel)
        assert B[2, 0] == B[2, 1] == 0.0
        assert C[2, 0] == C[2, 1] == 0.0
        assert B[0, 2] == B[1, 2] == 0.0
        assert C[0, 2] == C[1, 2] == 0.0


def test_zero_state_gives_zero_acceleration():
    theta, vel = ig.closed_form_3d(SPEC3, 1.0)
    B, C = ig.jlc_coefficients(theta, vel)
    acc = -(B @ np.zeros(3) + C @ np.zeros(3))
    np.testing.assert_allclose(acc, np.zeros(3), atol=0)


def test_second_component_coefficients_approach_limit():
    # coefficients of (J2', J2) in the J2 equation approach (2 L, L^2)
    L = SPEC3.rate
    tau = 20.0 / L
    theta, vel = ig.closed_form_3d(SPEC3, tau)
    B, C = ig.jlc_coefficients(theta, vel)
    assert B[1, 1] == pytest.approx(2.0 * L, abs=1e-8)
    assert C[1, 1] == pytest.approx(L**2, abs=1e-8)


def test_first_component_has_no_self_coupling():
    # mean translation is a Killing direction of both metrics, so J1 = const
    # solves the full equation exactly: the assembled J1 coefficient is
    # identically zero at ANY state (the decaying self-coupling terms seen in
    # partially truncated expansions cancel here).
    for tau in (0.3, 2.0, 12.0):
        theta, vel = ig.closed_form_3d(SPEC3, tau)
        B, C = ig.jlc_coefficients(theta, vel)
        assert abs(C[0, 0]) < 1e-14
        theta, vel = ig.closed_form_2d(SPEC2, tau)
        B, C = ig.jlc_coefficients(theta, vel)
        assert abs(C[0, 0]) < 1e-14


def test_first_component_cross_coefficients_along_exact_geodesic():
    # along the exact family (mean span sqrt 2): B[0,0] -> 2L,
    # B[0,1] ~ -4 sqrt(2) L e^(-L tau), C[0,1] ~ -4 sqrt(2) L^2 e^(-L tau)
    L = SPEC3.rate
    for tau in (12.0, 16.0):
        theta, vel = ig.closed_form_3d(SPEC3, tau)
        B, C = ig.jlc_coefficients(theta, vel)
        assert B[0, 0] == pytest.approx(2.0 * L, abs=1e-6)
        assert B[0, 1] * math.exp(L * tau) == pytest.approx(-4.0 * SQRT2 * L, rel=1e-4)
        assert C[0, 1] * math.exp(L * tau) == pytest.approx(-4.0 * SQRT2 * L**2, rel=1e-4)


def test_first_component_coefficients_along_wide_span_path():
    # evaluated on span-2 mean states the cross terms widen to
    # -8 L e^(-L tau) and -8 L^2 e^(-L tau); the self-coupling still
    # vanishes identically (it cancels for any state, not just on the
    # exact path, because the assembly uses the geodesic acceleration)
    L = SPEC3.rate
    for tau in (12.0, 16.0):
        theta, vel = ig.closed_form_3d(SPEC3, tau, mu_span=ig.MU_SPAN_WIDE)
        B, C = ig.jlc_coefficients(theta, vel)
        assert abs(C[0, 0]) < 1e-14
        assert B[0, 1] * math.exp(L * tau) == pytest.approx(-8.0 * L, rel=1e-4)
        assert C[0, 1] * math.exp(L * tau) == pytest.approx(-8.0 * L**2, rel=1e-4)


def test_2d_cross_coefficients():
    # 2D exact geodesic: B[0,1] ~ -8 L e^(-L tau) and the J1' coupling into
    # the J2 equation is +2 L e^(-L tau); the J2 sector tends to (2L, L^2)
    L = SPEC2.rate
    tau = 14.0 / L
    theta, vel = ig.closed_form_2d(SPEC2, tau)
    B, C = ig.jlc_coefficients(theta, vel)
    assert B[0, 1] * math.exp(L * tau) == pytest.approx(-8.0 * L, rel=1e-4)
    assert B[1, 0] * math.exp(L * tau) == pytest.approx(2.0 * L, rel=1e-4)
    assert B[1, 1] == pytest.approx(2.0 * L, abs=1e-5)
    assert C[1, 1] == pytest.approx(L**2, abs=1e-5)


def _textbook_coefficients(model, theta, vel):
    # the sigma-space assembly: unit Gamma divided by the scale of its upper
    # index, unit d Gamma and R by its square, theta'' from the model
    gam_u, dgam_u, riem_u = model._unit_tensors
    s = model.scales(theta)
    gam = gam_u / s[:, None, None]
    dgam, riem = (t / (s * s)[:, None, None, None] for t in (dgam_u, riem_u))
    acc = model.acceleration(theta, vel)
    B = 2.0 * np.einsum("mab,b->ma", gam, vel)
    C = (np.einsum("mab,b->ma", gam, acc)
         + np.einsum("mnab,n,b->ma", dgam, vel, vel)
         + np.einsum("mrb,ras,s,b->ma", gam, gam, vel, vel)
         + np.einsum("mnal,n,l->ma", riem, vel, vel))
    return B, C


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mu=st.floats(-5.0, 5.0), log_scales=st.tuples(*[st.floats(-140.0, 2.0)] * 2),
       rho=st.tuples(*[st.floats(-2.0, 2.0)] * 3), three=st.booleans())
def test_coefficients_match_textbook_assembly(mu, log_scales, rho, three):
    # the constant-tensor route equals the sigma-space assembly for any
    # state with sigma in [1e-140, 1e2], and the Killing entry is exactly 0
    model = MODEL_3D if three else MODEL_2D
    n = model.dimension
    theta = np.array([mu, *(10.0 ** np.array(log_scales))])[:n]
    vel = np.array(rho[:n]) * model.scales(theta)
    B, C = ig.jlc_coefficients(theta, vel)
    B_ref, C_ref = _textbook_coefficients(model, theta, vel)
    assert np.abs(B - B_ref).max() <= 1e-14 * np.abs(B_ref).max()
    assert np.abs(C - C_ref).max() <= 1e-14 * np.abs(C_ref).max()
    assert C[0, 0] == 0.0


def _ratio_rates(model, rho):
    # rho' from the geodesic equation itself, not from the ratio tensor:
    # rho_a' = theta''_a / sigma_k(a) - rho_a rho_k(a), and theta''_a / sigma_k(a)
    # is the acceleration at unit scales (each unit entry involves one scale)
    return model.acceleration(np.ones(model.dimension), rho) - rho * model.scales(rho)


def _tail_term_by_term(model, rho, K, Kd):
    # K'' of the scaled field K = J / sigma_k, term by term: J = S K with
    # S = diag(sigma scales) and r = S'/S the log-rates of the scales
    rho_dot = _ratio_rates(model, rho)
    r, r_dot = model.scales(rho), model.scales(rho_dot)
    B, C = model.jacobi_coefficients(rho)
    rK = r * K
    return -(B @ (Kd + rK) + C @ K + r * (2.0 * Kd + rK) + r_dot * K)


def _system_term_by_term(model, rho, K, Kd):
    # every row of the scaled state's derivative but the mean's, term by term:
    # (log sigma_j)' = rho_j, rho' from the geodesic equation, K' and the tail
    return np.concatenate([rho[1:], _ratio_rates(model, rho), Kd,
                           _tail_term_by_term(model, rho, K, Kd)])


def _system_error(model, system, rho, K, Kd):
    """max |T rho_hat rho_hat z - term-by-term rows| over every row but the
    mean's, per unit of max|rho_hat|^2 max|z|, the size of the largest term
    (T's entries are O(1)); z = (1, K, K')."""
    rho_hat, z = np.concatenate([[1.0], rho]), np.concatenate([[1.0], K, Kd])
    dy = system @ rho_hat @ rho_hat @ z
    err = np.abs(dy[1:] - _system_term_by_term(model, rho, K, Kd)).max()
    return err / (np.abs(rho_hat).max() ** 2 * np.abs(z).max())


_decades = st.floats(-6.0, 2.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(log_rho=st.tuples(*[_decades] * 3), signs=st.tuples(*[st.booleans()] * 3),
       data=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), three=st.booleans())
def test_tail_tensor_matches_the_term_by_term_tail(log_rho, signs, data, three):
    # |rho_i| in [1e-6, 1e2]: the one contraction of the system tensor equals
    # the rows built from rho, rho' from the geodesic equation, K' and the tail of the
    # Jacobi coefficients; the mean's row is left 0 for the caller
    model = MODEL_3D if three else MODEL_2D
    n = model.dimension
    rho = np.array([(-1.0 if s else 1.0) * 10.0**e for s, e in zip(signs, log_rho)])[:n]
    K, Kd = np.array(data[:n]), np.array(data[3:3 + n])
    assert _system_error(model, model.jacobi_system, rho, K, Kd) <= 1e-14
    assert not model.jacobi_system[0].any()


def test_a_perturbed_tail_block_fails_the_property():
    # each block of T (index 0 of z and of rho_hat is the constant 1) changed
    # by 1e-7, in each row block (log sigma, rho, K, K'), moves the
    # contraction far past the 1e-14 bound
    for model in (MODEL_3D, MODEL_2D):
        n = model.dimension
        rho = np.array([0.7, 1.3, 0.4])[:n]
        K, Kd = np.array([0.9, 0.5, 0.2])[:n], np.array([0.3, 0.8, 0.6])[:n]
        assert _system_error(model, model.jacobi_system, rho, K, Kd) <= 1e-14
        for rows in (slice(1, n), slice(n, 2 * n), slice(2 * n, 3 * n), slice(3 * n, 4 * n)):
            for field in (slice(0, 1), slice(1, n + 1), slice(n + 1, 2 * n + 1)):
                for first in (slice(0, 1), slice(1, n + 1)):
                    for second in (slice(0, 1), slice(1, n + 1)):
                        mutant = model.jacobi_system.copy()
                        mutant[rows, field, first, second] += 1e-7
                        assert _system_error(model, mutant, rho, K, Kd) > 1e-9


def _dot_jlc_rhs(model):
    # the reshape-dot contraction the Jacobi RHS used before it summed
    # nonzero terms, kept as the reference
    dim = model.dimension
    n_geo = 2 * dim
    system = model.jacobi_system.reshape(-1, dim + 1)
    rho_hat, z = np.ones(dim + 1), np.ones(n_geo + 1)
    k0 = model.scale_map[0]
    r0, jm, jmd = dim + k0, n_geo, n_geo + dim

    def rhs(t, y):
        s, r = math.exp(y[k0]), y[r0]
        K0 = y[jm] / s
        K0d = y[jmd] / s - r * K0
        rho_hat[1:] = y[dim:n_geo]
        z[1:] = y[n_geo:]
        z[1], z[1 + dim] = K0, K0d
        dy = system.dot(rho_hat).reshape(-1, dim + 1).dot(rho_hat).reshape(4 * dim, -1).dot(z)
        dy[0] = y[dim] * s
        dy[jm] = y[jmd]
        dy[jmd] = r * y[jmd] + s * (dy[jmd] + dy[r0] * K0 + r * K0d)
        return dy
    return rhs


def _jlc_term_scale(model, y):
    """Per row of the Jacobi RHS, the sum of its terms' magnitudes."""
    n = model.dimension
    k0 = model.scale_map[0]
    r0, jm, jmd = n + k0, 2 * n, 3 * n
    s, r = math.exp(y[k0]), y[r0]
    K0 = y[jm] / s
    K0d = y[jmd] / s - r * K0
    rho_hat = np.abs(np.concatenate([[1.0], y[n:2 * n]]))
    z = np.abs(np.concatenate([[1.0], y[2 * n:]]))
    z[1], z[1 + n] = abs(K0), abs(K0d)
    scale = np.abs(model.jacobi_system) @ rho_hat @ rho_hat @ z
    scale[0] = abs(y[n] * s)
    scale[jm] = abs(y[jmd])
    scale[jmd] = abs(r * y[jmd]) + s * (scale[jmd] + scale[r0] * abs(K0) + abs(r * K0d))
    return scale


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mu=st.floats(-5.0, 5.0), log_scales=st.tuples(*[st.floats(-140.0, 2.0)] * 2),
       rho=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
       data=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), three=st.booleans())
def test_jlc_rhs_matches_the_dot_contraction(mu, log_scales, rho, data, three):
    # the draws of test_coefficients_match_textbook_assembly, sigma in
    # [1e-140, 1e2], with the field's slots from those of the tail test;
    # each row within 1e-15 of the sum of its terms' magnitudes
    model = MODEL_3D if three else MODEL_2D
    n = model.dimension
    log_sigma = np.log(10.0) * np.array(log_scales[:n - 1])
    y = np.concatenate([[mu], log_sigma, rho[:n], data[:n], data[3:3 + n]])
    err = np.abs(jacobi._jlc_rhs(model)(0.0, y) - _dot_jlc_rhs(model)(0.0, y))
    assert np.all(err <= 1e-15 * _jlc_term_scale(model, y))


@pytest.mark.parametrize("model", [MODEL_3D, MODEL_2D], ids=lambda m: m.label)
def test_jlc_rhs_below_the_exp_range_is_non_finite(model):
    # at log sigma_k(0) = -800 exp gives 0: the dot route divided J^mu by it
    # in numpy (under the np.errstate of rk.integrate), giving inf or nan,
    # and so must the term route, without raising
    n = model.dimension
    y = np.concatenate([[0.0], [-800.0] * (n - 1), [0.5] * n, [0.3] * (2 * n)])
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.isfinite(_dot_jlc_rhs(model)(0.0, y)).all()
    dy = jacobi._jlc_rhs(model)(0.0, y)
    assert not np.isfinite(dy).all()
    assert not np.isfinite(dy[3 * n])   # J^mu'' of the mean slot


# ---------------------------------------------------------------------------
# intensity
# ---------------------------------------------------------------------------

def test_intensity_values():
    assert ig.intensity([0.0, 1.0, 1.0], [0.0, 0.0, 0.0]) == 0.0
    assert ig.intensity([0.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == pytest.approx(
        math.sqrt(5.0), rel=1e-14)
    assert ig.intensity([0.0, 2.0], [2.0, 1.0]) == pytest.approx(
        math.sqrt(8.0) / 2.0, rel=1e-14)


def test_intensity_is_metric_norm():
    rng = np.random.default_rng(404)
    for _ in range(20):
        p = ig.ParameterPoint3D(rng.uniform(-1, 1), rng.uniform(0.3, 2),
                                rng.uniform(0.3, 2))
        J = rng.normal(size=3)
        direct = ig.intensity(p.as_array(), J)
        norm = math.sqrt(J @ ig.metric_3d(p).components @ J)
        assert direct == pytest.approx(norm, rel=1e-12)


def test_intensities_match_the_per_sample_formula():
    for spec in (SPEC3, SPEC2):
        tau_max = 20.0 / spec.rate
        traj = ig.integrate_jlc(spec, tau_max=tau_max, sample_taus=np.linspace(0, tau_max, 101))
        ref = np.array([ig.intensity(th, j) for th, j in zip(traj.states, traj.J)])
        np.testing.assert_allclose(traj.intensities(), ref, rtol=1e-15, atol=0)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_third_component_is_critically_damped():
    lam = SPEC3.lambda_f
    traj = ig.integrate_jlc(SPEC3, initial_J=(0.0, 0.0, 1.0),
                            initial_J_dot=(0.0, 0.0, 0.0), tau_max=10.0)
    ref = ig.critically_damped(lam, 1.0, lam, traj.taus)
    assert np.abs(traj.J[:, 2] - ref).max() < 1e-8


def _killing_error(spec, tau_max, samples):
    # J = (1, 0, ...), J' = 0 is the Killing mode d/dmu: it solves the full
    # system exactly, and its mean slot carries J^mu itself, a constant
    n = spec.model.dimension
    unit = np.eye(n)[0]
    traj = ig.integrate_jlc(spec, initial_J=unit, initial_J_dot=np.zeros(n), tau_max=tau_max,
                            sample_taus=np.linspace(0.0, tau_max, samples))
    return float(np.abs(traj.J - unit).max())


def test_translation_mode_is_exactly_constant():
    # the trajectory stays at its initial value up to solver noise
    for spec in (SPEC3, SPEC2):
        assert _killing_error(spec, 50.0, 501) < 1e-10


_log_uniform = st.floats(-1.0, 1.0).map(lambda e: 2.0**e)


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(mu0=st.floats(-1.0, 1.0), log_sigma0=st.floats(-3.0, 3.0),
       sigma0_prime=st.floats(0.5, 2.0), lam=_log_uniform, lam_f=_log_uniform)
def test_killing_mode_is_exact_over_the_sweep_ranges(mu0, log_sigma0, sigma0_prime, lam, lam_f):
    # the softening sweep's parameters (sigma0 in [1/8, 8] covers its
    # sigma0 / 2 and 2 sigma0 points), both models, out to the exponent
    # horizon on its 401 samples
    spec = ig.GeodesicSpec3D(mu0, 2.0**log_sigma0, sigma0_prime, lam, lam_f)
    for s in (spec, ig.GeodesicSpec2D.from_3d(spec)):
        assert _killing_error(s, ig.EXPONENT_WINDOW[1] / s.rate, 401) < 1e-10


def test_first_component_plateaus():
    # generic initial data: J1 approaches a constant through a decaying
    # transient (constant + decaying structure of the asymptotic form)
    traj = ig.integrate_jlc(SPEC3, tau_max=50.0,
                            sample_taus=np.linspace(0.0, 50.0, 501))
    tail = traj.J[traj.taus >= 30.0, 0]
    c1 = tail[-1]
    assert abs(c1) > 0.1
    assert np.abs(tail - c1).max() / abs(c1) < 1e-8

    def distance(tau):
        return abs(traj.J[np.argmin(np.abs(traj.taus - tau)), 0] - c1)
    assert distance(2.0) > 50.0 * distance(8.0)
    assert distance(8.0) > 1e-8  # still above the noise floor, genuinely decaying


def test_second_component_secular_structure():
    # J2 ~ (c1 + c2 tau) e^(-L tau) with a nonvanishing secular part
    traj = ig.integrate_jlc(SPEC2, tau_max=30.0,
                            sample_taus=np.linspace(0.0, 30.0, 601))
    consts, residuals = ig.extract_constants(traj, window=(8.0, 18.0))
    assert residuals[1] < 1e-6
    L = SPEC2.rate
    mask = traj.window_mask((10.0, 18.0))
    secular = traj.J[mask, 1] * np.exp(L * traj.taus[mask]) / traj.taus[mask]
    assert abs(consts.C[1, 1]) > 0.1
    np.testing.assert_allclose(secular, consts.C[1, 1], rtol=0.15)


def test_linearity_of_the_flow():
    grid = np.linspace(0.0, 10.0, 51)
    u = ig.integrate_jlc(SPEC3, initial_J=(1.0, 0.0, 0.0), tau_max=10.0,
                         tol=1e-11, sample_taus=grid)
    v = ig.integrate_jlc(SPEC3, initial_J=(0.0, 1.0, 1.0), tau_max=10.0,
                         tol=1e-11, sample_taus=grid)
    w = ig.integrate_jlc(SPEC3, initial_J=(2.0, -3.0, -3.0), tau_max=10.0,
                         tol=1e-11, sample_taus=grid)
    assert np.abs(2.0 * u.J - 3.0 * v.J - w.J).max() < 1e-8


_coefficient = st.floats(-2.0, 2.0)
_data = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(alpha=_coefficient, beta=_coefficient, first=_data, second=_data,
       three=st.booleans())
def test_linearity_over_random_initial_data(alpha, beta, first, second, three):
    # J(alpha J1 + beta J2) = alpha J(J1) + beta J(J2) up to the solver tolerance
    spec = SPEC3 if three else SPEC2
    n = 3 if three else 2
    grid = np.linspace(0.0, 5.0, 26)

    def run(data):
        return ig.integrate_jlc(spec, initial_J=data[:n], initial_J_dot=data[3:3 + n],
                                tau_max=5.0, tol=1e-11, sample_taus=grid).J
    j1, j2 = run(np.array(first)), run(np.array(second))
    combined = run(alpha * np.array(first) + beta * np.array(second))
    scale = 1.0 + abs(alpha) * np.abs(j1).max() + abs(beta) * np.abs(j2).max()
    assert np.abs(combined - (alpha * j1 + beta * j2)).max() <= 1e-9 * scale


def test_initial_data_validation():
    with pytest.raises(DomainError):
        ig.integrate_jlc(SPEC3, initial_J=(1.0, 0.0))
    with pytest.raises(DomainError):
        ig.integrate_jlc(SPEC3, initial_J=(math.nan, 0.0, 0.0))
    with pytest.raises(DomainError):
        ig.integrate_jlc(SPEC3, tol=1e-3)


def test_sigma_floor_truncates_jlc_run():
    # long horizons end when sigma leaves the range where the 1/sigma^2 of
    # the reported intensity is representable (rate*tau ~ 345); this always
    # precedes the defensive |J| > 1e300 truncation for bounded initial data
    # (the normalized growing mode would reach 1e300 only at rate*tau ~ 691)
    traj = ig.integrate_jlc(SPEC3, tau_max=400.0, tol=1e-6)
    assert not traj.complete
    assert "1e-150" in traj.abort_reason
    assert 340.0 < traj.taus[-1] < 350.0
    assert len(traj.taus) > 100  # partial trajectory retained


def _numpy_floor(model, y):
    # the numpy form of the stop test that the float form replaced, kept as
    # the reference; y = (mu, log sigma..., rho..., J^mu, K..., J^mu', K'...)
    n = model.dimension
    if np.any(y[1:n] <= math.log(1e-150)):
        return ("sigma coordinate fell below 1e-150; the reported "
                "intensity g(J, J) carries 1/sigma^2")
    slots, scales = y[2 * n:3 * n], np.exp(model.scales(y[:n]))
    K, J = slots.copy(), slots * scales
    K[0], J[0] = slots[0] / scales[0], slots[0]
    if np.any(np.abs(K) > jacobi.J_OVERFLOW):
        return f"normalized Jacobi component exceeded {jacobi.J_OVERFLOW:g}"
    if np.any(np.abs(J) > jacobi.J_OVERFLOW):
        return f"Jacobi component exceeded {jacobi.J_OVERFLOW:g}"
    return None


@pytest.mark.parametrize("model", [MODEL_3D, MODEL_2D], ids=["3d", "2d"])
def test_floor_reasons_at_their_boundaries(model):
    # each threshold stops the run at its boundary and not just inside it;
    # unit scales (log sigma = 0) make |K| sigma_k and J^mu / sigma_k exact
    n = model.dimension
    floor, past_1e300 = math.log(1e-150), math.nextafter(1e300, math.inf)

    def state(entries):
        y = np.zeros(4 * n)
        y[list(entries)] = list(entries.values())
        return y

    cases = []                    # (state, whether the run stops there)
    for j in range(1, n):
        cases += [(state({j: floor}), True), (state({j: math.nextafter(floor, 0.0)}), False)]
    for a in range(2 * n, 3 * n):
        k = model.scale_map[a - 2 * n]
        # the slot at the bound and sigma_k one double away from 1: above 1
        # it scales K_i up to J^i; below 1 it scales J^mu up to K_0
        nudge = -2.0**-52 if a == 2 * n else 2.0**-52
        cases += [(state({a: -past_1e300}), True), (state({a: 1e300}), False),
                  (state({a: 1e300, k: nudge}), True),
                  (state({a: 1e299, k: nudge}), False)]
    # J^mu past the bound with K_0 = J^mu / sigma_k back inside it
    k0 = model.scale_map[0]
    unnormalized = state({2 * n: past_1e300, k0: 2.0**-52})
    cases.append((unnormalized, True))
    # every threshold crossed: the sigma floor is reported first
    cases.append((state({1: floor, 2 * n: past_1e300}), True))
    for y, stops in cases:
        reason = jacobi._floor(model, y)
        assert reason == _numpy_floor(model, y)
        assert (reason is not None) == stops
    assert jacobi._floor(model, unnormalized).startswith("Jacobi component exceeded")
    assert "1e-150" in jacobi._floor(model, cases[-1][0])


# ---------------------------------------------------------------------------
# asymptotic solutions
# ---------------------------------------------------------------------------

def test_asymptotic_solution_values():
    consts = ig.JacobiConstants(lambda_decay=1.0,
                                C=np.array([[1.0, 0.5], [0.3, 0.7], [0.2, 0.4]]),
                                lambda_f=1.0)
    at0 = ig.asymptotic_solutions(consts, 0.0)
    np.testing.assert_allclose(at0, [1.5, 0.3, 0.2], rtol=1e-14)
    late = ig.asymptotic_solutions(consts, 200.0)
    np.testing.assert_allclose(late, [1.0, 0.0, 0.0], atol=1e-60)


def test_asymptotic_forms_solve_limit_equations():
    consts = ig.JacobiConstants(lambda_decay=1.3,
                                C=np.array([[1.0, 0.5], [0.3, 0.7], [0.2, 0.4]]),
                                lambda_f=0.8)
    assert ig.asymptotic_residual(consts, np.linspace(0.0, 20.0, 41)) < 1e-10


def test_full_solution_converges_to_asymptotic_forms():
    traj = ig.integrate_jlc(SPEC3, tau_max=50.0,
                            sample_taus=np.linspace(0.0, 50.0, 801))
    consts, residuals = ig.extract_constants(traj, window=(8.0, 25.0),
                                             lambda_f=SPEC3.lambda_f)
    assert max(residuals) < 1e-6
    mask = traj.window_mask((20.0, 50.0))
    ref = ig.asymptotic_solutions(consts, traj.taus[mask])
    scale = np.abs(traj.J[mask]).max(axis=0)
    assert (np.abs(traj.J[mask] - ref) / scale).max() < 1e-6


# ---------------------------------------------------------------------------
# growth exponents and the gap
# ---------------------------------------------------------------------------

def test_exponent_fits():
    jac = ig.softening_gap(SPEC3)
    assert jac.exponent_3d == pytest.approx(SPEC3.rate, rel=0.02)
    assert jac.exponent_2d == pytest.approx(SPEC2.rate, rel=0.02)
    assert jac.fit_3d.r_squared > 0.999
    assert jac.fit_2d.r_squared > 0.999


@pytest.mark.parametrize("spec", [SPEC3, SPEC2], ids=["3d", "2d"])
def test_exponents_match_an_independent_integrator(spec):
    # scipy's DOP853 on the same scaled system, with the term-by-term rows,
    # fits the same growth exponent to 1e-8 relative
    integrate = pytest.importorskip("scipy.integrate")
    model, n = spec.model, spec.model.dimension
    tau_max = ig.EXPONENT_WINDOW[1] / spec.rate
    samples = np.linspace(0.0, tau_max, 401)
    ours = ig.integrate_jlc(spec, tau_max=tau_max, sample_taus=samples)

    def rhs(t, y):
        rho, K, Kd = y[n:2 * n], y[2 * n:3 * n], y[3 * n:]
        mu_dot = rho[0] * math.exp(y[model.scale_map[0]])
        return np.concatenate([[mu_dot], _system_term_by_term(model, rho, K, Kd)])

    theta0, vel0 = ig.closed_form(spec, 0.0)
    J0, Jd0 = ig.default_initial(n)
    scales0, rho0 = model.scales(theta0), vel0 / model.scales(theta0)
    y0 = np.concatenate([theta0[:1], np.log(theta0[1:]), rho0,
                         J0 / scales0, (Jd0 - model.scales(rho0) * J0) / scales0])
    sol = integrate.solve_ivp(rhs, (0.0, tau_max), y0, method="DOP853",
                              t_eval=samples, rtol=1e-12, atol=1e-12)
    assert sol.success
    ys = sol.y.T
    states = np.concatenate([ys[:, :1], np.exp(ys[:, 1:n])], axis=1)
    scales, rho, K = model.scales(states), ys[:, n:2 * n], ys[:, 2 * n:3 * n]
    theirs = ig.JacobiTrajectory(taus=samples, states=states, velocities=rho * scales,
                                 J=scales * K, J_dot=scales * (ys[:, 3 * n:] + model.scales(rho) * K),
                                 rate=spec.rate, tolerance=1e-12, n_steps=sol.t.size)
    fit, ref = ig.exponent_fit(ours), ig.exponent_fit(theirs)
    assert fit.slope == pytest.approx(ref.slope, rel=1e-8)
    np.testing.assert_allclose(ours.J_dot, theirs.J_dot, rtol=1e-7, atol=1e-9)


def test_exponent_runs_take_few_steps():
    # no slot of the Jacobi state grows with the intensity, so the step
    # size is not held down by an exponential: about 200 steps to rate * tau = 50
    for spec in (SPEC3, SPEC2):
        assert jacobi.exponent_run(spec, ig.EXPONENT_WINDOW, 1e-10).n_steps < 230


def test_truncated_runs_are_fitted_on_their_samples():
    # the 3D run stops on the 1e-150 sigma_y floor at rate * tau = 23.6; the
    # samples it reached still fill the fit window past rate * tau = 20
    jac = ig.softening_gap(ig.GeodesicSpec3D(0.8, 0.1368, 0.6, 0.6, 1.2))
    traj = jac.trajectory_3d
    assert not traj.complete and "1e-150" in traj.abort_reason
    grid = np.linspace(0.0, ig.EXPONENT_WINDOW[1] / traj.rate, 401)
    assert np.array_equal(traj.taus, grid[:traj.taus.size])
    assert traj.window_mask(ig.EXPONENT_WINDOW).sum() >= 4
    assert jac.gap == pytest.approx(jac.expected_gap, rel=1e-6)


def test_softening_gap_value():
    jac = ig.softening_gap(SPEC3)
    expected = 1.0 - 1.0 / SQRT2
    assert jac.gap == pytest.approx(expected, rel=0.03)
    assert jac.gap > 0.0
    assert jac.expected_gap == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("sigma0,lam", [(0.5, 1.0), (2.0, 1.0), (1.0, 0.7)])
def test_gap_positive_across_parameters(sigma0, lam):
    spec = ig.GeodesicSpec3D(0.0, sigma0, 1.0, lam, 1.0)
    jac = ig.softening_gap(spec)
    assert jac.gap > 0.0
    assert jac.gap == pytest.approx(sigma0 * lam * (1.0 - 1.0 / SQRT2), rel=0.03)


def test_gap_scales_linearly_with_sigma0():
    g1 = ig.softening_gap(ig.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, 1.0)).gap
    g2 = ig.softening_gap(ig.GeodesicSpec3D(0.0, 2.0, 1.0, 1.0, 1.0)).gap
    assert g2 == pytest.approx(2.0 * g1, rel=1e-6)


def test_coupled_rates_ordering():
    assert SPEC3.rate > SPEC2.rate > 0.0


def test_exponent_window_needs_positive_intensity():
    traj = ig.integrate_jlc(SPEC3, initial_J=(0.0, 0.0, 0.0),
                            initial_J_dot=(0.0, 0.0, 0.0), tau_max=25.0,
                            sample_taus=np.linspace(0.0, 25.0, 201))
    with pytest.raises(DomainError):
        ig.exponent_fit(traj, window=(10.0, 25.0))


def test_csv_export():
    traj = ig.integrate_jlc(SPEC3, tau_max=5.0,
                            sample_taus=np.linspace(0.0, 5.0, 11))
    text = ig.jacobi_to_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "# infogeo jacobi csv schema=1"
    assert lines[1] == "tau,J1,J2,J3,intensity,log_intensity"
    assert len(lines) == 13
    # every value parses back to the exact double; the zero field's log
    # intensity is -inf
    zero = ig.integrate_jlc(SPEC3, initial_J=(0.0, 0.0, 0.0), tau_max=1.0)
    for run in (traj, zero):
        lines = ig.jacobi_to_csv(run).strip().split("\n")
        parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        inten = run.intensities()
        with np.errstate(divide="ignore"):
            expected = np.column_stack([run.taus, run.J, inten, np.log(inten)])
        assert parsed.shape == expected.shape and (parsed == expected).all()
    assert (parsed[:, -1] == -np.inf).all()
