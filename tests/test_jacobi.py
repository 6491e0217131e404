"""Jacobi field dynamics: assembled coefficients, integration, exponents."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import infogeo as ig
from infogeo import geodesics, jacobi, rk
from infogeo.errors import DomainError
from infogeo.models import MODEL_2D, MODEL_3D

SPEC3 = ig.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, 1.0)
SPEC2 = ig.GeodesicSpec2D.from_3d(SPEC3)
SQRT2 = math.sqrt(2.0)


def _pairs(specs_3d):
    """The coupled pair (3D spec, its 2D companion) of each 3D spec."""
    return [(spec, ig.GeodesicSpec2D.from_3d(spec)) for spec in specs_3d]


def _rates(pairs):
    """The rates of the pairs' specs, 3D then 2D per pair: the column order of
    the fit grids the softening fits take."""
    return np.array([spec.rate for pair in pairs for spec in pair])


def _softening(specs_3d, window=ig.EXPONENT_WINDOW):
    """The softening fits of the coupled pairs of ``specs_3d``, on their
    :func:`exponent_times` columns and window masks, 3D then 2D per pair."""
    pairs = _pairs(specs_3d)
    rates = _rates(pairs)
    taus = jacobi.exponent_times(rates, window)
    return jacobi.softening_gap(pairs, taus, jacobi.window_mask(taus, rates, window))


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
    # index, unit d Gamma and R by its square, theta'' = -Gamma v v; all in
    # np.longdouble (80-bit on x86), where a velocity near 1e-157 squares to
    # a normal number, not to a subnormal double, then rounded to double
    gam_u, dgam_u, riem_u = (t.astype(np.longdouble) for t in model._unit_tensors)
    theta, vel = np.asarray(theta, np.longdouble), np.asarray(vel, np.longdouble)
    s = model.scales(theta).astype(np.longdouble)
    gam = gam_u / s[:, None, None]
    dgam, riem = (t / (s * s)[:, None, None, None] for t in (dgam_u, riem_u))
    acc = -np.einsum("mab,a,b->m", gam, vel, vel)
    B = 2.0 * np.einsum("mab,b->ma", gam, vel)
    C = (np.einsum("mab,b->ma", gam, acc)
         + np.einsum("mnab,n,b->ma", dgam, vel, vel)
         + np.einsum("mrb,ras,s,b->ma", gam, gam, vel, vel)
         + np.einsum("mnal,n,l->ma", riem, vel, vel))
    return B.astype(float), C.astype(float)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mu=st.floats(-5.0, 5.0), log_scales=st.tuples(*[st.floats(-140.0, 2.0)] * 2),
       rho=st.tuples(*[st.floats(-2.0, 2.0)] * 3), three=st.booleans())
# a sigma velocity near 1e-157 (a double reference squared it to a subnormal),
# and a C entry near 1e-499 that both routes must round to 0
@example(mu=0.0, log_scales=(-37.0, 0.0), rho=(0.0, 3.767518363299512e-120, 0.0), three=False)
@example(mu=0.0, log_scales=(0.0, 0.0), rho=(0.0, 8.747990309317954e-250, 0.0), three=False)
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
    # is -Gamma^a_bc rho_b rho_c at unit scales (each entry involves one scale)
    gamma = model.tensors(np.ones(model.dimension))[0]
    return -np.einsum("abc,...b,...c->...a", gamma, rho, rho) - rho * model.scales(rho)


def _tail_term_by_term(model, rho, K, Kd):
    # K'' of the scaled field K = J / sigma_k, term by term: J = S K with
    # S = diag(sigma scales) and r = S'/S the log-rates of the scales
    rho_dot = _ratio_rates(model, rho)
    r, r_dot = model.scales(rho), model.scales(rho_dot)
    B, C = model.jacobi_coefficients(rho)
    rK = r * K
    return -(B @ (Kd + rK) + C @ K + r * (2.0 * Kd + rK) + r_dot * K)


def _system_term_by_term(model, rho, K, Kd):
    # the geodesic co-integrated with the field, term by term, the route the
    # field-only run replaced: every row of the scaled state's derivative but
    # the mean's, (log sigma_j)' = rho_j, rho' from the geodesic equation, K'
    # and the tail
    return np.concatenate([rho[1:], _ratio_rates(model, rho), Kd,
                           _tail_term_by_term(model, rho, K, Kd)])


def _slot_rows_term_by_term(model, g, w):
    # w' for the slots w = (J^mu / sigma0, K_1, ..., rates) at g = (e, rho_1, ...),
    # term by term through J itself: rho_0 = span e, D = diag(1, e, 1, ...) (the
    # flat scales cancel), R = D'/D = diag(0, rho_1, ...), J = D w,
    # J' = D (w' + R w), J'' = -(B J' + C J) = D (w'' + 2 R w' + (R' + R^2) w)
    n = model.dimension
    rho = np.array([model.mean_span * g[0], *g[1:]])
    D = np.array([1.0, g[0], *[1.0] * (n - 2)])
    R = np.array([0.0, *rho[1:]])
    R_dot = np.array([0.0, *_ratio_rates(model, rho)[1:]])
    B, C = model.jacobi_coefficients(rho)
    K, Kd = w[:n], w[n:]
    J_ddot = -(B @ (D * (Kd + R * K)) + C @ (D * K))
    return np.concatenate([Kd, J_ddot / D - 2.0 * R * Kd - (R_dot + R * R) * K])


def _system_error(model, system, g, w):
    """max |T g_hat g_hat z - term-by-term rows| per unit of max|g_hat|^2
    max|z|, the size of the largest term (T's entries are O(1)); z = (1, w)."""
    g_hat, z = np.concatenate([[1.0], g]), np.concatenate([[1.0], w])
    dy = system @ g_hat @ g_hat @ z
    err = np.abs(dy - _slot_rows_term_by_term(model, g, w)).max()
    return err / (np.abs(g_hat).max() ** 2 * np.abs(z).max())


_decades = st.floats(-6.0, 2.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(log_g=st.tuples(*[_decades] * 3), signs=st.tuples(*[st.booleans()] * 3),
       data=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), three=st.booleans())
def test_tail_tensor_matches_the_term_by_term_tail(log_g, signs, data, three):
    # e = sigma_x / sigma0 in [1e-6, 1] and |rho_i| in [1e-6, 1e2]: the one
    # contraction of the system tensor equals the slot rows built through J
    # from the Jacobi coefficients, with rho' from the geodesic equation
    model = MODEL_3D if three else MODEL_2D
    n = model.dimension
    g = np.array([(-1.0 if s else 1.0) * 10.0**e for s, e in zip(signs, log_g)])[:n]
    g[0] = min(abs(g[0]), 1.0)
    w = np.array(data[:n] + data[3:3 + n])
    assert _system_error(model, model.jacobi_system, g, w) <= 1e-14


def test_a_perturbed_tail_block_fails_the_property():
    # each block of T (index 0 of z and of g_hat is the constant 1) changed
    # by 1e-7, in each row block (rates, second derivatives), moves the
    # contraction far past the 1e-14 bound
    for model in (MODEL_3D, MODEL_2D):
        n = model.dimension
        g = np.array([0.7, -0.4, 1.3])[:n]
        w = np.array([0.9, 0.5, 0.2][:n] + [0.3, 0.8, 0.6][:n])
        assert _system_error(model, model.jacobi_system, g, w) <= 1e-14
        for rows in (slice(0, n), slice(n, 2 * n)):
            for field in (slice(0, 1), slice(1, n + 1), slice(n + 1, 2 * n + 1)):
                for first in (slice(0, 1), slice(1, n + 1)):
                    for second in (slice(0, 1), slice(1, n + 1)):
                        mutant = model.jacobi_system.copy()
                        mutant[rows, field, first, second] += 1e-7
                        assert _system_error(model, mutant, g, w) > 1e-9


def _dot_jlc_rhs(spec):
    # the reshape-dot contraction of the system tensor at the closed-form
    # g_hat, kept as the reference for the generated RHS
    n = spec.model.dimension
    system = spec.model.jacobi_system.reshape(-1, n + 1)
    flat = [-decay / spec.rate for _, decay in spec.flat_factors]

    def rhs(s, w):
        g_hat = np.array([1.0, 1.0 / math.cosh(s) if s < 700.0 else 0.0, -math.tanh(s), *flat])
        z = np.concatenate([[1.0], w])
        return system.dot(g_hat).reshape(-1, n + 1).dot(g_hat).reshape(2 * n, -1).dot(z)
    return rhs


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(s=st.floats(0.0, 800.0), lam_f=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
       data=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6), three=st.booleans())
def test_jlc_rhs_matches_the_dot_contraction(s, lam_f, data, three):
    # the generated RHS at any s of a run (sech s underflows
    # to 0 past s = 745, where the dot route sets it to 0), each row within
    # 1e-15 of the sum of its terms' magnitudes
    spec3 = ig.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, lam_f)
    spec = spec3 if three else ig.GeodesicSpec2D.from_3d(spec3)
    n = spec.model.dimension
    w = np.array(data[:n] + data[3:3 + n])
    dy = np.asarray(jacobi._jlc_rhs(spec.model)(s, w.tolist()))
    g_hat = np.abs(np.array([1.0, 1.0 / math.cosh(min(s, 700.0)), math.tanh(s), lam_f])[:n + 1])
    scale = np.abs(spec.model.jacobi_system) @ g_hat @ g_hat @ np.abs(np.concatenate([[1.0], w]))
    assert np.all(np.abs(dy - _dot_jlc_rhs(spec)(s, w)) <= 1e-15 * scale)


@pytest.mark.parametrize("spec", [SPEC3, SPEC2], ids=["3d", "2d"])
def test_jlc_rhs_past_the_exp_range_is_finite(spec):
    # K_0 = J^mu / sigma_x is never formed: where sech s underflows to 0 the
    # RHS is its s -> inf limit, finite (m'' = -2 m', K_1'' = -(2 / span) m'
    # for the mean slot m), and rk accepts such states
    n = spec.model.dimension
    w = [0.5] * n + [0.3] * n
    for s in (745.5, 800.0, 1e6):
        dy = jacobi._jlc_rhs(spec.model)(s, w)
        assert dy == _dot_jlc_rhs(spec)(s, np.array(w)).tolist()
        assert dy[n:n + 2] == pytest.approx([-0.6, -0.6 / spec.model.mean_span], rel=1e-15)


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
    # the run forms the log intensities from its normalized slots, not from
    # J and sigma; where both routes are representable they agree to an ulp
    # or two of the log, and the intensities are their exponentials
    for spec in (SPEC3, SPEC2):
        tau_max = 20.0 / spec.rate
        traj = ig.integrate_jlc(spec, tau_max=tau_max, sample_taus=np.linspace(0, tau_max, 101))
        states = ig.closed_form(spec, traj.taus)[0]
        ref = np.array([ig.intensity(th, j) for th, j in zip(states, traj.J)])
        np.testing.assert_allclose(traj.log_intensities, np.log(ref), rtol=1e-15, atol=1e-15)
        assert np.array_equal(traj.intensities(), np.exp(traj.log_intensities))


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


def _rk_solutions(spec_pair):
    """The rk solution of the exponent run of each spec, and its run."""
    runs, integrate = [], rk.integrate

    def recording(*args, **kwargs):
        runs.append(integrate(*args, **kwargs))
        return runs[-1]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rk, "integrate", recording)
        trajs = [jacobi.exponent_run(spec, ig.EXPONENT_WINDOW, 1e-10) for spec in spec_pair]
    return list(zip(runs, trajs))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(mu0=st.floats(-1.0, 1.0), log_sigma0=st.floats(-2.0, 2.0),
       sigma0_prime=st.floats(0.5, 2.0), lam=_log_uniform, lam_f=_log_uniform,
       k=st.integers(-60, 60), shift=st.floats(-1e6, 1e6))
def test_runs_are_invariant_under_scaling_and_translation(mu0, log_sigma0, sigma0_prime,
                                                          lam, lam_f, k, shift):
    # the run is made in rate units relative to the start, so scaling every
    # scale and rate by 2^k (sigma0 in 2D; sigma0, sigma0' and lambda_f in
    # 3D) and shifting mu0 leave it bit for bit the same: the same steps,
    # rejections and samples in rate units, and the same J
    spec = ig.GeodesicSpec3D(mu0, 2.0**log_sigma0, sigma0_prime, lam, lam_f)
    c = 2.0**k
    moved = ig.GeodesicSpec3D(mu0 + shift, c * spec.sigma0, c * sigma0_prime, lam, c * lam_f)
    for pair in ((spec, moved), (ig.GeodesicSpec2D.from_3d(spec), ig.GeodesicSpec2D.from_3d(moved))):
        (sol, traj), (sol_m, traj_m) = _rk_solutions(pair)
        assert (sol.n_steps, sol.n_rejected) == (sol_m.n_steps, sol_m.n_rejected)
        assert np.array_equal(sol.t, sol_m.t) and np.array_equal(sol.y, sol_m.y)
        s = traj.taus * traj.rate
        assert np.array_equal(s, traj_m.taus * traj_m.rate)
        assert np.array_equal(sol(s), sol_m(s)) and np.array_equal(traj.J, traj_m.J)


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
    # J2 ~ (c1 + c2 tau) e^(-L tau) with a nonvanishing secular part: the rk
    # run follows the exact asymptotic form to 1e-6 of its scale on [8, 18]
    traj = ig.integrate_jlc(SPEC2, tau_max=30.0,
                            sample_taus=np.linspace(0.0, 30.0, 601))
    consts = ig.asymptotic_constants(SPEC2)
    mask = jacobi.window_mask(traj.taus, traj.rate, (8.0, 18.0))
    J2 = traj.J[mask, 1]
    form = ig.asymptotic_solutions(consts, traj.taus[mask])[:, 1]
    assert np.abs(J2 - form).max() < 1e-6 * np.abs(J2).max()
    L = SPEC2.rate
    mask = jacobi.window_mask(traj.taus, traj.rate, (10.0, 18.0))
    secular = traj.J[mask, 1] * np.exp(L * traj.taus[mask]) / traj.taus[mask]
    assert abs(consts.C[1, 2]) > 0.1
    np.testing.assert_allclose(secular, consts.C[1, 2], rtol=0.15)


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


def _numpy_start_slots(spec, initial_J, initial_J_dot):
    # the elementwise numpy pass the Python-float _start_slots reproduces,
    # kept as its reference
    model, rate = spec.model, spec.rate
    dim = model.dimension
    J0, Jd0 = ig.default_initial(dim)
    J0 = J0 if initial_J is None else np.asarray(initial_J, dtype=float)
    Jd0 = Jd0 if initial_J_dot is None else np.asarray(initial_J_dot, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        flat = np.array([0.0, 0.0, *(-decay / np.float64(rate) for _, decay in spec.flat_factors)])
        scales0 = np.array([spec.sigma0, spec.sigma0, *(start for start, _ in spec.flat_factors)])
        field0 = np.concatenate([J0, Jd0 / rate - flat * J0])
        field0 /= np.tile(scales0, 2)
        units = np.abs(field0).reshape(2, dim).max(axis=0)
        units[:2] = units[:2].max()
        units[units == 0.0] = units.max() or 1.0
        return field0 / np.tile(units, 2), units


_start_value = (st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1e250, -1e300, 5e-324])
                | st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sigma0=st.sampled_from([1e-200, 1e-100, 1e-6, 1.0, 3.0, 1e6, 1e150]),
       sigma0_prime=st.sampled_from([1e-200, 1e-6, 1.0, 1e100]),
       lambda_f=st.sampled_from([1e-300, 1e-3, 1.0, 1e10, 1e300]),
       start=st.none() | st.lists(_start_value, min_size=6, max_size=6),
       three=st.booleans())
@example(sigma0=1e-200, sigma0_prime=1.0, lambda_f=1.0, start=None, three=False)
@example(sigma0=1e-200, sigma0_prime=1.0, lambda_f=1.0, start=[0.0, 1.0, 0.0, -0.0, 2.0, 0.0],
         three=False)
def test_start_slots_on_floats_are_the_numpy_pass(sigma0, sigma0_prime, lambda_f, start, three):
    # every start, default or given, and every spec, inf and nan slots of a
    # start past the double range and a 2D rate that underflows to 0 (sigma0
    # = lambda_plus = 1e-200) among them, gives the slots and units of the
    # elementwise numpy pass, bit for bit
    if three:
        spec = ig.GeodesicSpec3D(0.0, sigma0, sigma0_prime, 1.0, lambda_f)
        J, Jd = (None, None) if start is None else (start[:3], np.array(start[3:]))
    else:
        spec = ig.GeodesicSpec2D(0.0, sigma0, sigma0 if sigma0 == 1e-200 else 1.0)
        J, Jd = (None, None) if start is None else (np.array(start[:2]), start[3:5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ours = jacobi._start_slots(spec, J, Jd)
    reference = _numpy_start_slots(spec, J, Jd)
    for a, b in zip(ours, reference):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert [v.hex() for v in a.tolist()] == [v.hex() for v in b.tolist()]


def test_jlc_runs_to_rate_tau_800_complete():
    # no slot grows with the intensity and the coefficients stay O(1), so a
    # run passes rate * tau = 691, where K_0 = J^mu / sigma_x passes 1e300, and
    # 745, where sech underflows: its log intensities stay finite and grow at
    # exactly the rate, while the intensity itself overflows to inf
    for spec in (SPEC3, SPEC2):
        traj = ig.integrate_jlc(spec, tau_max=800.0 / spec.rate, tol=1e-6)
        assert traj.complete and traj.taus[-1] * traj.rate == 800.0
        assert np.isfinite(traj.log_intensities).all() and np.isfinite(traj.J).all()
        s, log_inten = traj.taus * traj.rate, traj.log_intensities
        tail = s >= 700.0
        slope = np.polyfit(s[tail], log_inten[tail], 1)[0]
        assert slope == pytest.approx(1.0, abs=1e-6)
        assert np.isinf(traj.intensities()[-1])


# ---------------------------------------------------------------------------
# the exact field
# ---------------------------------------------------------------------------

def _exact_rates(spec, s, w):
    """w'' of the exact slots, the s-derivatives of the closed-form rates
    m' = sech^2 s (b K + C) and K' = A sech^2 s + B (tanh s + s sech^2 s),
    taken by hand; a flat rate is constant."""
    n = spec.model.dimension
    b, a = 2.0 * math.sqrt(spec.model.weights[1]), 2.0 / math.sqrt(spec.model.weights[1])
    w0 = w[0]
    C, A = w0[n] - b * w0[1], w0[n + 1]
    B = -w0[1] - 0.5 * a * C
    x = np.exp(-s)
    sech2, tanh = (2.0 * x / (1.0 + x * x))**2, np.tanh(s)
    m_dd = -2.0 * tanh * w[:, n] + b * sech2 * w[:, n + 1]
    K_dd = -2.0 * A * sech2 * tanh + 2.0 * B * sech2 * (1.0 - s * tanh)
    return np.column_stack([m_dd, K_dd, np.zeros((len(s), n - 2))])


@pytest.mark.parametrize("spec", [SPEC3, SPEC2, ig.GeodesicSpec3D(0.3, 0.2, 1.7, 0.6, 4.0)],
                         ids=["3d", "2d", "3d-fast-flat"])
def test_exact_slots_solve_the_tensor_system(spec):
    # w' and w'' of the closed form, set against the generated RHS of the system
    # at s in [0, 800], agree to rounding of the system's terms
    n = spec.model.dimension
    taus = np.concatenate([np.linspace(0.0, 60.0, 241), np.linspace(61.0, 800.0, 40)]) / spec.rate
    rng = np.random.default_rng(24)
    for J0, Jd0 in [ig.default_initial(n), *rng.uniform(-1.0, 1.0, (4, 2, n))]:
        traj = ig.exact_jacobi(spec, taus, J0, Jd0)
        s, w = traj.taus * traj.rate, traj.slots
        assert traj.complete and s[-1] == pytest.approx(800.0, rel=1e-15)
        expected = np.column_stack([w[:, n:], _exact_rates(spec, s, w)])
        rhs = jacobi._jlc_rhs(spec.model)
        for row, si, want in zip(w, s, expected):
            dy = np.array(rhs(float(si), row.tolist()))
            g_hat = np.abs([1.0, 1.0 / math.cosh(min(si, 700.0)), math.tanh(si),
                            *[d / spec.rate for _, d in spec.flat_factors]])
            scale = (np.abs(spec.model.jacobi_system) @ g_hat @ g_hat
                     @ np.abs(np.concatenate([[1.0], row])))
            assert np.all(np.abs(dy - want) <= 1e-15 * scale + 1e-300)   # subnormals: absolute


def test_exact_slot_rates_are_the_derivatives_of_the_slots():
    # a fourth-order central difference of the closed-form slots recovers
    # their closed-form rates: the rate formulas and the slot formulas agree
    h, s = 1e-3, np.linspace(0.5, 40.0, 80)
    for spec in (SPEC3, SPEC2):
        n = spec.model.dimension
        J0, Jd0 = np.array([0.3, -0.8, 0.5][:n]), np.array([0.7, 0.2, -0.4][:n])
        slots = [ig.exact_jacobi(spec, (s + d * h) / spec.rate, J0, Jd0).slots[:, :n]
                 for d in (-2, -1, 1, 2)]
        diff = (slots[0] - 8.0 * slots[1] + 8.0 * slots[2] - slots[3]) / (12.0 * h)
        rates = ig.exact_jacobi(spec, s / spec.rate, J0, Jd0).slots[:, n:]
        assert np.abs(diff - rates).max() <= 1e-9 * (1.0 + np.abs(rates).max())


def test_exact_killing_and_flat_modes_are_exact():
    # the Killing mode J = (1, 0, ...), J' = 0 keeps its slots exactly; the
    # flat slot is exactly linear in s, so J^3 is the critically damped
    # (1 + lam tau) e^(-lam tau) to rounding, where the rk run gets 1e-8
    taus = np.linspace(0.0, 800.0, 801)
    for spec in (SPEC3, SPEC2):
        n = spec.model.dimension
        traj = ig.exact_jacobi(spec, taus / spec.rate, np.eye(n)[0], np.zeros(n))
        assert np.all(traj.slots == np.eye(2 * n)[0]) and np.all(traj.J == np.eye(n)[0])
    lam = SPEC3.lambda_f
    taus = np.linspace(0.0, 30.0, 301)
    traj = ig.exact_jacobi(SPEC3, taus, (0.0, 0.0, 1.0), (0.0, 0.0, 0.0))
    assert np.all(traj.J[:, :2] == 0.0)
    ref = ig.critically_damped(lam, 1.0, lam, taus)
    assert np.abs(traj.J[:, 2] - ref).max() <= 4e-16


_finite_data = st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mu0=st.floats(-1.0, 1.0), log_sigma0=st.floats(-3.0, 3.0),
       sigma0_prime=st.floats(0.5, 2.0), lam=_log_uniform, lam_f=_log_uniform,
       data=_finite_data, three=st.booleans())
def test_exact_field_matches_the_rk_run(mu0, log_sigma0, sigma0_prime, lam, lam_f, data, three):
    # over the softening sweep's parameters (sigma0 in [1/8, 8]) and random
    # start data, the rk field at tol 1e-10 and the closed form agree in the
    # metric to 1e-7 at every sample of the exponent horizon.  The intensity
    # grows with the mean slot's limit m(0) + (b / 2)(K(0) + K'(0)); rk
    # carries it to the absolute tolerance in units of the start, so draws
    # where it cancels below 1% of the start are left out: there the rk
    # field's relative error is about 1e-10 over that fraction
    spec = ig.GeodesicSpec3D(mu0, 2.0**log_sigma0, sigma0_prime, lam, lam_f)
    spec = spec if three else ig.GeodesicSpec2D.from_3d(spec)
    n = spec.model.dimension
    J0, Jd0 = np.array(data[:n]), np.array(data[3:3 + n])
    taus = jacobi.exponent_times(spec.rate, ig.EXPONENT_WINDOW)
    exact = ig.exact_jacobi(spec, taus, J0, Jd0)
    w0 = exact.slots[0, [0, 1, n, n + 1]]
    assume(abs(w0[0] + math.sqrt(spec.model.weights[1]) * (w0[1] + w0[3]))
           >= 0.01 * np.abs(w0).max())
    ours = ig.integrate_jlc(spec, J0, Jd0, tau_max=taus[-1], sample_taus=taus)
    # asserts on plain values: pytest would print a failing trajectory's repr,
    # once per shrinking step
    complete, same_taus = ours.complete, np.array_equal(ours.taus, exact.taus)
    assert complete and same_taus
    error = jacobi.field_relative_error(ours, exact)
    assert error <= 1e-7


def test_field_error_reads_the_metric_norm():
    # where J is representable, the slot route is |J - J_ref|_g / |J_ref|_g
    spec = SPEC3
    taus = np.linspace(0.0, 20.0, 81)
    exact = ig.exact_jacobi(spec, taus)
    ours = ig.integrate_jlc(spec, tau_max=taus[-1], tol=1e-7, sample_taus=taus)
    states = ig.closed_form(spec, exact.taus)[0]
    ref = np.max(ig.intensity(states, ours.J - exact.J)[1:] / ig.intensity(states, exact.J)[1:])
    assert jacobi.field_relative_error(ours, exact) == pytest.approx(ref, rel=1e-6)
    assert jacobi.field_relative_error(exact, exact) == 0.0


@pytest.mark.filterwarnings("error")
def test_field_error_refuses_fields_it_cannot_compare():
    # a 3D field against a 2D one on the same times read 0.208; unequal
    # sample counts raised numpy's broadcast ValueError
    taus = np.linspace(0.0, 20.0, 81)
    exact = ig.exact_jacobi(SPEC3, taus)
    for other in (ig.exact_jacobi(SPEC2, taus), ig.exact_jacobi(SPEC3, taus[:-1]),
                  ig.exact_jacobi(SPEC3, taus + 0.125)):
        with pytest.raises(DomainError, match="field_relative_error"):
            jacobi.field_relative_error(other, exact)


def test_jacobi_records_form_no_closed_form_geodesic(monkeypatch):
    # the record holds the field alone: neither route evaluates the geodesic
    # in either chart, under the names geodesics or jacobi might hold
    def refuse(*args, **kwargs):
        raise AssertionError("closed-form geodesic evaluated")
    for module in (geodesics, jacobi):
        for name in ("closed_form", "_ratio_closed_form"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    for spec in (SPEC3, SPEC2):
        taus = np.linspace(0.0, 25.0 / spec.rate, 51)
        exact = ig.exact_jacobi(spec, taus)
        ours = ig.integrate_jlc(spec, tau_max=taus[-1], sample_taus=taus)
        assert ours.complete and jacobi.field_relative_error(ours, exact) < 1e-8
        assert not any(hasattr(exact, name) for name in ("states", "ratios", "velocities",
                                                         "speeds"))


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(mu0=st.floats(-1.0, 1.0), log_sigma0=st.floats(-2.0, 2.0),
       sigma0_prime=st.floats(0.5, 2.0), lam=_log_uniform, lam_f=_log_uniform,
       k=st.integers(-60, 60), shift=st.floats(-1e6, 1e6))
def test_sweep_exponents_are_invariant_under_scaling_and_translation(
        mu0, log_sigma0, sigma0_prime, lam, lam_f, k, shift):
    # a shift of mu0 leaves the exponents over the rate bit for bit the same.
    # Scaling every scale and rate by 2^k (sigma0, sigma0' and lambda_f)
    # leaves the exact slots bit for bit the same; the log intensities then
    # carry log 2^k more, so the fitted exponents over the rate agree to
    # rounding only.  (With sigma0' fixed the default field's J^3 / sigma_y
    # moves against the mean mode, and the exponent moves with it.)
    spec = ig.GeodesicSpec3D(mu0, 2.0**log_sigma0, sigma0_prime, lam, lam_f)
    c = 2.0**k
    shifted = ig.GeodesicSpec3D(mu0 + shift, spec.sigma0, sigma0_prime, lam, lam_f)
    scaled = ig.GeodesicSpec3D(mu0 + shift, c * spec.sigma0, c * sigma0_prime, lam, c * lam_f)

    def per_rate(spec3d):
        pair = _pairs([spec3d])[0]
        jac = _softening([spec3d])
        return np.array([jac.fit_3d.slope[0] / pair[0].rate, jac.fit_2d.slope[0] / pair[1].rate])
    base, moved, grown = (per_rate(s) for s in (spec, shifted, scaled))
    assert np.array_equal(base, moved)
    np.testing.assert_allclose(grown, base, rtol=4e-15, atol=0.0)
    for one, other in zip(_pairs([spec])[0], _pairs([scaled])[0]):   # the 3D specs, then the 2D
        runs = [jacobi.exponent_run(s, ig.EXPONENT_WINDOW) for s in (one, other)]
        assert np.array_equal(runs[0].slots, runs[1].slots)


# ---------------------------------------------------------------------------
# asymptotic solutions
# ---------------------------------------------------------------------------

def test_asymptotic_solution_values():
    # at tau = 0 the forms give J^1 = C11 + C12, J^2 = C21, J^3 = C31 = J^3(0);
    # late they give the plateau C11 alone; J^3 is its form at every tau
    consts = ig.asymptotic_constants(SPEC3)
    C = consts.C
    at0 = ig.asymptotic_solutions(consts, 0.0)
    np.testing.assert_allclose(at0, [C[0, 0] + C[0, 1], C[1, 1], C[2, 1]], rtol=1e-15)
    assert C[2, 1] == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-15)
    late = ig.asymptotic_solutions(consts, 200.0)
    np.testing.assert_allclose(late, [C[0, 0], 0.0, 0.0], rtol=1e-15, atol=1e-60)
    taus = np.linspace(0.0, 30.0, 61)
    exact = ig.exact_jacobi(SPEC3, taus)
    np.testing.assert_allclose(ig.asymptotic_solutions(consts, taus)[:, 2], exact.J[:, 2],
                               rtol=1e-14, atol=0.0)


def test_full_solution_converges_to_asymptotic_forms():
    # the rk run follows the exact forms to 1e-6 of each component's scale
    # on rate * tau in [8, 50]: J^1, with its secular term, to the solver
    # tolerance, J^2 to its next order (about 3e-7 at s = 8), J^3 to rounding
    traj = ig.integrate_jlc(SPEC3, tau_max=50.0,
                            sample_taus=np.linspace(0.0, 50.0, 801))
    mask = jacobi.window_mask(traj.taus, traj.rate, (8.0, 50.0))
    ref = ig.asymptotic_solutions(ig.asymptotic_constants(SPEC3), traj.taus[mask])
    scale = np.abs(traj.J[mask]).max(axis=0)
    assert (np.abs(traj.J[mask] - ref) / scale).max() < 1e-6


def _form_errors(spec, J0=None, Jd0=None, window=(8.0, 25.0)):
    """|J - form| per sample and component on ``window`` (rate * tau), for
    the exact field from (J0, J0') and its asymptotic forms, and that field."""
    taus = np.linspace(window[0], window[1], 341) / spec.rate
    exact = ig.exact_jacobi(spec, taus, J0, Jd0)
    form = ig.asymptotic_solutions(ig.asymptotic_constants(spec, J0, Jd0), taus)
    return np.abs(exact.J - form), exact


@pytest.mark.parametrize("spec", [SPEC3, SPEC2], ids=["3d", "2d"])
def test_asymptotic_forms_match_the_exact_field(spec):
    # on rate * tau in [8, 25] the forms of the default field follow the
    # closed form to 1e-6 of each component's scale: J^1 to rounding, J^2 to
    # its next order, relative O(s e^(-2s)), about 3e-7 at s = 8.  Without
    # the secular tau e^(-2L tau) term J^1 is off by more than 1e-6
    errors, exact = _form_errors(spec)
    relative = errors.max(axis=0) / np.abs(exact.J).max(axis=0)
    assert relative[0] <= 1e-11 and relative[1] <= 1e-6
    assert np.all(relative[2:] <= 1e-14)
    consts = ig.asymptotic_constants(spec)
    consts.C[0, 2] = 0.0
    J1 = ig.asymptotic_solutions(consts, exact.taus)[:, 0]
    assert np.abs(exact.J[:, 0] - J1).max() > 1e-6 * np.abs(exact.J[:, 0]).max()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=_data, three=st.booleans())
def test_asymptotic_forms_match_the_exact_field_from_any_start(data, three):
    # each component against its size for a start of unit max-norm, units *
    # sigma_k * (1 + s) (sigma_1 = sigma0): the slots are at most that in
    # their units, so leading constants that cancel do not make the next
    # order look large.  The J^2 error is e^(-2s) |K(0) + 3A + 3Bs| there,
    # at most 5.6e-7 at s = 8 for |B| = |K(0) - m'(0) / sqrt(c_1)| <= 1.71
    spec = SPEC3 if three else SPEC2
    n = spec.model.dimension
    errors, exact = _form_errors(spec, np.array(data[:n]), np.array(data[3:3 + n]))
    s = exact.taus * exact.rate
    states = ig.closed_form(spec, exact.taus)[0]
    sigma = np.column_stack([np.full_like(s, spec.sigma0), states[:, 1:]])
    envelope = exact.units * sigma * (1.0 + s)[:, None]
    assert np.all(errors <= 1e-6 * envelope)


def _derivative(spec, k, tau, h):
    """d J^k / d tau of the default exact field at ``tau``: eighth-order
    central difference with step ``h``."""
    weights = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])
    J = ig.exact_jacobi(spec, tau + h * np.arange(-4.0, 5.0)).J[:, k]
    return float(weights @ J) / h


@pytest.mark.parametrize("spec", [SPEC3, SPEC2, ig.GeodesicSpec3D(0.3, 0.2, 1.7, 0.6, 4.0)],
                         ids=["3d", "2d", "3d-odd"])
def test_asymptotic_constants_match_differences_of_the_closed_form(spec):
    # each constant read back from the closed form alone, where the next
    # order is below the tolerance: J^1's plateau at s = 40; its
    # secular pair from J^1' e^(2L tau) = C13 - 2L C12 - 2L C13 tau at
    # s = 9 and 11; C22 = (J^2' + L J^2) e^(L tau) and C21 = J^2 e^(L tau)
    # - C22 tau at s = 12; J^3's pair, exact at every tau, the same at tau = 1
    consts = ig.asymptotic_constants(spec)
    C, L = consts.C, spec.rate
    assert C[0, 0] == pytest.approx(ig.exact_jacobi(spec, [40.0 / L]).J[0, 0], rel=1e-15)
    ta, tb = 9.0 / L, 11.0 / L
    ua, ub = (_derivative(spec, 0, t, 0.125 / L) * math.exp(2.0 * L * t) for t in (ta, tb))
    C13 = (ub - ua) / (tb - ta) / (-2.0 * L)
    assert C[0, 2] == pytest.approx(C13, rel=1e-5)
    assert C[0, 1] == pytest.approx((C13 - ua - 2.0 * L * C13 * ta) / (2.0 * L), rel=1e-4)
    cases = [(1, L, 12.0 / L)]
    if spec.model.dimension == 3:
        cases.append((2, spec.lambda_f, 1.0))
    for k, rate, tau in cases:
        J = ig.exact_jacobi(spec, [tau]).J[0, k]
        grown = math.exp(rate * tau)
        c2 = (_derivative(spec, k, tau, 0.125 / rate) + rate * J) * grown
        assert C[k, 2] == pytest.approx(c2, rel=1e-7)
        assert C[k, 1] == pytest.approx(J * grown - c2 * tau, rel=1e-7)


# ---------------------------------------------------------------------------
# growth exponents and the gap
# ---------------------------------------------------------------------------

def test_window_mask_compares_in_rate_units():
    # an absolute slack of 1e-12 in tau started the [20, 50] window at
    # rate * tau = 19 for rate 1e12, and took every sample from tau = 0 for
    # rate 1e14; in rate units it takes samples 160 to 400 of 401 at any rate
    for rate in (1.0, 1e12, 1e14):
        taus = jacobi.exponent_times(rate, ig.EXPONENT_WINDOW)
        mask = jacobi.window_mask(taus, rate, ig.EXPONENT_WINDOW)
        assert np.array_equal(np.flatnonzero(mask), np.arange(160, 401))


def test_exponent_fits():
    jac = _softening([SPEC3])
    assert jac.fit_3d.slope.shape == jac.fit_2d.slope.shape == (1,)
    assert jac.fit_3d.slope[0] == pytest.approx(SPEC3.rate, rel=0.02)
    assert jac.fit_2d.slope[0] == pytest.approx(SPEC2.rate, rel=0.02)
    assert jac.fit_3d.r_squared[0] > 0.999
    assert jac.fit_2d.r_squared[0] > 0.999


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
    J = scales * K
    # the slots: J^mu / sigma0, J^i / sigma_i and their s-rates, in ours' units
    mu_dot = scales[:, 0] * (ys[:, 3 * n] + rho[:, 1] * K[:, 0])
    slots = np.column_stack([J[:, 0] / spec.sigma0, K[:, 1:], mu_dot / (spec.sigma0 * spec.rate),
                             ys[:, 3 * n + 1:] / spec.rate]) / np.tile(ours.units, 2)
    theirs = ig.JacobiTrajectory(taus=samples, J=J, rate=spec.rate,
                                 log_intensities=np.log(ig.intensity(states, J)),
                                 slots=slots, units=ours.units, n_steps=sol.t.size)
    fit, ref = ig.exponent_fit(ours), ig.exponent_fit(theirs)
    assert fit.slope == pytest.approx(ref.slope, rel=1e-8)
    np.testing.assert_allclose(ours.slots[:, n:], theirs.slots[:, n:], rtol=1e-7, atol=1e-9)


def test_exponent_runs_take_few_steps():
    # no slot of the Jacobi state grows with the intensity, so the step
    # size is not held down by an exponential: about 200 steps to rate * tau = 50
    for spec in (SPEC3, SPEC2):
        assert jacobi.exponent_run(spec, ig.EXPONENT_WINDOW, 1e-10).n_steps < 230


def test_stopped_runs_are_not_fitted():
    # the 3D run of this spec (lambda_f / rate = 14.6) once stopped on a
    # 1e-150 sigma_y floor at rate * tau = 23.6 and was fitted on the samples
    # it reached; with no floor it runs to the end of the window
    spec = ig.GeodesicSpec3D(0.8, 0.1368, 0.6, 0.6, 1.2)
    traj = jacobi.exponent_run(spec, ig.EXPONENT_WINDOW)
    assert traj.complete
    assert np.array_equal(traj.taus, np.linspace(0.0, ig.EXPONENT_WINDOW[1] / traj.rate, 401))
    jac = _softening([spec])
    assert jac.fit_3d.slope[0] == ig.exponent_fit(traj).slope
    assert jac.gap[0] == pytest.approx(jac.expected_gap[0], rel=1e-6)
    # at sigma0 = sigma0' = 1e-200 the 3D run's start vector lies past the
    # double range (J^3' / sigma0' over the rate): the fit raises, and the
    # abort carries the run stopped at its start
    message = "^jacobi run 3d: right-hand side is not finite at the initial state$"
    with pytest.raises(ig.NumericalAbort, match=message) as abort:
        _softening([ig.GeodesicSpec3D(0.0, 1e-200, 1e-200, 1.0, 1.0)])
    assert not abort.value.partial.complete


@pytest.mark.parametrize("e", [12, 15, 50, 100, 140, 300])
def test_exponent_runs_complete_at_any_flat_rate(e):
    # lambda_f / rate = 10^e: once a log sigma_y slot sloped at -10^e led the
    # initial step guess, and the runs for e from 15 to 140 ended in step size
    # underflow before their first step; the field slots take about 200 steps
    traj = jacobi.exponent_run(ig.GeodesicSpec3D(0.0, 10.0**-e, 1.0, 1.0, 1.0),
                               ig.EXPONENT_WINDOW, 1e-10)
    assert traj.complete and traj.n_steps < 230
    assert ig.exponent_fit(traj).slope == pytest.approx(traj.rate, rel=1e-8)


def test_softening_gap_value():
    jac = _softening([SPEC3])
    expected = 1.0 - 1.0 / SQRT2
    assert jac.gap.shape == jac.expected_gap.shape == (1,)
    assert jac.gap[0] == pytest.approx(expected, rel=0.03)
    assert jac.gap[0] > 0.0
    assert jac.expected_gap[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("sigma0,lam", [(0.5, 1.0), (2.0, 1.0), (1.0, 0.7)])
def test_gap_positive_across_parameters(sigma0, lam):
    spec = ig.GeodesicSpec3D(0.0, sigma0, 1.0, lam, 1.0)
    jac = _softening([spec])
    assert jac.gap[0] > 0.0
    assert jac.gap[0] == pytest.approx(sigma0 * lam * (1.0 - 1.0 / SQRT2), rel=0.03)


def test_gap_scales_linearly_with_sigma0():
    g1 = _softening([ig.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, 1.0)]).gap[0]
    g2 = _softening([ig.GeodesicSpec3D(0.0, 2.0, 1.0, 1.0, 1.0)]).gap[0]
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
        expected = np.column_stack([run.taus, run.J, run.intensities(), run.log_intensities])
        assert parsed.shape == expected.shape and (parsed == expected).all()
    assert (parsed[:, -1] == -np.inf).all()


@pytest.mark.filterwarnings("error")
def test_exponent_rows_of_two_sample_counts_fit_as_their_own_runs():
    # on [20 + 1e-12, 50] the 2D rates of sigma0 = 2.5 and 5 put 240 samples
    # on the window and that of sigma0 = 1 puts 241: the rows fit in two
    # groups, each row bit for bit its own exponent run's fit
    window = (20.000000000001, 50.0)
    pairs = _pairs([ig.GeodesicSpec3D(0.0, s0, 1.0, 1.0, 1.0) for s0 in (1.0, 2.5, 5.0)])
    assert [pair[1] for pair in pairs] == [ig.GeodesicSpec2D(0.0, s0, 1.0 / SQRT2)
                                           for s0 in (1.0, 2.5, 5.0)]
    rates = _rates(pairs)
    taus = jacobi.exponent_times(rates, window)
    mask = jacobi.window_mask(taus, rates, window)
    assert mask[:, 1::2].sum(axis=0).tolist() == [241, 240, 240]
    jac = jacobi.softening_gap(pairs, taus, mask)
    for i, pair in enumerate(pairs):
        for fits, spec in zip((jac.fit_3d, jac.fit_2d), pair):
            fit = jacobi.exponent_fit(jacobi.exponent_run(spec, window), window)
            assert (fits.slope[i], fits.r_squared[i]) == (fit.slope, fit.r_squared)


@pytest.mark.filterwarnings("error")
def test_a_row_whose_start_leaves_the_double_range_aborts_as_its_own_run():
    # sigma0 = sigma0' = 1e-200 among ordinary rows: the exponent fits raise
    # that spec's own run's abort, which carries the run stopped at its start
    specs = [ig.GeodesicSpec3D(0.0, s0, 1e-200, 1.0, 1.0) for s0 in (1.0, 1e-200)]
    message = "^jacobi run 3d: right-hand side is not finite at the initial state$"
    with pytest.raises(ig.NumericalAbort, match=message) as abort:
        _softening(specs)
    assert not abort.value.partial.complete
