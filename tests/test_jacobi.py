"""Jacobi field dynamics: assembled coefficients, integration, exponents."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import infogeo as ig
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
    acc = ig.jlc_acceleration(theta, vel, np.zeros(3), np.zeros(3))
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
        norm = math.sqrt(ig.metric_3d(p).norm_squared(J))
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


def test_translation_mode_is_exactly_constant():
    # J = (1, 0, 0), J' = 0 is the Killing mode: it solves the full system
    # exactly, so the trajectory stays at its initial value up to solver noise
    traj = ig.integrate_jlc(SPEC3, initial_J=(1.0, 0.0, 0.0),
                            initial_J_dot=(0.0, 0.0, 0.0),
                            tau_max=50.0, sample_taus=np.linspace(0.0, 50.0, 501))
    assert np.abs(traj.J - np.array([1.0, 0.0, 0.0])).max() < 1e-8


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
