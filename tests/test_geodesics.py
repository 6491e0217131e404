"""Geodesic closed forms, numeric integration and their cross-validation."""

import math

import numpy as np
import pytest

import infogeo as ig
from infogeo.errors import DomainError, NumericalAbort
from infogeo.geodesics import _closed_form

SPEC3 = ig.GeodesicSpec3D(mu0=0.0, sigma0=1.0, sigma0_prime=1.0,
                          lambda_plus_prime=1.0, lambda_f=1.0)
SPEC2 = ig.GeodesicSpec2D.from_3d(SPEC3)

# frozen oracle values at tau = 1 (sigma0 = lambda = 1):
SECH_1 = 2 * math.e / (1 + math.e**2)          # sigma_x(1) = sech(1)
MU_EXACT_1 = math.sqrt(2.0) * math.tanh(1.0)   # exact family mean span
MU_WIDE_1 = 2.0 * math.tanh(1.0)               # span-2 family


# ---------------------------------------------------------------------------
# specs and derived constants
# ---------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(DomainError):
        ig.GeodesicSpec3D(0.0, -1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ig.GeodesicSpec3D(0.0, 1.0, 1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        ig.GeodesicSpec2D(0.0, 1.0, -2.0)


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


def test_derived_constants_consistency():
    c3 = ig.DerivedConstants.for_spec(SPEC3)
    assert math.sqrt(c3.a) == pytest.approx(SPEC3.lambda_plus_prime, rel=1e-14)
    assert c3.a == pytest.approx(c3.A1**2 / 2.0, rel=1e-14)
    assert (c3.c1, c3.c2, c3.c3) == (SPEC3.sigma0, c3.a, 0.0)
    assert c3.c4 == pytest.approx(SPEC3.mu0 + math.sqrt(2.0) * SPEC3.sigma0, rel=1e-14)
    c2 = ig.DerivedConstants.for_spec(SPEC2)
    assert math.sqrt(c2.a) == pytest.approx(SPEC2.lambda_plus, rel=1e-14)
    assert c2.a == pytest.approx(c2.A1**2 / 4.0, rel=1e-14)
    assert c2.c4 == pytest.approx(SPEC2.mu0 + 2.0 * SPEC2.sigma0, rel=1e-14)


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
    c3 = ig.DerivedConstants.for_spec(SPEC3)
    c2 = ig.DerivedConstants.for_spec(SPEC2)
    for tau in np.linspace(0.0, 12.0, 25):
        theta, vel = ig.closed_form_3d(SPEC3, tau)
        assert abs(vel[0] - c3.A1 * theta[1] ** 2) < 1e-10
        theta, vel = ig.closed_form_2d(SPEC2, tau)
        assert abs(vel[0] - c2.A1 * theta[1] ** 2) < 1e-10


def test_sigma_monotone_decreasing():
    taus = np.linspace(0.0, 15.0, 400)
    theta, _ = ig.closed_form_3d(SPEC3, taus)
    assert np.all(np.diff(theta[:, 1]) < 0.0)
    assert np.all(np.diff(theta[:, 2]) < 0.0)


# ---------------------------------------------------------------------------
# geodesic equations
# ---------------------------------------------------------------------------

def test_acceleration_examples():
    acc = ig.geodesic_acceleration([0.0, 1.0, 1.0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(acc, [0.0, -0.5, 0.0], atol=1e-15)
    acc = ig.geodesic_acceleration([0.0, 1.0], [2.0, 0.0])
    np.testing.assert_allclose(acc, [0.0, -1.0], atol=1e-15)
    acc = ig.geodesic_acceleration([1.0, 0.7, 2.0], [0.0, 0.0, 0.0])
    np.testing.assert_allclose(acc, np.zeros(3), atol=0)


def test_acceleration_rejects_nonpositive_sigma():
    with pytest.raises(DomainError):
        ig.geodesic_acceleration([0.0, -1.0, 1.0], [1.0, 0.0, 0.0])
    # one bad row among good ones
    for bad in ([0.3, 1.0, 0.0], [0.3, 1.0, np.nan], [np.inf, 1.0, 1.0]):
        rows = np.array([[0.0, 1.0, 1.0], bad, [1.0, 2.0, 0.5]])
        with pytest.raises(DomainError):
            ig.geodesic_acceleration(rows, np.ones_like(rows))
    with pytest.raises(DomainError):
        ig.geodesic_acceleration([[0.0, 1.0], [0.0, -2.0]], np.ones((2, 2)))


def test_acceleration_rows_match_points():
    rng = np.random.default_rng(11)
    for dim in (3, 2):
        theta = np.column_stack([rng.uniform(-2, 2, 50), rng.uniform(0.1, 3, (50, dim - 1))])
        vel = rng.normal(size=(50, dim))
        rows = ig.geodesic_acceleration(theta, vel)
        points = np.array([ig.geodesic_acceleration(t, v) for t, v in zip(theta, vel)])
        assert rows.shape == (50, dim)
        # rows square with x * x, points with pow(): at most an ulp apart per term
        np.testing.assert_allclose(rows, points, rtol=1e-15, atol=1e-15 * np.abs(points).max())


def test_residual_exact_family():
    grid = np.linspace(0.0, 10.0, 100)
    assert ig.residual_check(SPEC3, grid) < 1e-6
    assert ig.residual_check(SPEC2, grid) < 1e-6


def test_residual_check_matches_the_per_point_formula():
    # the per-point loop the grid evaluation replaced, kept as the reference
    grid = np.linspace(0.01, 10.0, 100)
    h = 1e-5
    for spec, span in ((SPEC3, None), (SPEC2, None), (SPEC3, ig.MU_SPAN_WIDE)):
        form = lambda t: _closed_form(spec, t, span, 0.0)
        worst, scale = 0.0, 0.0
        for tau in grid:
            theta, vel = form(tau)
            acc = ig.geodesic_acceleration(theta, vel)
            acc_fd = (form(tau + h)[1] - form(tau - h)[1]) / (2.0 * h)
            worst = max(worst, float(np.abs(acc_fd - acc).max()))
            scale = max(scale, float(np.abs(acc).max()))
        assert abs(ig.residual_check(spec, grid, mu_span=span) - worst) <= 4e-16 * scale


def test_residual_separates_the_two_spans():
    # the span-2 mean path does not solve the 3D system (residual ~ lam^2 sx^3)
    grid = np.linspace(0.0, 3.0, 30)
    assert ig.residual_check(SPEC3, grid, mu_span=ig.MU_SPAN_WIDE) > 0.1


def test_residual_of_time_translates():
    grid = np.linspace(0.0, 5.0, 40)
    worst = 0.0
    for tau in grid:
        theta, vel = ig.closed_form_3d(SPEC3, tau, shift=0.8)
        _, vel_p = ig.closed_form_3d(SPEC3, tau + 1e-5, shift=0.8)
        _, vel_m = ig.closed_form_3d(SPEC3, tau - 1e-5, shift=0.8)
        acc_fd = (vel_p - vel_m) / 2e-5
        worst = max(worst, np.abs(acc_fd - ig.geodesic_acceleration(theta, vel)).max())
    assert worst < 1e-6


def test_sigma_y_product_form_residual():
    from infogeo.geodesics import sigma_equation_residual
    assert sigma_equation_residual(SPEC3, np.linspace(0.0, 10.0, 50)) < 1e-8


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
        ref = np.array([ig.fisher_speed(th, v) for th, v in zip(traj.states, traj.velocities)])
        np.testing.assert_allclose(traj.speeds(), ref, rtol=1e-15, atol=0)


def test_initial_speed_value():
    theta, vel = ig.closed_form_3d(SPEC3, 0.0)
    expected = (2.0 * SPEC3.lambda_plus_prime**2 * SPEC3.sigma0**2
                + 2.0 * SPEC3.lambda_f**2)
    assert ig.fisher_speed(theta, vel) == pytest.approx(expected, rel=1e-12)


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


def test_positivity_floor_aborts_with_partial_trajectory():
    spec = ig.GeodesicSpec3D(0.0, 1.0, 1e-295, 1.0, 2.0)
    traj = ig.integrate_geodesic(spec, 10.0, tol=1e-10)
    assert not traj.complete
    assert "floor" in traj.abort_reason
    assert traj.taus[-1] < 10.0
    with pytest.raises(NumericalAbort):
        ig.integrate_geodesic(spec, 10.0, tol=1e-10, raise_on_abort=True)


def test_trajectory_requires_increasing_times():
    with pytest.raises(DomainError):
        ig.Trajectory(taus=np.array([0.0, 0.0, 1.0]),
                      states=np.zeros((3, 2)), velocities=np.zeros((3, 2)),
                      tolerance=1e-9, n_steps=2)


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
