"""Finite-difference curvature engine against the closed forms."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import infogeo as ig
from infogeo import numgeo, tensors
from infogeo.errors import DomainError
from infogeo.models import MODEL_2D, MODEL_3D

RNG = np.random.default_rng(202)


def sample_3d(n):
    return [np.array([RNG.uniform(-2, 2), RNG.uniform(0.5, 2.0),
                      RNG.uniform(0.5, 2.0)]) for _ in range(n)]


def sample_2d(n):
    return [np.array([RNG.uniform(-2, 2), RNG.uniform(0.5, 2.0)])
            for _ in range(n)]


def test_flat_metric_has_no_connection():
    field = ig.euclidean_field(3)
    gam = ig.christoffel_numeric(field, np.array([0.3, -1.2, 2.0]))
    assert np.abs(gam.components).max() < 1e-10


def test_christoffel_matches_analytic_at_unit_sigma():
    field = ig.field_3d()
    theta = np.array([0.0, 1.0, 1.0])
    num = ig.christoffel_numeric(field, theta, h=1e-5).components
    ref = ig.christoffel_3d(ig.ParameterPoint3D(0.0, 1.0, 1.0)).components
    assert np.abs(num - ref).max() < 1e-6


def test_christoffel_2d_value():
    field = ig.field_2d()
    num = ig.christoffel_numeric(field, np.array([0.0, 2.0]), h=1e-5).components
    assert num[1, 0, 0] == pytest.approx(1 / 8, abs=1e-6)


def test_christoffel_second_order_convergence():
    field = ig.field_3d()
    theta = np.array([0.4, 1.3, 0.9])
    ref = ig.christoffel_3d(ig.ParameterPoint3D(*theta)).components
    coarse = np.abs(ig.christoffel_numeric(field, theta, h=2e-3).components - ref).max()
    fine = np.abs(ig.christoffel_numeric(field, theta, h=1e-3).components - ref).max()
    assert 3.2 < coarse / fine < 4.8


def test_step_crossing_domain_boundary_rejected():
    field = ig.field_3d()
    with pytest.raises(DomainError):
        ig.christoffel_numeric(field, np.array([0.0, 1e-6, 1.0]), h=1e-5)


def test_scalar_curvature_numeric():
    f3, f2 = ig.field_3d(), ig.field_2d()
    for theta in sample_3d(15):
        assert ig.scalar_numeric(f3, theta) == pytest.approx(-1.0, abs=1e-4)
    for theta in sample_2d(15):
        assert ig.scalar_numeric(f2, theta) == pytest.approx(-0.5, abs=1e-4)


def test_riemann_component_numeric():
    f3, f2 = ig.field_3d(), ig.field_2d()
    for theta in sample_3d(8):
        num = ig.riemann_numeric(f3, theta).components[0, 1, 0, 1]
        ref = -1.0 / theta[1] ** 2
        assert num == pytest.approx(ref, rel=1e-4)
    for theta in sample_2d(8):
        num = ig.riemann_numeric(f2, theta).components[0, 1, 0, 1]
        assert num == pytest.approx(-1.0 / theta[1] ** 2, rel=1e-4)


def test_all_tensors_numeric_vs_analytic():
    # 50 random points across both models, 1e-5 absolute after FD steps
    f3, f2 = ig.field_3d(), ig.field_2d()
    for theta in sample_3d(25):
        p = ig.ParameterPoint3D(*theta)
        gam = ig.christoffel_numeric(f3, theta).components
        assert np.abs(gam - ig.christoffel_3d(p).components).max() < 1e-5
        riem = ig.riemann_numeric(f3, theta)
        assert np.abs(riem.components - ig.riemann_3d(p).components).max() < 1e-5
        assert np.abs(riem.ricci().components - ig.ricci_3d(p).components).max() < 1e-5
    for theta in sample_2d(25):
        p = ig.ParameterPoint2D(*theta)
        gam = ig.christoffel_numeric(f2, theta).components
        assert np.abs(gam - ig.christoffel_2d(p).components).max() < 1e-5
        riem = ig.riemann_numeric(f2, theta)
        assert np.abs(riem.components - ig.riemann_2d(p).components).max() < 1e-5
        assert np.abs(riem.ricci().components - ig.ricci_2d(p).components).max() < 1e-5


def test_numeric_riemann_antisymmetry_exact():
    f3 = ig.field_3d()
    for theta in sample_3d(5):
        assert ig.riemann_numeric(f3, theta).antisymmetry_defect() <= 1e-12


def test_numeric_first_bianchi():
    f3, f2 = ig.field_3d(), ig.field_2d()
    for theta in sample_3d(10):
        assert ig.riemann_numeric(f3, theta).first_bianchi_defect() < 1e-6
    for theta in sample_2d(10):
        assert ig.riemann_numeric(f2, theta).first_bianchi_defect() < 1e-6


def _rows_of(matrix):
    """A row-form field evaluate: the same matrix at every row."""
    return lambda rows: np.broadcast_to(matrix, (len(rows), *np.shape(matrix)))


def test_non_spd_field_aborts_with_diagnostic():
    bad = numgeo.MetricField(2, _rows_of(np.array([[1.0, 0.0], [0.0, -1.0]])))
    with pytest.raises(DomainError, match="positive definite"):
        bad.metric_at(np.array([0.0, 1.0]))
    with pytest.raises(DomainError, match="positive definite"):
        ig.christoffel_numeric(bad, np.array([0.0, 1.0]))


def test_field_evaluate_shape_checked():
    bad = numgeo.MetricField(3, _rows_of(np.eye(2)))
    with pytest.raises(DomainError, match="shape"):
        bad.metric_at(np.zeros(3))
    with pytest.raises(DomainError, match="shape"):
        ig.christoffel_numeric(bad, np.zeros(3))


@pytest.mark.parametrize("field", [ig.field_3d(), ig.field_2d(), ig.euclidean_field(3)])
def test_batched_christoffel_matches_each_point_bit_for_bit(field):
    rng = np.random.default_rng(5)
    rows = np.column_stack([rng.uniform(-2, 2, 7),
                            *rng.uniform(0.5, 2.0, (field.dimension - 1, 7))])
    batch = numgeo._christoffel_rows(field, rows, numgeo.METRIC_STEP)
    for theta, gam in zip(rows, batch):
        assert np.array_equal(gam, ig.christoffel_numeric(field, theta).components)


def test_field_rows_match_the_pointwise_metric_bit_for_bit():
    # the reference is the per-entry scalar formula c / sigma ** 2; enough
    # points that rounding the square another way would show
    rng = np.random.default_rng(7)
    for field, model in ((ig.field_3d(), MODEL_3D), (ig.field_2d(), MODEL_2D)):
        rows = np.column_stack([rng.uniform(-2, 2, 4000),
                                *np.exp(rng.uniform(-3, 3, (model.dimension - 1, 4000)))])
        ref = [np.diag([c / theta[k] ** 2 for c, k in zip(model.weights, model.scale_map)])
               for theta in rows]
        assert np.array_equal(field.evaluate(rows), ref)
        assert np.array_equal(model.metric(rows[0]).components, ref[0])


_BAD_METRICS = {
    "non-spd": np.diag([1.0, -1.0]),
    "asymmetric": np.array([[1.0, 0.5], [0.0, 1.0]]),
    "non-finite": np.diag([1.0, np.nan]),
}


@pytest.mark.parametrize("kind", sorted(_BAD_METRICS))
def test_one_bad_matrix_in_a_batch_raises_todays_message(kind):
    bad = _BAD_METRICS[kind]
    with pytest.raises(DomainError) as single:
        ig.MetricTensor(bad)
    # the first bad matrix is named, with the message a single matrix gets
    stack = np.stack([np.eye(2), 2.0 * np.eye(2), bad, bad + np.eye(2)])
    with pytest.raises(DomainError) as batch:
        tensors.validate_metrics(stack)
    assert str(batch.value) == str(single.value)

    # and through the engine: one stencil point of one row is bad
    def evaluate(rows):
        g = np.broadcast_to(np.eye(2), (len(rows), 2, 2)).copy()
        g[(rows[:, 0] > 0.5) & (rows[:, 0] < 1.0)] = bad
        return g
    field = numgeo.MetricField(2, evaluate)
    rows = np.array([[0.0, 1.0], [0.5, 1.0], [2.0, 3.0]])    # only [0.5 + h, 1] is bad
    with pytest.raises(DomainError) as engine:
        numgeo._christoffel_rows(field, rows, 1e-3)
    assert str(engine.value) == str(single.value)


@pytest.mark.parametrize("field, row, point", [
    (ig.field_3d(), [0.0, -1.0, 1.0], ig.ParameterPoint3D),
    (ig.field_3d(), [0.0, 1.0, 0.0], ig.ParameterPoint3D),
    (ig.field_3d(), [np.nan, 1.0, 1.0], ig.ParameterPoint3D),
    (ig.field_2d(), [0.0, -2.0], ig.ParameterPoint2D),
    (ig.field_2d(), [np.inf, 1.0], ig.ParameterPoint2D),
])
def test_field_row_outside_the_domain_raises_the_point_error(field, row, point):
    with pytest.raises(DomainError) as single:
        point(*(float(v) for v in row))
    rows = np.array([[0.0] + [1.0] * (field.dimension - 1), row, row])
    with pytest.raises(DomainError) as batch:
        field.evaluate(rows)
    assert str(batch.value) == str(single.value)
    with pytest.raises(DomainError) as engine:
        ig.riemann_numeric(field, np.array(row))
    assert str(engine.value) == str(single.value)


@pytest.mark.parametrize("fn, theta, message", [
    (ig.christoffel_numeric, [0.0, 1e-6, 1.0], "finite-difference step [1.e-05 1.e-05 1.e-05] "
     "reaches the domain boundary at theta=[0.e+00 1.e-06 1.e+00]"),
    (ig.riemann_numeric, [0.0, 1e-6, 1.0], "finite-difference step [1.e-05 1.e-05 1.e-05] "
     "reaches the domain boundary at theta=[0.e+00 1.e-06 1.e+00]"),
    (ig.scalar_numeric, [0.0, 0.0015, 1.0], "finite-difference step [0.001 0.001 0.001] "
     "reaches the domain boundary at theta=[0.     0.0015 1.    ]"),
])
def test_domain_boundary_rejection_unchanged(fn, theta, message):
    with pytest.raises(DomainError) as exc:
        fn(ig.field_3d(), np.array(theta))
    assert str(exc.value) == message


def test_christoffel_at_non_finite_theta_raises():
    with pytest.raises(DomainError, match="not finite") as exc:
        ig.christoffel_numeric(ig.euclidean_field(2), np.array([np.nan, 1.0]))
    assert "\n" not in str(exc.value)


def test_riemann_at_non_finite_theta_raises_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite") as exc:
            ig.riemann_numeric(ig.euclidean_field(2), np.array([np.inf, 1.0]))
    assert "\n" not in str(exc.value)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mu=st.floats(-3.0, 3.0), log_scales=st.tuples(*[st.floats(-1.5, 1.5)] * 2),
       shift=st.floats(-5.0, 5.0), log_c=st.floats(-1.4, 1.4), three=st.booleans())
def test_isometries_and_bianchi(mu, log_scales, shift, log_c, three):
    # mean translation and (mu, sigma) -> (c mu, c sigma) are isometries, so
    # Gamma is unchanged and scales as 1/c, R^a_bcd as 1/c^2, within the
    # verify-geometry finite-difference tolerances (1e-6 for Gamma, 1e-4 for
    # R) taken relative to the largest entry
    field = ig.field_3d() if three else ig.field_2d()
    theta = np.array([mu, *np.exp(log_scales)[:field.dimension - 1]])
    moved = theta + np.eye(field.dimension)[0] * shift
    c = math.exp(log_c)
    gam = ig.christoffel_numeric(field, theta).components
    riem = ig.riemann_numeric(field, theta)
    g_tol, r_tol = 1e-6 * np.abs(gam).max(), 1e-4 * np.abs(riem.components).max()
    assert np.abs(ig.christoffel_numeric(field, moved).components - gam).max() <= g_tol
    assert np.abs(ig.riemann_numeric(field, moved).components - riem.components).max() <= r_tol
    assert np.abs(c * ig.christoffel_numeric(field, c * theta).components - gam).max() <= g_tol
    assert np.abs(c * c * ig.riemann_numeric(field, c * theta).components
                  - riem.components).max() <= r_tol
    assert riem.first_bianchi_defect() < 1e-6
