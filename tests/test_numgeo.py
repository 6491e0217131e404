"""Finite-difference curvature engine against the closed forms."""

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


def test_step_next_to_domain_boundary_stays_inside():
    # an explicit step of 1e-5 at sigma_x = 1e-6 is 1e-5 sigma_x wide, so the
    # stencil keeps sigma_x > 0 and Gamma matches the closed form within 1e-6
    # of its largest entry
    field = ig.field_3d()
    theta = np.array([0.0, 1e-6, 1.0])
    _, _, scales = numgeo._chart(field, theta)       # S_i = g_ii^(-1/2)
    assert np.allclose(scales, [1e-6, 1e-6 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)], rtol=1e-15)
    assert (theta - 1e-5 * scales)[1:].min() > 0.0
    ref, _ = MODEL_3D.tensors(theta)
    num = ig.christoffel_numeric(field, theta, h=1e-5).components
    assert np.abs(num - ref).max() <= 1e-6 * np.abs(ref).max()


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
        exact = ig.riemann_3d(p)
        assert np.abs(tensors.ricci(riem.components) - tensors.ricci(exact.components)).max() < 1e-5
    for theta in sample_2d(25):
        p = ig.ParameterPoint2D(*theta)
        gam = ig.christoffel_numeric(f2, theta).components
        assert np.abs(gam - ig.christoffel_2d(p).components).max() < 1e-5
        riem = ig.riemann_numeric(f2, theta)
        exact = ig.RiemannTensor(MODEL_2D.tensors(theta)[1])
        assert np.abs(riem.components - exact.components).max() < 1e-5
        assert np.abs(tensors.ricci(riem.components) - tensors.ricci(exact.components)).max() < 1e-5


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
        ig.christoffel_numeric(bad, np.array([0.0, 1.0]))


def test_field_evaluate_shape_checked():
    bad = numgeo.MetricField(3, _rows_of(np.eye(2)))
    with pytest.raises(DomainError, match="shape"):
        ig.christoffel_numeric(bad, np.zeros(3))


@pytest.mark.parametrize("field", [ig.field_3d(), ig.field_2d(), ig.euclidean_field(3)])
def test_batched_christoffel_matches_each_point_bit_for_bit(field):
    rng = np.random.default_rng(5)
    rows = np.column_stack([rng.uniform(-2, 2, 7),
                            *rng.uniform(0.5, 2.0, (field.dimension - 1, 7))])
    scales = np.array([numgeo._chart(field, theta)[2] for theta in rows])
    batch = numgeo._christoffel_rows(field, rows, scales, numgeo.METRIC_STEP)
    for theta, s, gam in zip(rows, scales, batch):
        # Gamma^k_ij = Gamma-hat^k_ij S_k / (S_i S_j)
        assert np.array_equal(gam * s[:, None, None] / np.multiply.outer(s, s),
                              ig.christoffel_numeric(field, theta).components)


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
    "asymmetric-past-1e-12": np.array([[1.0, 2e-12], [0.0, 1.0]]),
    "non-finite": np.diag([1.0, np.nan]),
}
# symmetric to 1e-13 of its largest entry: accepted, though not exactly symmetric
_NEAR_SYMMETRIC = np.array([[2.0, 0.5 + 2e-13], [0.5, 1.0]])


@pytest.mark.parametrize("kind", sorted(_BAD_METRICS))
def test_one_bad_matrix_in_a_batch_raises_todays_message(kind):
    bad = _BAD_METRICS[kind]
    with pytest.raises(DomainError) as single:
        ig.MetricTensor(bad)
    # the first bad matrix is named, with the message a single matrix gets
    stack = np.stack([np.eye(2), _NEAR_SYMMETRIC, bad, bad + np.eye(2)])
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
        numgeo._christoffel_rows(field, rows, np.ones_like(rows), 1e-3)
    assert str(engine.value) == str(single.value)


def test_a_batch_symmetric_to_rounding_is_accepted():
    # not exactly symmetric, so the batch leaves the one-Cholesky route and is
    # judged matrix by matrix, against 1e-12 of each matrix's largest entry
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3, 3))
    g = a @ a.transpose(0, 2, 1) + 3.0 * np.eye(3)
    g[:, 0, 1] *= 1.0 + 1e-13
    assert (g != g.transpose(0, 2, 1)).any(axis=(1, 2)).all()
    tensors.validate_metrics(g)
    # and through the engine: a constant metric has no connection
    field = numgeo.MetricField(3, lambda rows: np.broadcast_to(g[0], (len(rows), 3, 3)))
    assert not ig.christoffel_numeric(field, np.zeros(3)).components.any()


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
    # one bad row between good ones, and a later bad row that is not named
    good = [0.0] + [1.0] * (field.dimension - 1)
    rows = np.array([good, row, good, good[:-1] + [-7.0]])
    with pytest.raises(DomainError) as batch:
        field.evaluate(rows)
    assert str(batch.value) == str(single.value)
    with pytest.raises(DomainError) as engine:
        ig.riemann_numeric(field, np.array(row))
    assert str(engine.value) == str(single.value)


@pytest.mark.parametrize("fn, theta", [
    (ig.christoffel_numeric, [0.0, 1e-6, 1.0]),
    (ig.riemann_numeric, [0.0, 1e-6, 1.0]),
    (ig.scalar_numeric, [0.0, 0.0015, 1.0]),
])
def test_points_near_sigma_zero_match_closed_forms(fn, theta):
    # steps in units of sigma never reach sigma = 0, and next to it they give
    # the closed forms: Gamma within 1e-6 and R within 1e-4 of the largest
    # entry, the scalar curvature within 1e-4
    theta = np.array(theta)
    gam, riem = MODEL_3D.tensors(theta)
    out = fn(ig.field_3d(), theta)
    if fn is ig.christoffel_numeric:
        assert np.abs(out.components - gam).max() <= 1e-6 * np.abs(gam).max()
        return
    if fn is ig.riemann_numeric:
        assert np.abs(out.components - riem).max() <= 1e-4 * np.abs(riem).max()
        out = tensors.scalar(ig.field_3d().evaluate(theta[None])[0], tensors.ricci(out.components))
    assert out == pytest.approx(MODEL_3D.scalar_curvature, abs=1e-4)


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
@given(mu=st.floats(-3.0, 3.0), log10_scales=st.tuples(*[st.floats(-150.0, 154.0)] * 2),
       shift=st.floats(-5.0, 5.0), power=st.integers(1, 8), three=st.booleans())
def test_isometries_and_bianchi(mu, log10_scales, shift, power, three):
    # for sigma from 1e-150 to 1e154 (sigma_y drawn on its own in 3D) the
    # finite-difference Gamma, R and scalar curvature match the closed forms
    # within the verify-geometry tolerances (1e-6 for Gamma, 1e-4 for R and the
    # scalar curvature), taken relative to the largest entry, with no warning.
    # Mean translation and (mu, sigma) -> (c mu, c sigma) are isometries, so
    # Gamma is unchanged and scales as 1/c, R^a_bcd as 1/c^2.  c = 2^-power
    # keeps c theta inside the double range of g at sigma = 1e154 and makes
    # c theta exact, but the metric squares with libm pow, which misrounds a
    # few squares: the scaled tensors are compared within the same
    # tolerances, not bit for bit
    model = MODEL_3D if three else MODEL_2D
    field = ig.field_3d() if three else ig.field_2d()
    theta = np.array([mu, *10.0 ** np.array(log10_scales)[:field.dimension - 1]])
    moved = theta + np.eye(field.dimension)[0] * shift
    c = 0.5 ** power
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gam = ig.christoffel_numeric(field, theta).components
        riem = ig.riemann_numeric(field, theta)
        scalar = ig.scalar_numeric(field, theta)
        moved_gam = ig.christoffel_numeric(field, moved).components
        moved_riem = ig.riemann_numeric(field, moved).components
        scaled_gam = ig.christoffel_numeric(field, c * theta).components
        scaled_riem = ig.riemann_numeric(field, c * theta).components
    gam_ref, riem_ref = model.tensors(theta)
    g_tol, r_tol = 1e-6 * np.abs(gam_ref).max(), 1e-4 * np.abs(riem_ref).max()
    assert np.abs(gam - gam_ref).max() <= g_tol
    assert np.abs(riem.components - riem_ref).max() <= r_tol
    assert scalar == pytest.approx(model.scalar_curvature, abs=1e-4)
    assert np.abs(moved_gam - gam).max() <= g_tol
    assert np.abs(moved_riem - riem.components).max() <= r_tol
    assert np.abs(c * scaled_gam - gam).max() <= g_tol
    assert np.abs(c * c * scaled_riem - riem.components).max() <= r_tol
    assert riem.first_bianchi_defect() <= 1e-6 * np.abs(riem_ref).max()


@pytest.mark.parametrize("sigma", [1e-150, 1e110, 1e150])
@pytest.mark.parametrize("model, field", [(MODEL_3D, ig.field_3d()), (MODEL_2D, ig.field_2d())],
                         ids=["3d", "2d"])
def test_far_from_unit_scale_matches_closed_forms(model, field, sigma):
    # in coordinates d g ~ 1 / sigma^3 overflows at 1e-150 and underflows at
    # 1e110; in the unit chart every entry is O(1), and Gamma, R and the
    # scalar curvature hold without a warning
    theta = np.array([0.3, sigma, 0.7 * sigma][:model.dimension])
    gam_ref, riem_ref = model.tensors(theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gam = ig.christoffel_numeric(field, theta).components
        riem = ig.riemann_numeric(field, theta).components
        scalar = ig.scalar_numeric(field, theta)
    assert np.abs(gam - gam_ref).max() <= 1e-6 * np.abs(gam_ref).max()
    assert np.abs(riem - riem_ref).max() <= 1e-4 * np.abs(riem_ref).max()
    assert scalar == pytest.approx(model.scalar_curvature, abs=1e-4)
