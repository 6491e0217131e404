"""Closed-form model geometry: densities, metrics, connection, curvature."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import infogeo as ig
from infogeo import tensors
from infogeo.errors import DomainError
from infogeo.models import MODEL_2D, MODEL_3D, DiagonalScaleModel

RNG = np.random.default_rng(101)


def random_point_3d():
    return ig.ParameterPoint3D(RNG.uniform(-3, 3), RNG.uniform(0.3, 3.0),
                               RNG.uniform(0.3, 3.0))


def random_point_2d():
    return ig.ParameterPoint2D(RNG.uniform(-3, 3), RNG.uniform(0.3, 3.0))


def riemann_2d(point):
    return ig.RiemannTensor(MODEL_2D.tensors(point.as_array())[1])


def simpson_mass(pdf, mu, sx, sy, half_width=10.0, n=801):
    # independent normalization oracle: composite Simpson over a wide box
    xs = np.linspace(mu - half_width * sx, mu + half_width * sx, n)
    ys = np.linspace(-half_width * sy, half_width * sy, n)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    vals = pdf(ig.MicroSample(xs[:, None], ys[None, :]))
    hx, hy = xs[1] - xs[0], ys[1] - ys[0]
    return float(w @ vals @ w) * hx * hy / 9.0


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_pdf_3d_peak_of_standard_gaussian():
    p = ig.ParameterPoint3D(0.0, 1.0, 1.0)
    assert ig.pdf_3d(p, ig.MicroSample(0.0, 0.0)) == pytest.approx(1 / (2 * math.pi), rel=1e-15)


def test_pdf_3d_mode_value():
    # direct evaluation of the density formula at its mode: 1/(2 pi sx sy)
    p = ig.ParameterPoint3D(2.0, 3.0, 0.5)
    assert ig.pdf_3d(p, ig.MicroSample(2.0, 0.0)) == pytest.approx(1 / (3 * math.pi), rel=1e-15)
    assert ig.pdf_3d(p, ig.MicroSample(2.0, 0.0)) == pytest.approx(0.10610329539459689, rel=1e-12)


def test_pdf_3d_normalization():
    p = ig.ParameterPoint3D(0.0, 1.0, 1.0)
    mass = simpson_mass(lambda s: ig.pdf_3d(p, s), 0.0, 1.0, 1.0)
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_pdf_2d_unit_mode_and_normalization():
    p = ig.ParameterPoint2D(0.0, 1.0)
    cfg = ig.Model2DConfig(1.0)
    assert ig.pdf_2d(p, cfg, ig.MicroSample(0.0, 0.0)) == pytest.approx(1 / (2 * math.pi), rel=1e-15)
    cfg2 = ig.Model2DConfig(2.5)
    p2 = ig.ParameterPoint2D(1.0, 0.7)
    mass = simpson_mass(lambda s: ig.pdf_2d(p2, cfg2, s), 1.0, 0.7,
                        cfg2.sigma_y(0.7))
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_pdf_2d_is_constrained_pdf_3d():
    # sigma_y = Sigma^2 / sigma_x reproduces the constrained density pointwise
    cfg = ig.Model2DConfig(1.7)
    for _ in range(20):
        p2 = random_point_2d()
        p3 = ig.ParameterPoint3D(p2.mu_x, p2.sigma, cfg.sigma_y(p2.sigma))
        s = ig.MicroSample(RNG.uniform(-4, 4), RNG.uniform(-4, 4))
        assert ig.pdf_2d(p2, cfg, s) == pytest.approx(ig.pdf_3d(p3, s), rel=1e-13)


def test_parameter_validation():
    with pytest.raises(DomainError):
        ig.ParameterPoint3D(0.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        ig.ParameterPoint3D(0.0, 1.0, 0.0)
    with pytest.raises(DomainError):
        ig.ParameterPoint2D(math.nan, 1.0)
    with pytest.raises(DomainError):
        ig.Model2DConfig(0.0)
    with pytest.raises(DomainError):
        ig.MicroSample(math.inf, 0.0)
    with pytest.raises(DomainError):
        ig.MicroSample(np.zeros(3), np.array([0.0, math.nan, 1.0]))


def test_pdf_grid_matches_points():
    # one call on a grid gives the per-sample values bit for bit
    p3, p2, cfg = random_point_3d(), random_point_2d(), ig.Model2DConfig(1.7)
    xs, ys = RNG.uniform(-4, 4, 7), RNG.uniform(-4, 4, 5)
    for pdf in (lambda s: ig.pdf_3d(p3, s), lambda s: ig.pdf_2d(p2, cfg, s)):
        grid = pdf(ig.MicroSample(xs[:, None], ys[None, :]))
        points = [[pdf(ig.MicroSample(x, y)) for y in ys] for x in xs]
        np.testing.assert_array_equal(grid, points)


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------

def test_metric_3d_values():
    g = ig.metric_3d(ig.ParameterPoint3D(5.0, 1.0, 1.0)).components
    np.testing.assert_allclose(g, np.diag([1.0, 2.0, 2.0]), rtol=0, atol=0)
    g = ig.metric_3d(ig.ParameterPoint3D(-2.0, 2.0, 1.0)).components
    np.testing.assert_allclose(g, np.diag([0.25, 0.5, 2.0]), rtol=0, atol=0)


def test_metric_3d_determinant():
    for _ in range(10):
        p = random_point_3d()
        det = np.linalg.det(ig.metric_3d(p).components)
        assert det == pytest.approx(4.0 / (p.sigma_x**4 * p.sigma_y**2), rel=1e-12)


def test_metric_2d_values_and_determinant():
    g = ig.metric_2d(ig.ParameterPoint2D(0.0, 1.0)).components
    np.testing.assert_allclose(g, np.diag([1.0, 4.0]))
    g = ig.metric_2d(ig.ParameterPoint2D(0.0, 2.0)).components
    np.testing.assert_allclose(g, np.diag([0.25, 1.0]))
    for _ in range(10):
        p = random_point_2d()
        assert np.linalg.det(ig.metric_2d(p).components) == pytest.approx(4.0 / p.sigma**4,
                                                                           rel=1e-12)


def test_metrics_are_spd_everywhere():
    for _ in range(50):
        m3 = ig.metric_3d(random_point_3d()).components
        m2 = ig.metric_2d(random_point_2d()).components
        assert np.all(np.diag(m3) > 0) and np.all(np.diag(m2) > 0)
        assert np.all(np.linalg.eigvalsh(m3) > 0)
        assert np.all(np.linalg.eigvalsh(m2) > 0)


def _sylvester_accepts(g):
    # the determinant reference: every leading principal minor is positive
    return all(np.linalg.det(g[:k, :k]) > 0.0 for k in range(1, len(g) + 1))


def _metric_accepts(g):
    try:
        ig.MetricTensor(g)
    except DomainError:
        return False
    return True


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(n=st.sampled_from((2, 3)), diag=st.lists(st.floats(-0.5, 2.0), min_size=3, max_size=3),
       off=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), exponent=st.integers(-80, 80))
def test_cholesky_validation_matches_sylvester(n, diag, off, exponent):
    # symmetric, entries up to 10^exponent in size: no minor underflows or
    # overflows, and none lies so near zero that rounding could flip its sign
    a = np.diag(diag[:n])
    a[np.triu_indices(n, 1)] = off[:n * (n - 1) // 2]
    a = a + np.triu(a, 1).T
    assume(all(abs(np.linalg.det(a[:k, :k])) > 1e-6 for k in range(1, n + 1)))
    g = a * 10.0**exponent
    assert _metric_accepts(g) == _sylvester_accepts(g)


@pytest.mark.parametrize("g, match", [
    (np.diag([-1.0, -2.0]), "positive definite"),          # det = 2 > 0, indefinite
    (np.diag([-1.0, -1.0, 1.0]), "positive definite"),     # det = 1 > 0, indefinite
    (np.array([[1.0, 1.0], [1.0, 1.0]]), "positive definite"),   # singular PSD
    (np.diag([1.0, 0.0]), "positive definite"),            # singular PSD
    (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetric"),
    # the same 50% asymmetry at the size of a model metric at sigma = 1e6:
    # the symmetry bound is relative at every scale
    (np.array([[1e-12, 5e-13], [0.0, 1e-12]]), "symmetric"),
    (np.diag([math.inf, 1.0]), "non-finite"),
    (np.diag([1.0, math.nan]), "non-finite"),
    (np.diag([1e-200, 1e-200]), None),   # SPD; its determinant underflows to 0
], ids=["indefinite-2", "indefinite-3", "singular-psd-full", "singular-psd-diag",
        "asymmetric", "asymmetric-tiny", "inf", "nan", "tiny-spd"])
def test_metric_validation_fixed_cases(g, match):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if match is None:
            ig.MetricTensor(g)
        else:
            with pytest.raises(DomainError, match=match):
                ig.MetricTensor(g)
    assert not caught


@pytest.mark.parametrize("build, match", [
    (lambda: ig.metric_2d(ig.ParameterPoint2D(0.0, 1e-200)), "non-finite entry"),
    (lambda: ig.christoffel_numeric(ig.field_2d(), np.array([0.0, 1e200])),
     "not positive definite"),
    (lambda: ig.metric_3d(ig.ParameterPoint3D(0.0, 1e200, 1.0)), "not positive definite"),
    # the finite differences just past the double range of g, in both directions
    (lambda: ig.christoffel_numeric(ig.field_3d(), np.array([0.0, 1e156, 1.0])),
     "not positive definite"),
    (lambda: ig.riemann_numeric(ig.field_3d(), np.array([0.0, 1.0, 1e160])),
     "not positive definite"),
    (lambda: ig.scalar_numeric(ig.field_2d(), np.array([0.0, 1e300])), "not positive definite"),
    (lambda: ig.riemann_numeric(ig.field_2d(), np.array([0.0, 1e-160])), "non-finite entry"),
], ids=["square-underflows", "stencil-square-overflows", "square-overflows",
        "fd-christoffel-1e156", "fd-riemann-1e160", "fd-scalar-1e300", "fd-riemann-1e-160"])
def test_closed_form_metric_out_of_range_raises_without_warning(build, match):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match=match) as exc:
            build()
    assert not caught
    assert "\n" not in str(exc.value)


# ---------------------------------------------------------------------------
# connection
# ---------------------------------------------------------------------------

def test_christoffel_3d_unit_sigma():
    g = ig.christoffel_3d(ig.ParameterPoint3D(0.0, 1.0, 1.0)).components
    assert g[0, 0, 1] == g[0, 1, 0] == -1.0
    assert g[1, 0, 0] == 0.5
    assert g[1, 1, 1] == -1.0
    assert g[2, 2, 2] == -1.0
    # every other component vanishes
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[0, 0, 1] = mask[0, 1, 0] = mask[1, 0, 0] = mask[1, 1, 1] = mask[2, 2, 2] = True
    assert np.all(g[~mask] == 0.0)


def test_christoffel_2d_unit_sigma():
    g = ig.christoffel_2d(ig.ParameterPoint2D(0.0, 1.0)).components
    assert g[0, 0, 1] == g[0, 1, 0] == -1.0
    assert g[1, 0, 0] == 0.25
    assert g[1, 1, 1] == -1.0


def test_christoffel_lower_index_symmetry():
    for _ in range(25):
        assert ig.christoffel_3d(random_point_3d()).symmetry_defect() == 0.0
        assert ig.christoffel_2d(random_point_2d()).symmetry_defect() == 0.0


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_scalar_curvature_exact_values():
    assert ig.SCALAR_CURVATURE_3D == -1.0
    assert ig.SCALAR_CURVATURE_2D == -0.5


def test_scalar_curvature_is_parameter_independent():
    for _ in range(100):
        p3, p2 = random_point_3d(), random_point_2d()
        s3 = tensors.scalar(ig.metric_3d(p3).components,
                            tensors.ricci(ig.riemann_3d(p3).components))
        s2 = tensors.scalar(ig.metric_2d(p2).components, tensors.ricci(riemann_2d(p2).components))
        assert abs(s3 + 1.0) < 1e-12
        assert abs(s2 + 0.5) < 1e-12


def test_more_negative_curvature_without_constraint():
    assert abs(ig.SCALAR_CURVATURE_3D) > abs(ig.SCALAR_CURVATURE_2D)


def test_ricci_components():
    p = ig.ParameterPoint3D(0.0, 2.0, 1.0)
    np.testing.assert_allclose(tensors.ricci(ig.riemann_3d(p).components),
                               np.diag([-1 / 8, -1 / 4, 0.0]), atol=1e-15)
    p2 = ig.ParameterPoint2D(0.0, 2.0)
    np.testing.assert_allclose(tensors.ricci(riemann_2d(p2).components),
                               np.diag([-1 / 16, -1 / 4]), atol=1e-15)


def test_ricci_is_riemann_contraction():
    # R_ij = R^k_ikj: diag(-1/(2 sx^2), -1/sx^2, 0) in 3D, diag(-1/(4 s^2), -1/s^2) in 2D
    for _ in range(10):
        p = random_point_3d()
        np.testing.assert_allclose(tensors.ricci(ig.riemann_3d(p).components),
                                   np.diag([-0.5, -1.0, 0.0]) / p.sigma_x**2, atol=1e-14)
        p2 = random_point_2d()
        np.testing.assert_allclose(tensors.ricci(riemann_2d(p2).components),
                                   np.diag([-0.25, -1.0]) / p2.sigma**2, atol=1e-14)


def test_riemann_contraction_reproduces_scalar():
    # (R_1212 + R_2121) g^11 g^22 equals the scalar curvature
    for point, riemann, metric, expected in [
            (random_point_3d(), ig.riemann_3d, ig.metric_3d, -1.0),
            (random_point_2d(), riemann_2d, ig.metric_2d, -0.5)]:
        g = metric(point).components
        low = np.einsum("ab,bmnr->amnr", g, riemann(point).components)   # R_amnr
        ginv = np.linalg.inv(g)
        value = (low[0, 1, 0, 1] + low[1, 0, 1, 0]) * ginv[0, 0] * ginv[1, 1]
        assert value == pytest.approx(expected, rel=1e-12)


def test_riemann_symmetries_exact():
    for _ in range(10):
        r3 = ig.riemann_3d(random_point_3d())
        r2 = riemann_2d(random_point_2d())
        assert r3.antisymmetry_defect() == 0.0
        assert r2.antisymmetry_defect() == 0.0
        assert r3.first_bianchi_defect() == 0.0
        assert r2.first_bianchi_defect() == 0.0


def test_riemann_components_explicit():
    # R^1_212 = -1/sx^2 and R^2_121 = -1/(2 sx^2) (3D) resp. -1/(4 s^2)
    # (2D), their antisymmetric partners, and nothing else: every component
    # with a sigma_y index vanishes (the sigma_y direction is flat)
    for _ in range(10):
        p3, p2 = random_point_3d(), random_point_2d()
        for riemann, point, s, second in ((ig.riemann_3d, p3, p3.sigma_x, -0.5),
                                          (riemann_2d, p2, p2.sigma, -0.25)):
            r = riemann(point).components
            expected = np.zeros(r.shape)
            expected[0, 1, 0, 1], expected[0, 1, 1, 0] = -1.0 / s**2, 1.0 / s**2
            expected[1, 0, 1, 0], expected[1, 0, 0, 1] = second / s**2, -second / s**2
            np.testing.assert_allclose(r, expected, rtol=1e-15, atol=0)


def test_model_descriptions():
    assert (MODEL_3D.weights, MODEL_3D.scale_map) == ((1.0, 2.0, 2.0), (1, 1, 2))
    assert (MODEL_2D.weights, MODEL_2D.scale_map) == ((1.0, 4.0), (1, 1))
    assert MODEL_3D.coordinates == ("mu_x", "sigma_x", "sigma_y")
    assert MODEL_3D.flat_coordinates == (2,) and MODEL_2D.flat_coordinates == ()
    assert MODEL_3D.mean_span == math.sqrt(2.0) and MODEL_2D.mean_span == 2.0
    # the mean must be measured in a scale, and every scale in itself
    for weights, scale_map in (((1.0, 2.0), (0, 1)), ((1.0, 2.0, 2.0), (1, 2, 2)),
                               ((1.0, -2.0), (1, 1))):
        with pytest.raises(ValueError):
            DiagonalScaleModel("bad", weights, scale_map, ig.ParameterPoint2D)


@pytest.mark.parametrize("entry", [(1, 1), (1, 2), (0, 0)])
def test_ratio_system_refuses_a_mean_ratio_not_linear_in_r_0(entry):
    # the log row h' = r_0' / r_0 is read off q_0, which holds it only if
    # each term of q_0 carries r_0 exactly once
    model = DiagonalScaleModel("3d", MODEL_3D.weights, MODEL_3D.scale_map, ig.ParameterPoint3D)
    q = MODEL_3D._ratio_tensor.copy()
    q[(0, *entry)] = 0.5
    model.__dict__["_ratio_tensor"] = q
    with pytest.raises(ValueError, match="not linear in r_0"):
        model.ratio_system


_finite = st.floats(-5.0, 5.0)
_scale = st.floats(0.1, 10.0)


def _geometry(model, theta):
    gam, riem = model.tensors(theta)
    return model.metric(theta).components, gam, riem


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(point=st.tuples(_finite, _scale, _scale), shift=_finite,
       a=st.floats(0.1, 10.0), three=st.booleans())
def test_translation_and_scaling_are_isometries(point, shift, a, three):
    # mean translation leaves g, Gamma and R unchanged; (mu, sigma) ->
    # (a mu, a sigma) scales them by a^-2, a^-1 and a^-2
    model = MODEL_3D if three else MODEL_2D
    theta = np.array(point[:model.dimension])
    base = _geometry(model, theta)
    moved = _geometry(model, theta + np.eye(model.dimension)[0] * shift)
    for x, y in zip(base, moved):
        np.testing.assert_array_equal(x, y)
    scaled = _geometry(model, a * theta)
    for x, y, power in zip(base, scaled, (2, 1, 2)):
        np.testing.assert_allclose(y * a**power, x, rtol=1e-14, atol=0)
