"""Fisher metric by quadrature against the closed-form matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import infogeo as ig
import reference
from infogeo.errors import DomainError

GH = ig.QuadratureSpec(32)
GRID_NODES = 1025


def _fisher(scheme, nodes):
    """The 3D and 2D Fisher functions of the package's Gauss-Hermite rule or
    of the reference truncated grid, at a node count per axis."""
    if scheme == "gauss-hermite":
        q = ig.QuadratureSpec(nodes)
        return (lambda theta: ig.fisher_numeric_3d(theta, q),
                lambda theta, cfg=ig.Model2DConfig(): ig.fisher_numeric_2d(theta, cfg, q))
    return (lambda theta: reference.fisher_grid_3d(theta, nodes),
            lambda theta, cfg=ig.Model2DConfig(): reference.fisher_grid_2d(theta, cfg, nodes))


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        ig.QuadratureSpec(nodes_per_axis=4)
    with pytest.raises(DomainError):
        ig.QuadratureSpec(nodes_per_axis=8.5)


def test_fisher_3d_standard_point():
    g = ig.fisher_numeric_3d(ig.ParameterPoint3D(0.0, 1.0, 1.0), GH)
    np.testing.assert_allclose(g, np.diag([1.0, 2.0, 2.0]), atol=1e-8)


def test_fisher_3d_generic_point():
    g = ig.fisher_numeric_3d(ig.ParameterPoint3D(5.0, 2.0, 0.5), GH)
    np.testing.assert_allclose(g, np.diag([0.25, 0.5, 8.0]), atol=1e-8)


def test_fisher_3d_off_diagonal_vanishes():
    g = ig.fisher_numeric_3d(ig.ParameterPoint3D(1.5, 0.8, 1.7), GH)
    off = g - np.diag(np.diag(g))
    assert np.abs(off).max() < 1e-10


def test_fisher_2d_values():
    g = ig.fisher_numeric_2d(ig.ParameterPoint2D(0.0, 1.0), ig.Model2DConfig(1.0), GH)
    np.testing.assert_allclose(g, np.diag([1.0, 4.0]), atol=1e-8)
    g = ig.fisher_numeric_2d(ig.ParameterPoint2D(0.0, 1.0), ig.Model2DConfig(3.0), GH)
    np.testing.assert_allclose(g, np.diag([1.0, 4.0]), atol=1e-8)
    g = ig.fisher_numeric_2d(ig.ParameterPoint2D(2.0, 2.0), ig.Model2DConfig(0.7), GH)
    np.testing.assert_allclose(g, np.diag([0.25, 1.0]), atol=1e-8)


def test_fisher_2d_constraint_constant_independence():
    p = ig.ParameterPoint2D(0.3, 1.4)
    results = [ig.fisher_numeric_2d(p, ig.Model2DConfig(s2), GH)
               for s2 in (0.5, 1.0, 3.0)]
    for g in results[1:]:
        assert np.abs(g - results[0]).max() < 1e-8


def test_schemes_agree():
    p = ig.ParameterPoint3D(0.4, 1.1, 0.9)
    g_gh = ig.fisher_numeric_3d(p, GH)
    g_grid = reference.fisher_grid_3d(p, GRID_NODES)
    assert np.abs(g_gh - g_grid).max() < 1e-6
    p2 = ig.ParameterPoint2D(0.4, 1.1)
    assert np.abs(ig.fisher_numeric_2d(p2, q=GH)
                  - reference.fisher_grid_2d(p2, nodes_per_axis=GRID_NODES)).max() < 1e-6


def test_mean_entry_scale_covariance():
    # g_11(sigma_x) = g_11(1) / sigma_x^2
    base = ig.fisher_numeric_3d(ig.ParameterPoint3D(0.0, 1.0, 1.0), GH)[0, 0]
    for sx in (0.5, 1.7, 2.5):
        g = ig.fisher_numeric_3d(ig.ParameterPoint3D(0.0, sx, 1.0), GH)
        assert g[0, 0] == pytest.approx(base / sx**2, rel=1e-10)


def test_node_doubling_stability():
    p = ig.ParameterPoint3D(0.2, 1.0, 1.5)
    fine = ig.fisher_numeric_3d(p, ig.QuadratureSpec(2 * GH.nodes_per_axis))
    assert np.abs(fine - ig.fisher_numeric_3d(p, GH)).max() < 1e-12


def _reference_2d(theta, cfg, scheme, nodes):
    """The constrained scores written out, (dx/sigma^2, dx^2/sigma^3 -
    sigma y^2/Sigma^4), and their Fisher matrix as row-weights @ integrand @
    column-weights sums on the scheme's product grid, placed around mu_x."""
    s, s2 = theta.sigma, cfg.capital_sigma_sq
    sy = cfg.sigma_y(s)
    if scheme == "gauss-hermite":
        u, w = np.polynomial.hermite.hermgauss(nodes)
        wx = wy = w / np.sqrt(np.pi)
        x, y, dens = theta.mu_x + np.sqrt(2.0) * s * u, np.sqrt(2.0) * sy * u, 1.0
    else:
        n, r = nodes | 1, reference.TRUNCATION_RADIUS
        simpson = np.ones(n)
        simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
        x = np.linspace(theta.mu_x - r * s, theta.mu_x + r * s, n)
        y = np.linspace(-r * sy, r * sy, n)
        wx, wy = simpson / 3.0 * (x[1] - x[0]), simpson / 3.0 * (y[1] - y[0])
        dens = reference.pdf_2d(theta, cfg, x[:, None], y[None, :])
    dx, y = (x - theta.mu_x)[:, None], y[None, :]
    scores = [np.broadcast_to(f, (x.size, y.size))
              for f in (dx / s**2, dx**2 / s**3 - s * y**2 / s2**2)]
    return np.array([[wx @ (a * b * dens) @ wy for b in scores] for a in scores])


@pytest.mark.parametrize("scheme, nodes", [("gauss-hermite", 32), ("truncated-grid", 129)],
                         ids=["gauss-hermite", "truncated-grid"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mu=st.floats(-2.0, 2.0), sigma=st.floats(0.3, 3.0), s2=st.floats(0.3, 3.0))
def test_pullback_matches_the_constrained_scores(scheme, nodes, mu, sigma, s2):
    theta, cfg = ig.ParameterPoint2D(mu, sigma), ig.Model2DConfig(s2)
    fisher_3d, fisher_2d = _fisher(scheme, nodes)
    fisher_ref = _reference_2d(theta, cfg, scheme, nodes)
    g = fisher_2d(theta, cfg)
    # the reference forms x - mu_x itself, so it carries about eps |mu_x| / sigma
    assert np.abs(g - fisher_ref).max() < 5e-14 * np.abs(fisher_ref).max()
    g3 = fisher_3d(ig.ParameterPoint3D(mu, sigma, s2))
    assert np.array_equal(g, g.T) and np.array_equal(g3, g3.T)


@pytest.mark.parametrize("scheme, rel", [("gauss-hermite", 1e-14), ("truncated-grid", 1.3e-6)],
                         ids=["gauss-hermite", "truncated-grid"])
@pytest.mark.parametrize("p", [(0.3, 1e-20, 1.0), (1e6, 1e-3, 1.0), (0.0, 1e-150, 1e150)],
                         ids=repr)
@pytest.mark.filterwarnings("error")
def test_fisher_far_from_unit_scale(scheme, rel, p):
    """sigma_x << |mu_x| and sigma at 1e-150 / 1e150: both schemes keep their
    own accuracy relative to the largest entry, with no warning."""
    fisher_3d, fisher_2d = _fisher(scheme, 32)
    cases = [(fisher_3d(ig.ParameterPoint3D(*p)),
              ig.metric_3d(ig.ParameterPoint3D(*p)).components),
             (fisher_2d(ig.ParameterPoint2D(*p[:2])),
              ig.metric_2d(ig.ParameterPoint2D(*p[:2])).components)]
    for g, ref in cases:
        assert np.abs(g - ref).max() <= rel * np.abs(ref).max()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(mu=st.floats(-1e3, 1e3), shift=st.floats(-1e3, 1e3),
       log10_scales=st.tuples(st.floats(-100.0, 100.0), st.floats(-100.0, 100.0)),
       k=st.integers(-30, 30), s2=st.floats(0.3, 3.0), three=st.booleans())
def test_translation_and_scaling_are_isometries_bit_for_bit(mu, shift, log10_scales, k, s2,
                                                            three):
    # the scores hold no mu_x, so mean translation leaves F bit-identical; a
    # scale by c = 2^k scales every score by 1/c exactly (sigma_y = Sigma^2 /
    # sigma of the 2D model by 1/c, its Jacobian entry by 1/c^2), so
    # (mu, sigma) -> (c mu, c sigma) gives F / c^2 bit for bit
    c = 2.0 ** k
    scales = 10.0 ** np.array(log10_scales)
    if three:
        def fisher(m, scale):
            return ig.fisher_numeric_3d(ig.ParameterPoint3D(m, *(scale * scales)))
    else:
        cfg = ig.Model2DConfig(s2)

        def fisher(m, scale):
            return ig.fisher_numeric_2d(ig.ParameterPoint2D(m, scale * scales[0]), cfg)
    g = fisher(mu, 1.0)
    assert np.array_equal(fisher(mu + shift, 1.0), g)
    assert np.array_equal(fisher(c * mu, c), g / (c * c))
