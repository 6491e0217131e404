"""Fisher metric by quadrature against the closed-form matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import infogeo as ig
from infogeo.errors import DomainError
from infogeo.fisher import TRUNCATION_RADIUS

GH = ig.QuadratureSpec("gauss-hermite-product", 32)
GRID = ig.QuadratureSpec("truncated-grid", 1025)


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        ig.QuadratureSpec("monte-carlo")
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
    g_grid = ig.fisher_numeric_3d(p, GRID)
    assert np.abs(g_gh - g_grid).max() < 1e-6
    p2 = ig.ParameterPoint2D(0.4, 1.1)
    assert np.abs(ig.fisher_numeric_2d(p2, q=GH)
                  - ig.fisher_numeric_2d(p2, q=GRID)).max() < 1e-6


def test_mean_entry_scale_covariance():
    # g_11(sigma_x) = g_11(1) / sigma_x^2
    base = ig.fisher_numeric_3d(ig.ParameterPoint3D(0.0, 1.0, 1.0), GH)[0, 0]
    for sx in (0.5, 1.7, 2.5):
        g = ig.fisher_numeric_3d(ig.ParameterPoint3D(0.0, sx, 1.0), GH)
        assert g[0, 0] == pytest.approx(base / sx**2, rel=1e-10)


def test_node_doubling_stability():
    p = ig.ParameterPoint3D(0.2, 1.0, 1.5)
    fine = ig.fisher_numeric_3d(p, ig.QuadratureSpec(GH.scheme, 2 * GH.nodes_per_axis))
    assert np.abs(fine - ig.fisher_numeric_3d(p, GH)).max() < 1e-12


def _reference_2d(theta, cfg, q):
    """The constrained scores written out, (dx/sigma^2, dx^2/sigma^3 -
    sigma y^2/Sigma^4), and their Fisher matrix as row-weights @ integrand @
    column-weights sums on q's product grid, placed around mu_x."""
    s, s2 = theta.sigma, cfg.capital_sigma_sq
    sy = cfg.sigma_y(s)
    if q.scheme == "gauss-hermite-product":
        u, w = np.polynomial.hermite.hermgauss(q.nodes_per_axis)
        wx = wy = w / np.sqrt(np.pi)
        x, y, dens = theta.mu_x + np.sqrt(2.0) * s * u, np.sqrt(2.0) * sy * u, 1.0
    else:
        n, r = q.nodes_per_axis | 1, TRUNCATION_RADIUS
        simpson = np.ones(n)
        simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
        x = np.linspace(theta.mu_x - r * s, theta.mu_x + r * s, n)
        y = np.linspace(-r * sy, r * sy, n)
        wx, wy = simpson / 3.0 * (x[1] - x[0]), simpson / 3.0 * (y[1] - y[0])
        dens = ig.pdf_2d(theta, cfg, ig.MicroSample(x[:, None], y[None, :]))
    dx, y = (x - theta.mu_x)[:, None], y[None, :]
    scores = [np.broadcast_to(f, (x.size, y.size))
              for f in (dx / s**2, dx**2 / s**3 - s * y**2 / s2**2)]
    return np.array([[wx @ (a * b * dens) @ wy for b in scores] for a in scores])


@pytest.mark.parametrize("q", [GH, ig.QuadratureSpec("truncated-grid", 129)],
                         ids=["gauss-hermite", "truncated-grid"])
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(mu=st.floats(-2.0, 2.0), sigma=st.floats(0.3, 3.0), s2=st.floats(0.3, 3.0))
def test_pullback_matches_the_constrained_scores(q, mu, sigma, s2):
    theta, cfg = ig.ParameterPoint2D(mu, sigma), ig.Model2DConfig(s2)
    fisher_ref = _reference_2d(theta, cfg, q)
    g = ig.fisher_numeric_2d(theta, cfg, q)
    # the reference forms x - mu_x itself, so it carries about eps |mu_x| / sigma
    assert np.abs(g - fisher_ref).max() < 5e-14 * np.abs(fisher_ref).max()
    g3 = ig.fisher_numeric_3d(ig.ParameterPoint3D(mu, sigma, s2), q)
    assert np.array_equal(g, g.T) and np.array_equal(g3, g3.T)


@pytest.mark.parametrize("q, rel", [(GH, 1e-14), (ig.QuadratureSpec("truncated-grid"), 1.3e-6)],
                         ids=["gauss-hermite", "truncated-grid"])
@pytest.mark.parametrize("p", [(0.3, 1e-20, 1.0), (1e6, 1e-3, 1.0), (0.0, 1e-150, 1e150)],
                         ids=repr)
@pytest.mark.filterwarnings("error")
def test_fisher_far_from_unit_scale(q, rel, p):
    """sigma_x << |mu_x| and sigma at 1e-150 / 1e150: both schemes keep their
    own accuracy relative to the largest entry, with no warning."""
    cases = [(ig.fisher_numeric_3d(ig.ParameterPoint3D(*p), q),
              ig.metric_3d(ig.ParameterPoint3D(*p)).components),
             (ig.fisher_numeric_2d(ig.ParameterPoint2D(*p[:2]), q=q),
              ig.metric_2d(ig.ParameterPoint2D(*p[:2])).components)]
    for g, ref in cases:
        assert np.abs(g - ref).max() <= rel * np.abs(ref).max()
