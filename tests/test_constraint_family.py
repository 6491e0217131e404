"""The constraint family sigma_x^p sigma_y = Sigma^2, built here from MODEL_3D.

On the constraint, d log sigma_y = -p d log sigma, so the pulled-back metric
of the (mu, sigma) plane has weights (c_0, c_1 + p^2 c_2) = (1, 2 + 2p^2):
curvature -1 / (1 + p^2) and a companion rate 1 / sqrt(1 + p^2) times the
3D one.  p = 1 is the paper's constraint and must give MODEL_2D itself; any
other p must move the softening table off the paper's 1/sqrt(2), so the
headline checks test the weights rather than restate them.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from infogeo import GeodesicSpec2D, GeodesicSpec3D, cli, fisher, numgeo
from infogeo.models import (MODEL_2D, MODEL_3D, DiagonalScaleModel, ParameterPoint2D,
                            ParameterPoint3D)

P_VALUES = (0.0, 0.25, 0.5, 0.9, 1.0, 1.1, 1.5, 2.0, 3.0)
POINTS = ((0.0, 1.0), (-1.7, 0.3), (2.5, 3.0))
CAPITAL_SIGMA_SQ = 1.3


def member(p):
    """The 2D model of sigma_x^p sigma_y = Sigma^2, by MODEL_2D's constructor."""
    c0, c1, c2 = MODEL_3D.weights
    return DiagonalScaleModel("2d", (c0, c1 + p * p * c2), (1, 1), ParameterPoint2D)


def test_the_paper_constraint_is_model_2d():
    assert member(1.0) == MODEL_2D
    assert MODEL_2D.weights == (1.0, 4.0)


@pytest.mark.parametrize("p", P_VALUES)
def test_member_curvature_closed_form_and_finite_differences(p):
    m = member(p)
    assert m.scalar_curvature == pytest.approx(-1.0 / (1.0 + p * p), rel=1e-14)
    field = numgeo.MetricField(2, m.metric_rows)
    for theta in POINTS:
        assert numgeo.scalar_numeric(field, theta) == pytest.approx(m.scalar_curvature, abs=1e-4)


@pytest.mark.parametrize("p", P_VALUES)
def test_member_metric_is_the_pulled_back_fisher_information(p):
    # the scores of the unconstrained family at the lifted point, times the
    # Jacobian of (mu, sigma) -> (mu, sigma, Sigma^2 / sigma^p)
    z, w = fisher._standard_grid(32)
    for mu, sigma in POINTS:
        sigma_y = CAPITAL_SIGMA_SQ / sigma**p
        scores = fisher._scores(ParameterPoint3D(mu, sigma, sigma_y), z)
        jac_t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, -p * sigma_y / sigma]])
        g = fisher._covariance(jac_t @ scores, w)
        np.testing.assert_allclose(g, member(p).metric_rows([mu, sigma])[0],
                                   rtol=1e-8, atol=1e-8 / sigma**2)


@pytest.mark.parametrize("p", P_VALUES)
def test_member_companion_rate(p):
    spec3 = GeodesicSpec3D(0.3, 1.7, 1.0, 0.8, 1.0)
    spec2 = type("MemberSpec2D", (GeodesicSpec2D,), {"model": member(p)}).from_3d(spec3)
    assert type(spec2).model == member(p)
    assert spec2.rate / spec3.rate == pytest.approx(1.0 / math.sqrt(1.0 + p * p), rel=1e-15)
    # the shared start and mu'(0) = span lam sigma0^2 that define the companion
    assert (spec2.mu0, spec2.sigma0) == (spec3.mu0, spec3.sigma0)
    assert (spec2.model.mean_span * spec2.lam
            == pytest.approx(spec3.model.mean_span * spec3.lam, rel=1e-15))


# lambda' up to 1e308 keeps the 3D mean's span * lam, and sigma0 <= 0.5 its
# mu'(0), in the double range
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lam=st.floats(5e-324, 1e308), sigma0=st.floats(1e-150, 0.5),
       mu0=st.floats(-1e300, 1e300), sigma0_prime=st.floats(1e-150, 1e150),
       lambda_f=st.floats(1e-150, 1e150))
def test_the_companion_rate_is_the_paper_s_bit_for_bit(lam, sigma0, mu0, sigma0_prime, lambda_f):
    spec = GeodesicSpec3D(mu0, sigma0, sigma0_prime, lam, lambda_f)
    assert GeodesicSpec2D.from_3d(spec).lambda_plus.hex() == (lam / math.sqrt(2.0)).hex()


@pytest.mark.parametrize("p", (0.9, 1.0, 1.1))
def test_the_headline_checks_see_the_constraint(p, monkeypatch):
    # the softening table of a companion built with any constraint but the
    # paper's fails both headline checks at every sweep point
    monkeypatch.setattr(GeodesicSpec2D, "model", member(p))
    report, _ = cli.run_softening(cli.ExperimentConfig())
    failed = sorted(c.name.split("[")[0] for c in report.checks if not c.passed)
    assert len(report.checks) == 9
    assert failed == ([] if p == 1.0 else 3 * ["softening_gap_error"] + 3 * ["softening_ratio_error"])
