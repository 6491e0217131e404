"""Swept volumes, temporal averages and entropy tail slopes."""

import itertools
import math

import numpy as np
import pytest

import infogeo as ig
from infogeo.errors import DomainError
from infogeo.geodesics import _closed_form
from infogeo.ige import _panelled_gauss, log_time_average

SPEC3 = ig.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, 1.0)
SPEC2 = ig.GeodesicSpec2D.from_3d(SPEC3)

RNG = np.random.default_rng(303)


# ---------------------------------------------------------------------------
# density and instantaneous volumes
# ---------------------------------------------------------------------------

def test_fisher_density_matches_metric_determinant():
    for _ in range(25):
        p3 = ig.ParameterPoint3D(RNG.uniform(-2, 2), RNG.uniform(0.3, 3),
                                 RNG.uniform(0.3, 3))
        assert ig.fisher_density_3d(p3) == pytest.approx(
            math.sqrt(ig.metric_3d(p3).determinant), rel=1e-12)
        p2 = ig.ParameterPoint2D(RNG.uniform(-2, 2), RNG.uniform(0.3, 3))
        assert ig.fisher_density_2d(p2) == pytest.approx(
            math.sqrt(ig.metric_2d(p2).determinant), rel=1e-12)


def test_box_volume_vanishes_at_zero():
    assert ig.box_volume(SPEC3, 0.0) == 0.0
    assert ig.box_volume(SPEC2, 0.0) == 0.0
    assert ig.box_volume(SPEC3, 1e-8) < 1e-20


def test_box_volume_against_quadrature_oracle():
    # up to the end of the tail window, where the headline fits sit
    for rate_tau in (0.5, 2.0, 5.0, 20.0, 50.0):
        for spec in (SPEC3, SPEC2):
            tau = rate_tau / spec.rate
            closed = ig.box_volume(spec, tau)
            quad = ig.box_volume_quadrature(spec, tau)
            assert abs(quad - closed) / closed < 1e-8


def test_box_quadrature_matches_the_per_node_formula():
    # the per-node loop the mesh evaluation replaced, kept as the reference
    def per_node(spec, tau, nodes=(8, 32, 32)):
        theta1, _ = _closed_form(spec, tau, ig.MU_SPAN_WIDE, 0.0)
        theta0, _ = _closed_form(spec, 0.0, ig.MU_SPAN_WIDE, 0.0)
        los, his = np.minimum(theta0, theta1), np.maximum(theta0, theta1)
        wmu = 0.5 * (his[0] - los[0]) * np.polynomial.legendre.leggauss(nodes[0])[1]
        axes = [list(zip(*_panelled_gauss(los[j], his[j], nodes[j])))
                for j in range(1, spec.model.dimension)]
        total = 0.0
        for node in itertools.product(*axes):
            scales, weights = zip(*node)
            dens = math.sqrt(spec.model.metric((0.0, *scales)).determinant)
            total += math.prod(weights) * dens
        return total * wmu.sum()
    for tau in (0.5, 2.0):
        for spec in (SPEC3, SPEC2):
            ref = per_node(spec, tau)
            assert abs(ig.box_volume_quadrature(spec, tau) - ref) <= 1e-12 * ref


def test_box_volume_quadrature_sees_the_span():
    closed = ig.box_volume(SPEC3, 2.0, mu_span=ig.MU_SPAN_EXACT_3D)
    quad = ig.box_volume_quadrature(SPEC3, 2.0, mu_span=ig.MU_SPAN_EXACT_3D)
    assert abs(quad - closed) / closed < 1e-8
    assert closed < ig.box_volume(SPEC3, 2.0)  # narrower mean span


def test_box_volume_nondecreasing():
    taus = np.linspace(0.0, 30.0, 500)
    lv3 = ig.log_box_volume(SPEC3, taus)
    lv2 = ig.log_box_volume(SPEC2, taus)
    assert np.all(np.diff(lv3[1:]) > 0.0)
    assert np.all(np.diff(lv2[1:]) > 0.0)


def test_box_volume_rejects_negative_time():
    with pytest.raises(DomainError):
        ig.box_volume(SPEC3, -1.0)


# ---------------------------------------------------------------------------
# temporal average
# ---------------------------------------------------------------------------

def test_average_of_constant_is_the_constant():
    c = 3.7
    avg = log_time_average(lambda t: np.full_like(t, math.log(c)), 10.0)
    assert math.exp(avg) == pytest.approx(c, rel=1e-13)


def test_average_grid_refinement_converges():
    a = ig.log_averaged_volume(SPEC3, 10.0, n_grid=2049)
    b = ig.log_averaged_volume(SPEC3, 10.0, n_grid=4097)
    assert abs(math.expm1(a - b)) < 1e-6


def test_average_validation():
    with pytest.raises(DomainError):
        ig.log_averaged_volume(SPEC3, 0.0)
    with pytest.raises(DomainError):
        ig.log_averaged_volume(SPEC3, 1.0, n_grid=32)
    ig.log_averaged_volume(SPEC3, 1.0, n_grid=64)  # minimum grid accepted


# ---------------------------------------------------------------------------
# closed-form reference volumes
# ---------------------------------------------------------------------------

def test_reference_volume_2d_asymptotic_form():
    # mu0=0, sigma0=1, lambda=1: V ~ 2 e^tau / tau on the tail
    spec = ig.GeodesicSpec2D(0.0, 1.0, 1.0)
    tau = 40.0
    expected = 2.0 * math.exp(tau) / tau
    assert ig.closed_form_volume_2d(spec, tau) == pytest.approx(expected, rel=1e-12)


def test_reference_volume_3d_asymptotic_form():
    # V ~ (lambda_f / lambda') * (mu0 + 2 sigma0) / sigma0^2 * e^(rate tau)
    tau = 400.0
    log_expected = math.log(1.0 * 2.0 / 1.0) + SPEC3.rate * tau
    assert ig.log_closed_form_volume_3d(SPEC3, tau) == pytest.approx(
        log_expected, abs=5e-3)


def test_averaged_volume_matches_reference_on_tail():
    # both models, 5% relative on the window rate*tau in [20, 50]
    for spec, log_ref in ((SPEC3, ig.log_closed_form_volume_3d),
                          (SPEC2, ig.log_closed_form_volume_2d)):
        taus = np.linspace(ig.VOLUME_WINDOW[0] / spec.rate,
                           ig.VOLUME_WINDOW[1] / spec.rate, 12)
        la = np.array([ig.log_averaged_volume(spec, t) for t in taus])
        rel = np.abs(np.expm1(la - log_ref(spec, taus)))
        assert rel.max() < 0.05


def test_log_difference_stays_bounded():
    # slope equality: log avg_vol - log reference does not diverge
    taus = np.array([20.0, 35.0, 50.0, 80.0, 120.0])
    diffs = [ig.log_averaged_volume(SPEC3, t) - ig.log_closed_form_volume_3d(SPEC3, t)
             for t in taus]
    assert np.abs(diffs).max() < 0.05


# ---------------------------------------------------------------------------
# entropy curves and slopes
# ---------------------------------------------------------------------------

def test_entropy_increases_on_tail():
    for spec in (SPEC3, SPEC2):
        result = ig.ige_curve(spec)
        window = result.taus >= ig.SLOPE_WINDOW[0] / spec.rate
        assert np.all(np.diff(result.log_avg_vol[window]) > 0.0)


def test_tail_slopes_match_rates():
    r3 = ig.ige_curve(SPEC3)
    assert r3.fit.slope == pytest.approx(SPEC3.rate, rel=0.02)
    r2 = ig.ige_curve(SPEC2)
    assert r2.fit.slope == pytest.approx(SPEC2.rate, rel=0.02)


def test_slope_is_span_independent():
    wide = ig.ige_curve(SPEC3, mu_span=ig.MU_SPAN_WIDE)
    exact = ig.ige_curve(SPEC3, mu_span=ig.MU_SPAN_EXACT_3D)
    assert exact.fit.slope == pytest.approx(wide.fit.slope, rel=1e-3)


def test_softening_ratio():
    soft = ig.softening_ratio_ige(SPEC3)
    assert soft.ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.01)
    assert soft.ratio < 1.0


@pytest.mark.parametrize("sigma0", [0.5, 2.0])
@pytest.mark.parametrize("mu0", [0.0, 5.0])
def test_softening_ratio_parameter_invariance(sigma0, mu0):
    spec = ig.GeodesicSpec3D(mu0, sigma0, 1.0, 1.0, 1.0)
    soft = ig.softening_ratio_ige(spec)
    assert soft.ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.01)


def test_csv_export():
    result = ig.ige_curve(SPEC2)
    text = ig.ige_to_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "# infogeo ige csv schema=1"
    assert lines[1] == "tau,vol,avg_vol,S,S_closed_form"
    assert len(lines) == 2 + len(result.taus)
    first = [float(v) for v in lines[2].split(",")]
    assert first[0] == result.taus[0]
