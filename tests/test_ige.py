"""Swept volumes, temporal averages and entropy tail slopes."""

import itertools
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import infogeo as ig
from infogeo.errors import DomainError
from infogeo.geodesics import _closed_form
from infogeo.ige import (_LI2_K, _LI2_NEG, _LI2_NEGLIGIBLE, EXACT_SWITCH, _bracket,
                         _log_moment, _log_moment_closed, _log_moment_gauss,
                         _panelled_gauss, log_time_average)
from infogeo.models import MODEL_3D

SPEC3 = ig.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, 1.0)
SPEC2 = ig.GeodesicSpec2D.from_3d(SPEC3)


# ---------------------------------------------------------------------------
# instantaneous volumes
# ---------------------------------------------------------------------------

def test_box_volume_vanishes_at_zero():
    assert ig.box_volume(SPEC3, 0.0) == 0.0
    assert ig.box_volume(SPEC2, 0.0) == 0.0
    assert ig.box_volume(SPEC3, 1e-8) < 1e-20


def test_log_box_volume_keeps_relative_accuracy_near_zero():
    # the 2D box volume at sigma0 = rate = 1 is 4 tanh u (cosh u - 1), u = tau';
    # log1p(-exp(-u)) lost about 1e-16 / u of cosh u - 1 (4.4e-5 of the log
    # at u = 1e-12, -inf at 1e-17), expm1 loses nothing
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    spec = ig.GeodesicSpec2D(0.0, 1.0, 1.0)
    for u in (1e-3, 1e-8, 1e-12):
        x = mpmath.mpf(u)
        ref = float(mpmath.log(4 * mpmath.tanh(x) * (mpmath.cosh(x) - 1)))
        assert ig.log_box_volume(spec, u) == pytest.approx(ref, rel=1e-14)
    assert math.isfinite(ig.log_box_volume(spec, 1e-17))


def test_box_volume_against_quadrature_oracle():
    # up to the end of the tail window, where the headline fits sit
    for rate_tau in (0.5, 2.0, 5.0, 20.0, 50.0):
        for spec in (SPEC3, SPEC2):
            tau = rate_tau / spec.rate
            closed = ig.box_volume(spec, tau)
            quad = ig.box_volume_quadrature(spec, tau)
            assert abs(quad - closed) / closed < 1e-8


def test_box_quadrature_matches_the_per_node_formula():
    # sqrt(det g) of the metric at every node of the tensor-product mesh: the
    # reference for the product of one Gauss sum per scale axis
    def per_node(spec, tau, nodes=(8, 32, 32)):
        theta1, _ = _closed_form(spec, tau, ig.MU_SPAN_WIDE)
        theta0, _ = _closed_form(spec, 0.0, ig.MU_SPAN_WIDE)
        los, his = np.minimum(theta0, theta1), np.maximum(theta0, theta1)
        wmu = 0.5 * (his[0] - los[0]) * np.polynomial.legendre.leggauss(nodes[0])[1]
        axes = [list(zip(*_panelled_gauss(los[j], his[j], nodes[j])))
                for j in range(1, spec.model.dimension)]
        total = 0.0
        for node in itertools.product(*axes):
            scales, weights = zip(*node)
            dens = math.sqrt(np.linalg.det(spec.model.metric((0.0, *scales)).components))
            total += math.prod(weights) * dens
        return total * wmu.sum()
    # at rate * tau' = 3 the 3D axes hold 4 and 5 octave panels
    for spec, tau in [(SPEC3, 0.5), (SPEC2, 0.5), (SPEC3, 2.0), (SPEC2, 2.0), (SPEC3, 3.0)]:
        ref = per_node(spec, tau)
        assert abs(ig.box_volume_quadrature(spec, tau) - ref) <= 1e-12 * ref


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(log_sigma0=st.floats(-3.0, 3.0), sigma0_prime=st.floats(0.5, 2.0),
       log_lam=st.floats(-1.0, 1.0), rate_tau=st.floats(0.5, 50.0), flat_tau=st.floats(0.25, 50.0))
def test_box_quadrature_matches_box_volume(log_sigma0, sigma0_prime, log_lam, rate_tau, flat_tau):
    # lambda_f * tau' = flat_tau keeps sigma_y's ratio e^flat_tau finite
    sigma0, lam = 10.0 ** log_sigma0, 10.0 ** log_lam
    tau = rate_tau / (sigma0 * lam)
    spec3 = ig.GeodesicSpec3D(0.0, sigma0, sigma0_prime, lam, flat_tau / tau)
    for spec in (spec3, ig.GeodesicSpec2D.from_3d(spec3)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = ig.box_volume(spec, tau)
            quad = ig.box_volume_quadrature(spec, tau)
        assert abs(quad - closed) <= 1e-8 * closed


def test_box_volume_quadrature_sees_the_span():
    # the span scales the box's mean side alone
    closed = ig.box_volume(SPEC3, 2.0) * MODEL_3D.mean_span / 2.0
    quad = ig.box_volume_quadrature(SPEC3, 2.0, mu_span=MODEL_3D.mean_span)
    assert abs(quad - closed) / closed < 1e-8


def test_box_volume_nondecreasing():
    taus = np.linspace(0.0, 30.0, 500)
    lv3 = ig.log_box_volume(SPEC3, taus)
    lv2 = ig.log_box_volume(SPEC2, taus)
    assert np.all(np.diff(lv3[1:]) > 0.0)
    assert np.all(np.diff(lv2[1:]) > 0.0)


def test_box_volume_rejects_negative_time():
    with pytest.raises(DomainError):
        ig.box_volume(SPEC3, -1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau_prime", [math.nan, np.array([1.0, math.nan])])
def test_box_volume_rejects_a_nan_time(tau_prime):
    # NaN passed the check tau' < 0 and came back nan; box_volume_quadrature refuses it so
    for volume in (ig.box_volume, ig.log_box_volume):
        with pytest.raises(DomainError, match="tau_prime must be nonnegative"):
            volume(SPEC3, tau_prime)


_PROBE_3D = ig.GeodesicSpec3D(0.0, 1.3, 1.1, 0.8, 0.9)
_PROBE_SPECS = {"3d": _PROBE_3D, "2d": ig.GeodesicSpec2D.from_3d(_PROBE_3D)}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("label, tau_prime, message", [
    ("3d", -1.0, "nonnegative"), ("2d", -1.0, "nonnegative"),
    ("3d", math.nan, "nonnegative"), ("2d", math.nan, "nonnegative"),
    # sigma_x = sigma0 sech(rate tau') reaches the subnormals (3D, 700) or 0
    ("3d", 700.0, "scale ratio"), ("3d", 1000.0, "scale ratio"), ("3d", math.inf, "scale ratio"),
    ("2d", 1000.0, "scale ratio"), ("2d", math.inf, "scale ratio"),
    # sigma ~ 1e-224: the ratio is finite, c / sigma^2 is not
    ("2d", 700.0, "density"),
])
def test_box_quadrature_ends_in_one_domain_error_off_its_domain(label, tau_prime, message):
    # as box_volume does; no warning first, and each axis's density is tested
    # at its smallest node before its Gauss sum is formed
    with pytest.raises(DomainError, match=message):
        ig.box_volume_quadrature(_PROBE_SPECS[label], tau_prime)


@pytest.mark.filterwarnings("error")
def test_box_volume_and_exact_average_past_the_double_range_do_not_warn():
    for spec in _PROBE_SPECS.values():
        # the log volume passes 709.8: the volume is inf, as ige_to_csv prints it
        vol = ig.box_volume(spec, np.array([1.0, 1000.0]))
        assert math.isfinite(vol[0]) and vol[1] == math.inf
        assert ig.box_volume(spec, math.inf) == math.inf
        for tau in (math.inf, math.nan, np.array([1.0, math.inf]), np.array([[math.nan]])):
            with pytest.raises(DomainError, match="positive finite"):
                ig.log_averaged_volume(spec, tau)


def test_box_quadrature_holds_one_axis_at_a_time():
    # sigma_x and sigma_y each shrink by about e^230: 331 and 332 octave
    # panels, 10,592 and 10,624 nodes, whose tensor-product mesh would take
    # 0.9 GB per float array; at rate * tau' = 50 it would take 43 MB
    far = ig.GeodesicSpec3D(0.0, 1e100, 1e100, 1e-100, 1.0)
    for spec, tau in [(far, 230.0), (SPEC3, 50.0)]:
        tracemalloc.start()
        try:
            quad = ig.box_volume_quadrature(spec, tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        closed = ig.box_volume(spec, tau)
        assert abs(quad - closed) <= 1e-12 * closed
        assert peak < 10_000_000


# ---------------------------------------------------------------------------
# temporal average
# ---------------------------------------------------------------------------

def test_average_of_constant_is_the_constant():
    c = 3.7
    avg = log_time_average(lambda t: np.full_like(t, math.log(c)), 10.0)
    assert math.exp(avg) == pytest.approx(c, rel=1e-13)


def _log_volume(ts):
    return ig.log_box_volume(SPEC3, ts)


def _simpson_average(spec, tau):
    return log_time_average(lambda ts: ig.log_box_volume(spec, ts), tau)


def test_simpson_average_converges_to_the_exact_average():
    # Simpson's error grows with rate * tau as its step does: about 5e-12 at
    # rate * tau = 10 and 8e-6 on the slope window, both within these bounds
    for spec in (SPEC3, SPEC2):
        for rate_taus, bound in (([2.0, 10.0], 1e-9), (np.linspace(*ig.SLOPE_WINDOW, 5), 2e-5)):
            taus = np.reshape(rate_taus, (1, -1, 1)) / spec.rate
            exact = ig.log_averaged_volume(spec, taus)
            assert exact.shape == taus.shape
            assert np.abs(np.expm1(exact - _simpson_average(spec, taus))).max() < bound
        one = ig.log_averaged_volume(spec, float(taus.flat[2]))
        assert type(one) is float and one == exact.flat[2]


def _per_time_average(spec, tau, n_grid=2049):
    # the single-time formula the array form replaced, kept as the reference
    ts = np.linspace(0.0, tau, n_grid)
    w = np.ones(n_grid)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    logv = ig.log_box_volume(spec, ts) + np.log(w / 3.0)
    m = float(np.max(logv))
    log_integral = m + math.log(float(np.sum(np.exp(logv - m)))) + math.log(ts[1] - ts[0])
    return log_integral - math.log(tau)


def test_average_over_many_times_matches_the_per_time_formula():
    # same summation order, so equal bit for bit; a float stays a float
    for spec in (SPEC3, SPEC2):
        taus = np.concatenate([np.geomspace(1e-3, 5.0, 20), np.linspace(200.0, 400.0, 33)]) / spec.rate
        ref = np.array([_per_time_average(spec, t) for t in taus])
        np.testing.assert_array_equal(_simpson_average(spec, taus), ref)
        np.testing.assert_array_equal(_simpson_average(spec, taus.reshape(1, -1, 1)),
                                      ref.reshape(1, -1, 1))
        one = _simpson_average(spec, float(taus[7]))
        assert type(one) is float and one == ref[7]


def test_average_validation():
    for tau in (0.0, np.array([1.0, -1.0])):
        with pytest.raises(DomainError):
            ig.log_averaged_volume(SPEC3, tau)
        with pytest.raises(DomainError):
            log_time_average(_log_volume, tau)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("form", [float, np.float64, np.array], ids=["float", "float64", "0-d"])
@pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_a_single_time_is_refused_where_an_array_is(tau, form):
    # the single-time path checks tau on a Python float: each bad time, in
    # each single-time form, ends in the array path's one DomainError, and
    # neither warns
    for spec in (SPEC3, SPEC2):
        for bad in (form(tau), np.array([1.0, tau])):
            with pytest.raises(DomainError, match="^tau must be positive finite$"):
                ig.log_averaged_volume(spec, bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [math.nan, math.inf, np.array([1.0, math.nan]),
                                 np.array([[math.inf]])],
                         ids=["nan", "inf", "array-nan", "array-inf"])
def test_simpson_average_refuses_a_non_finite_time(tau):
    # nan once passed the sign test and averaged to nan, and inf warned in
    # the node weights: both end in the exact average's DomainError
    with pytest.raises(DomainError, match="tau must be positive finite"):
        log_time_average(lambda ts: ig.log_box_volume(_PROBE_3D, ts), tau)


# the softening sweep's parameter ranges, sigma0 widened to cover its
# sigma0 / 2 and 2 sigma0 points
_log_uniform = st.floats(-1.0, 1.0).map(lambda e: 2.0**e)
_sweep_specs = st.builds(ig.GeodesicSpec3D, st.floats(-1.0, 1.0),
                         st.floats(-3.0, 3.0).map(lambda e: 2.0**e), st.floats(0.5, 2.0),
                         _log_uniform, _log_uniform)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(spec3=_sweep_specs, rate_tau=st.floats(-3.0, math.log10(25.0)).map(lambda e: 10.0**e))
def test_exact_average_matches_simpson_over_the_sweep_ranges(spec3, rate_tau):
    for spec in (spec3, ig.GeodesicSpec2D.from_3d(spec3)):
        tau = rate_tau / spec.rate
        exact = ig.log_averaged_volume(spec, tau)
        assert abs(math.expm1(exact - _simpson_average(spec, tau))) <= 1e-8


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(U=st.floats(EXACT_SWITCH / 2.0, 2.0 * EXACT_SWITCH),
       n=st.sampled_from([0, 1]))
def test_gauss_and_closed_form_branches_agree_across_the_switch(U, n):
    # each branch is accurate on both sides of the switch, so the exact
    # average is continuous there to rounding
    U = np.array([U])
    gauss = _log_moment_gauss(n, U)
    closed = _log_moment_closed(n, U)
    assert abs(math.expm1(gauss[0] - closed[0])) <= 1e-13


# rate * tau from 1e-3 to 1e300, where e^-U underflows to 0; the examples
# put U = 2 and the float below it on each model (rate 1 in 3D, and in 2D,
# whose lambda_plus = sqrt(2) / sqrt(2) = 1), U either side of the Li2
# cutoff, and a U per model (2.129 in 3D, 2.134 in 2D) whose average
# changes in the last bit if math.exp stands in for np.exp
_SWITCH_TIMES = [2.0, math.nextafter(2.0, 0.0), 2.129, 2.134, 19.0, 19.06, 19.1, 20.0]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec3=_sweep_specs,
       rate_taus=st.lists((st.floats(-3.0, 3.0) | st.floats(3.0, 300.0)).map(lambda e: 10.0**e),
                          min_size=2, max_size=12))
@example(spec3=ig.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, 1.0), rate_taus=_SWITCH_TIMES)
@example(spec3=ig.GeodesicSpec3D(0.0, 1.0, 1.0, math.sqrt(2.0), 1.0), rate_taus=_SWITCH_TIMES)
def test_a_float_time_runs_the_array_arithmetic(spec3, rate_taus):
    # a float, an np.float64, a 0-d and a 1-element tau give the same bits;
    # so does element i of an array wherever rate * tau is on the closed
    # form.  Below EXACT_SWITCH the Gauss rule's g @ w sums a batch of
    # several U by a matrix-vector product and one U by a dot product, which
    # group the sum differently: on 803 log-spaced U in [1e-3, 1e3], 20 (3D)
    # and 21 (2D) batch elements differ, all below the switch, by at most
    # 7.1e-15 relative in the averaged volume
    for spec in (spec3, ig.GeodesicSpec2D.from_3d(spec3)):
        taus = np.array(rate_taus) / spec.rate
        batch = ig.log_averaged_volume(spec, taus)
        for t, t64, b in zip(taus.tolist(), taus, batch.tolist()):
            one = ig.log_averaged_volume(spec, t)
            assert type(one) is float and type(ig.log_averaged_volume(spec, t64)) is float
            assert one.hex() == ig.log_averaged_volume(spec, t64).hex()
            assert one.hex() == ig.log_averaged_volume(spec, np.array(t)).hex()
            assert one.hex() == float(ig.log_averaged_volume(spec, np.array([t]))[0]).hex()
            if spec.rate * t >= EXACT_SWITCH:
                assert b.hex() == one.hex()
            else:
                assert abs(math.expm1(b - one)) <= 1e-13


def test_the_li2_series_below_its_cutoff_leaves_its_sum_alone():
    # a single time skips the series where q = e^-2U < 2^-55: there the
    # series is under half an ulp of pi^2 / 24 and their sum is pi^2 / 24
    # bit for bit (|Li2(-q)| grows with q, so the largest q below decides)
    head = math.pi ** 2 / 24.0
    for q in (math.nextafter(_LI2_NEGLIGIBLE, 0.0), 2.0 ** -60, 2.0 ** -600, 5e-324, 0.0):
        assert head + float((0.5 * q ** _LI2_K) @ _LI2_NEG) == head
    q = 2.0 ** -54   # at twice the cutoff the series moves the sum
    assert head + float((0.5 * q ** _LI2_K) @ _LI2_NEG) != head


# U where q = e^-2U is _LI2_NEGLIGIBLE exactly (exp(-2 U) of 19.061... rounds
# to 2^-55), and the floats either side of it
_U_CUTOFF = 55.0 * math.log(2.0) / 2.0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(U=st.lists(st.floats(EXACT_SWITCH, 60.0), min_size=1, max_size=16),
       n=st.sampled_from([0, 1]))
@example(U=[_U_CUTOFF, math.nextafter(_U_CUTOFF, 0.0), math.nextafter(_U_CUTOFF, 60.0),
            EXACT_SWITCH, 60.0], n=1)
def test_the_bracket_of_an_array_is_its_float_path_element_by_element(U, n):
    # the array path sums the Li2 series only where q >= _LI2_NEGLIGIBLE, as
    # the float path does: each element of an array bracket is the float
    # bracket of its own U, bit for bit, either side of the cutoff
    U = np.array(U)
    q, e = np.exp(-2.0 * U), np.exp(-U)
    batch = _bracket(n, U, q, e, np.log1p(q))
    for u, qi, ei, b in zip(U.tolist(), q.tolist(), e.tolist(), batch.tolist()):
        assert b.hex() == _bracket(n, u, qi, ei, float(np.log1p(qi))).hex()


def test_the_bracket_at_the_li2_cutoff_is_its_float_path():
    # q exactly at _LI2_NEGLIGIBLE (the series summed) and the floats either
    # side of it, at U of that q; the U either side of _U_CUTOFF put q
    # either side of the cutoff too
    qs = np.exp(-2.0 * np.array([math.nextafter(_U_CUTOFF, 0.0), math.nextafter(_U_CUTOFF, 60.0)]))
    assert qs[0] >= _LI2_NEGLIGIBLE > qs[1]
    q = np.array([_LI2_NEGLIGIBLE, math.nextafter(_LI2_NEGLIGIBLE, 1.0),
                  math.nextafter(_LI2_NEGLIGIBLE, 0.0)])
    U = -0.5 * np.log(q)
    e = np.exp(-U)
    for n in (0, 1):
        batch = _bracket(n, U, q, e, np.log1p(q))
        for u, qi, ei, b in zip(U.tolist(), q.tolist(), e.tolist(), batch.tolist()):
            assert b.hex() == _bracket(n, u, qi, ei, float(np.log1p(qi))).hex()


def test_the_volume_constant_is_formed_once_at_the_first_average():
    # a spec that never averages never forms it: softening builds such specs
    for spec in (ig.GeodesicSpec3D(0.3, 1.3, 1.1, 0.8, 0.9), ig.GeodesicSpec2D(0.3, 1.3, 0.8)):
        assert "log_volume_constant" not in vars(spec)
        first = ig.log_averaged_volume(spec, 23.0)
        assert vars(spec)["log_volume_constant"] == math.log(2.0 * spec.model.volume_weight) + sum(
            math.log(decay) - math.log(spec.rate) for _, decay in spec.flat_factors)
        assert ig.log_averaged_volume(spec, 23.0) == first


def test_exact_average_leading_terms():
    # F_n(U) ~ U^4 / 8 (2D) and U^5 / 10 (3D) for small U, with no underflow
    U = np.array([1e-300, 1e-100, 1e-8])
    for n, log_lead in ((0, 4.0 * np.log(U) - math.log(8.0)),
                        (1, 5.0 * np.log(U) - math.log(10.0))):
        np.testing.assert_allclose(_log_moment(n, U), log_lead, rtol=0.0, atol=1e-15)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(spec3=_sweep_specs, k=st.integers(-60, 60))
def test_fitted_slope_per_rate_is_sigma0_free(spec3, k):
    # sigma0 -> 2^k sigma0 scales the rate and the window times exactly and
    # shifts S by a constant, so the fitted slope in rate units is unchanged
    for spec in (spec3, ig.GeodesicSpec2D.from_3d(spec3)):
        scaled = replace(spec, sigma0=spec.sigma0 * 2.0**k)
        a, b = ig.ige_curve(spec), ig.ige_curve(scaled)
        assert (abs(b.fit.slope / scaled.rate - a.fit.slope / spec.rate)
                <= 1e-12 * a.fit.slope / spec.rate)


# ---------------------------------------------------------------------------
# closed-form reference volumes
# ---------------------------------------------------------------------------

def test_reference_volume_2d_asymptotic_form():
    # mu0=0, sigma0=1, lambda=1: V ~ 2 e^tau / tau on the tail
    spec = ig.GeodesicSpec2D(0.0, 1.0, 1.0)
    tau = 40.0
    expected = 2.0 * math.exp(tau) / tau
    assert math.exp(ig.log_closed_form_volume_2d(spec, tau)) == pytest.approx(expected, rel=1e-12)


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


@pytest.mark.parametrize("window", [(5.0, 1.0), (1.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                                    (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)])
def test_ige_curve_refuses_a_window_that_is_not_an_increasing_positive_pair(window):
    # a reversed window was fitted (slope 1.506, r^2 0.976) and an infinite
    # end warned "invalid value encountered in multiply"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="slope_window must be an increasing pair"):
            ig.ige_curve(SPEC3, window)


def _softening(specs_3d, window=ig.SLOPE_WINDOW):
    """The softening fits of the coupled pairs of ``specs_3d``, on their
    :func:`slope_times` columns, 3D then 2D per pair."""
    pairs = [(spec, ig.GeodesicSpec2D.from_3d(spec)) for spec in specs_3d]
    rates = np.array([spec.rate for pair in pairs for spec in pair])
    return ig.softening_ratio_ige(pairs, ig.ige.slope_times(rates, window))


def test_softening_ratio():
    soft = _softening([SPEC3])
    assert soft.ratio.shape == (1,)
    assert soft.ratio[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=0.01)
    assert soft.ratio[0] < 1.0


@pytest.mark.parametrize("sigma0", [0.5, 2.0])
@pytest.mark.parametrize("mu0", [0.0, 5.0])
def test_softening_ratio_parameter_invariance(sigma0, mu0):
    spec = ig.GeodesicSpec3D(mu0, sigma0, 1.0, 1.0, 1.0)
    soft = _softening([spec])
    assert soft.ratio[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=0.01)


def test_csv_export():
    result = ig.ige_curve(SPEC2)
    text = ig.ige_to_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "# infogeo ige csv schema=1"
    assert lines[1] == "tau,vol,avg_vol,S,S_closed_form"
    assert len(lines) == 2 + len(result.taus)
    first = [float(v) for v in lines[2].split(",")]
    assert first[0] == result.taus[0]
    # every value parses back to the exact double; on the late window the
    # volumes pass the double range and print inf
    late = ig.ige_curve(SPEC2, slope_window=(400.0, 800.0))
    for res in (result, late):
        lines = ig.ige_to_csv(res).strip().split("\n")
        parsed = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        with np.errstate(over="ignore"):
            expected = np.column_stack([res.taus, np.exp(res.log_vol), np.exp(res.log_avg_vol),
                                        res.log_avg_vol, res.entropy_closed_form])
        assert parsed.shape == expected.shape and (parsed == expected).all()
    assert (parsed[-1, 1:3] == np.inf).all()


@pytest.mark.filterwarnings("error")
def test_a_list_of_specs_averages_each_row_as_its_own_spec():
    # one call over rows of one model's specs equals each spec's own call
    # on its row, bit for bit, from rate * tau = EXACT_SWITCH on; so does
    # each row of the softening fits of each model
    base = ig.GeodesicSpec3D(0.4, 1.3, 0.7, 0.8, 1.9)
    for specs in ([replace(base, sigma0=s0) for s0 in (1e-6, 0.5, 3.0, 1e6)],
                  [ig.GeodesicSpec2D.from_3d(replace(base, sigma0=s0)) for s0 in (0.5, 3.0)]):
        rates = np.array([spec.rate for spec in specs])
        taus = np.ascontiguousarray(ig.ige.slope_times(rates, (2.0, 400.0)).T)
        rows = ig.log_averaged_volume(specs, taus)
        assert rows.shape == taus.shape
        for spec, t, row in zip(specs, taus, rows):
            assert np.array_equal(row, ig.log_averaged_volume(spec, t))
    specs = [replace(base, sigma0=s0) for s0 in (1e-6, 0.5, 3.0, 1e6)]
    soft = _softening(specs, (2.0, 400.0))
    for i, spec in enumerate(specs):
        for fits, one in ((soft.fit_3d, spec), (soft.fit_2d, ig.GeodesicSpec2D.from_3d(spec))):
            fit = ig.ige_curve(one, (2.0, 400.0)).fit
            assert (fits.slope[i], fits.r_squared[i]) == (fit.slope, fit.r_squared)
        assert soft.ratio[i] == soft.fit_2d.slope[i] / soft.fit_3d.slope[i]
