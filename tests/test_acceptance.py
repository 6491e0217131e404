"""Acceptance suite: every headline requirement at its stated tolerance.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -v`` through the test outcome, and with ``-s`` through the print).
The whole suite runs at desk scale, well under a minute.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import infogeo as ig

RNG_SEED = 424242
BASE = ig.GeodesicSpec3D(mu0=0.0, sigma0=1.0, sigma0_prime=1.0,
                         lambda_plus_prime=1.0, lambda_f=1.0)
SQRT2 = math.sqrt(2.0)


def _report(name, passed, detail):
    print(f"criterion {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {name}: {detail}"


def _pairs(specs_3d):
    """The coupled pair (3D spec, its 2D companion) of each 3D spec."""
    return [(spec, ig.GeodesicSpec2D.from_3d(spec)) for spec in specs_3d]


def _rates(pairs):
    """The rates of the pairs' specs, 3D then 2D per pair: the column order of
    the fit grids the softening fits take."""
    return np.array([spec.rate for pair in pairs for spec in pair])


def _random_points(n):
    rng = np.random.default_rng(RNG_SEED)
    pts3 = [ig.ParameterPoint3D(rng.uniform(-2, 2), rng.uniform(0.5, 2.0),
                                rng.uniform(0.5, 2.0)) for _ in range(n)]
    pts2 = [ig.ParameterPoint2D(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
            for _ in range(n)]
    return pts3, pts2


def test_criterion_1_scalar_curvature():
    # analytic exactly -1 / -1/2; finite differences within 1e-4 at 50 points
    assert ig.SCALAR_CURVATURE_3D == -1.0
    assert ig.SCALAR_CURVATURE_2D == -0.5
    pts3, pts2 = _random_points(50)
    f3, f2 = ig.field_3d(), ig.field_2d()
    worst = 0.0
    for p in pts3:
        worst = max(worst, abs(ig.scalar_numeric(f3, p.as_array()) + 1.0))
    for p in pts2:
        worst = max(worst, abs(ig.scalar_numeric(f2, p.as_array()) + 0.5))
    _report("1 scalar curvature", worst < 1e-4, f"max fd error {worst:.3e}")


def test_criterion_2_fisher_quadrature():
    # numeric Fisher matches the analytic matrices within 1e-8 at 20 points,
    # including independence of the 2D constraint constant
    pts3, pts2 = _random_points(20)
    q = ig.QuadratureSpec()
    worst = 0.0
    for p in pts3:
        worst = max(worst, float(np.abs(ig.fisher_numeric_3d(p, q)
                                        - ig.metric_3d(p).components).max()))
    for p in pts2:
        for s2 in (0.5, 1.0, 3.0):
            worst = max(worst, float(np.abs(
                ig.fisher_numeric_2d(p, ig.Model2DConfig(s2), q)
                - ig.metric_2d(p).components).max()))
    _report("2 fisher quadrature", worst < 1e-8, f"max error {worst:.3e}")


def test_criterion_3_geodesic_fidelity():
    # tol 1e-10 integration within 1e-8 of the closed forms on [0, 10];
    # speed conserved to 1e-6; closed-form residual below 1e-6
    grid = np.linspace(0.0, 10.0, 501)
    worst_dev, worst_speed, worst_resid = 0.0, 0.0, 0.0
    for spec in (BASE, ig.GeodesicSpec2D.from_3d(BASE)):
        traj = ig.integrate_geodesic(spec, 10.0, tol=1e-10, sample_taus=grid)
        ref, _ = ig.closed_form(spec, grid)
        worst_dev = max(worst_dev, float(np.abs(traj.states - ref).max()))
        speeds = traj.speeds()
        worst_speed = max(worst_speed,
                          float(np.abs(speeds - speeds[0]).max() / speeds[0]))
        worst_resid = max(worst_resid,
                          ig.residual_check(spec, np.linspace(0.01, 10.0, 100)))
    ok = worst_dev < 1e-8 and worst_speed < 1e-6 and worst_resid < 1e-6
    _report("3 geodesic fidelity", ok,
            f"deviation {worst_dev:.3e}, speed drift {worst_speed:.3e}, "
            f"residual {worst_resid:.3e}")


def test_criterion_4_volume_cross_check():
    # averaged volume within 5% of the closed-form expressions on the
    # window rate*tau in [20, 50], both models
    worst = 0.0
    for spec in (BASE, ig.GeodesicSpec2D.from_3d(BASE)):
        taus = np.linspace(ig.VOLUME_WINDOW[0] / spec.rate,
                           ig.VOLUME_WINDOW[1] / spec.rate, 16)
        log_avg = np.array([ig.log_averaged_volume(spec, t) for t in taus])
        log_ref = ig.log_closed_form_volume_3d(spec, taus) \
            if isinstance(spec, ig.GeodesicSpec3D) \
            else ig.log_closed_form_volume_2d(spec, taus)
        worst = max(worst, float(np.abs(np.expm1(log_avg - log_ref)).max()))
    _report("4 volume cross-check", worst < 0.05, f"max relative {worst:.3e}")


def test_criterion_5_headline_entropy_ratio():
    # fitted slope ratio 1/sqrt(2) within 1%, invariant across sigma0 and mu0
    target = 1.0 / SQRT2
    pairs = _pairs(ig.GeodesicSpec3D(mu0, sigma0, 1.0, 1.0, 1.0)
                   for sigma0 in (0.5, 1.0, 2.0) for mu0 in (0.0, 1.0, 5.0))
    rates = _rates(pairs)
    ratios = ig.softening_ratio_ige(pairs, ig.ige.slope_times(rates, ig.SLOPE_WINDOW)).ratio
    assert ratios.shape == (9,)
    worst = float(np.abs(ratios - target).max() / target)
    spread = float((ratios.max() - ratios.min()) / target)
    ok = worst < 0.01 and spread < 0.02
    _report("5 entropy slope ratio", ok,
            f"max deviation {worst * 100:.3f}%, spread {spread * 100:.3f}%")


def test_criterion_6_jacobi_exponents():
    # growth exponents within 2% of the rates; gap within 3% and positive;
    # tail log-linearity above 0.999
    pairs = _pairs([BASE])
    rates = _rates(pairs)
    taus = ig.jacobi.exponent_times(rates, ig.EXPONENT_WINDOW)
    jac = ig.softening_gap(pairs, taus, ig.window_mask(taus, rates, ig.EXPONENT_WINDOW))
    (slope3, r2_3), (slope2, r2_2) = ((float(fit.slope[0]), float(fit.r_squared[0]))
                                      for fit in (jac.fit_3d, jac.fit_2d))
    gap = float(jac.gap[0])
    expected_gap = BASE.rate * (1.0 - 1.0 / SQRT2)   # the paper's gap, sigma0 lambda_plus' (1 - 1/sqrt 2)
    rate3, rate2 = BASE.rate, BASE.rate / SQRT2
    err3 = abs(slope3 - rate3) / rate3
    err2 = abs(slope2 - rate2) / rate2
    gap_err = abs(gap - expected_gap) / expected_gap
    ok = (err3 < 0.02 and err2 < 0.02 and gap_err < 0.03 and gap > 0.0
          and r2_3 > 0.999 and r2_2 > 0.999)
    _report("6 jacobi exponents", ok,
            f"exponents ({slope3:.5f}, {slope2:.5f}), "
            f"gap error {gap_err * 100:.3f}%, "
            f"r2 ({r2_3:.6f}, {r2_2:.6f})")


def test_criterion_7_asymptotic_consistency():
    # full integration matches the asymptotic component structure:
    # J1 plateau with its secular tau e^(-2L tau) term, secular tau e^(-L tau)
    # in J2, critically damped J3; the forms' constants come from the start
    lam = BASE.lambda_f
    damped = ig.integrate_jlc(BASE, initial_J=(0.0, 0.0, 1.0),
                              initial_J_dot=(0.0, 0.0, 0.0), tau_max=10.0)
    j3_err = float(np.abs(damped.J[:, 2]
                          - ig.critically_damped(lam, 1.0, lam, damped.taus)).max())

    traj = ig.integrate_jlc(BASE, tau_max=50.0,
                            sample_taus=np.linspace(0.0, 50.0, 801))
    consts = ig.asymptotic_constants(BASE)
    window = ig.window_mask(traj.taus, traj.rate, (8.0, 25.0))
    J = traj.J[window]
    form = ig.asymptotic_solutions(consts, traj.taus[window])
    form_err = float((np.abs(J - form).max(axis=0) / np.abs(J).max(axis=0)).max())
    tail = traj.J[ig.window_mask(traj.taus, traj.rate, (30.0, 50.0)), 0]
    plateau = float(np.abs(tail - tail[-1]).max() / abs(tail[-1]))
    ok = (j3_err < 1e-8 and plateau < 1e-8 and form_err < 1e-6
          and abs(consts.C[1, 2]) > 0.1)
    _report("7 asymptotic consistency", ok,
            f"J3 error {j3_err:.3e}, plateau spread {plateau:.3e}, "
            f"exact-form errors {form_err:.3e}")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(RNG_SEED)
    # metric SPD and Christoffel symmetry
    for _ in range(50):
        p3 = ig.ParameterPoint3D(rng.uniform(-2, 2), rng.uniform(0.3, 3),
                                 rng.uniform(0.3, 3))
        p2 = ig.ParameterPoint2D(rng.uniform(-2, 2), rng.uniform(0.3, 3))
        assert np.all(np.linalg.eigvalsh(ig.metric_3d(p3).components) > 0)
        assert np.all(np.linalg.eigvalsh(ig.metric_2d(p2).components) > 0)
        assert ig.christoffel_3d(p3).symmetry_defect() == 0.0
        assert ig.christoffel_2d(p2).symmetry_defect() == 0.0
    # Riemann antisymmetry and first Bianchi identity (numeric engine)
    pts3, pts2 = _random_points(8)
    for p in pts3:
        riem = ig.riemann_numeric(ig.field_3d(), p.as_array())
        assert riem.antisymmetry_defect() <= 1e-12
        assert riem.first_bianchi_defect() <= 1e-6
    for p in pts2:
        riem = ig.riemann_numeric(ig.field_2d(), p.as_array())
        assert riem.antisymmetry_defect() <= 1e-12
        assert riem.first_bianchi_defect() <= 1e-6
    # JLC linearity
    grid = np.linspace(0.0, 10.0, 51)
    u = ig.integrate_jlc(BASE, initial_J=(1.0, 0.0, 0.0), tau_max=10.0,
                         tol=1e-11, sample_taus=grid)
    v = ig.integrate_jlc(BASE, initial_J=(0.0, 1.0, 1.0), tau_max=10.0,
                         tol=1e-11, sample_taus=grid)
    w = ig.integrate_jlc(BASE, initial_J=(2.0, -3.0, -3.0), tau_max=10.0,
                         tol=1e-11, sample_taus=grid)
    linearity = float(np.abs(2.0 * u.J - 3.0 * v.J - w.J).max())
    assert linearity <= 1e-8
    _report("8 property suites", True,
            f"linearity defect {linearity:.3e}")


def test_criterion_8_cli_determinism(tmp_path):
    # identical configuration produces byte-identical outputs
    out = tmp_path / "run"
    cmd = [sys.executable, "-m", "infogeo.cli", "--out", str(out), "softening"]
    assert subprocess.run(cmd, capture_output=True).returncode == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert subprocess.run(cmd, capture_output=True).returncode == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    identical = first == second
    _report("8 cli determinism", identical,
            f"{len(first)} artifacts byte-compared")
    # spot-check the headline table carried in the report
    report = json.loads((out / "softening_report.json").read_text())
    rows = {row["sigma0"]: row for row in report["tables"]["softening"]}
    assert rows[1.0]["ratio"] == pytest.approx(1.0 / SQRT2, rel=0.01)
    assert rows[1.0]["gap"] == pytest.approx(1.0 - 1.0 / SQRT2, rel=0.03)
