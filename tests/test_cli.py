"""Command line interface: config handling, reports, exit codes."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from infogeo import GeodesicSpec2D, GeodesicSpec3D, cli, geodesics, ige, jacobi, rk
from infogeo.models import MODEL_2D, MODEL_3D


def run(args):
    return cli.main(args)


def test_default_config_is_valid():
    cfg = cli._validate(cli.ExperimentConfig())
    assert cfg.model == "pair"
    assert GeodesicSpec2D.from_3d(cfg.spec_3d()).lambda_plus == pytest.approx(2**-0.5)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("""
[model]
mu0 = 1.5
sigma0 = 2.0
lambda_plus_prime = 0.8

[solver]
tol = 1e-9
tau_max = 6.0

[fit]
slope_window = 150, 300

[output]
format = json
""")
    cfg = cli.load_config(path)
    assert cfg.mu0 == 1.5 and cfg.sigma0 == 2.0
    assert cfg.lambda_plus_prime == 0.8
    assert cfg.tol == 1e-9 and cfg.tau_max == 6.0
    assert cfg.slope_window == (150.0, 300.0)
    assert cfg.formats == ("json",)


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    assert run(["--config", str(tmp_path / "nope.ini"), "--out",
                str(tmp_path / "o"), "verify-geometry"]) == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_parameters_are_exit_2(tmp_path, capsys):
    # sigma0 = 1e200 overflows the closed-form initial mean velocity span * lam * sigma0^2
    commands = ("verify-geometry", "geodesics", "ige", "jacobi", "softening", "all")
    cases = [("[model]\nsigma0 = -1.0\n", "verify-geometry")]
    cases += [("[model]\nsigma0 = 1e200\n", command) for command in commands]
    cases += [(f"[sweep]\nsigma0_values = 0.5, {v}\n", "softening") for v in ("0", "-1", "nan")]
    # a sigma0 whose fit horizon window[1] / rate overflows, or whose rate
    # underflows to 0, and a repeated sweep value
    cases += [(f"[model]\nsigma0 = {v}\n", command) for v in ("2e-306", "1e-310", "5e-324")
              for command in ("ige", "softening")]
    cases += [(f"[sweep]\nsigma0_values = {v}\n", "softening") for v in ("0.5, 1e-310", "1, 1")]
    # an exponent window that holds 1 of the exponent run's samples, too few to fit
    cases += [("[fit]\nexponent_window = 49.9, 50\n", command)
              for command in ("jacobi", "softening")]
    # an exponent window past rate * tau = 1e4, where the rk run's cost grows
    # with the window's end: at 1e301 it ran for minutes
    cases += [(f"[fit]\nexponent_window = {w}\n", command)
              for w in ("20, 10000.5", "1e300, 1e301") for command in ("jacobi", "softening")]
    # a slope window one ulp wide: its entropy values differ in their last
    # bits, so any line fit of them is wrong
    cases += [("[fit]\nslope_window = 1, 1.0000000000000002\n", command)
              for command in ("ige", "softening", "all")]
    # fit times that cannot be fitted at a rate the run uses: a tail slope
    # about (n + 3) / tau past the double range, a time of 0 or a repeated
    # time, in tau or in rate * tau, and a Simpson step of 0
    far = "[model]\nsigma0 = 1e100\nsigma0_prime = 1e100\n"
    cases += [("[model]\nsigma0 = 1e10\n[fit]\nslope_window = 1e-300, 1e-299\n", "ige"),
              ("[model]\nsigma0 = 1e100\n[fit]\nslope_window = 1e-300, 1e-299\n", "ige"),
              (far + "[fit]\nvolume_window = 1e-300, 1e-299\n", "ige"),
              (far + "[fit]\nexponent_window = 1e-300, 1e-299\n", "jacobi"),
              ("[model]\nsigma0 = 1e-300\n[fit]\nslope_window = 5e-324, 1e-323\n", "ige")]
    cases += [(f"[fit]\n{key} = 5e-324, {end}\n", command)
              for key, end, commands in [("slope_window", "1e-323", ("ige", "softening")),
                                         ("volume_window", "1e-323", ("ige",)),
                                         ("exponent_window", "1e-323", ("jacobi", "softening")),
                                         ("slope_window", "50", ("ige",)),
                                         ("volume_window", "50", ("ige",))]
              for command in commands]
    # half of the (tau_f, epsilon) pair, an unknown section or key (the
    # removed capital_sigma_sq among them) and a file without a section
    # header: none may run the defaults
    cases += [(text, "softening") for text in (
        "[model]\ntau_f = 5\n", "[model]\nepsilon = 0.1\n", "[model]\nsigmao = 2.0\n",
        "[modle]\nsigma0 = 2.0\n", "[DEFAULT]\nsigma0 = 2.0\n", "[model]\ncapital_sigma_sq = 1.0\n",
        "[solver]\ntol = 1e-9\ntau_mx = 5\n", "sigma0 = 2.0\n")]
    path = tmp_path / "bad.ini"
    for text, command in cases:
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == 2
        assert not caught
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: ") and err.count("\n") == 1


@pytest.mark.parametrize("window", [(20.0, 50.0), (200.0, 400.0), (1e-300, 1e-299)])
def test_fit_grids_of_an_array_of_rates_are_the_runs_grids(window):
    # the configuration check builds each grid once, a column per rate
    rates = np.array([1e-300, 0.5, 2**-0.5, 1.0, 3.0, 1e10])
    for build in (ige.slope_times, ige.volume_times, jacobi.exponent_times):
        grid = build(rates, window)
        for j, rate in enumerate(rates):
            assert np.array_equal(grid[:, j], build(rate, window))


def test_sweep_points_that_share_a_check_name_are_exit_2(tmp_path, capsys):
    # both points print as sigma0=1 (%g): their six checks would carry three names
    path = tmp_path / "clash.ini"
    path.write_text("[sweep]\nsigma0_values = 1.0000001, 1.0000002\n")
    assert run(["--config", str(path), "--out", str(tmp_path / "o"), "softening"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "1.0000001 as sigma0=1, 1.0000002 as sigma0=1" in err
    assert not (tmp_path / "o").exists()


def test_smallest_sigma0_with_finite_fit_horizons_runs(tmp_path):
    # just above the overflow threshold (about 3.15e-306 for the default
    # windows) the IGE checks still pass
    path = tmp_path / "tiny.ini"
    for s0 in ("3.2e-306", "1e-305"):
        path.write_text(f"[model]\nsigma0 = {s0}\n")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), "ige"]) == 0


def test_exponent_window_of_nine_samples_runs(tmp_path):
    # rate * tau in [49, 50] holds 9 of the exponent run's samples: enough to fit
    path = tmp_path / "narrow.ini"
    path.write_text("[fit]\nexponent_window = 49, 50\n")
    assert run(["--config", str(path), "--out", str(tmp_path / "o"), "jacobi"]) == 0


def test_exponent_window_to_rate_tau_800_passes(tmp_path, capsys):
    # the Jacobi runs have no horizon: past rate * tau = 691 (where they once
    # stopped) and 745 (where sech underflows) the fit still passes, silently
    path = tmp_path / "long.ini"
    path.write_text("[fit]\nexponent_window = 20, 800\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), "jacobi"]) == 0
    assert not caught
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["jacobi", "softening"])
def test_exponent_window_to_rate_tau_1e4_passes(tmp_path, capsys, command):
    # the latest end the configuration accepts: about 6,000 rk steps in jacobi
    path = tmp_path / "longest.ini"
    path.write_text("[fit]\nexponent_window = 20, 1e4\n")
    assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("window,code", [("1e300, 1e301", 0), ("1e-300, 1e-299", 1),
                                         ("200, 200.0000000002", 0)])
def test_extreme_slope_windows_end_on_their_checks(tmp_path, capsys, window, code):
    # the IGE line is fitted in rate * tau, so its abscissae are the window:
    # at 1e300 their squares once overflowed (slope 0, a ZeroDivisionError
    # traceback) and at 1e-300 the SVD did not converge; now the fit holds at
    # 1e300 and the tiny window fails its slope checks by name.  The
    # narrowest window accepted, 1e-12 of its start, fits without a warning
    path = tmp_path / "slope.ini"
    path.write_text(f"[fit]\nslope_window = {window}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), "softening"]) == code
    assert not caught
    out, err = capsys.readouterr()
    assert out == f"softening: {'pass' if code == 0 else 'FAIL'} (9 checks)\n" and err == ""


@pytest.mark.parametrize("command", ["jacobi", "softening"])
def test_tiny_exponent_window_fails_its_checks_without_a_traceback(tmp_path, capsys, command):
    # abscissae near 1e-300 square to subnormals; the fit once handed them
    # to np.polyfit, whose SVD did not converge (a LinAlgError traceback)
    path = tmp_path / "tiny.ini"
    path.write_text("[fit]\nexponent_window = 1e-300, 1e-299\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == 1
    assert not caught
    out, err = capsys.readouterr()
    assert out == f"{command}: FAIL ({7 if command == 'jacobi' else 9} checks)\n" and err == ""


@pytest.mark.parametrize("out", ["file", "file/sub", "out/verify_geometry_report.json"])
def test_unusable_output_directory_is_exit_2(tmp_path, capsys, out):
    # an existing file, a path below a file, and a report path that is a directory
    (tmp_path / "file").write_text("")
    (tmp_path / "out" / "verify_geometry_report.json").mkdir(parents=True)
    target = tmp_path / (out if out.startswith("file") else "out")
    assert run(["--out", str(target), "verify-geometry"]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.startswith("config error: ") and err.count("\n") == 1
    assert str(tmp_path / out) in err


def test_empty_output_directory_is_exit_2(tmp_path, monkeypatch, capsys):
    # Path("") is the working directory, where an empty --out once wrote every artefact
    monkeypatch.chdir(tmp_path)
    assert run(["--out", "", "verify-geometry"]) == 2
    assert capsys.readouterr() == ("", "config error: output directory must not be empty\n")
    assert not any(tmp_path.iterdir())


def test_malformed_values_are_exit_2(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[solver]\ntol = not-a-number\n")
    assert run(["--config", str(path), "--out", str(tmp_path / "o"),
                "geodesics"]) == 2


def test_numerical_abort_is_exit_3(tmp_path, capsys):
    # the Jacobi runs abort only where their start vector lies past the double
    # range: J^3 / sigma0' overflows at sigma0' = 1e-310, and its rate over the
    # rate, J^3 lambda_f / (rate sigma0'), at sigma0 = sigma0' = 1e-200; the
    # slots are nan and the first RHS call is not finite
    path = tmp_path / "abort.ini"
    for text, command in (("[model]\nsigma0_prime = 1e-310\n", "jacobi"),
                          ("[model]\nsigma0 = 1e-200\nsigma0_prime = 1e-200\n", "jacobi")):
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == 3
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: ") and err.count("\n") == 1


def test_long_geodesic_runs_end_on_their_checks(tmp_path, capsys):
    # to tau = 40 sigma falls to 8.5e-18 and the scale-free runs pass every
    # check; at lambda_f = 1e307 log sigma_y leaves the double range past
    # tau ~ 18 and the run still ends on its checks, silently: the speed
    # lies past the double range (drift nan), while the closed form's
    # residual, in the chart of the run, passes
    out = ["--out", str(tmp_path / "o"), "--tau-max", "40"]
    assert run([*out, "geodesics"]) == 0
    path = tmp_path / "far.ini"
    path.write_text("[model]\nlambda_f = 1e307\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", str(path), *out, "geodesics"]) == 1
    failed = {c["name"] for c in json.loads((tmp_path / "o" / "geodesics_report.json")
                                            .read_text())["checks"] if not c["passed"]}
    assert failed == {"geodesic_3d_speed_drift"}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text, failed", [
    ("[model]\nlambda_f = 1e307\nsigma0_prime = 100\n", {"geodesic_3d_speed_drift"}),
    ("[model]\nsigma0_prime = 1e300\nlambda_f = 1e10\n", set()),
], ids=["lambda_f-1e307", "sigma0_prime-1e300"])
def test_a_flat_velocity_past_the_double_range_ends_on_the_checks(tmp_path, capsys, text, failed):
    # lambda_f * sigma0' overflows: sigma_y' is -inf at tau = 0 in the closed
    # form and in the trajectory, silently.  The residual and the speed are
    # formed from the velocity ratios, which stay finite, so only the speed
    # 2 lambda_f^2 past the double range fails (at 1e307)
    path = tmp_path / "far.ini"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["--config", str(path), "--out", str(tmp_path / "o"), "geodesics"])
    assert code == int(bool(failed))
    report = json.loads((tmp_path / "o" / "geodesics_report.json").read_text())
    assert {c["name"] for c in report["checks"] if not c["passed"]} == failed
    assert capsys.readouterr().err == ""


def test_a_geodesic_horizon_past_rate_tau_1e4_is_a_configuration_error(tmp_path, capsys):
    # past s ~ 20 stability holds the rk step near 3.3, so the run's cost
    # grows with rate * tau_max: 1e4 is the end, at each model's rate
    out = ["--out", str(tmp_path / "o"), "geodesics"]
    assert run(["--tau-max", "1.0001e4", *out]) == 2
    path = tmp_path / "far.ini"
    path.write_text("[model]\nsigma0 = 1e10\n")
    assert run(["--config", str(path), *out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 2 and err.count("config error: tau_max must end") == 2


def test_a_geodesic_horizon_error_ends_all_before_its_first_subcommand(tmp_path, capsys):
    # all refuses the horizon before verify-geometry runs: nothing on stdout,
    # one stderr line and no output directory
    out_dir = tmp_path / "o"
    assert run(["--tau-max", "1.0001e4", "--out", str(out_dir), "all"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("config error: tau_max must end by rate * tau = 10000")
    assert not out_dir.exists()


def test_fit_times_are_checked_only_for_subcommands_that_fit(tmp_path, capsys):
    # a slope window from 5e-324 repeats its fit times: ige and all refuse it
    # before their first subcommand runs, while geodesics, which fits
    # nothing, runs and passes
    path = tmp_path / "tiny.ini"
    path.write_text("[fit]\nslope_window = 5e-324, 1e-323\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", str(path), "--out", str(tmp_path / "g"), "geodesics"]) == 0
        for command in ("ige", "all"):
            assert run(["--config", str(path), "--out", str(tmp_path / command), command]) == 2
            assert not (tmp_path / command).exists()
    out, err = capsys.readouterr()
    assert out == "geodesics: pass (6 checks)\n"
    assert err.count("config error: slope_window = ") == 2 and err.count("\n") == 2


@pytest.mark.parametrize("text,command", [
    ("[fit]\nexponent_window = 20, 2e4\n", "geodesics"),
    ("[fit]\nslope_window = 1, 1.0000000000000002\n", "verify-geometry")])
def test_fit_window_rules_apply_only_where_windows_are_read(tmp_path, capsys, text, command):
    # an exponent window past rate * tau = 1e4 and a slope window one ulp
    # wide are refused only by the subcommands that fit (see
    # test_invalid_parameters_are_exit_2); these two read no fit window
    path = tmp_path / "run.ini"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == 0
    assert capsys.readouterr().err == ""


def test_the_parser_is_built_once_and_each_call_reads_only_its_own_options(tmp_path):
    # the cached parser leaves no option of one call in the next: the first
    # run sets tau_max and writes JSON only, the second takes the defaults
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["--tau-max", "2.5", "--format", "json", "--out", str(first),
                "verify-geometry"]) == 0
    assert run(["--out", str(second), "verify-geometry"]) == 0
    assert cli._build_parser() is cli._build_parser()
    assert {p.name for p in first.iterdir()} == {"verify_geometry_report.json"}
    assert {p.name for p in second.iterdir()} == {"verify_geometry_report.json",
                                                 "verify_geometry_checks.csv"}
    params = [json.loads((d / "verify_geometry_report.json").read_text())["parameters"]
              for d in (first, second)]
    assert (params[0]["tau_max"], params[0]["formats"]) == (2.5, ["json"])
    assert (params[1]["tau_max"], params[1]["formats"]) == (10.0, ["csv", "json"])


def test_readme_synopsis_lists_every_option():
    # the CLI synopsis block in README names exactly the parser's options
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    synopsis = re.search(r"```sh\n(infogeo .*?)```", readme, re.S).group(1)
    options = {o for a in cli._build_parser()._actions for o in a.option_strings}
    assert set(re.findall(r"--[a-z-]+", synopsis)) == options - {"-h", "--help"}


def test_sample_points_are_the_seeded_scalar_draws():
    # one scalar draw per coordinate, point by point, the 3D points first
    rng = np.random.default_rng(cli._POINT_SEED)
    pts3 = [[rng.uniform(-2, 2), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)] for _ in range(12)]
    pts2 = [[rng.uniform(-2, 2), rng.uniform(0.5, 2.0)] for _ in range(12)]
    points = cli._sample_points(12)
    assert list(points) == [MODEL_3D, MODEL_2D]
    assert points[MODEL_3D].tolist() == pts3 and points[MODEL_2D].tolist() == pts2


def test_verify_geometry_passes(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["--out", str(out), "verify-geometry"]) == 0
    assert "verify-geometry: pass" in capsys.readouterr().out
    report = json.loads((out / "verify_geometry_report.json").read_text())
    assert report["passed"] is True
    assert report["schema_version"] == 1
    for check in report["checks"]:
        assert {"name", "tolerance", "measured", "passed"} <= set(check)


def test_report_json_roundtrip(tmp_path):
    out = tmp_path / "out"
    run(["--out", str(out), "--format", "json", "geodesics"])
    text = (out / "geodesics_report.json").read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_format_selection(tmp_path):
    out_csv = tmp_path / "csv"
    run(["--out", str(out_csv), "--format", "csv", "geodesics"])
    assert (out_csv / "trajectory_3d.csv").exists()
    assert not (out_csv / "geodesics_report.json").exists()
    out_json = tmp_path / "json"
    run(["--out", str(out_json), "--format", "json", "geodesics"])
    assert (out_json / "geodesics_report.json").exists()
    assert not (out_json / "trajectory_3d.csv").exists()


def test_ige_outputs_are_deterministic(tmp_path):
    out = tmp_path / "out"
    assert run(["--out", str(out), "ige"]) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(["--out", str(out), "ige"]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def _last_tau(tmp_path, tau_max):
    out = tmp_path / "out"
    assert run(["--out", str(out), "--tau-max", tau_max, "geodesics"]) == 0
    lines = (out / "trajectory_3d.csv").read_text().strip().split("\n")
    return float(lines[-1].split(",")[0])


def test_tau_max_override(tmp_path):
    assert _last_tau(tmp_path, "4.0") == pytest.approx(4.0)


def test_shortest_tau_max_with_distinct_sample_times_runs(tmp_path):
    # 3e-321 is the shortest end whose 501 sample times are all distinct
    assert _last_tau(tmp_path, "3e-321") == pytest.approx(3e-321)


def test_final_spread_derives_lambda_f(tmp_path, capsys):
    # lambda_f = log(sigma0' / epsilon) / tau_f when lambda_f is not given
    derived = math.log(1.0 / 0.1) / 2.0
    path = tmp_path / "spread.ini"
    path.write_text("[model]\ntau_f = 2.0\nepsilon = 0.1\n")
    out = tmp_path / "out"
    assert run(["--config", str(path), "--out", str(out), "--format", "json",
                "geodesics"]) == 0
    report = json.loads((out / "geodesics_report.json").read_text())
    assert report["parameters"]["lambda_f"] == pytest.approx(derived, rel=1e-15)
    # an explicit lambda_f must agree with it
    path.write_text(f"[model]\ntau_f = 2.0\nepsilon = 0.1\nlambda_f = {derived!r}\n")
    assert cli._validate(cli.load_config(path)).lambda_f == derived
    path.write_text("[model]\ntau_f = 2.0\nepsilon = 0.1\nlambda_f = 1.0\n")
    assert run(["--config", str(path), "--out", str(out), "geodesics"]) == 2
    assert "inconsistent lambda_f" in capsys.readouterr().err
    # without tau_f the default stays 1.0
    assert cli._validate(cli.ExperimentConfig()).lambda_f == 1.0


# at 2e-321 and below the 501 trajectory sample times repeat subnormals: the
# run once ended in a DomainError traceback (exit 1)
@pytest.mark.parametrize("args", [["--tol", "1e-3"], ["--tau-max", "-1"],
                                  ["--tau-max", "nan"], ["--tau-max", "0"],
                                  ["--tau-max", "1e-321"], ["--tau-max", "2e-321"]])
def test_bad_solver_settings_are_exit_2(tmp_path, capsys, args):
    assert run([*args, "--out", str(tmp_path / "o"), "geodesics"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("text,command", [
    ("volume_window = 20, inf", "ige"), ("slope_window = 200, inf", "ige"),
    ("exponent_window = 20, inf", "softening"), ("slope_window = 200, nan", "ige")])
def test_non_finite_fit_windows_are_exit_2(tmp_path, capsys, text, command):
    path = tmp_path / "window.ini"
    path.write_text(f"[fit]\n{text}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == 2
    assert not caught
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_softening_runs_each_sigma0_once(tmp_path, monkeypatch):
    # each point of the sweep, in or out of order, is one row of one call of
    # the IGE fits and one of the exact-field fits, each on the coupled pairs
    # in increasing sigma0, each spec's field starts once, the base sigma0
    # (here 3, not a sweep point) is not evaluated, and only the table and
    # its report are written; each sigma0's spec pair, the base's among them,
    # and each fit grid, a column per rate, is built once a run
    calls, starts, specs, grids = [], [], [], []

    def counted(name, original):
        def wrapper(pairs, *args, **kwargs):
            calls.append((name, [tuple((spec.model.label, spec.sigma0) for spec in pair)
                                 for pair in pairs]))
            return original(pairs, *args, **kwargs)
        return wrapper
    monkeypatch.setattr(ige, "softening_ratio_ige", counted("ige", ige.softening_ratio_ige))
    monkeypatch.setattr(jacobi, "softening_gap", counted("jacobi", jacobi.softening_gap))
    start_slots = jacobi._start_slots
    monkeypatch.setattr(jacobi, "_start_slots",
                        lambda spec, *args: starts.append(spec.sigma0) or start_slots(spec, *args))
    post_init = geodesics._GeodesicSpec.__post_init__
    monkeypatch.setattr(geodesics._GeodesicSpec, "__post_init__",
                        lambda spec: specs.append((spec.model.label, spec.sigma0)) or post_init(spec))
    for module, name in ((ige, "slope_times"), (ige, "volume_times"), (jacobi, "exponent_times"),
                         (jacobi, "window_mask")):
        build = getattr(module, name)
        def built(*args, name=name, build=build):
            grid = build(*args)
            grids.append((name, grid.shape))
            return grid
        monkeypatch.setattr(module, name, built)
    for n, sweep in enumerate(["0.5, 1, 2", "2, 0.5, 1"]):
        for made in (calls, starts, specs, grids):
            made.clear()
        path = tmp_path / "base.ini"
        path.write_text(f"[model]\nsigma0 = 3.0\n[sweep]\nsigma0_values = {sweep}\n")
        out = tmp_path / f"out_{n}"
        assert run(["--config", str(path), "--out", str(out), "softening"]) == 0
        points = [0.5, 1.0, 2.0]
        pairs = [(("3d", s0), ("2d", s0)) for s0 in points]
        assert calls == [("ige", pairs), ("jacobi", pairs)]
        assert starts == points + points
        given = [3.0, *map(float, sweep.split(","))]
        assert sorted(specs) == sorted((label, s0) for s0 in given for label in ("3d", "2d"))
        # 8 columns: the 3D and 2D rates of sigma0 = 3 and of the three sweep points
        assert sorted(grids) == [("exponent_times", (401, 8)), ("slope_times", (57, 8)),
                                 ("volume_times", (16, 2)), ("window_mask", (401, 8))]
        assert {p.name for p in out.iterdir()} == {"softening.csv", "softening_report.json",
                                                  "softening_checks.csv"}


_log_uniform = lambda lo, hi: st.floats(lo, hi).map(lambda e: 10.0 ** e)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(mu0=st.floats(-2.0, 2.0), sigma0_prime=_log_uniform(-1.0, 1.0),
       lambda_plus_prime=_log_uniform(-1.0, 1.0), lambda_f=_log_uniform(-1.0, 1.0),
       sweep=st.lists(_log_uniform(-6.0, 6.0), min_size=1, max_size=4,
                      unique_by=cli._sweep_tag))
def test_each_softening_row_is_its_own_sigma0s_fits_bit_for_bit(mu0, sigma0_prime,
                                                               lambda_plus_prime, lambda_f,
                                                               sweep):
    # a row of the one-pass table equals the per-spec primitives at its
    # sigma0, whatever its neighbours: slopes, ratio, exponents, gap and
    # expected gap, and the R^2 of each row-wise fit
    cfg = cli._validate(cli.ExperimentConfig(mu0=mu0, sigma0_prime=sigma0_prime,
                                             lambda_plus_prime=lambda_plus_prime,
                                             lambda_f=lambda_f, sweep_sigma0=tuple(sweep)))
    pairs = [(spec, GeodesicSpec2D.from_3d(spec))
             for spec in (GeodesicSpec3D(mu0, s0, sigma0_prime, lambda_plus_prime, lambda_f)
                          for s0 in sorted(sweep))]
    window = jacobi.EXPONENT_WINDOW
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report, _ = cli.run_softening(cfg)
        rates = np.array([spec.rate for pair in pairs for spec in pair])
        taus = jacobi.exponent_times(rates, window)
        slopes = ige.softening_ratio_ige(pairs, ige.slope_times(rates, ige.SLOPE_WINDOW))
        exponents = jacobi.softening_gap(pairs, taus, jacobi.window_mask(taus, rates, window))
        alone = [[(ige.ige_curve(spec).fit,
                   jacobi.exponent_fit(jacobi.exponent_run(spec, window), window))
                  for spec in pair] for pair in pairs]
    for i, (row, pair, ((ige_3d, jac_3d), (ige_2d, jac_2d))) in enumerate(
            zip(report.tables["softening"], pairs, alone)):
        assert row == {"sigma0": pair[0].sigma0,
                       "ige_slope_3d": ige_3d.slope,
                       "ige_slope_2d": ige_2d.slope,
                       "ratio": ige_2d.slope / ige_3d.slope,
                       "jacobi_exponent_3d": jac_3d.slope,
                       "jacobi_exponent_2d": jac_2d.slope,
                       "gap": jac_3d.slope - jac_2d.slope,
                       "expected_gap": pair[0].rate * jacobi.GAP_PER_RATE}
        for fits, fit in ((slopes.fit_3d, ige_3d), (slopes.fit_2d, ige_2d),
                          (exponents.fit_3d, jac_3d), (exponents.fit_2d, jac_2d)):
            assert fits.r_squared[i] == fit.r_squared


def test_each_artefact_has_one_writer(tmp_path):
    # the five subcommands write disjoint sets of files whose union is what
    # all writes, and each CSV of all is its owner's own run, byte for byte
    path = tmp_path / "base.ini"
    path.write_text("[model]\nsigma0 = 2.0\nlambda_f = 1.5\n")
    written = {}
    for command in (*cli._COMMANDS, "all"):
        out = tmp_path / command
        assert run(["--config", str(path), "--out", str(out), command]) == 0
        written[command] = {p.name: p.read_bytes() for p in out.iterdir()}
    owners = {name: command for command in cli._COMMANDS for name in written[command]}
    assert sum(len(written[command]) for command in cli._COMMANDS) == len(owners) == 17
    assert owners.keys() == written["all"].keys()
    for name, text in written["all"].items():
        if name.endswith(".csv"):
            assert text == written[owners[name]][name], name


def test_jacobi_makes_one_run_per_model(tmp_path, monkeypatch):
    # the damped check reads the exponent run: one integrate_jlc call per
    # model, counted in every module that binds the name
    calls = []
    original = jacobi.integrate_jlc

    def counted(spec, *args, **kwargs):
        calls.append(spec.model.label)
        return original(spec, *args, **kwargs)
    for module in (jacobi, cli):
        if hasattr(module, "integrate_jlc"):
            monkeypatch.setattr(module, "integrate_jlc", counted)
    assert run(["--out", str(tmp_path / "out"), "jacobi"]) == 0
    assert calls == ["3d", "2d"]


def test_softening_makes_no_rk_run(tmp_path, monkeypatch):
    # every sweep point is fitted from the exact fields; the rk runs and
    # their exact-field checks are jacobi's
    calls = []
    original = rk.integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    monkeypatch.setattr(rk, "integrate", counted)
    path = tmp_path / "sweep.ini"
    path.write_text("[model]\nsigma0 = 0.7\n[sweep]\nsigma0_values = 0.25, 0.5, 1, 2, 4\n")
    assert run(["--config", str(path), "--out", str(tmp_path / "out"), "softening"]) == 0
    assert calls == []
    assert run(["--config", str(path), "--out", str(tmp_path / "out"), "jacobi"]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("base", [1.0, 0.5, 3.0])
def test_softening_agrees_with_jacobi_at_the_base_point(tmp_path, base):
    # the table's exact-field exponents at the base point within 1e-9 of
    # the rk exponents jacobi fits there
    path = tmp_path / "base.ini"
    path.write_text(f"[model]\nsigma0 = {base!r}\n"
                    f"[sweep]\nsigma0_values = {base / 2!r}, {base!r}, {2 * base!r}\n")
    out = tmp_path / "softening"
    assert run(["--config", str(path), "--out", str(out), "softening"]) == 0
    row = next(r for r in json.loads((out / "softening_report.json").read_text())
               ["tables"]["softening"] if r["sigma0"] == base)
    cfg = cli._validate(cli.load_config(path))
    for spec in (cfg.spec_3d(), GeodesicSpec2D.from_3d(cfg.spec_3d())):
        fit = jacobi.exponent_fit(jacobi.exponent_run(spec, cfg.exponent_window, cfg.tol))
        assert row[f"jacobi_exponent_{spec.model.label}"] == pytest.approx(fit.slope, rel=1e-9)


def test_far_sweep_points_pass_on_the_exact_route(tmp_path, capsys):
    # sweep points six decades either side of unit sigma0, on the exact
    # fields; at sigma0 = 1e6 (sigma0' = 1) J^3 / sigma_y of the
    # default field gives way to the mean mode at rate * tau ~ 14, before the
    # [20, 50] window, and the gap still passes (see README)
    path = tmp_path / "far.ini"
    path.write_text("[sweep]\nsigma0_values = 1e-6, 1, 1e6\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), "softening"]) == 0
    assert not caught
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("sigma0", [0.5, 2.0])
@pytest.mark.parametrize("ratio", [0.1, 1.0, 5.0])
def test_damped_component_error_is_rounding(sigma0, ratio):
    # J^3 of the exponent run against its exact critically damped form, for
    # lambda_f / rate from 0.1 to 5: the flat slot is integrated exactly
    cfg = cli._validate(cli.ExperimentConfig(model="3d", sigma0=sigma0, lambda_f=ratio * sigma0))
    report, _ = cli.run_jacobi(cfg)
    [check] = [c for c in report.checks if c.name == "jacobi_3d_damped_component_error"]
    assert check.measured <= 1e-12


def test_one_point_sweep_table(tmp_path):
    # a sweep without the base point sigma0 = 1 tabulates only its own row,
    # and each softening.csv value is the report's table entry exactly
    path = tmp_path / "one.ini"
    path.write_text("[sweep]\nsigma0_values = 2\n")
    out = tmp_path / "out"
    assert run(["--config", str(path), "--out", str(out), "softening"]) == 0
    lines = (out / "softening.csv").read_text().splitlines()
    rows = json.loads((out / "softening_report.json").read_text())["tables"]["softening"]
    assert len(lines) == 3 and len(rows) == 1 and rows[0]["sigma0"] == 2.0
    names = lines[1].split(",")
    assert sorted(names) == sorted(rows[0])
    assert [float(v) for v in lines[2].split(",")] == [rows[0][k] for k in names]


@pytest.mark.parametrize("command,sigma0,code", [
    (command, sigma0, int(command == "geodesics" and sigma0 == "1e-200"))
    for command in ("geodesics", "jacobi", "ige")
    for sigma0 in ("1e-90", "1e-120", "1e-160", "1e-200")])
def test_vanishing_sigma0_warns_nothing(tmp_path, command, sigma0, code):
    # at sigma0 = 1e-200 the 2D Fisher speed 4 rate^2 underflows to 0, so
    # the drift check fails by name (exit 1); above it the speed, formed
    # from the run's velocity ratios, is finite, and so is the drift.  The Jacobi runs, made in rate units, pass
    # their checks (exit 0), and so does every IGE check: the 3D closed-form
    # volume forms no sigma0^2 product.  The inf/nan of the rejected trial
    # stages stay silent, and the IGE slopes are fitted at rate * tau ~ 300,
    # not tau ~ 1e202
    path = tmp_path / "tiny.ini"
    path.write_text(f"[model]\nsigma0 = {sigma0}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == code
    assert not caught


def test_truncated_jacobi_run_ends_softening_with_one_line(tmp_path, capsys):
    # at sigma0 = sigma0' = 1e-200 the 3D Jacobi field stops at its start (see
    # test_numerical_abort_is_exit_3): no exponent is fitted, and softening
    # ends in one line
    path = tmp_path / "abort.ini"
    path.write_text("[model]\nsigma0_prime = 1e-200\n[sweep]\nsigma0_values = 1e-200\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), "softening"]) == 3
    assert not caught
    out, err = capsys.readouterr()
    assert out == "" and err == ("numerical abort: jacobi run 3d: right-hand side is not "
                                 "finite at the initial state\n")


def _far_sigma0(command, sigma0, model=""):
    """An INI text that runs ``command`` at ``sigma0``: the [model] base point,
    or for softening, which reads only its sweep, the one sweep point."""
    if command == "softening":
        return f"[model]\n{model}[sweep]\nsigma0_values = {sigma0}\n"
    return f"[model]\nsigma0 = {sigma0}\n{model}"


@pytest.mark.parametrize("command", ["jacobi", "softening"])
def test_vanishing_sigma0_runs_pass(tmp_path, capsys, command):
    # at sigma0 = 1e-100 (lambda_f / rate = 1e100) the 3D run once ended in
    # step size underflow before its first step; the field slots complete it.
    # softening takes the point as its sweep
    path = tmp_path / "tiny.ini"
    path.write_text(_far_sigma0(command, "1e-100"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == 0
    assert not caught
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("sigma0", ["1e-6", "1e10", "1e100"])
@pytest.mark.parametrize("command", ["jacobi", "softening"])
def test_far_sigma0_runs_pass(tmp_path, capsys, sigma0, command):
    # in rate units the 2D run does not depend on sigma0 and the 3D run only
    # on lambda_f / rate, so these pass their checks; in tau units 1e-6
    # stopped on a 1e-150 sigma floor and 1e10 in step size underflow
    path = tmp_path / "far.ini"
    path.write_text(_far_sigma0(command, sigma0, f"sigma0_prime = {sigma0}\n"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == 0
    assert not caught
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("text", ["lambda_f = 100", "lambda_f = 1e4", "tau_f = 1\nepsilon = 1e-300"],
                         ids=["lambda_f-100", "lambda_f-1e4", "final-spread-1e-300"])
def test_underflowing_sigma_y_passes_the_closed_form_residual(tmp_path, capsys, text):
    # sigma_y = sigma0' e^(-lambda_f tau) underflows to 0 on the residual grid;
    # the residual is formed in the chart of the run, where log sigma_y =
    # -lambda_f tau stays a number, so both models' residuals are rounding
    # and every check passes, without a warning
    path = tmp_path / "steep.ini"
    path.write_text(f"[model]\n{text}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), "geodesics"]) == 0
    assert not caught
    assert capsys.readouterr() == ("geodesics: pass (6 checks)\n", "")
    checks = {c["name"]: c["measured"] for c in
              json.loads((tmp_path / "o" / "geodesics_report.json").read_text())["checks"]}
    for label in ("3d", "2d"):
        assert 0.0 <= checks[f"geodesic_{label}_closed_form_residual"] <= 1e-15


@pytest.mark.parametrize("mu0", ["1e308", "-1e308"])
@pytest.mark.parametrize("command,code", [("ige", 1), ("softening", 0)])
def test_extreme_mu0_warns_nothing(tmp_path, capsys, mu0, command, code):
    # the bracket of the 3D closed-form volume overflows at |mu0| = 1e308: the
    # check reads nan (null in the report) and fails by name (exit 1), without
    # a RuntimeWarning; softening does not use the closed-form volume and passes
    path = tmp_path / "far.ini"
    path.write_text(f"[model]\nmu0 = {mu0}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == code
    assert not caught
    assert capsys.readouterr().err == ""
    if command == "ige":
        checks = {c["name"]: c["measured"] for c in
                  json.loads((tmp_path / "o" / "ige_report.json").read_text())["checks"]}
        assert checks["ige_3d_closed_form_volume_relative_error"] is None


def test_a_report_encodes_non_finite_numbers_as_null_in_one_pass():
    # checks measuring nan, inf and -inf, and non-finite numbers nested in the
    # parameters and tables, are written as null: the text is that of the
    # earlier encoding, which dumped the payload, parsed it back with each
    # non-finite constant as None and dumped it again
    report = cli.RunReport("probe", {"b": (1.0, math.inf), "a": [{"z": -math.inf, "y": "x"}]},
                           tables={"t": [[0.5, math.nan], (None, 3)]})
    for name, measured in (("nan", math.nan), ("inf", math.inf), ("minus_inf", -math.inf),
                           ("zero", 0.0)):
        report.add(f"check_{name}", measured, 1.0)
    payload = {"schema_version": cli.SCHEMA_VERSION, "command": report.command,
               "parameters": report.parameters, "passed": report.passed,
               "checks": [vars(c) for c in report.checks], "tables": report.tables}
    old = json.dumps(json.loads(json.dumps(payload), parse_constant=lambda _: None),
                     indent=2, sort_keys=True, allow_nan=False) + "\n"
    text = report.to_json()
    assert text == old
    checks = {c["name"]: c["measured"] for c in json.loads(text)["checks"]}
    assert checks == {"check_nan": None, "check_inf": None, "check_minus_inf": None,
                      "check_zero": 0.0}
    assert report.checks[0].measured != report.checks[0].measured   # the report keeps its nan


# the config fuzz: every INI key at each edge value, on each subcommand that
# reads the key, with a companion line where a key is read only with another
_MODEL_READERS = ("geodesics", "ige", "jacobi", "softening")
_FUZZ_KEYS = [
    *(("model", key, _MODEL_READERS, "") for key in ("model", "mu0", "sigma0", "sigma0_prime",
                                                     "lambda_plus_prime", "lambda_f")),
    ("model", "tau_f", _MODEL_READERS, "epsilon = 0.1"),
    ("model", "epsilon", _MODEL_READERS, "tau_f = 2.0"),
    ("solver", "tol", ("geodesics", "jacobi", "softening"), ""),
    ("solver", "tau_max", ("geodesics",), ""),
    ("fit", "volume_window", ("ige",), ""), ("fit", "slope_window", ("ige", "softening"), ""),
    ("fit", "exponent_window", ("jacobi", "softening"), ""),
    ("sweep", "sigma0_values", ("softening",), ""),
    ("output", "directory", ("ige",), ""), ("output", "format", ("ige",), ""),
]
_FUZZ_VALUES = ["nan", "inf", "-inf", "0", "-1", "5e-324", "1e-320", "1e-300", "1e307", "1e308",
                "text", "", None]   # None: the key twice
# the exits some (key, value, command) cases must end in: lambda_f / rate
# past the double range at the sweep point sigma0 = 0.5 and an empty output
# directory are configuration errors; at lambda_f = 1e307 the overflows of
# lambda_f * tau end every command on its checks
_FUZZ_EXITS = {**{("lambda_f", "1e308", command): 2 for command in _MODEL_READERS},
               **{("lambda_f", "1e307", command): 1 for command in _MODEL_READERS},
               ("directory", "", "ige"): 2}


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@pytest.mark.parametrize("section,key,commands,companion", _FUZZ_KEYS,
                         ids=[f"{s}.{k}" for s, k, _, _ in _FUZZ_KEYS])
def test_config_fuzz_ends_in_a_documented_exit(tmp_path, monkeypatch, capsys,
                                               section, key, commands, companion):
    # exit 0 or 1 leaves stderr empty, 2 and 3 one line, never a traceback
    # or a warning; exit 1 only with a failing check; every report is strict
    # JSON.  A window takes the value as its start, ending at 50
    monkeypatch.chdir(tmp_path)   # a relative or empty directory lands here
    faults = []
    for value in _FUZZ_VALUES:
        text = "1" if value is None else value
        line = f"{key} = {text}, 50" if key.endswith("_window") else f"{key} = {text}"
        lines = [f"[{section}]", line, line if value is None else "", companion]
        if key != "directory":
            lines += ["" if section == "output" else "[output]", "directory = out"]
        path = tmp_path / "fuzz.ini"
        path.write_text("\n".join(lines) + "\n")
        for command in commands:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = run(["--config", str(path), command])
                for report in tmp_path.rglob("*_report.json"):
                    written = report.read_text()
                    report.unlink()
                    json.loads(written, parse_constant=_refuse_constant)
            except Exception as exc:   # a traceback, a warning among them
                capsys.readouterr()
                faults.append(f"{command} at {value!r}: raised {type(exc).__name__}: {exc}")
                continue
            out, err = capsys.readouterr()
            if (code not in (0, 1, 2, 3) or err.count("\n") > (code >= 2)
                    or (code == 1) != (": FAIL (" in out)
                    or code != _FUZZ_EXITS.get((key, value, command), code)):
                faults.append(f"{command} at {value!r}: exit {code}, stderr {err!r}")
    assert not faults


# the pair fuzz: a model, solver or sweep key beside a fit window, each at an
# edge value, on a subcommand that reads the window; fit windows are pairs of
# edge values, one-ulp windows and one-decade windows
_PAIR_EDGES = ["1e300", "-1e300", "1e-300", "-1e-300", "5e-324", "inf", "nan"]
_PAIR_KEYS = [("model", key) for key in ("mu0", "sigma0", "sigma0_prime", "lambda_plus_prime",
                                         "lambda_f")]
_PAIR_KEYS += [("solver", "tol"), ("solver", "tau_max"), ("sweep", "sigma0_values")]
_PAIR_WINDOWS = [f"{a}, {b}" for a in _PAIR_EDGES + ["50"] for b in _PAIR_EDGES + ["50"]]
_PAIR_WINDOWS += [f"{x!r}, {y!r}" for x in (5e-324, 1e-300, 1.0, 1e300)
                  for y in (math.nextafter(x, math.inf), 10.0 * x)]
_WINDOW_READERS = {"volume_window": ("ige",), "slope_window": ("ige", "softening"),
                   "exponent_window": ("jacobi", "softening")}


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(_PAIR_KEYS), value=st.sampled_from(_PAIR_EDGES),
       window=st.sampled_from(sorted(_WINDOW_READERS)), bounds=st.sampled_from(_PAIR_WINDOWS),
       pick=st.integers(0, 1))
def test_config_fuzz_over_key_pairs_ends_in_a_documented_exit(tmp_path, capsys, key, value,
                                                              window, bounds, pick):
    # with warnings as errors: exit 0 or 1 leaves stderr empty, 2 and 3 one
    # line, and nothing escapes main
    (section, name), commands = key, _WINDOW_READERS[window]
    path = tmp_path / "pair.ini"
    path.write_text(f"[{section}]\n{name} = {value}\n[fit]\n{window} = {bounds}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["--config", str(path), "--out", str(tmp_path / "o"),
                    commands[pick % len(commands)]])
    err = capsys.readouterr().err
    assert code in (0, 1, 2, 3)
    assert (err.count("\n") == 1 and err.endswith("\n")) if code >= 2 else err == ""
