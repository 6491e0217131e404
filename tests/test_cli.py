"""Command line interface: config handling, reports, exit codes."""

import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from infogeo import cli
from infogeo.models import MODEL_2D, MODEL_3D


def run(args):
    return cli.main(args)


def test_default_config_is_valid():
    cfg = cli._validate(cli.ExperimentConfig())
    assert cfg.model == "pair"
    assert cfg.spec_2d().lambda_plus == pytest.approx(2**-0.5)


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


def test_smallest_sigma0_with_finite_fit_horizons_runs(tmp_path):
    # just above the overflow threshold (about 3.15e-306 for the default
    # windows) the IGE checks still pass
    path = tmp_path / "tiny.ini"
    for s0 in ("3.2e-306", "1e-305"):
        path.write_text(f"[model]\nsigma0 = {s0}\n")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), "ige"]) == 0


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


def test_malformed_values_are_exit_2(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[solver]\ntol = not-a-number\n")
    assert run(["--config", str(path), "--out", str(tmp_path / "o"),
                "geodesics"]) == 2


def test_numerical_abort_is_exit_3(tmp_path, capsys):
    # at sigma0 = 1e100 the trial stages of the Jacobi run overflow math.exp;
    # they are rejected like inf/nan stages until the step size underflows.
    # At sigma0 = 1e154 rho^2 overflows in the first Jacobi RHS call itself
    path = tmp_path / "abort.ini"
    for text, command in (("[model]\nsigma0_prime = 1e-295\nlambda_f = 2.0\n", "geodesics"),
                          ("[model]\nsigma0 = 1e100\n", "jacobi"),
                          ("[model]\nsigma0 = 1e154\n", "jacobi")):
        path.write_text(text)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == 3
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("numerical abort: ") and err.count("\n") == 1


def test_long_geodesic_runs_end_on_their_checks(tmp_path, capsys):
    # to tau = 40 the 3D run rejects attempts once sigma nears the absolute
    # tolerance; each retry starts from f(t, y) at the accepted state, so the
    # run completes instead of ending in step size underflow.  Its checks
    # decide the exit code (the 3D speed drift fails, see ROADMAP item 1)
    assert run(["--out", str(tmp_path / "o"), "--tau-max", "40", "geodesics"]) in (0, 1)
    assert capsys.readouterr().err == ""


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


def test_tau_max_override(tmp_path):
    out = tmp_path / "out"
    assert run(["--out", str(out), "--tau-max", "4.0", "geodesics"]) == 0
    lines = (out / "trajectory_3d.csv").read_text().strip().split("\n")
    last_tau = float(lines[-1].split(",")[0])
    assert last_tau == pytest.approx(4.0)


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


@pytest.mark.parametrize("args", [["--tol", "1e-3"], ["--tau-max", "-1"],
                                  ["--tau-max", "nan"], ["--tau-max", "0"]])
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
    # the default sweep (0.5, 1, 2) holds the base point sigma0 = 1, whose
    # run also gives the ige_* and jacobi_* series
    calls = []
    original = cli.softening_gap

    def counted(spec, *args, **kwargs):
        calls.append(spec.sigma0)
        return original(spec, *args, **kwargs)
    monkeypatch.setattr(cli, "softening_gap", counted)
    out = tmp_path / "out"
    assert run(["--out", str(out), "softening"]) == 0
    assert sorted(calls) == [0.5, 1.0, 2.0]
    assert {"jacobi_3d.csv", "jacobi_2d.csv", "ige_3d.csv", "ige_2d.csv",
            "softening.csv"} <= {p.name for p in out.iterdir()}


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


@pytest.mark.parametrize("command,code", [("geodesics", 1), ("jacobi", 3), ("ige", 0)])
def test_vanishing_sigma0_warns_nothing(tmp_path, command, code):
    # at sigma0 = 1e-200 the Fisher speed is nan (drift check fails, exit 1)
    # and the Jacobi run stops on the 1e-150 floor (exit 3); every IGE check
    # passes (exit 0): the 3D closed-form volume forms no sigma0^2 product.
    # The inf/nan of the rejected trial stages stay silent, and the IGE
    # slopes are fitted at rate * tau ~ 300, not tau ~ 1e202
    path = tmp_path / "tiny.ini"
    path.write_text("[model]\nsigma0 = 1e-200\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == code
    assert not caught
