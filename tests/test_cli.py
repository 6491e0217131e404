"""Command line interface: config handling, reports, exit codes."""

import json
import math
import warnings

import pytest

from infogeo import cli


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
    path = tmp_path / "bad.ini"
    path.write_text("[model]\nsigma0 = -1.0\n")
    assert run(["--config", str(path), "--out", str(tmp_path / "o"),
                "verify-geometry"]) == 2


def test_malformed_values_are_exit_2(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[solver]\ntol = not-a-number\n")
    assert run(["--config", str(path), "--out", str(tmp_path / "o"),
                "geodesics"]) == 2


def test_numerical_abort_is_exit_3(tmp_path):
    path = tmp_path / "abort.ini"
    path.write_text("[model]\nsigma0_prime = 1e-295\nlambda_f = 2.0\n")
    assert run(["--config", str(path), "--out", str(tmp_path / "o"),
                "geodesics"]) == 3


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
    report = cli.RunReport.from_json(text)
    assert report.to_json() == text


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


@pytest.mark.parametrize("command,code", [("geodesics", 1), ("jacobi", 3), ("ige", 1)])
def test_vanishing_sigma0_warns_nothing(tmp_path, command, code):
    # at sigma0 = 1e-200 the Fisher speed is nan (drift check fails, exit 1),
    # the Jacobi run stops on the 1e-150 floor (exit 3) and the 3D closed-form
    # volume is nan (exit 1); the inf/nan of the rejected trial stages stay
    # silent, and the IGE slopes are fitted at rate * tau ~ 300, not tau ~ 1e202
    path = tmp_path / "tiny.ini"
    path.write_text("[model]\nsigma0 = 1e-200\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["--config", str(path), "--out", str(tmp_path / "o"), command]) == code
    assert not caught
