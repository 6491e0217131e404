"""Batch experiment runner.

Subcommands reproduce the pipeline end to end and emit plot-ready CSV series
plus JSON reports:

    verify-geometry   closed-form vs finite-difference vs quadrature geometry
    geodesics         numeric integration vs closed forms, speed conservation
    ige               entropy curves, tail slopes, closed-form volume check
    jacobi            Jacobi field runs, growth exponents, damped component
    softening         coupled-pair headline table: slope ratio and exponent gap
    all               everything above into one output directory

Every reported check carries its tolerance and measured value.  Outputs are
byte-identical across reruns of the same configuration: fixed summation
orders, no wall-clock fields, and the only random draws (the
``verify-geometry`` check points) come from the fixed-seed PCG64 stream
``_POINT_SEED``.

Exit codes: 0 all checks pass, 1 check failure, 2 configuration error,
3 numerical abort.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ige, jacobi, numgeo
from .errors import DomainError, NumericalAbort
from .fisher import fisher_numeric_2d, fisher_numeric_3d
from .geodesics import (GeodesicSpec2D, GeodesicSpec3D, check_tol, closed_form,
                        integrate_geodesic, residual_check, series_to_csv,
                        trajectory_to_csv)
from .jacobi import (critically_damped, exponent_fit, exponent_run, integrate_jlc,
                     jacobi_to_csv, softening_gap)
from .models import MODEL_2D, MODEL_3D, Model2DConfig

SCHEMA_VERSION = 1
_POINT_SEED = 20260811  # fixed PCG64 stream: "random" check points, same every run


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved run parameters; see README for the INI file keys."""

    model: str = "pair"                 # "3d", "2d" or "pair"
    mu0: float = 0.0
    sigma0: float = 1.0
    sigma0_prime: float = 1.0
    lambda_plus_prime: float = 1.0
    lambda_f: float = None              # 1.0, or derived from tau_f + epsilon
    tau_f: float = None
    epsilon: float = None
    tol: float = 1e-10
    tau_max: float = 10.0
    volume_window: tuple = ige.VOLUME_WINDOW
    slope_window: tuple = ige.SLOPE_WINDOW
    exponent_window: tuple = jacobi.EXPONENT_WINDOW
    sweep_sigma0: tuple = (0.5, 1.0, 2.0)
    out_dir: str = "out"
    formats: tuple = ("csv", "json")

    def spec_3d(self) -> GeodesicSpec3D:
        if self.tau_f is not None and self.epsilon is not None:
            return GeodesicSpec3D.from_final_spread(
                self.mu0, self.sigma0, self.sigma0_prime,
                self.lambda_plus_prime, self.tau_f, self.epsilon,
                lambda_f=self.lambda_f)
        return GeodesicSpec3D(self.mu0, self.sigma0, self.sigma0_prime,
                              self.lambda_plus_prime,
                              1.0 if self.lambda_f is None else self.lambda_f)

    def spec_2d(self) -> GeodesicSpec2D:
        return GeodesicSpec2D.from_3d(self.spec_3d())


_floats = lambda s: tuple(float(v) for v in s.split(","))
_strs = lambda s: tuple(v.strip() for v in s.split(","))
# INI section -> key -> (ExperimentConfig field, parser); nothing else is accepted
_INI_KEYS = {
    "model": {"model": ("model", str),
              **{k: (k, float) for k in ("mu0", "sigma0", "sigma0_prime", "lambda_plus_prime",
                                         "lambda_f", "tau_f", "epsilon")}},
    "solver": {"tol": ("tol", float), "tau_max": ("tau_max", float)},
    "fit": {k: (k, _floats) for k in ("volume_window", "slope_window", "exponent_window")},
    "sweep": {"sigma0_values": ("sweep_sigma0", _floats)},
    "output": {"directory": ("out_dir", str), "format": ("formats", _strs)},
}


def load_config(path) -> ExperimentConfig:
    """Parse the INI-style configuration file (flat key-value sections).

    An unknown section or key is a configuration error, so a mistyped key
    cannot silently run the default.
    """
    # no header can name the section "", so [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(default_section="")
    updates = {}
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        for section in parser.sections():
            keys = _INI_KEYS.get(section)
            if keys is None:
                raise ConfigError(f"unknown section [{section}] in {path}")
            for key, text in parser.items(section):
                if key not in keys:
                    raise ConfigError(f"unknown key {key!r} in section [{section}] of {path}")
                name, cast = keys[key]
                updates[name] = cast(text)
    except (ValueError, configparser.Error) as exc:
        detail = " ".join(str(exc).split())    # one line, like every config error
        raise ConfigError(f"malformed config file {path}: {detail}") from exc
    return ExperimentConfig(**updates)


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.model not in ("3d", "2d", "pair"):
        raise ConfigError(f"model must be 3d, 2d or pair, got {cfg.model!r}")
    for name in ("volume_window", "slope_window", "exponent_window"):
        w = getattr(cfg, name)
        if len(w) != 2 or not 0 < w[0] < w[1] < math.inf:
            raise ConfigError(f"{name} must be an increasing pair of positive reals, got {w}")
    if any(f not in ("csv", "json") for f in cfg.formats):
        raise ConfigError(f"format entries must be csv or json, got {cfg.formats}")
    if not (math.isfinite(cfg.tau_max) and cfg.tau_max > 0.0):
        raise ConfigError(f"tau_max must be a positive real, got {cfg.tau_max!r}")
    if (cfg.tau_f is None) != (cfg.epsilon is None):
        raise ConfigError("tau_f and epsilon must be given together")
    if len(set(cfg.sweep_sigma0)) != len(cfg.sweep_sigma0):
        raise ConfigError(f"sigma0_values must not repeat a value, got {cfg.sweep_sigma0}")
    try:
        check_tol(cfg.tol)
        spec = cfg.spec_3d()
        # the latest fit time, in rate * tau; the 2D rate is the smaller of the pair
        horizon = max(cfg.volume_window[1], cfg.slope_window[1], cfg.exponent_window[1])
        for s0 in (cfg.sigma0, *cfg.sweep_sigma0):
            rate = GeodesicSpec2D.from_3d(replace(spec, sigma0=s0)).rate
            if not (rate > 0.0 and horizon / rate < math.inf):
                raise ConfigError(f"sigma0 = {s0!r} puts the fit horizon {horizon:g} / rate "
                                  f"beyond the largest float")
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return replace(cfg, lambda_f=spec.lambda_f)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Check:
    name: str
    tolerance: float
    measured: float
    passed: bool


@dataclass
class RunReport:
    command: str
    parameters: dict
    checks: list = field(default_factory=list)
    tables: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def add(self, name: str, measured: float, tolerance: float,
            passed=None) -> bool:
        ok = bool(abs(measured) <= tolerance) if passed is None else bool(passed)
        self.checks.append(Check(name, float(tolerance), float(measured), ok))
        return ok

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "schema_version": self.schema_version,
            "command": self.command,
            "parameters": self.parameters,
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "tables": self.tables,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _checks_csv(report: RunReport) -> str:
    lines = ["# infogeo checks csv schema=1", "name,tolerance,measured,passed"]
    for c in report.checks:
        lines.append(f"{c.name},{c.tolerance:.17g},{c.measured:.17g},{int(c.passed)}")
    return "\n".join(lines) + "\n"


def _emit(cfg: ExperimentConfig, out_dir: Path, stem: str, report: RunReport,
          csv_series: dict):
    files = {}
    if "json" in cfg.formats:
        files[f"{stem}_report.json"] = report.to_json()
    if "csv" in cfg.formats:
        files[f"{stem}_checks.csv"] = _checks_csv(report)
        files.update(csv_series)
    for name, text in files.items():
        (out_dir / name).write_text(text)


def _specs(cfg: ExperimentConfig) -> list:
    """(label, spec) for each model the configuration selects."""
    return [(spec.model.label, spec) for spec in (cfg.spec_3d(), cfg.spec_2d())
            if cfg.model in (spec.model.label, "pair")]


def _sample_points(n: int) -> dict:
    """{model: (n, dimension) check points}: mu_x in [-2, 2) and every scale
    in [0.5, 2), drawn from the ``_POINT_SEED`` stream, the 3D model first."""
    rng = np.random.default_rng(_POINT_SEED)
    return {model: rng.uniform((-2.0,) + (0.5,) * (model.dimension - 1), 2.0,
                               (n, model.dimension))
            for model in (MODEL_3D, MODEL_2D)}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_verify(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    """Closed-form geometry vs the finite-difference engine and quadrature."""
    report = RunReport("verify-geometry", asdict(cfg))
    # per model: the paper's scalar curvature, the metric field of the finite
    # differences, the Fisher quadrature and the extra arguments of each
    # Fisher case (the 2D matrix must not depend on Sigma^2)
    cases = {MODEL_3D: (-1.0, numgeo.field_3d(), fisher_numeric_3d, [()]),
             MODEL_2D: (-0.5, numgeo.field_2d(), fisher_numeric_2d,
                        [(Model2DConfig(s2),) for s2 in (0.5, 1.0, 3.0)])}
    riemann, scalar_errors, gerr, ferr = {}, {}, 0.0, 0.0
    for model, rows in _sample_points(12).items():
        expected, fld, fisher, arg_sets = cases[model]
        report.add(f"scalar_curvature_{model.label}_analytic_minus_expected",
                   model.scalar_curvature - expected, 0.0)
        # one Riemann tensor per point serves the scalar, component and Bianchi checks
        riemann[model] = [(row, numgeo.riemann_numeric(fld, row)) for row in rows]
        scalar_errors[model.label] = max(abs(r.ricci().scalar(fld.metric_at(row)) - expected)
                                         for row, r in riemann[model])
        for row in rows:
            num = numgeo.christoffel_numeric(fld, row).components
            gerr = max(gerr, float(np.abs(num - model.tensors(row)[0]).max()))
        for row in rows[:6]:
            for args in arg_sets:
                num = fisher(model.point(*row), *args)   # default quadrature
                ferr = max(ferr, float(np.abs(num - model.metric_rows(row)[0]).max()))
    for label, worst in scalar_errors.items():
        report.add(f"scalar_curvature_{label}_fd_error", worst, 1e-4)
    report.add("christoffel_fd_error", gerr, 1e-6)

    rerr = 0.0
    for row, r in riemann[MODEL_3D]:
        ref = -1.0 / row[1]**2     # R^1_212 = -1/sigma_x^2
        rerr = max(rerr, abs((r.components[0, 1, 0, 1] - ref) / ref))
    report.add("riemann_component_fd_relative_error", rerr, 1e-4)
    bianchi = max(r.first_bianchi_defect() for _, r in riemann[MODEL_3D])
    report.add("first_bianchi_defect", bianchi, 1e-6)
    report.add("fisher_quadrature_error", ferr, 1e-8)
    return report, {}


def run_geodesics(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    report = RunReport("geodesics", asdict(cfg))
    series = {}
    for label, spec in _specs(cfg):
        grid = np.linspace(0.0, cfg.tau_max, 501)
        traj = integrate_geodesic(spec, cfg.tau_max, cfg.tol, sample_taus=grid)
        if not traj.complete:
            raise NumericalAbort(f"geodesic run {label}: {traj.abort_reason}",
                                 partial=traj)
        ref, _ = closed_form(spec, grid)
        dev = float(np.abs(traj.states - ref).max())
        report.add(f"geodesic_{label}_closed_form_deviation", dev, 100.0 * cfg.tol)
        speeds = traj.speeds()
        drift = float(np.abs(speeds - speeds[0]).max() / speeds[0])
        report.add(f"geodesic_{label}_speed_drift", drift, 1e-6)
        resid = residual_check(spec, np.linspace(0.01, cfg.tau_max, 100))
        report.add(f"geodesic_{label}_closed_form_residual", resid, 1e-6)
        series[f"trajectory_{label}.csv"] = trajectory_to_csv(traj)
    return report, series


def run_ige(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    report = RunReport("ige", asdict(cfg))
    series = {}
    for label, spec in _specs(cfg):
        result = ige.ige_curve(spec, slope_window=cfg.slope_window)
        report.add(f"ige_{label}_slope_relative_error",
                   abs(result.fit.slope - spec.rate) / spec.rate, 0.02)
        # closed-form volume agreement on the volume window
        taus = np.linspace(cfg.volume_window[0] / spec.rate,
                           cfg.volume_window[1] / spec.rate, 16)
        log_avg = ige.log_averaged_volume(spec, taus)
        log_ref = ige.log_closed_form_volume(spec, taus)
        rel = float(np.abs(np.expm1(log_avg - log_ref)).max())
        report.add(f"ige_{label}_closed_form_volume_relative_error", rel, 0.05)
        series[f"ige_{label}.csv"] = ige.ige_to_csv(result)
    return report, series


def run_jacobi(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    report = RunReport("jacobi", asdict(cfg))
    series = {}
    for label, spec in _specs(cfg):
        traj = exponent_run(spec, cfg.exponent_window, cfg.tol)
        if not traj.complete:
            raise NumericalAbort(f"jacobi run {label}: {traj.abort_reason}",
                                 partial=traj)
        fit = exponent_fit(traj, cfg.exponent_window)
        report.add(f"jacobi_{label}_exponent_relative_error",
                   abs(fit.slope - spec.rate) / spec.rate, 0.02)
        report.add(f"jacobi_{label}_log_linearity", fit.r_squared, 0.999,
                   passed=fit.r_squared > 0.999)
        for j, (_, lam) in zip(spec.model.flat_coordinates, spec.flat_factors):
            # a flat scale component is exactly critically damped
            unit = np.eye(spec.model.dimension)[j]
            run = integrate_jlc(spec, initial_J=unit, initial_J_dot=np.zeros_like(unit),
                                tau_max=min(traj.taus[-1], 10.0 / lam), tol=cfg.tol)
            ref = critically_damped(lam, 1.0, lam, run.taus)
            report.add(f"jacobi_{label}_damped_component_error",
                       float(np.abs(run.J[:, j] - ref).max()), 1e-8)
        series[f"jacobi_{label}.csv"] = jacobi_to_csv(traj)
    return report, series


def _softening_point(cfg: ExperimentConfig, sigma0: float) -> tuple:
    """The table row, the IGE pair and the Jacobi pair at one sigma0."""
    spec = replace(cfg.spec_3d(), sigma0=sigma0)
    s_ige = ige.softening_ratio_ige(spec, slope_window=cfg.slope_window)
    s_jac = softening_gap(spec, window=cfg.exponent_window, tol=cfg.tol)
    row = {
        "sigma0": sigma0,
        "ige_slope_3d": s_ige.slope_3d,
        "ige_slope_2d": s_ige.slope_2d,
        "ratio": s_ige.ratio,
        "jacobi_exponent_3d": s_jac.exponent_3d,
        "jacobi_exponent_2d": s_jac.exponent_2d,
        "gap": s_jac.gap,
        "expected_gap": s_jac.expected_gap,
    }
    return row, s_ige, s_jac


def run_softening(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    """Headline table: entropy-slope ratio and Jacobi exponent gap per sigma0."""
    report = RunReport("softening", asdict(cfg))
    series = {}
    # each distinct sigma0 once: the sweep usually holds the base point too
    runs = {s0: _softening_point(cfg, s0)
            for s0 in sorted(set(cfg.sweep_sigma0) | {cfg.sigma0})}
    rows = sorted((runs[s0][0] for s0 in cfg.sweep_sigma0), key=lambda r: r["sigma0"])

    expected_ratio = 1.0 / math.sqrt(2.0)
    for row in rows:
        tag = f"sigma0={row['sigma0']:g}"
        report.add(f"softening_ratio_error[{tag}]",
                   abs(row["ratio"] - expected_ratio) / expected_ratio, 0.01)
        report.add(f"softening_gap_error[{tag}]",
                   abs(row["gap"] - row["expected_gap"]) / row["expected_gap"], 0.03)
        report.add(f"softening_gap_positive[{tag}]", row["gap"], 0.0,
                   passed=row["gap"] > 0.0)
    report.tables["softening"] = rows

    names = list(rows[0])
    series["softening.csv"] = series_to_csv("softening", names,
                                            [[row[k] for row in rows] for k in names])

    # series for the configured base point
    _, pair, jac = runs[cfg.sigma0]
    series["ige_3d.csv"] = ige.ige_to_csv(pair.result_3d)
    series["ige_2d.csv"] = ige.ige_to_csv(pair.result_2d)
    series["jacobi_3d.csv"] = jacobi_to_csv(jac.trajectory_3d)
    series["jacobi_2d.csv"] = jacobi_to_csv(jac.trajectory_2d)
    return report, series


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="infogeo",
        description="Gaussian statistical-manifold experiments: geometry "
                    "verification, geodesics, entropy growth, Jacobi fields.")
    parser.add_argument("--config", type=str, default=None,
                        help="INI-style configuration file")
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument("--format", choices=("csv", "json", "both"), default=None)
    parser.add_argument("--tol", type=float, default=None,
                        help="integrator tolerance")
    parser.add_argument("--tau-max", type=float, default=None,
                        help="geodesic integration horizon")
    parser.add_argument("command",
                        choices=("verify-geometry", "geodesics", "ige",
                                 "jacobi", "softening", "all"))
    return parser


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    updates = {}
    if args.out is not None:
        updates["out_dir"] = args.out
    if args.format is not None:
        updates["formats"] = ("csv", "json") if args.format == "both" else (args.format,)
    if args.tol is not None:
        updates["tol"] = args.tol
    if args.tau_max is not None:
        updates["tau_max"] = args.tau_max
    if updates:
        cfg = replace(cfg, **updates)
    return _validate(cfg)


_COMMANDS = {
    "verify-geometry": run_verify,
    "geodesics": run_geodesics,
    "ige": run_ige,
    "jacobi": run_jacobi,
    "softening": run_softening,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    names = list(_COMMANDS) if args.command == "all" else [args.command]
    all_passed = True
    try:
        cfg = _resolve_config(args)
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name in names:
            report, series = _COMMANDS[name](cfg)
            _emit(cfg, out_dir, name.replace("-", "_"), report, series)
            status = "pass" if report.passed else "FAIL"
            print(f"{name}: {status} ({len(report.checks)} checks)")
            all_passed &= report.passed
    except (ConfigError, OSError) as exc:   # OSError: out_dir cannot be made or written
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
