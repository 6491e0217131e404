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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import ige, jacobi, numgeo
from .errors import DomainError, NumericalAbort
from .fisher import QuadratureSpec, fisher_numeric_2d, fisher_numeric_3d
from .geodesics import (GeodesicSpec2D, GeodesicSpec3D, check_tol, closed_form,
                        integrate_geodesic, residual_check,
                        trajectory_to_csv)
from .jacobi import (critically_damped, exponent_fit, integrate_jlc,
                     jacobi_to_csv, softening_gap)
from .models import (Model2DConfig, ParameterPoint2D, ParameterPoint3D,
                     SCALAR_CURVATURE_2D, SCALAR_CURVATURE_3D, metric_2d,
                     metric_3d)

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
    capital_sigma_sq: float = 1.0
    tol: float = 1e-10
    tau_max: float = 10.0
    volume_window: tuple = ige.VOLUME_WINDOW
    slope_window: tuple = ige.SLOPE_WINDOW
    exponent_window: tuple = jacobi.EXPONENT_WINDOW
    sweep_sigma0: tuple = (0.5, 1.0, 2.0)
    out_dir: str = "out"
    formats: tuple = ("csv", "json")
    jobs: int = 1

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

    def parameters(self) -> dict:
        out = asdict(self)
        for key in ("volume_window", "slope_window", "exponent_window",
                    "sweep_sigma0", "formats"):
            out[key] = list(out[key])
        return out


def load_config(path) -> ExperimentConfig:
    """Parse the INI-style configuration file (flat key-value sections)."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    cfg = ExperimentConfig()
    try:
        def fget(section, key, current, cast=float):
            if parser.has_option(section, key):
                return cast(parser.get(section, key))
            return current

        window = lambda s: tuple(float(v) for v in s.split(","))
        floats = lambda s: tuple(float(v) for v in s.split(","))
        strs = lambda s: tuple(v.strip() for v in s.split(","))
        cfg = replace(
            cfg,
            model=fget("model", "model", cfg.model, str),
            mu0=fget("model", "mu0", cfg.mu0),
            sigma0=fget("model", "sigma0", cfg.sigma0),
            sigma0_prime=fget("model", "sigma0_prime", cfg.sigma0_prime),
            lambda_plus_prime=fget("model", "lambda_plus_prime", cfg.lambda_plus_prime),
            lambda_f=fget("model", "lambda_f", cfg.lambda_f),
            tau_f=fget("model", "tau_f", cfg.tau_f),
            epsilon=fget("model", "epsilon", cfg.epsilon),
            capital_sigma_sq=fget("model", "capital_sigma_sq", cfg.capital_sigma_sq),
            tol=fget("solver", "tol", cfg.tol),
            tau_max=fget("solver", "tau_max", cfg.tau_max),
            volume_window=fget("fit", "volume_window", cfg.volume_window, window),
            slope_window=fget("fit", "slope_window", cfg.slope_window, window),
            exponent_window=fget("fit", "exponent_window", cfg.exponent_window, window),
            sweep_sigma0=fget("sweep", "sigma0_values", cfg.sweep_sigma0, floats),
            out_dir=fget("output", "directory", cfg.out_dir, str),
            formats=fget("output", "format", cfg.formats, strs),
        )
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return cfg


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.model not in ("3d", "2d", "pair"):
        raise ConfigError(f"model must be 3d, 2d or pair, got {cfg.model!r}")
    for name in ("volume_window", "slope_window", "exponent_window"):
        w = getattr(cfg, name)
        if len(w) != 2 or not 0 < w[0] < w[1]:
            raise ConfigError(f"{name} must be an increasing positive pair, got {w}")
    if any(f not in ("csv", "json") for f in cfg.formats):
        raise ConfigError(f"format entries must be csv or json, got {cfg.formats}")
    if cfg.jobs < 1:
        raise ConfigError("jobs must be >= 1")
    if not (math.isfinite(cfg.tau_max) and cfg.tau_max > 0.0):
        raise ConfigError(f"tau_max must be a positive real, got {cfg.tau_max!r}")
    try:
        check_tol(cfg.tol)
        spec = cfg.spec_3d()
        Model2DConfig(cfg.capital_sigma_sq)
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

    @staticmethod
    def from_json(text: str) -> "RunReport":
        payload = json.loads(text)
        report = RunReport(command=payload["command"],
                           parameters=payload["parameters"],
                           tables=payload["tables"],
                           schema_version=payload["schema_version"])
        for c in payload["checks"]:
            report.checks.append(Check(c["name"], c["tolerance"],
                                       c["measured"], c["passed"]))
        return report


def _checks_csv(report: RunReport) -> str:
    lines = ["# infogeo checks csv schema=1", "name,tolerance,measured,passed"]
    for c in report.checks:
        lines.append(f"{c.name},{c.tolerance:.17g},{c.measured:.17g},{int(c.passed)}")
    return "\n".join(lines) + "\n"


def _write(out_dir: Path, name: str, text: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _emit(cfg: ExperimentConfig, out_dir: Path, stem: str, report: RunReport,
          csv_series: dict = ()):
    if "json" in cfg.formats:
        _write(out_dir, f"{stem}_report.json", report.to_json())
    if "csv" in cfg.formats:
        _write(out_dir, f"{stem}_checks.csv", _checks_csv(report))
        for name, text in dict(csv_series).items():
            _write(out_dir, name, text)


def _specs(cfg: ExperimentConfig) -> list:
    """(label, spec) for each model the configuration selects."""
    return [(spec.model.label, spec) for spec in (cfg.spec_3d(), cfg.spec_2d())
            if cfg.model in (spec.model.label, "pair")]


def _sample_points(n: int):
    rng = np.random.default_rng(_POINT_SEED)
    pts3 = [ParameterPoint3D(rng.uniform(-2, 2), rng.uniform(0.5, 2.0),
                             rng.uniform(0.5, 2.0)) for _ in range(n)]
    pts2 = [ParameterPoint2D(rng.uniform(-2, 2), rng.uniform(0.5, 2.0))
            for _ in range(n)]
    return pts3, pts2


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def run_verify(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    """Closed-form geometry vs the finite-difference engine and quadrature."""
    report = RunReport("verify-geometry", cfg.parameters())
    pts3, pts2 = _sample_points(12)
    f3, f2 = numgeo.field_3d(), numgeo.field_2d()

    report.add("scalar_curvature_3d_analytic_minus_expected",
               SCALAR_CURVATURE_3D - (-1.0), 0.0)
    report.add("scalar_curvature_2d_analytic_minus_expected",
               SCALAR_CURVATURE_2D - (-0.5), 0.0)

    worst3 = max(abs(numgeo.scalar_numeric(f3, p.as_array()) + 1.0) for p in pts3)
    worst2 = max(abs(numgeo.scalar_numeric(f2, p.as_array()) + 0.5) for p in pts2)
    report.add("scalar_curvature_3d_fd_error", worst3, 1e-4)
    report.add("scalar_curvature_2d_fd_error", worst2, 1e-4)

    from .models import christoffel_2d, christoffel_3d
    gerr = 0.0
    for p in pts3:
        num = numgeo.christoffel_numeric(f3, p.as_array()).components
        gerr = max(gerr, float(np.abs(num - christoffel_3d(p).components).max()))
    for p in pts2:
        num = numgeo.christoffel_numeric(f2, p.as_array()).components
        gerr = max(gerr, float(np.abs(num - christoffel_2d(p).components).max()))
    report.add("christoffel_fd_error", gerr, 1e-6)

    rerr = 0.0
    for p in pts3:
        num = numgeo.riemann_numeric(f3, p.as_array()).components[0, 1, 0, 1]
        ref = -1.0 / p.sigma_x**2
        rerr = max(rerr, abs((num - ref) / ref))
    report.add("riemann_component_fd_relative_error", rerr, 1e-4)

    bianchi = max(numgeo.riemann_numeric(f3, p.as_array()).first_bianchi_defect()
                  for p in pts3)
    report.add("first_bianchi_defect", bianchi, 1e-6)

    q = QuadratureSpec()
    ferr = 0.0
    for p in pts3[:6]:
        ferr = max(ferr, float(np.abs(fisher_numeric_3d(p, q)
                                      - metric_3d(p).components).max()))
    for p in pts2[:6]:
        for s2 in (0.5, 1.0, 3.0):
            ferr = max(ferr, float(np.abs(fisher_numeric_2d(p, Model2DConfig(s2), q)
                                          - metric_2d(p).components).max()))
    report.add("fisher_quadrature_error", ferr, 1e-8)
    return report, {}


def run_geodesics(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    report = RunReport("geodesics", cfg.parameters())
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
    report = RunReport("ige", cfg.parameters())
    series = {}
    for label, spec in _specs(cfg):
        result = ige.ige_curve(spec, slope_window=cfg.slope_window)
        report.add(f"ige_{label}_slope_relative_error",
                   abs(result.fit.slope - spec.rate) / spec.rate, 0.02)
        # closed-form volume agreement on the volume window
        taus = np.linspace(cfg.volume_window[0] / spec.rate,
                           cfg.volume_window[1] / spec.rate, 16)
        log_avg = np.array([ige.log_averaged_volume(spec, t) for t in taus])
        log_ref = ige.log_closed_form_volume(spec, taus)
        rel = float(np.abs(np.expm1(log_avg - log_ref)).max())
        report.add(f"ige_{label}_closed_form_volume_relative_error", rel, 0.05)
        series[f"ige_{label}.csv"] = ige.ige_to_csv(result)
    return report, series


def run_jacobi(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    report = RunReport("jacobi", cfg.parameters())
    series = {}
    for label, spec in _specs(cfg):
        tau_max = cfg.exponent_window[1] / spec.rate
        samples = np.linspace(0.0, tau_max, 401)
        traj = integrate_jlc(spec, tau_max=tau_max, tol=cfg.tol,
                             sample_taus=samples)
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
                                tau_max=min(tau_max, 10.0 / lam), tol=cfg.tol)
            ref = critically_damped(lam, 1.0, lam, run.taus)
            report.add(f"jacobi_{label}_damped_component_error",
                       float(np.abs(run.J[:, j] - ref).max()), 1e-8)
        series[f"jacobi_{label}.csv"] = jacobi_to_csv(traj)
    return report, series


def _softening_point(args) -> tuple:
    """The table row, the IGE pair and the Jacobi pair at one sigma0."""
    cfg_params, sigma0 = args
    cfg = ExperimentConfig(**cfg_params)
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
    report = RunReport("softening", cfg.parameters())
    series = {}
    # each distinct sigma0 once: the sweep usually holds the base point too
    values = sorted(set(cfg.sweep_sigma0) | {cfg.sigma0})
    tasks = [(cfg.parameters(), s0) for s0 in values]
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_softening_point, tasks))
    else:
        results = [_softening_point(t) for t in tasks]
    runs = dict(zip(values, results))
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

    header = ("sigma0,ige_slope_3d,ige_slope_2d,ratio,"
              "jacobi_exponent_3d,jacobi_exponent_2d,gap,expected_gap")
    lines = ["# infogeo softening csv schema=1", header]
    for row in rows:
        lines.append(",".join(f"{row[k]:.17g}" for k in header.split(",")))
    series["softening.csv"] = "\n".join(lines) + "\n"

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
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker pool size for sweeps")
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
    if args.jobs is not None:
        updates["jobs"] = args.jobs
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
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(cfg.out_dir)
    names = list(_COMMANDS) if args.command == "all" else [args.command]
    all_passed = True
    try:
        for name in names:
            report, series = _COMMANDS[name](cfg)
            _emit(cfg, out_dir, name.replace("-", "_"), report, series)
            status = "pass" if report.passed else "FAIL"
            print(f"{name}: {status} ({len(report.checks)} checks)")
            all_passed &= report.passed
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    return 0 if all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
