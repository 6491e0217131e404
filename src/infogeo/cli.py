"""Batch experiment runner.

Subcommands reproduce the pipeline end to end and emit plot-ready CSV series
plus JSON reports:

    verify-geometry   closed-form vs finite-difference vs quadrature geometry
    geodesics         numeric integration vs closed forms, speed conservation
    ige               entropy curves, tail slopes, Simpson and closed-form volume checks
    jacobi            one Jacobi run per model: growth exponent, damped component
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
import functools
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import ige, jacobi, numgeo, tensors
from .csvtext import series_to_csv
from .errors import DomainError, NumericalAbort
from .fisher import fisher_numeric_2d, fisher_numeric_3d
from .geodesics import (GeodesicSpec2D, GeodesicSpec3D, check_tol, closed_form,
                        integrate_geodesic, residual_check, trajectory_to_csv)
from .jacobi import (critically_damped, exponent_fit, exponent_run, field_relative_error,
                     jacobi_to_csv)
from .models import MODEL_2D, MODEL_3D, Model2DConfig

SCHEMA_VERSION = 1
_POINT_SEED = 20260811  # fixed PCG64 stream: "random" check points, same every run
# the latest rate * tau of an rk run (exponent_window end, tau_max at each rate):
# past s ~ 20 stability holds the step near 1.65 for the Jacobi run (m' damps at
# rate 2) and 3.3 for the geodesic (its mean ratio damps at rate 1)
_RATE_TAU_END = 1e4
# the narrowest slope window, relative to its start: on a narrower one the entropy
# values differ by tens of ulps, so any line fit is wrong (on the 2D curve at 200:
# 2.4e-5 off at 1e-12, 3.5e-4 at 1e-13, 5e-3 at 1e-14)
_SLOPE_WIDTH_MIN = 1e-12
_TRAJECTORY_SAMPLES = 501   # the geodesic runs' sample times, 0 to tau_max


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
        start = (self.mu0, self.sigma0, self.sigma0_prime, self.lambda_plus_prime)
        if self.tau_f is not None and self.epsilon is not None:
            return GeodesicSpec3D.from_final_spread(*start, self.tau_f, self.epsilon,
                                                    lambda_f=self.lambda_f)
        return GeodesicSpec3D(*start, 1.0 if self.lambda_f is None else self.lambda_f)

    @functools.cached_property
    def sweep_pairs(self) -> dict:
        """{sigma0: (3D spec, 2D spec)} at the base sigma0, then at each other
        sweep sigma0: every spec the runs take, each built once."""
        base = self.spec_3d()
        specs = {s0: base if s0 == self.sigma0 else replace(base, sigma0=s0)
                 for s0 in (self.sigma0, *self.sweep_sigma0)}
        return {s0: (spec, GeodesicSpec2D.from_3d(spec)) for s0, spec in specs.items()}

    @functools.cached_property
    def fit_grids(self) -> FitGrids:
        """The slope, exponent and volume times (at the base pair only) and the
        exponent samples on its window, built once, each a column per rate, 3D
        then 2D for each of :attr:`sweep_pairs`, bit for bit the grid of its
        run; a DomainError when too few samples fall on the exponent window."""
        rates = np.array([spec.rate for pair in self.sweep_pairs.values() for spec in pair])
        exponent = jacobi.exponent_times(rates, self.exponent_window)
        return FitGrids(rates, ige.slope_times(rates, self.slope_window), exponent,
                        jacobi.window_mask(exponent, rates, self.exponent_window),
                        ige.volume_times(rates[:2], self.volume_window))


FitGrids = namedtuple("FitGrids", "rates slope exponent on_window volume")

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


def _sweep_tag(sigma0: float) -> str:
    """The name of a softening sweep point in its checks."""
    return f"sigma0={sigma0:g}"


def _check_fit_times(cfg: ExperimentConfig):
    """The fitting runs' ConfigError, raised before any subcommand starts: unless
    the slope window is at least ``_SLOPE_WIDTH_MIN`` of its start wide, the
    exponent window ends by rate * tau = ``_RATE_TAU_END``, ``cfg.fit_grids``
    (the times the runs fit on) are positive and increase in tau and rate * tau
    (the exponent run's past 0), the first Simpson step is positive, the tail
    slope, about (n + 3) / tau, is in range and the exponent window holds enough samples."""
    w = cfg.slope_window
    if w[1] - w[0] < _SLOPE_WIDTH_MIN * w[0]:
        raise ConfigError(f"slope_window must be at least {_SLOPE_WIDTH_MIN:g} of its start "
                          f"wide, got {w}")
    if cfg.exponent_window[1] > _RATE_TAU_END:
        raise ConfigError(f"exponent_window must end by rate * tau = {_RATE_TAU_END:g}, where "
                          f"the rk Jacobi run takes about 6,000 steps, got {cfg.exponent_window}")
    try:
        grids = cfg.fit_grids
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    # a column whose step underflows to 0 repeats its times, here as in its run
    for name, r, taus in (("slope_window", grids.rates, grids.slope),
                          ("exponent_window", grids.rates, grids.exponent[1:]),
                          ("volume_window", grids.rates[:2], grids.volume)):
        for ts in (taus, r * taus):
            bad = ~((ts[0] > 0.0) & (ts[1:] > ts[:-1]).all(axis=0))
            if bad.any():
                raise ConfigError(f"{name} = {getattr(cfg, name)} at rate {r[bad][0]:g} puts "
                                  f"fit times at 0 or repeats them")
    first = grids.volume[0].min()   # the earliest time has the smallest step
    if not ige.simpson_nodes(first)[1] > 0.0:
        raise ConfigError(f"volume_window = {cfg.volume_window} puts the first Simpson "
                          f"step, {first:g} / {ige.SIMPSON_NODES - 1}, at 0")
    window = grids.slope[ige.LEAD_POINTS:]
    n = np.array([len(spec.flat_factors) for pair in cfg.sweep_pairs.values() for spec in pair])
    with np.errstate(over="ignore"):   # the secant of (n + 3) log tau over the window
        bad = ~((n + 3) * (np.log(window[-1]) - np.log(window[0])) / (window[-1] - window[0])
                < math.inf)
    if bad.any():
        raise ConfigError(f"slope_window = {cfg.slope_window} at rate {grids.rates[bad][0]:g} "
                          f"puts the tail slope beyond the largest float")


def _validate(cfg: ExperimentConfig) -> ExperimentConfig:
    if cfg.model not in ("3d", "2d", "pair"):
        raise ConfigError(f"model must be 3d, 2d or pair, got {cfg.model!r}")
    for name in ("volume_window", "slope_window", "exponent_window"):
        w = getattr(cfg, name)
        if len(w) != 2 or not 0 < w[0] < w[1] < math.inf:
            raise ConfigError(f"{name} must be an increasing pair of positive reals, got {w}")
    if any(f not in ("csv", "json") for f in cfg.formats):
        raise ConfigError(f"format entries must be csv or json, got {cfg.formats}")
    if not cfg.out_dir:
        raise ConfigError("output directory must not be empty")
    if not (math.isfinite(cfg.tau_max) and cfg.tau_max > 0.0):
        raise ConfigError(f"tau_max must be a positive real, got {cfg.tau_max!r}")
    if (cfg.tau_f is None) != (cfg.epsilon is None):
        raise ConfigError("tau_f and epsilon must be given together")
    tags = [_sweep_tag(s0) for s0 in cfg.sweep_sigma0]
    clash = [f"{s0!r} as {tag}" for s0, tag in zip(cfg.sweep_sigma0, tags) if tags.count(tag) > 1]
    if clash:
        raise ConfigError(f"sigma0_values must name distinct checks, got {', '.join(clash)}")
    try:
        check_tol(cfg.tol)
        if cfg.lambda_f is None:   # 1.0, or derived from (tau_f, epsilon)
            cfg = replace(cfg, lambda_f=1.0 if cfg.tau_f is None else cfg.spec_3d().lambda_f)
        # the latest fit time, in rate * tau, at the smaller rate of the pair, the 2D one
        horizon = max(cfg.volume_window[1], cfg.slope_window[1], cfg.exponent_window[1])
        for s0, (spec_s0, spec_2d) in cfg.sweep_pairs.items():
            rate = spec_2d.rate
            if not (rate > 0.0 and horizon / rate < math.inf):
                raise ConfigError(f"sigma0 = {s0!r} puts the fit horizon {horizon:g} / rate "
                                  f"beyond the largest float")
            if not cfg.lambda_f / spec_s0.rate < math.inf:   # the 3D flat slot's decay
                raise ConfigError(f"sigma0 = {s0!r} puts lambda_f / rate = {cfg.lambda_f:g} / "
                                  f"{spec_s0.rate:g} beyond the largest float")
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg


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
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "parameters": self.parameters,
            "passed": self.passed,
            "checks": [vars(c) for c in self.checks],
            "tables": self.tables,
        }
        return json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"


def _finite_or_null(value):
    """A copy of a report payload for strict JSON: each non-finite float (a
    check measuring nan) becomes None, and each tuple a list."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return value


def _parameters(cfg: ExperimentConfig) -> dict:
    """A report's parameters: the JSON of ``asdict(cfg)``, without its deep copy."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def _checks_csv(report: RunReport) -> str:
    lines = ["# infogeo checks csv schema=1", "name,tolerance,measured,passed"]
    lines += ["%s,%.17g,%.17g,%d" % (c.name, c.tolerance, c.measured, c.passed)
              for c in report.checks]
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
    return [(spec.model.label, spec) for spec in cfg.sweep_pairs[cfg.sigma0]
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
    report = RunReport("verify-geometry", _parameters(cfg))
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
        scalar_errors[model.label] = max(
            abs(tensors.scalar(fld.evaluate(row[None])[0], tensors.ricci(r.components)) - expected)
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


def _check_horizon(cfg: ExperimentConfig):
    """The geodesic runs' ConfigError, raised before any subcommand starts."""
    if np.any(np.diff(np.linspace(0.0, cfg.tau_max, _TRAJECTORY_SAMPLES)) <= 0.0):
        raise ConfigError(f"tau_max = {cfg.tau_max!r} is too small for "
                          f"{_TRAJECTORY_SAMPLES} distinct sample times")
    for _, spec in _specs(cfg):
        if not cfg.tau_max * spec.rate <= _RATE_TAU_END:
            raise ConfigError(f"tau_max must end by rate * tau = {_RATE_TAU_END:g} (3,000 rk "
                              f"steps), got {cfg.tau_max:g} at rate {spec.rate:g}")


def run_geodesics(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    report = RunReport("geodesics", _parameters(cfg))
    series = {}
    for label, spec in _specs(cfg):
        grid = np.linspace(0.0, cfg.tau_max, _TRAJECTORY_SAMPLES)
        traj = integrate_geodesic(spec, cfg.tau_max, cfg.tol, sample_taus=grid)
        if not traj.complete:
            raise NumericalAbort(f"geodesic run {label}: {traj.abort_reason}",
                                 partial=traj)
        ref, _ = closed_form(spec, grid)
        dev = float(np.abs(traj.states - ref).max())
        report.add(f"geodesic_{label}_closed_form_deviation", dev, 100.0 * cfg.tol)
        speeds = traj.speeds()
        with np.errstate(divide="ignore", invalid="ignore"):   # a start speed of 0 fails by name
            drift = float(np.abs(speeds - speeds[0]).max() / speeds[0])
        report.add(f"geodesic_{label}_speed_drift", drift, 1e-6)
        resid = residual_check(spec, np.linspace(0.01, cfg.tau_max, 100))
        report.add(f"geodesic_{label}_closed_form_residual", resid, 1e-6)
        series[f"trajectory_{label}.csv"] = trajectory_to_csv(traj)
    return report, series


def run_ige(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    report = RunReport("ige", _parameters(cfg))
    series = {}
    for label, spec in _specs(cfg):
        result = ige.ige_curve(spec, slope_window=cfg.slope_window)
        report.add(f"ige_{label}_slope_relative_error",
                   abs(result.fit.slope - spec.rate) / spec.rate, 0.02)
        # on the volume window: the exact time average against Simpson
        # quadrature, then against the paper's closed-form volume
        taus = ige.volume_times(spec.rate, cfg.volume_window)
        log_avg = ige.log_averaged_volume(spec, taus)
        log_simpson = ige.log_time_average(lambda ts: ige.log_box_volume(spec, ts), taus)
        report.add(f"ige_{label}_time_average_quadrature_error",
                   float(np.abs(np.expm1(log_avg - log_simpson)).max()), 1e-7)
        log_ref = ige.log_closed_form_volume(spec, taus)
        rel = float(np.abs(np.expm1(log_avg - log_ref)).max())
        report.add(f"ige_{label}_closed_form_volume_relative_error", rel, 0.05)
        series[f"ige_{label}.csv"] = ige.ige_to_csv(result)
    return report, series


def run_jacobi(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    report = RunReport("jacobi", _parameters(cfg))
    series = {}
    for label, spec in _specs(cfg):
        traj = exponent_run(spec, cfg.exponent_window, cfg.tol)
        fit = exponent_fit(traj, cfg.exponent_window)
        report.add(f"jacobi_{label}_exponent_relative_error",
                   abs(fit.slope - spec.rate) / spec.rate, 0.02)
        report.add(f"jacobi_{label}_log_linearity", fit.r_squared, 0.999,
                   passed=fit.r_squared > 0.999)
        for j, (_, lam) in zip(spec.model.flat_coordinates, spec.flat_factors):
            # a flat scale component is exactly critically damped, whatever
            # the others do: from J'(0) = 0, J(tau) / J(0) = (1 + lam tau) e^(-lam tau)
            ref = critically_damped(lam, 1.0, lam, traj.taus)
            report.add(f"jacobi_{label}_damped_component_error",
                       float(np.abs(traj.J[:, j] / traj.J[0, j] - ref).max()), 1e-8)
        # the rk field against its closed form, in the metric at every sample
        report.add(f"jacobi_{label}_exact_field_relative_error",
                   field_relative_error(traj, exponent_run(spec, cfg.exponent_window)), 1e-7)
        series[f"jacobi_{label}.csv"] = jacobi_to_csv(traj)
    return report, series


def run_softening(cfg: ExperimentConfig) -> tuple[RunReport, dict]:
    """Headline table: entropy-slope ratio and Jacobi exponent gap per sigma0.

    The sweep's pairs, in increasing sigma0, and their ``cfg.fit_grids`` columns
    go to ``ige.softening_ratio_ige`` and ``jacobi.softening_gap``, a row per
    sweep point; the base-point series and their rk cross-checks belong to ige
    and jacobi."""
    report = RunReport("softening", _parameters(cfg))
    sigma0s, grids, keys = sorted(cfg.sweep_sigma0), cfg.fit_grids, list(cfg.sweep_pairs)
    pairs = [cfg.sweep_pairs[s0] for s0 in sigma0s]
    cols = [2 * keys.index(s0) + m for s0 in sigma0s for m in (0, 1)]   # 3D, 2D per pair
    slopes = ige.softening_ratio_ige(pairs, grids.slope[:, cols])
    exponents = jacobi.softening_gap(pairs, grids.exponent[:, cols], grids.on_window[:, cols])
    columns = {
        "sigma0": sigma0s,
        "ige_slope_3d": slopes.fit_3d.slope,
        "ige_slope_2d": slopes.fit_2d.slope,
        "ratio": slopes.ratio,
        "jacobi_exponent_3d": exponents.fit_3d.slope,
        "jacobi_exponent_2d": exponents.fit_2d.slope,
        "gap": exponents.gap,
        "expected_gap": exponents.expected_gap,
    }
    rows = [dict(zip(columns, map(float, values))) for values in zip(*columns.values())]

    expected_ratio = 1.0 / math.sqrt(2.0)
    for row in rows:
        tag = _sweep_tag(row["sigma0"])
        report.add(f"softening_ratio_error[{tag}]",
                   abs(row["ratio"] - expected_ratio) / expected_ratio, 0.01)
        report.add(f"softening_gap_error[{tag}]",
                   abs(row["gap"] - row["expected_gap"]) / row["expected_gap"], 0.03)
        report.add(f"softening_gap_positive[{tag}]", row["gap"], 0.0,
                   passed=row["gap"] > 0.0)
    report.tables["softening"] = rows
    return report, {"softening.csv": series_to_csv("softening", list(columns),
                                                   list(columns.values()))}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache   # one parser per process: parse_args leaves it as it was
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
        if "geodesics" in names:
            _check_horizon(cfg)
        if not {"ige", "jacobi", "softening"}.isdisjoint(names):
            _check_fit_times(cfg)
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
