"""Workload definitions: seeded inputs, one task runner each, output checks.

A *task* is one unit of a workload.  Inputs are drawn from the workload
seed in Latin-hypercube blocks: every block covers each parameter range
once per stratum, so runs on different seeds see the same mix of easy and
hard inputs and their medians stay comparable.  Runs consume whole blocks.

Two routes into the package:

* ``softening-sweep`` and ``geodesic-horizon`` write an INI file per task and
  call ``infogeo.cli.main`` in-process, then read back the reports and CSV
  series it wrote.
* ``geometry-oracles`` and ``volume-oracle`` call the public functions of
  ``numgeo``, ``fisher``, ``models`` and ``ige`` directly.

Every call goes through a module attribute (``numgeo.christoffel_numeric``,
not an imported name), so the tracer's wrappers see it.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import inspect
import io
import json
import math
import shutil
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import infogeo
from infogeo import (cli, fisher, fitting, geodesics, ige, jacobi, models,
                     numgeo, rk, tensors)

LOG_QUARTER, LOG_FOUR = math.log(0.25), math.log(4.0)
LOG_HALF, LOG_TWO = math.log(0.5), math.log(2.0)


# Time source of every timed region.  ``run.py`` swaps in a
# ``hostclock.HostClock`` for the end-to-end metrics.
clock = time.perf_counter


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _lhs_block(rng, size: int, dims: int) -> np.ndarray:
    """``size`` points in [0, 1)^dims, one per stratum along every axis."""
    cols = [(rng.permutation(size) + rng.random(size)) / size for _ in range(dims)]
    return np.column_stack(cols)


def _log_uniform(u, lo, hi):
    return math.exp(lo + (hi - lo) * u)


def _spec_params(u) -> dict:
    """Model point from five unit draws, ranges of the softening sweep."""
    return {
        "mu0": -1.0 + 2.0 * u[0],
        "sigma0": _log_uniform(u[1], LOG_QUARTER, LOG_FOUR),
        "sigma0_prime": 0.5 + 1.5 * u[2],
        "lambda_plus_prime": _log_uniform(u[3], LOG_HALF, LOG_TWO),
        "lambda_f": _log_uniform(u[4], LOG_HALF, LOG_TWO),
    }


def _geodesic_input(u) -> dict:
    p = _spec_params(u)
    p["rate_tau"] = 10.0 + 40.0 * u[5]
    p["tau_max"] = p["rate_tau"] / (p["sigma0"] * p["lambda_plus_prime"])
    return p


def _geometry_input(u) -> dict:
    # ranges of cli.run_verify's sample points
    return {
        "point_3d": (-2.0 + 4.0 * u[0], 0.5 + 1.5 * u[1], 0.5 + 1.5 * u[2]),
        "point_2d": (-2.0 + 4.0 * u[3], 0.5 + 1.5 * u[4]),
    }


def _volume_input(u) -> dict:
    # The quadrature's cost is set by its panel count, one panel per octave
    # that sigma_y shrinks over the box: kappa = lambda_f * tau' =
    # log(sigma0' / sigma_y(tau')).  kappa is drawn directly (log-uniform,
    # sigma_y shrinks 1.3x to 4x) and lambda_f derived from it, so every
    # block holds the same spread of panel counts.  The range puts the
    # median and the tail task of a block well inside the two-panel cost.
    p = {
        # The closed-form reference volumes keep only the moving-endpoint
        # terms, which carry (mu0 + 2 sigma0) where the swept box carries
        # 2 sigma0; the package documents their agreement for mu0 = 0 only.
        "mu0": 0.0,
        "sigma0": _log_uniform(u[0], LOG_QUARTER, LOG_FOUR),
        "sigma0_prime": 0.5 + 1.5 * u[1],
        "lambda_plus_prime": _log_uniform(u[2], LOG_HALF, LOG_TWO),
        "rate_tau_prime": 0.5 + 1.5 * u[3],
    }
    kappa = _log_uniform(u[4], math.log(0.25), math.log(1.4))
    rate = p["sigma0"] * p["lambda_plus_prime"]
    p["lambda_f"] = kappa * rate / p["rate_tau_prime"]
    return p


@dataclass(frozen=True)
class Workload:
    name: str
    dims: int
    block: int              # tasks per Latin-hypercube block
    nominal_block_s: float  # rough cost of a block in reference seconds, sizes runs
    make_input: object      # unit draws -> task input
    run_task: object        # (index, input, work dir) -> Outcome
    # failure causes the seed is known to produce -> the largest
    # |measured| / tolerance a failed check may reach and still be known
    known_failures: dict = field(default_factory=dict)

    def known(self, o: "Outcome", cause: str) -> bool:
        if cause not in self.known_failures:
            return False
        _, sep, check = cause.partition("check: ")
        return not sep or o.check_margin(check) <= self.known_failures[cause]

    def defect_checks(self) -> set:
        """Checks known to fail without a cap.  On passing tasks their values
        say how near the input lies to the failure, not how accurate the
        numerics are; ``pass_frac`` tracks them."""
        return {c.partition("check: ")[2] for c, cap in self.known_failures.items()
                if "check: " in c and cap == math.inf}


def generate_inputs(workload: Workload, seed: int, held_out: bool, blocks: int) -> list:
    """The inputs of ``blocks`` blocks; the same arguments give the same list,
    and a longer list starts with a shorter one."""
    stream = np.random.SeedSequence([seed, WORKLOAD_IDS[workload.name], int(held_out)])
    rng = np.random.default_rng(stream)
    pool = []
    for _ in range(blocks):
        for u in _lhs_block(rng, workload.block, workload.dims):
            pool.append(workload.make_input([float(x) for x in u]))
    return pool


# ---------------------------------------------------------------------------
# task outcome
# ---------------------------------------------------------------------------

# checks whose rule is a lower threshold, not |measured| <= tolerance
_THRESHOLD_CHECKS = ("_log_linearity", "softening_gap_positive")


def _abs_rule(name: str) -> bool:
    return not any(tag in name for tag in _THRESHOLD_CHECKS)


@dataclass
class Outcome:
    """What one task did; ``seconds`` is the timed region only."""

    index: int
    seconds: float
    exit_code: object = None  # the CLI's exit code; None on the module route
    checks: list = field(default_factory=list)   # (name, tolerance, measured, passed)
    abort: str = None
    error: str = None         # traceback or CLI error message
    warnings: list = field(default_factory=list)  # see _describe_warnings
    digest: str = ""
    bytes_written: int = 0
    problems: list = field(default_factory=list)  # output-verification failures

    @property
    def failed(self) -> bool:
        return (self.exit_code not in (0, None) or self.abort is not None
                or self.error is not None
                or not all(c[3] for c in self.checks))

    def causes(self) -> list:
        """One line per failure cause: exit code, then abort reason or check."""
        code = "" if self.exit_code is None else f"exit {self.exit_code}: "
        if self.error is not None:
            return [f"{code}error: {self.error}"]
        if self.abort is not None:
            return [f"{code}abort: {self.abort}"]
        bad = sorted({_generic(c[0]) for c in self.checks if not c[3]})
        if bad:
            return [f"{code}check: {n}" for n in bad]
        return [code.rstrip(": ")] if self.failed else []

    def check_margin(self, name: str) -> float:
        """Largest |measured| / tolerance of the failed checks called ``name``."""
        return max(abs(m) / t for n, t, m, ok in self.checks
                   if not ok and _generic(n) == name)

    def worst_margin(self, ignore=frozenset()) -> float:
        """Largest |measured| / tolerance over the checks ruled
        |measured| <= tolerance and not in ``ignore`` (0 without such checks)."""
        return max((abs(m) / t for n, t, m, _ in self.checks
                    if _abs_rule(n) and t > 0.0 and _generic(n) not in ignore),
                   default=0.0)


def _generic(check_name: str) -> str:
    # "softening_ratio_error[sigma0=0.5]" -> "softening_ratio_error"
    return check_name.split("[", 1)[0]


@functools.cache
def _function_lines() -> dict:
    """Source file name -> [(first line, last line, "module.function")]."""
    pkg = Path(infogeo.__file__).resolve().parent
    ranges = {}
    for mod in (cli, fisher, fitting, geodesics, ige, jacobi, models, numgeo,
                rk, tensors):
        for name, fn in vars(mod).items():
            code = getattr(inspect.unwrap(fn), "__code__", None) if callable(fn) else None
            if code is None or Path(code.co_filename).resolve().parent != pkg:
                continue
            lines = [ln for _, _, ln in code.co_lines() if ln is not None]
            ranges.setdefault(Path(code.co_filename).name, []).append(
                (min(lines), max(lines), f"{mod.__name__.split('.')[-1]}.{name}"))
    return ranges


def _describe_warnings(caught) -> list:
    """"RuntimeWarning in geodesics._acceleration (geodesics.py:214): ..." per warning."""
    out = []
    for w in caught:
        fname = Path(w.filename).name
        where = next((qual for lo, hi, qual in _function_lines().get(fname, ())
                      if lo <= w.lineno <= hi), fname)
        out.append(f"{w.category.__name__} in {where} ({fname}:{w.lineno}): {w.message}")
    return out


@contextlib.contextmanager
def _capture():
    """Record every Python warning and silence the package's own prints."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        yield caught, out, err


# ---------------------------------------------------------------------------
# CLI route
# ---------------------------------------------------------------------------

def _write_ini(path: Path, p: dict, out_dir: str, sweep=None):
    lines = ["[model]", "model = pair"]
    for key in ("mu0", "sigma0", "sigma0_prime", "lambda_plus_prime", "lambda_f"):
        lines.append(f"{key} = {p[key]!r}")
    if sweep is not None:
        lines += ["", "[sweep]", "sigma0_values = " + ", ".join(repr(s) for s in sweep)]
    lines += ["", "[output]", f"directory = {out_dir}", "format = csv, json", ""]
    path.write_text("\n".join(lines))


def _digest_dir(out_dir: Path):
    h = hashlib.sha256()
    total = 0
    for f in sorted(out_dir.iterdir()):
        data = f.read_bytes()
        total += len(data)
        h.update(f.name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest(), total


def _run_cli(index: int, argv: list, work: Path, stem: str) -> Outcome:
    out_dir = work / "out"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    error = None
    with _capture() as (caught, out, err):
        t0 = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback: the CLI process would exit 1
            code, error = 1, f"{type(exc).__name__}: {exc}"
        seconds = clock() - t0
    o = Outcome(index, seconds, code, error=error, warnings=_describe_warnings(caught))
    lines = err.getvalue().strip().splitlines()
    if code == 3:
        # "numerical abort: geodesic run 3d: step size underflow"
        o.abort = lines[-1].rsplit(": ", 1)[-1] if lines else "(no message)"
    elif code not in (0, 1) and error is None:
        o.error = lines[-1] if lines else "(no message)"
    if out_dir.exists():
        o.digest, o.bytes_written = _digest_dir(out_dir)
    if code in (0, 1) and error is None:
        _verify_report(o, out_dir / f"{stem}_report.json", out_dir / f"{stem}_checks.csv")
    return o


def _verify_report(o: Outcome, report_path: Path, checks_path: Path):
    """Read the report back and check it against its own rules and exit code."""
    if not report_path.exists() or not checks_path.exists():
        o.problems.append(f"missing artefact {report_path.name} or {checks_path.name}")
        return
    report = json.loads(report_path.read_text())
    for c in report["checks"]:
        name, tol, measured, passed = c["name"], c["tolerance"], c["measured"], c["passed"]
        o.checks.append((name, tol, measured, passed))
        if _abs_rule(name):
            expect = abs(measured) <= tol
        else:
            expect = measured > tol
        if expect != passed:
            o.problems.append(f"check {name} reports passed={passed}, "
                              f"measured {measured!r} against tolerance {tol!r}")
    if report["passed"] != all(c[3] for c in o.checks):
        o.problems.append("report 'passed' disagrees with its checks")
    if (o.exit_code == 0) != report["passed"]:
        o.problems.append(f"exit code {o.exit_code} disagrees with report passed={report['passed']}")
    csv_rows = [ln for ln in checks_path.read_text().splitlines()[2:] if ln]
    if len(csv_rows) != len(o.checks):
        o.problems.append("checks CSV and JSON report list different checks")


def run_softening(index: int, p: dict, work: Path) -> Outcome:
    ini = work / "task.ini"
    sweep = (0.5 * p["sigma0"], p["sigma0"], 2.0 * p["sigma0"])
    _write_ini(ini, p, str(work / "out"), sweep)
    o = _run_cli(index, ["--config", str(ini), "softening"], work, "softening")
    if o.exit_code == 0 and not o.problems:
        _verify_softening_table(o, work / "out" / "softening.csv", p, sweep)
    return o


def _verify_softening_table(o: Outcome, path: Path, p: dict, sweep):
    """The written table holds the configured sweep and the paper's gap.

    Ratio and gap against their tolerances are the report's own
    ``softening_*_error`` checks, which ``_verify_report`` already re-checks."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, map(float, ln.split(",")))) for ln in lines[2:] if ln]
    if sorted(r["sigma0"] for r in rows) != sorted(sweep):
        o.problems.append("softening.csv does not hold the configured sweep")
    for r in rows:
        expected = r["sigma0"] * p["lambda_plus_prime"] * (1.0 - 1.0 / math.sqrt(2.0))
        if not abs(r["expected_gap"] - expected) <= 1e-12 * expected:
            o.problems.append(f"expected gap {r['expected_gap']!r} is not "
                              f"sigma0 lambda_plus' (1 - 1/sqrt(2)) = {expected!r}")


def run_geodesics(index: int, p: dict, work: Path) -> Outcome:
    ini = work / "task.ini"
    _write_ini(ini, p, str(work / "out"))
    return _run_cli(index, ["--config", str(ini), "--tau-max", repr(p["tau_max"]),
                            "geodesics"], work, "geodesics")


# ---------------------------------------------------------------------------
# module route
# ---------------------------------------------------------------------------

def _finish(index: int, seconds: float, checks: list, values: list, caught) -> Outcome:
    h = hashlib.sha256()
    for v in values:
        h.update(np.ascontiguousarray(v, dtype=float).tobytes())
    return Outcome(index, seconds, checks=checks, digest=h.hexdigest(),
                   warnings=_describe_warnings(caught))


def _check(name, measured, tolerance):
    return (name, tolerance, float(measured), bool(abs(measured) <= tolerance))


def run_geometry(index: int, p: dict, work: Path) -> Outcome:
    """The run_verify checks at one seeded 3D point and one 2D point."""
    with _capture() as (caught, _, _):
        t0 = clock()
        p3 = models.ParameterPoint3D(*p["point_3d"])
        p2 = models.ParameterPoint2D(*p["point_2d"])
        f3, f2 = numgeo.field_3d(), numgeo.field_2d()
        gam3 = numgeo.christoffel_numeric(f3, p3.as_array()).components
        gam2 = numgeo.christoffel_numeric(f2, p2.as_array()).components
        riem = numgeo.riemann_numeric(f3, p3.as_array())
        scal3 = numgeo.scalar_numeric(f3, p3.as_array())
        scal2 = numgeo.scalar_numeric(f2, p2.as_array())
        q = fisher.QuadratureSpec()
        fish3 = fisher.fisher_numeric_3d(p3, q)
        fish2 = [fisher.fisher_numeric_2d(p2, models.Model2DConfig(s2), q)
                 for s2 in (0.5, 1.0, 3.0)]
        seconds = clock() - t0
        gerr = max(float(np.abs(gam3 - models.christoffel_3d(p3).components).max()),
                   float(np.abs(gam2 - models.christoffel_2d(p2).components).max()))
        ref = models.riemann_3d(p3).components[0, 1, 0, 1]
        rerr = abs((riem.components[0, 1, 0, 1] - ref) / ref)
        ferr = float(np.abs(fish3 - models.metric_3d(p3).components).max())
        for f in fish2:
            ferr = max(ferr, float(np.abs(f - models.metric_2d(p2).components).max()))
        checks = [
            _check("christoffel_fd_error", gerr, 1e-6),
            _check("riemann_component_fd_relative_error", rerr, 1e-4),
            _check("first_bianchi_defect", riem.first_bianchi_defect(), 1e-6),
            _check("scalar_curvature_3d_fd_error", scal3 - models.SCALAR_CURVATURE_3D, 1e-4),
            _check("scalar_curvature_2d_fd_error", scal2 - models.SCALAR_CURVATURE_2D, 1e-4),
            _check("fisher_quadrature_error", ferr, 1e-8),
        ]
    return _finish(index, seconds, checks,
                   [gam3, gam2, riem.components, [scal3, scal2], fish3, *fish2], caught)


def run_volume(index: int, p: dict, work: Path) -> Outcome:
    """Quadrature vs factorized box volume, time average vs closed form."""
    spec3 = geodesics.GeodesicSpec3D(p["mu0"], p["sigma0"], p["sigma0_prime"],
                                     p["lambda_plus_prime"], p["lambda_f"])
    spec2 = geodesics.GeodesicSpec2D.from_3d(spec3)
    checks, values = [], []
    with _capture() as (caught, _, _):
        seconds = 0.0
        for label, spec in (("3d", spec3), ("2d", spec2)):
            t0 = clock()
            tau_p = p["rate_tau_prime"] / spec.rate
            quad = ige.box_volume_quadrature(spec, tau_p)
            closed = float(ige.box_volume(spec, tau_p))
            taus = np.linspace(ige.VOLUME_WINDOW[0] / spec.rate,
                               ige.VOLUME_WINDOW[1] / spec.rate, 16)
            log_avg = np.array([ige.log_averaged_volume(spec, t) for t in taus])
            log_ref = ige.log_closed_form_volume(spec, taus)
            seconds += clock() - t0
            checks.append(_check(f"box_volume_quadrature_{label}_relative_error",
                                 abs(quad - closed) / closed, 1e-8))
            rel = float(np.abs(np.expm1(log_avg - log_ref)).max())
            checks.append(_check(f"ige_{label}_closed_form_volume_relative_error", rel, 0.05))
            values += [[quad, closed], log_avg, log_ref]
    return _finish(index, seconds, checks, values, caught)


WORKLOADS = {
    w.name: w for w in (
        # the cost hardly depends on the input (rk steps agree to 0.1%), so
        # a run takes four inputs
        Workload("softening-sweep", dims=5, block=4, nominal_block_s=14.0,
                 make_input=_spec_params, run_task=run_softening,
                 # when lambda_f / (sigma0 lambda_plus') is large, the 3D
                 # Jacobi run of the sigma0 / 2 point stops on the 1e-150
                 # sigma floor before the exponent window, and the fit
                 # raises instead of reporting an abort
                 known_failures={
                     "exit 1: error: DomainError: exponent window contains too few samples":
                         math.inf,
                 }),
        Workload("geodesic-horizon", dims=6, block=160, nominal_block_s=13.0,
                 make_input=_geodesic_input, run_task=run_geodesics,
                 # past rate * tau ~ 25 the plain integrator aborts or drifts,
                 # and rarely misses the closed form by a hair
                 known_failures={
                     "exit 3: abort: step size underflow": math.inf,
                     "exit 3: abort: sigma coordinate fell to the positivity floor 1e-300":
                         math.inf,
                     "exit 1: check: geodesic_3d_speed_drift": math.inf,
                     "exit 1: check: geodesic_2d_speed_drift": math.inf,
                     "exit 1: check: geodesic_3d_closed_form_residual": math.inf,
                     "exit 1: check: geodesic_3d_closed_form_deviation": 2.0,
                 }),
        Workload("geometry-oracles", dims=5, block=96, nominal_block_s=2.2,
                 make_input=_geometry_input, run_task=run_geometry),
        Workload("volume-oracle", dims=5, block=112, nominal_block_s=13.3,
                 make_input=_volume_input, run_task=run_volume,
                 # the 3D closed form misses log(sigma0') terms (see README)
                 known_failures={"check: ige_3d_closed_form_volume_relative_error": math.inf}),
    )
}
WORKLOAD_IDS = {name: i for i, name in enumerate(WORKLOADS)}
