"""The benchmark's bindings into the package.

``bench/workloads.py`` calls package functions by module attribute, and
``bench/tracing.py`` wraps them by name.  A refactor that deletes or renames
one of those names should fail here, not first in a benchmark run.  Both
files are only read and imported, never changed.
"""

import ast
import importlib
import importlib.util
import inspect
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

import infogeo
from infogeo import fisher, geodesics, ige, jacobi, models, numgeo, rk

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


def _package_modules(tree) -> dict:
    """Local name -> infogeo module, from the file's import statements."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "infogeo":
                    bound[alias.asname or alias.name] = infogeo
        elif isinstance(node, ast.ImportFrom) and node.module == "infogeo":
            for alias in node.names:
                bound[alias.asname or alias.name] = importlib.import_module(
                    f"infogeo.{alias.name}")
    return bound


def _namespaces() -> list:
    """Every package module and every class it defines: what the tracer patches."""
    modules = [m for name, m in sys.modules.items() if name.startswith("infogeo")]
    classes = [v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("infogeo")]
    return modules + classes


def test_instrumentation_enters_and_restores():
    tracing = _load("tracing")
    _load("workloads")
    before = [(ns, dict(vars(ns))) for ns in _namespaces()]
    with tracing.Instrumentation(tracing.Tracer()):
        pass
    for ns, saved in before:
        now = vars(ns)
        assert now.keys() == saved.keys() and all(now[k] is v for k, v in saved.items()), ns


def test_every_package_attribute_named_by_the_workloads_exists():
    tree = ast.parse((BENCH / "workloads.py").read_text())
    bound = _package_modules(tree)
    assert {"cli", "geodesics", "ige", "jacobi", "models", "numgeo"} <= set(bound)
    named = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id in bound}
    missing = sorted(f"{mod}.{attr}" for mod, attr in named if not hasattr(bound[mod], attr))
    assert not missing


def test_parameters_the_tracer_binds():
    # tracing.py takes the quadrature spec as the last positional argument or
    # the keyword q, binds box_volume_quadrature's arguments by name, and reads
    # the dense-output times as the second positional argument of __call__
    for fn in (fisher.fisher_numeric_3d, fisher.fisher_numeric_2d):
        last = list(inspect.signature(fn).parameters.values())[-1]
        assert last.name == "q" and isinstance(last.default, fisher.QuadratureSpec), fn
    bound = inspect.signature(ige.box_volume_quadrature).parameters
    assert {"spec", "tau_prime", "nodes", "mu_span"} <= set(bound)
    assert list(inspect.signature(rk.OdeSolution.__call__).parameters)[1] == "t_eval"


def test_tracer_counts_the_quadrature_mesh():
    # tracing.py recounts the nodes of box_volume_quadrature through
    # closed_form_3d(..., mu_span=) and closed_form_2d(spec, tau); the count
    # must be the size of the scale mesh the quadrature really builds
    tracing = _load("tracing")
    nodes = inspect.signature(ige.box_volume_quadrature).parameters["nodes"].default
    spec3 = geodesics.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, 1.0)
    for spec in (spec3, geodesics.GeodesicSpec2D.from_3d(spec3)):
        tau = 5.0 / spec.rate
        theta0, _ = geodesics._closed_form(spec, 0.0, geodesics.MU_SPAN_WIDE)
        theta1, _ = geodesics._closed_form(spec, tau, geodesics.MU_SPAN_WIDE)
        mesh = math.prod(ige._panelled_gauss(min(a, b), max(a, b), nodes[j])[0].size
                         for j, (a, b) in enumerate(zip(theta0, theta1)) if j > 0)
        assert mesh > max(nodes) ** (spec.model.dimension - 1)    # several panels per axis
        assert tracing._quadrature_nodes((spec, tau), {}) == mesh


def test_default_runs_keep_the_rk_identities_the_tracer_checks(monkeypatch):
    # check_rk_identities expects 2 + 6 (steps + rejected) RHS calls from
    # every run (rk has no floor, so the floor count is None and skipped);
    # the right-hand sides take lists, and the generated attempt calls f
    # six times
    tracing = _load("tracing")
    tr = tracing.Tracer()
    monkeypatch.setattr(rk, "integrate", tracing._traced_integrate(tr, rk.integrate))
    spec = geodesics.GeodesicSpec3D(0.0, 1.0, 1.0, 1.0, 1.0)
    jlc = jacobi.integrate_jlc(spec)
    geo = geodesics.integrate_geodesic(spec, 20.0)
    assert jlc.complete and geo.complete
    assert [run[1] for run in tr.rk_runs] == [jlc.n_steps, geo.n_steps]
    assert tr.rk_runs[0][2] > 0     # rejected attempts are counted too
    assert tracing.check_rk_identities(tr) == []


def test_a_counted_field_keeps_its_results_and_counts_every_evaluation(monkeypatch):
    # tracing.py rebuilds each field as replace(field, evaluate=counted): the
    # finite differences must read the metric through that evaluate only
    tracing = _load("tracing")
    tr = tracing.Tracer()
    evaluated = []
    metric_rows = models.DiagonalScaleModel.metric_rows

    def spy(self, theta):
        evaluated.append(len(theta))
        return metric_rows(self, theta)

    monkeypatch.setattr(models.DiagonalScaleModel, "metric_rows", spy)
    plain = numgeo.field_3d()
    field = replace(plain, evaluate=tracing._counted(tr, "numgeo.metric_evals", plain.evaluate))
    theta = np.array([0.3, 1.7, 0.6])
    gam = numgeo.christoffel_numeric(field, theta).components
    # the centre read, then the centre and its 2n stencil points
    assert evaluated == [1, 7] and tr.counts["numgeo.metric_evals"] == 2
    assert np.array_equal(gam, numgeo.christoffel_numeric(plain, theta).components)
