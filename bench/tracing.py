"""Span tracer for the traced benchmark run.

Wrappers installed from the benchmark's own files record one span per call
into each package layer: name, start, end, parent span and task id.  Spans
stay in memory (flat arrays, about 40 bytes each) and are written out when
the run ends.  A span's self time is its duration minus the durations of its
direct children; calls are strictly nested on one thread, so children never
overlap.

Every wrapped function is replaced in every ``infogeo`` module namespace
that holds it, so names that ``cli``, ``jacobi`` or ``ige`` imported
directly (``integrate_jlc``, ``softening_gap``, ``closed_form``, ...) are
traced too.  Very hot, very cheap calls (metric constructions, metric-field
evaluations) are counted without a span.

``rk.integrate`` gets its own wrapper: it wraps the right-hand side and the
floor callback it is handed, so the number of RHS evaluations and accepted
steps is observed rather than read back.  ``check_rk_identities`` then
compares those observations with the counters the integrator returns.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from array import array
from collections import Counter
from dataclasses import replace
from time import perf_counter

import numpy as np

from infogeo import (cli, fisher, fitting, geodesics, ige, jacobi, models,
                     numgeo, rk, tensors)
from infogeo.errors import NumericalAbort


class Tracer:
    """Spans of one traced run, as parallel arrays indexed by span id."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("l")
        self.parent = array("l")
        self.task = array("l")
        self._stack = [-1]
        self.task_id = -1
        self.counts = Counter()   # call counts and computed sizes, no span
        self.rk_runs = []         # (span, n_steps, n_rejected, floor calls, rhs calls)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.task.append(self.task_id)
        self.end.append(math.nan)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = perf_counter()
        self._stack.pop()

    def arrays(self) -> dict:
        return {"start": np.array(self.start, dtype=float),
                "end": np.array(self.end, dtype=float),
                "name": np.array(self.name, dtype=np.int64),
                "parent": np.array(self.parent, dtype=np.int64),
                "task": np.array(self.task, dtype=np.int64)}

    def save(self, path):
        """Write every span (and the name table) as a compressed .npz file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _spanned(tr: Tracer, name: str, fn, before=None, after=None):
    nid = tr.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        sid = tr.open(nid)
        try:
            result = fn(*args, **kwargs)
        except NumericalAbort as exc:
            if after is not None:
                after(args, kwargs, exc.partial, True)
            raise
        finally:
            tr.close(sid)
        if after is not None:
            after(args, kwargs, result, False)
        return result
    return wrapper


def _counted(tr: Tracer, key: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tr.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _traced_integrate(tr: Tracer, integrate):
    sig = inspect.signature(integrate)
    nid, rhs_id, floor_id = (tr.name_id(n) for n in ("rk.integrate", "rk.rhs", "rk.floor"))

    @functools.wraps(integrate)
    def wrapper(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        seen = [0, 0]   # rhs calls, floor calls
        f, floor = bound.arguments["f"], bound.arguments.get("floor")

        def rhs(t, y):
            seen[0] += 1
            sid = tr.open(rhs_id)
            try:
                return f(t, y)
            finally:
                tr.close(sid)
        bound.arguments["f"] = rhs
        if floor is not None:
            def counted_floor(y):
                seen[1] += 1
                sid = tr.open(floor_id)
                try:
                    return floor(y)
                finally:
                    tr.close(sid)
            bound.arguments["floor"] = counted_floor

        sid = tr.open(nid)
        sol = None
        try:
            sol = integrate(*bound.args, **bound.kwargs)
        except NumericalAbort as exc:
            sol = exc.partial
            raise
        finally:
            tr.close(sid)
            if sol is not None:
                tr.rk_runs.append((sid, sol.n_steps, sol.n_rejected,
                                   seen[1] if floor is not None else None, seen[0]))
        return sol
    return wrapper


def _quadrature_nodes(args, kwargs):
    """Inner-loop node count of ``box_volume_quadrature``: Gauss-Legendre
    nodes per panel times one panel per octave of each scale range."""
    b = inspect.signature(ige.box_volume_quadrature).bind(*args, **kwargs)
    b.apply_defaults()
    spec, tau, nodes, span = (b.arguments[k] for k in ("spec", "tau_prime", "nodes", "mu_span"))

    def panels(a, c):
        lo, hi = min(a, c), max(a, c)
        return max(1, int(math.ceil(math.log2(hi / lo))))
    if isinstance(spec, geodesics.GeodesicSpec3D):
        span = geodesics.MU_SPAN_WIDE if span is None else span
        t0 = geodesics.closed_form_3d(spec, 0.0, mu_span=span)[0]
        t1 = geodesics.closed_form_3d(spec, tau, mu_span=span)[0]
        return nodes[1] * panels(t0[1], t1[1]) * nodes[2] * panels(t0[2], t1[2])
    t0 = geodesics.closed_form_2d(spec, 0.0)[0]
    t1 = geodesics.closed_form_2d(spec, tau)[0]
    return nodes[1] * panels(t0[1], t1[1])


class Instrumentation:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self, tracer: Tracer):
        self.tr = tracer
        self._restore = []

    def _everywhere(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` in every package module namespace."""
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("infogeo"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _on_class(self, cls, attr, make):
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def __enter__(self):
        tr, c = self.tr, self.tr.counts

        def abort_counter(key):
            def after(args, kwargs, result, raised):
                if raised or not result.complete:
                    c[key] += 1
            return after

        def add(key, size):
            def before(args, kwargs):
                c[key] += size(args, kwargs)
            return before

        def dense_points(args, kwargs):
            return int(np.atleast_1d(args[1] if len(args) > 1 else kwargs["t_eval"]).size)

        def fisher_nodes(args, kwargs):
            q = args[-1] if args and isinstance(args[-1], fisher.QuadratureSpec) \
                else kwargs.get("q", fisher.QuadratureSpec())
            return q.nodes_per_axis ** 2

        def counted_field(factory):
            @functools.wraps(factory)
            def wrapper(*args, **kwargs):
                fld = factory(*args, **kwargs)
                return replace(fld, evaluate=_counted(tr, "numgeo.metric_evals", fld.evaluate))
            return wrapper

        spans = [
            (geodesics, "integrate_geodesic", "geodesics.integrate",
             None, abort_counter("geodesics.aborts")),
            (geodesics, "closed_form", "geodesics.closed_form", None, None),
            (geodesics, "residual_check", "geodesics.residual_check", None, None),
            (jacobi, "integrate_jlc", "jacobi.integrate", None, abort_counter("jacobi.aborts")),
            (jacobi, "jlc_coefficients", "jacobi.coefficients", None, None),
            (jacobi, "intensity", "jacobi.intensity", None, None),
            (jacobi, "softening_gap", "jacobi.softening_gap", None, None),
            (ige, "ige_curve", "ige.curve", None, None),
            (ige, "log_time_average", "ige.time_average", None, None),
            (ige, "box_volume_quadrature", "ige.quadrature",
             add("ige.quadrature_nodes", _quadrature_nodes), None),
            (ige, "softening_ratio_ige", "ige.softening_ratio", None, None),
            (numgeo, "christoffel_numeric", "numgeo.christoffel", None, None),
            (numgeo, "riemann_numeric", "numgeo.riemann", None, None),
            (numgeo, "scalar_numeric", "numgeo.scalar", None, None),
            (fisher, "fisher_numeric_3d", "fisher.quadrature",
             add("fisher.grid_nodes", fisher_nodes), None),
            (fisher, "fisher_numeric_2d", "fisher.quadrature",
             add("fisher.grid_nodes", fisher_nodes), None),
            (fitting, "fit_line", "fitting.fit", None, None),
            (fitting, "fit_basis", "fitting.fit", None, None),
            (cli, "_checks_csv", "cli.report", None, None),
            (geodesics, "trajectory_to_csv", "cli.report", None, None),
            (ige, "ige_to_csv", "cli.report", None, None),
            (jacobi, "jacobi_to_csv", "cli.report", None, None),
        ]
        for mod, attr, name, before, after in spans:
            original = getattr(mod, attr)
            self._everywhere(original, _spanned(tr, name, original, before, after))
        for mod, attr in ((models, "metric_3d"), (models, "metric_2d")):
            original = getattr(mod, attr)
            self._everywhere(original, _counted(tr, "models.metric_calls", original))
        for factory in ("field_3d", "field_2d"):
            original = getattr(numgeo, factory)
            self._everywhere(original, counted_field(original))
        self._everywhere(rk.integrate, _traced_integrate(tr, rk.integrate))
        self._on_class(rk.OdeSolution, "__call__",
                       lambda fn: _spanned(tr, "rk.dense", fn, add("rk.dense_points", dense_points)))
        self._on_class(cli.RunReport, "to_json", lambda fn: _spanned(tr, "cli.report", fn))
        self._on_class(tensors.MetricTensor, "__post_init__",
                       lambda fn: _counted(tr, "tensors.metric_tensors", fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()
        return False


# ---------------------------------------------------------------------------
# identities and per-layer metrics
# ---------------------------------------------------------------------------

def check_rk_identities(tr: Tracer) -> list:
    """Violations of: observed accepted steps == returned n_steps, and
    observed RHS evaluations == 2 + 6 (n_steps + n_rejected) (first stage,
    initial-step probe, six per attempted step)."""
    bad = []
    for sid, steps, rejected, floors, rhs in tr.rk_runs:
        if floors is not None and floors != steps:
            bad.append(f"rk.integrate span {sid}: {floors} accepted steps seen, "
                       f"n_steps = {steps}")
        if rhs != 2 + 6 * (steps + rejected):
            bad.append(f"rk.integrate span {sid}: {rhs} RHS evaluations seen, "
                       f"2 + 6 * ({steps} + {rejected}) = {2 + 6 * (steps + rejected)}")
    return bad


PER_LAYER = {
    # name: unit
    "rk.calls": "count", "rk.steps": "count", "rk.rejected": "count",
    "rk.rhs_evals": "count", "rk.accept_ratio": "ratio", "rk.self_s": "s",
    "rk.us_per_step": "us", "rk.dense_points": "count", "rk.dense_s": "s",
    "geodesics.runs": "count", "geodesics.aborts": "count", "geodesics.rhs_s": "s",
    "geodesics.closed_form_calls": "count", "geodesics.closed_form_s": "s",
    "geodesics.residual_s": "s",
    "jacobi.runs": "count", "jacobi.aborts": "count", "jacobi.rhs_s": "s",
    "jacobi.coeff_calls": "count", "jacobi.coeff_s": "s", "jacobi.unpack_s": "s",
    "jacobi.intensity_s": "s",
    "ige.curve_calls": "count", "ige.curve_s": "s", "ige.time_average_calls": "count",
    "ige.time_average_s": "s", "ige.quadrature_calls": "count",
    "ige.quadrature_nodes": "count", "ige.quadrature_s": "s",
    "ige.quadrature_us_per_node": "us",
    "numgeo.metric_evals": "count", "numgeo.christoffel_s": "s",
    "numgeo.riemann_s": "s", "numgeo.scalar_s": "s",
    "fisher.calls": "count", "fisher.grid_nodes": "count", "fisher.s": "s",
    "models.metric_calls": "count", "tensors.metric_tensors": "count",
    "fitting.calls": "count", "fitting.s": "s",
    "cli.report_s": "s", "cli.bytes_written": "B", "cli.exit_nonzero": "count",
    "cli.warnings": "count",
    "trace.untraced_s": "s", "trace.overhead_s": "s", "trace.spans": "count",
}


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer values from the spans and counters of one traced run.

    Times are inclusive span durations summed over all calls, except
    ``rk.self_s`` (self time) and the two differences named in their keys.
    The caller adds the ``cli.*`` outcome counts and ``trace.*`` figures.
    """
    a = tr.arrays()
    n = a["name"].size
    dur = a["end"] - a["start"]
    parent = a["parent"]
    has_parent = parent >= 0
    child = np.zeros(n)
    np.add.at(child, parent[has_parent], dur[has_parent])
    ids = tr._ids

    def is_(name):
        return a["name"] == ids.get(name, -1)

    def count(name):
        return int(is_(name).sum())

    def total(name):
        return float(dur[is_(name)].sum())

    # owner of each rk.integrate span: nearest geodesics/jacobi integrate ancestor
    owners = {ids.get("geodesics.integrate", -1): "geodesics",
              ids.get("jacobi.integrate", -1): "jacobi"}
    owner_of = np.full(n, -1)
    for sid in np.flatnonzero(is_("rk.integrate")):
        p = parent[sid]
        while p >= 0 and a["name"][p] not in owners:
            p = parent[p]
        owner_of[sid] = -1 if p < 0 else (0 if owners[a["name"][p]] == "geodesics" else 1)

    rhs = is_("rk.rhs")
    rhs_owner = owner_of[parent[rhs]]
    integ = is_("rk.integrate")
    steps = sum(r[3] if r[3] is not None else r[1] for r in tr.rk_runs)
    rejected = sum(r[2] for r in tr.rk_runs)
    attempts = steps + rejected
    rk_self = float((dur - child)[integ].sum())
    c = tr.counts
    quad_s = total("ige.quadrature")
    return {
        "rk.calls": count("rk.integrate"),
        "rk.steps": steps,
        "rk.rejected": rejected,
        "rk.rhs_evals": int(rhs.sum()),
        "rk.accept_ratio": steps / attempts if attempts else 0.0,
        "rk.self_s": rk_self,
        "rk.us_per_step": 1e6 * rk_self / attempts if attempts else 0.0,
        "rk.dense_points": c["rk.dense_points"],
        "rk.dense_s": total("rk.dense"),
        "geodesics.runs": count("geodesics.integrate"),
        "geodesics.aborts": c["geodesics.aborts"],
        "geodesics.rhs_s": float(dur[rhs][rhs_owner == 0].sum()),
        "geodesics.closed_form_calls": count("geodesics.closed_form"),
        "geodesics.closed_form_s": total("geodesics.closed_form"),
        "geodesics.residual_s": total("geodesics.residual_check"),
        "jacobi.runs": count("jacobi.integrate"),
        "jacobi.aborts": c["jacobi.aborts"],
        "jacobi.rhs_s": float(dur[rhs][rhs_owner == 1].sum()),
        "jacobi.coeff_calls": count("jacobi.coefficients"),
        "jacobi.coeff_s": total("jacobi.coefficients"),
        "jacobi.unpack_s": total("jacobi.integrate") - float(dur[integ & (owner_of == 1)].sum()),
        "jacobi.intensity_s": total("jacobi.intensity"),
        "ige.curve_calls": count("ige.curve"),
        "ige.curve_s": total("ige.curve"),
        "ige.time_average_calls": count("ige.time_average"),
        "ige.time_average_s": total("ige.time_average"),
        "ige.quadrature_calls": count("ige.quadrature"),
        "ige.quadrature_nodes": c["ige.quadrature_nodes"],
        "ige.quadrature_s": quad_s,
        "ige.quadrature_us_per_node": (1e6 * quad_s / c["ige.quadrature_nodes"]
                                       if c["ige.quadrature_nodes"] else 0.0),
        "numgeo.metric_evals": c["numgeo.metric_evals"],
        "numgeo.christoffel_s": total("numgeo.christoffel"),
        "numgeo.riemann_s": total("numgeo.riemann"),
        "numgeo.scalar_s": total("numgeo.scalar"),
        "fisher.calls": count("fisher.quadrature"),
        "fisher.grid_nodes": c["fisher.grid_nodes"],
        "fisher.s": total("fisher.quadrature"),
        "models.metric_calls": c["models.metric_calls"],
        "tensors.metric_tensors": c["tensors.metric_tensors"],
        "fitting.calls": count("fitting.fit"),
        "fitting.s": total("fitting.fit"),
        "cli.report_s": total("cli.report"),
        "trace.spans": n,
    }
