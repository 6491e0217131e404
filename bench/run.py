#!/usr/bin/env python3
"""Benchmark of the infogeo pipeline, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--held-out]

Run from the repository root (or anywhere: paths are resolved from this
file).  The package is imported from ``src/`` of the same checkout and from
nowhere else; without it the benchmark exits 2.

Each run draws a fixed number of input blocks, sized so that they take
about ``--seconds`` reference seconds at the workload's nominal cost (see
``hostclock``).  ``--trace 0`` runs them once, closed loop and one task at
a time, times every task and the set-up in reference seconds, and prints
the end-to-end metrics.  ``--trace 1`` runs each task untraced, then
traced, and prints the per-layer metrics in wall seconds; the difference
of the two is the tracing overhead.
``--workload all`` runs every workload, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result
(tail percentile and task count, failures by cause, warnings, artefact
digests, environment) is written to ``.bench_out/results/``; traced runs
also write their spans to ``.bench_out/spans/``.
"""

import os
import sys

# one thread per BLAS pool, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time
from collections import Counter
from pathlib import Path

import hostclock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = Path(".bench_out")          # relative to ROOT, so report bytes match across checkouts
SETUP_REPEATS = 9
SETUP_CLOCK_PERIOD = 0.02   # a set-up takes about 0.3 s: some 15 probes
TASK_CLOCK_PERIOD = 0.025  # short host stalls otherwise land in the tail
WORKLOAD_NAMES = ("softening-sweep", "geodesic-horizon", "geometry-oracles", "volume-oracle")

END_TO_END = {
    # name: unit
    "setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms", "task_tail_ms": "ms",
    "pass_frac": "ratio", "worst_margin": "ratio", "peak_rss_mb": "MB",
}


def _import_package():
    """Import infogeo from this checkout's src/, or exit 2."""
    if not (SRC / "infogeo" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC / 'infogeo'}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import infogeo
    if Path(infogeo.__file__).resolve().parent != (SRC / "infogeo").resolve():
        print(f"bench: infogeo imported from {infogeo.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import infogeo.cli  # noqa: F401  (the CLI route imports it on every call)


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="draw inputs from the held-out stream of the seed, for "
                         "re-checking a claim on inputs not used while making it")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _self_argv(args, workload):
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    return argv + (["--held-out"] if args.held_out else [])


def _environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def _setup_seconds(args) -> tuple:
    """Set-up times of fresh interpreters that import the package and draw
    the inputs: each wall time from the parent, converted to reference
    seconds at the speed the child's own host clock saw.  Returns the
    reference times and the wall times."""
    ref, wall = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in 50 ms steps, which the
        # measurement would show
        proc = subprocess.run(_self_argv(args, args.workload) + ["--setup-probe"],
                              check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        wall.append(time.perf_counter() - t0)
        ref.append(wall[-1] * json.loads(proc.stdout)["ref_per_wall"])
    return ref, wall


def _setup_probe(args) -> int:
    """The timed part of a set-up, in the child: import and draw the inputs."""
    with hostclock.HostClock(hostclock.InterpreterProbe(), SETUP_CLOCK_PERIOD) as hc:
        w0, r0 = time.perf_counter(), hc.now()
        _import_package()
        import workloads
        wl = workloads.WORKLOADS[args.workload]
        workloads.generate_inputs(wl, args.seed, args.held_out,
                                  _block_count(wl, args.seconds, args.trace))
        ratio = (hc.now() - r0) / (time.perf_counter() - w0)
    print(json.dumps({"ref_per_wall": ratio}))
    return 0


def _code_fingerprint() -> str:
    """Hash of the package and benchmark sources: digests compare within one."""
    h = hashlib.sha256()
    for f in sorted((SRC / "infogeo").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(f.name.encode() + f.read_bytes())
    return h.hexdigest()


def _run_timed(wl, pool, work) -> tuple:
    """One pass over the run's inputs, one task at a time, each task timed
    in reference seconds by a host clock.  Returns the outcomes and the
    clock's summary."""
    import workloads
    with hostclock.HostClock(hostclock.MixedProbe(), TASK_CLOCK_PERIOD) as hc:
        workloads.clock = hc.now
        try:
            outcomes = [wl.run_task(i, p, work) for i, p in enumerate(pool)]
        finally:
            workloads.clock = time.perf_counter
    return outcomes, hc.summary()


def _block_count(wl, seconds: float, trace: int) -> int:
    """Blocks that fit into ``seconds`` at the workload's nominal cost in
    reference seconds (a traced run makes two passes): fixed by the
    arguments, never by measured time."""
    passes = 2 if trace else 1
    return max(1, int(seconds / (passes * wl.nominal_block_s)))


def _tail(values: list):
    """Value at the highest percentile with at least ten tasks beyond it;
    the maximum when that percentile would not exceed the median."""
    xs = sorted(values)
    n = len(xs)
    if n < 21:
        return xs[-1], {"percentile": 100.0, "tasks": n,
                        "note": "fewer than 21 tasks: the maximum"}
    return xs[n - 11], {"percentile": 100.0 * (n - 10) / n, "tasks": n}


def _digest_problems(key: str, fingerprint: str, outcomes: list) -> list:
    """Compare per-task artefact digests with earlier runs of the same inputs
    and code in this checkout, then record these."""
    path = OUT / "digests" / f"{key}.json"
    seen = {}
    if path.exists():
        old = json.loads(path.read_text())
        if old.get("code") == fingerprint:
            seen = old["digests"]
    problems = []
    for o in outcomes:
        k = str(o.index)
        if k in seen and seen[k] != o.digest:
            problems.append(f"task {o.index}: artefact digest differs from an earlier run "
                            f"of the same seed ({seen[k][:12]} vs {o.digest[:12]})")
        seen.setdefault(k, o.digest)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"code": fingerprint, "digests": seen}))
    return problems


def _summary(wl, outcomes) -> dict:
    failures = Counter(c for o in outcomes for c in o.causes())
    warn = Counter(w for o in outcomes for w in o.warnings)
    problems = [f"task {o.index}: {p}" for o in outcomes for p in o.problems]
    problems += [f"unexpected failure cause on {wl.name}: {c} ({n} tasks)"
                 for c, n in Counter(c for o in outcomes for c in o.causes()
                                     if not wl.known(o, c)).items()]
    combined = hashlib.sha256("".join(o.digest for o in outcomes).encode()).hexdigest()
    return {"failures_by_cause": dict(failures.most_common()),
            "failed_frac": sum(o.failed for o in outcomes) / len(outcomes),
            "warnings": dict(warn.most_common()),
            "artefact_digest": combined,
            "problems": problems}


def _plain(args, wl, pool, work, result, setup) -> tuple:
    outcomes, result["host_clock"] = _run_timed(wl, pool, work)
    setup, result["setup_wall_s"] = setup
    times_ms = [1000.0 * o.seconds for o in outcomes]
    passed = [o for o in outcomes if not o.failed]
    tail, tail_info = _tail(times_ms)
    ignore = wl.defect_checks()
    margins = [o.worst_margin(ignore) for o in passed if o.checks] or [0.0]
    tail_margin, tail_margin_info = _tail(margins)
    metrics = {
        "setup_s": statistics.median(setup),
        "tasks_per_s": len(passed) / sum(o.seconds for o in outcomes),
        "task_p50_ms": statistics.median(times_ms),
        "task_tail_ms": tail,
        "pass_frac": len(passed) / len(outcomes),
        "worst_margin": statistics.median(margins),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result.update(_summary(wl, outcomes))
    result["setup_ref_s"] = setup
    result["task_tail"] = tail_info
    result["worst_margin_ignored_checks"] = sorted(ignore)
    result["worst_margin_tail"] = dict(tail_margin_info, value=tail_margin)
    result["worst_margin_max"] = max(margins)
    result["problems"] += _digest_problems(
        result["key"], result["code_fingerprint"], outcomes)
    return outcomes, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def _traced(args, wl, pool, work, result, setup=None) -> tuple:
    import tracing
    # each task runs untraced, then at once traced: the pair sees the same
    # host speed, so their difference is the tracing overhead
    tracer = tracing.Tracer()
    untraced, outcomes = [], []
    for i, p in enumerate(pool):
        untraced.append(wl.run_task(i, p, work))
        tracer.task_id = i
        with tracing.Instrumentation(tracer):
            outcomes.append(wl.run_task(i, p, work))
    n = len(outcomes)
    values = tracing.layer_metrics(tracer)
    base = sum(o.seconds for o in untraced)
    values.update({
        "cli.bytes_written": sum(o.bytes_written for o in outcomes),
        "cli.exit_nonzero": sum(o.exit_code not in (0, None) for o in outcomes),
        "cli.warnings": sum(len(o.warnings) for o in outcomes),
        "trace.untraced_s": base,
        "trace.overhead_s": sum(o.seconds for o in outcomes) - base,
    })
    result.update(_summary(wl, outcomes))
    result["tracing_overhead"] = {"traced_s": base + values["trace.overhead_s"],
                                  "untraced_s": base, "tasks": n,
                                  "overhead_frac_of_untraced": values["trace.overhead_s"] / base}
    result["problems"] += tracing.check_rk_identities(tracer)
    result["problems"] += [f"task {a.index}: traced and untraced artefact digests differ"
                           for a, b in zip(untraced, outcomes) if a.digest != b.digest]
    spans = OUT / "spans" / f"{result['key']}.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans)
    result["spans_file"] = str(spans)
    return outcomes, {k: (values[k], unit) for k, unit in tracing.PER_LAYER.items()}


def _run_all(args) -> int:
    """Every workload in its own process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(_self_argv(args, name), cwd=ROOT, timeout=900,
                              stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        line = json.loads(lines[-1])
        combined["correct"] &= line["correct"]
        combined["attempted"] += line["attempted"]
        combined["failed"] += line["failed"]
        for k, v in line["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = _parse(argv)
    os.chdir(ROOT)
    if args.workload == "all":
        return _run_all(args)
    if args.setup_probe:
        return _setup_probe(args)
    _import_package()
    import workloads
    wl = workloads.WORKLOADS[args.workload]
    blocks = _block_count(wl, args.seconds, args.trace)
    env = _environment()
    setup = None if args.trace else _setup_seconds(args)
    pool = workloads.generate_inputs(wl, args.seed, args.held_out, blocks)

    key = f"{wl.name}-seed{args.seed}" + ("-held-out" if args.held_out else "")
    work = OUT / "work" / wl.name
    work.mkdir(parents=True, exist_ok=True)
    result = {"workload": wl.name, "seed": args.seed, "held_out": args.held_out,
              "trace": args.trace, "seconds": args.seconds, "key": key,
              "environment": env, "code_fingerprint": _code_fingerprint()}
    run = _traced if args.trace else _plain
    t0 = time.perf_counter()
    outcomes, metrics = run(args, wl, pool, work, result, setup)
    result["measure_wall_s"] = time.perf_counter() - t0
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["tasks"] = [{"index": o.index, "seconds": o.seconds,
                        "exit_code": o.exit_code, "causes": o.causes(),
                        "worst_margin": o.worst_margin(wl.defect_checks()),
                        "digest": o.digest}
                       for o in outcomes]
    correct = not result["problems"]
    path = OUT / "results" / f"{key}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")

    print(f"{wl.name} seed={args.seed}{' held-out' if args.held_out else ''} "
          f"trace={args.trace}: {len(outcomes)} tasks, result in {path}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {unit}")
    for cause, count in result["failures_by_cause"].items():
        print(f"  failed  {count:5d}  {cause}")
    for text, count in result["warnings"].items():
        print(f"  warning {count:5d}  {text}")
    if "tracing_overhead" in result:
        t = result["tracing_overhead"]
        print(f"  tracing overhead {t['traced_s'] - t['untraced_s']:.4g} s over an untraced "
              f"{t['untraced_s']:.4g} s ({t['tasks']} tasks)")
    for p in result["problems"][:20]:
        print(f"  PROBLEM {p}", file=sys.stderr)
    if len(result["problems"]) > 20:
        print(f"  ... {len(result['problems']) - 20} more problems", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": len(outcomes),
                      "failed": sum(o.failed for o in outcomes),
                      "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
