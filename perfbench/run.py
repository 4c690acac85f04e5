"""surf4 benchmark: one workload, one process, one CLI command in flight.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload survey|reconstruct|verify \\
        --seed N --seconds S --trace 0|1

The benchmark imports ``surf4`` from ``src/`` of the checkout and drives it
through ``surf4.cli.main`` in a closed loop: each command starts only after
the previous one returned.  Every output is checked (see
``workloads.check_outcome``); a failed check counts against ``error_rate``
and makes the result incorrect.

``--trace 0`` measures set-up time in fresh interpreters, runs a small
warm-up, then repeats whole workload iterations until ``--seconds`` have
passed, and reports medians.  ``--trace 1`` runs one untraced and one traced
iteration, checks that their outputs are byte-identical, and reports
per-layer counts and self times from the spans (see ``spans.py``).

The last line of standard output is the result object; the lines before it
are a readable report.  The full report, and the spans of a traced run, are
written under ``perfbench/.work/``.  ``--record-digests`` runs one iteration
of seed 0 and stores the SHA-256 of each output in ``digests.json``; later
runs compare every output whose inputs match a recorded one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = Path("perfbench/.work")
EXAMPLE1 = Path("surfaces/example1.surf")
DIGESTS = BENCH_DIR / "digests.json"

SETUP_PROBES_FIRST = 4
WARMUP_POLICY = (
    "set-up probe run once untimed (bytecode compile), then "
    f"{SETUP_PROBES_FIRST} timed before the warm-up and one after each "
    "iteration; one pass of small warm-up commands before the first timed "
    "iteration; gc.collect() before each iteration, outside the timing; "
    "no iteration discarded")

# End-to-end metrics in the result object, measured with tracing off.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics in the result object of a traced run.
PER_LAYER = {
    "expr.parse_surface.calls": "count",
    "expr.parse_surface.self_s": "s",
    "expr.eval_surface.calls": "count",
    "expr.eval_surface.self_s": "s",
    "expr.eval_surface.calls_per_point": "calls/point",
    "jets.ops": "count",
    "jets.constant.calls": "count",
    "jets.constant_per_op": "ratio",
    "jets.self_s": "s",
    "frames.curvature_report.calls": "count",
    "frames.curvature_report.self_s": "s",
    "frames.monge_frame.calls": "count",
    "frames.adapted_frame.calls": "count",
    "frames.hessian_quantities.calls": "count",
    "frames.resultant_determinant.self_s": "s",
    "frames.isoclinic_form_closedness.self_s": "s",
    "frames.inconsistency_errors": "count",
    **{f"grassmann.{fn}.{kind}": unit
       for fn in ("gauss_map_at", "tangent_pair", "plucker_from_pair",
                  "klein_from_plucker", "great_circle_fit", "blaschke_check",
                  "lift_so4")
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "lagrangian.congruence_to_lagrangean.calls": "count",
    "lagrangian.congruence_to_lagrangean.self_s": "s",
    "lagrangian.congruence_from_tangent_samples.self_s": "s",
    "characteristics.f_partials.scalar_calls": "count",
    "characteristics.f_partials.batch_calls": "count",
    "characteristics.f_partials.columns": "count",
    "characteristics.f_partials.self_s": "s",
    "characteristics.characteristic_field.calls": "count",
    "characteristics.reconstruct_surface.self_s": "s",
    "characteristics.verify_reconstruction.self_s": "s",
    **{f"suites.suite_{name}.self_s": "s"
       for name in ("plucker", "blaschke", "wong", "lift", "lagrangean")},
    "cli.main.calls": "count",
    "cli.main.failures": "count",
    "cli.analysis_report.self_s": "s",
    "cli.to_json.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

# Counters kept by the tracer itself rather than derived from span names.
COUNTERS = ("jets.ops", "jets.constant.calls", "frames.inconsistency_errors",
            "characteristics.f_partials.scalar_calls",
            "characteristics.f_partials.batch_calls",
            "characteristics.f_partials.columns", "cli.main.failures")

SETUP_PROBE = """\
import sys
sys.path.insert(0, "src")
import surf4.cli
from surf4.expr import parse_surface
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        parse_surface(handle.read())
"""


# -- one iteration ------------------------------------------------------------


def invoke(cli, command, tracer=None):
    """Run one CLI command in-process, capturing what it prints."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    before = tracer.calls["expr.eval_surface"] if tracer else 0
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(command.argv)
    except Exception:  # a traceback is a failed invocation, not a crash
        error = traceback.format_exc()
    seconds = time.perf_counter() - start
    outcome = workloads.Outcome(command, rc, out.getvalue(), err.getvalue(),
                                error, seconds)
    if tracer is not None:
        outcome.eval_calls = tracer.calls["expr.eval_surface"] - before
        if rc != 0:
            tracer.counters["cli.main.failures"] += 1
    return outcome


def run_iteration(cli, commands, tracer=None):
    """Run commands back to back; return (wall seconds, outcomes)."""
    for command in commands:
        if command.out is not None:
            Path(command.out).unlink(missing_ok=True)
    # Start from a clean collector, so that garbage left by the previous
    # iteration's output checks is not collected inside the timed region.
    gc.collect()
    outcomes = []
    start = time.perf_counter()
    for index, command in enumerate(commands):
        if tracer is not None:
            tracer.invocation = index + 1
        outcomes.append(invoke(cli, command, tracer))
    wall = time.perf_counter() - start
    for outcome in outcomes:
        path = outcome.command.out
        if path is not None and Path(path).is_file():
            outcome.out = Path(path).read_bytes()
    return wall, outcomes


def check_all(outcomes, digests):
    analyze_tokens = {}
    failed, problems = 0, []
    for outcome in outcomes:
        found = workloads.check_outcome(outcome, digests, analyze_tokens)
        failed += bool(found)
        problems += found
    return failed, problems


# -- statistics ---------------------------------------------------------------


def summary(values):
    """Median, the highest percentile with ten samples beyond it, count."""
    values = sorted(values)
    n = len(values)
    tail = None
    if n > 10:
        tail = {"percentile": 100.0 * (n - 10) / n, "value": values[n - 11]}
    return {"median": statistics.median(values), "tail": tail, "count": n}


def iteration_figures(outcomes):
    """Throughput figures of one iteration, named by the command they time.

    Each figure pools every invocation of its command in the iteration
    (both surfaces of ``survey``), so one iteration gives one sample.
    """
    def chosen(kind):
        return [o for o in outcomes if o.command.kind == kind]

    def seconds(kind):
        return sum(o.seconds for o in chosen(kind))

    def points_per_s(kind):
        return sum(o.command.points for o in chosen(kind)) / seconds(kind)

    figures = {}
    if chosen("analyze"):
        figures["analyze_points_per_s"] = ("1/s", points_per_s("analyze"))
        figures["gaussmap_points_per_s"] = ("1/s", points_per_s("gaussmap"))
        figures["congruence_s"] = ("s", seconds("congruence"))
    if chosen("reconstruct"):
        samples = sum(int(json.loads(o.stdout)["nSamples"])
                      for o in chosen("reconstruct"))
        figures["reconstruct_samples_per_s"] = (
            "1/s", samples / seconds("reconstruct"))
    return figures


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- machine facts ------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads(numpy):
    """OpenBLAS's own thread count, read through its C API if reachable."""
    import ctypes
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts(numpy, load_at_start):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpusUsable": len(os.sched_getaffinity(0)),
        "cpuModel": _cpu_model(),
        "loadAverageAtStart": load_at_start,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blasThreads": _blas_threads(numpy),
        "pythonThreads": threading.active_count(),
        "load": "closed loop, one caller, one CLI command in flight, "
                "all from this one process",
        "warmup": WARMUP_POLICY,
        "machineSettings": "unchanged: no cgroup, cache, CPU frequency or "
                           "huge-page setting was touched to take these "
                           "numbers",
    }


# -- runs ---------------------------------------------------------------------


def setup_probe(paths):
    """A function that times one cold start: a fresh interpreter imports
    surf4.cli and parses the workload's surface files."""
    argv = [sys.executable, "-c", SETUP_PROBE, *map(str, paths)]

    def probe():
        # No timeout: with one, subprocess polls for the child's exit in
        # sleeps of up to 50 ms, which would quantize the measurement.
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, check=True)
        return time.perf_counter() - start

    return probe


def timed_run(cli, workload, seconds, digests):
    """Set-up probes, warm-up, then iterations for about ``seconds``.

    An iteration starts only if it is expected to end less than half an
    iteration after ``seconds`` (judged by the median iteration so far), so
    a run lasts about ``seconds``; at least one iteration always runs.
    Set-up probes are spread over the run, one after each iteration, so
    that ``setup_s`` samples the same stretch of time as ``wall_s``.
    """
    probe = setup_probe(workload.surfaces)
    probe()  # compiles bytecode; untimed
    setup = [probe() for _ in range(SETUP_PROBES_FIRST)]
    attempted, failed, problems = 0, 0, []
    if workload.warmup:
        _, outcomes = run_iteration(cli, workload.warmup)
        failed, problems = check_all(outcomes, digests)
        attempted = len(outcomes)
    timings = {"setup_s": ("s", setup), "wall_s": ("s", [])}
    walls = timings["wall_s"][1]
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start
                        + statistics.median(walls) / 2 <= seconds):
        wall, outcomes = run_iteration(cli, workload.commands)
        bad, found = check_all(outcomes, digests)
        attempted += len(outcomes)
        failed += bad
        problems += found
        walls.append(wall)
        setup.append(probe())
        if bad:
            continue  # failed outputs carry no throughput figures
        for name, (unit, value) in iteration_figures(outcomes).items():
            timings.setdefault(name, (unit, []))[1].append(value)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb(),
    }
    report = {
        "timings": {name: dict(summary(values), unit=unit, samples=values)
                    for name, (unit, values) in timings.items()},
        "peakRssMb": metrics["peak_rss_mb"],
        "errorRate": failed / attempted,
        "iterations": len(walls),
    }
    return metrics, attempted, failed, problems, report


def _count_f_partials(tracer, args):
    """Scalar calls are Newton steps; array calls are RK4 stages and checks."""
    size = getattr(args[1], "size", None)
    if size is None or getattr(args[1], "ndim", 0) == 0:
        tracer.counters["characteristics.f_partials.scalar_calls"] += 1
    else:
        tracer.counters["characteristics.f_partials.batch_calls"] += 1
        tracer.counters["characteristics.f_partials.columns"] += size


def layer_metrics(tracer, outcomes, overhead):
    """Per-layer metrics of one traced iteration."""
    values = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name in COUNTERS:
            values[name] = tracer.counters[name]
        elif kind == "calls":
            values[name] = tracer.calls[base]
        elif kind == "self_s":
            values[name] = float(tracer.self_s[base])
    values["jets.self_s"] = float(tracer.self_s["jets"])
    ops = tracer.counters["jets.ops"]
    values["jets.constant_per_op"] = (
        tracer.counters["jets.constant.calls"] / ops if ops else 0.0)
    grid = [o for o in outcomes if o.command.points]
    points = sum(o.command.points for o in grid)
    values["expr.eval_surface.calls_per_point"] = (
        sum(o.eval_calls for o in grid) / points if points else 0.0)
    values["cli.output_bytes"] = sum(
        len(o.stdout.encode()) + len(o.out or b"") for o in outcomes)
    values["trace.overhead_s"] = overhead
    return values


def traced_run(cli, surf4, workload, digests, spans_path):
    from spans import CoverageError, Tracer
    attempted, failed, problems = 0, 0, []
    runs = []
    if workload.warmup:
        runs.append(run_iteration(cli, workload.warmup))
    runs.append(run_iteration(cli, workload.commands))
    with Tracer() as tracer:
        tracer.install(surf4, {"characteristics.f_partials":
                               _count_f_partials})
        runs.append(run_iteration(cli, workload.commands, tracer))
    for _, outcomes in runs:
        bad, found = check_all(outcomes, digests)
        attempted += len(outcomes)
        failed += bad
        problems += found
    (plain_wall, plain), (traced_wall, traced) = runs[-2], runs[-1]
    for a, b in zip(plain, traced):
        if (a.rc, a.stdout, a.out) != (b.rc, b.stdout, b.out):
            problems.append(f"{a.command.label}: traced output differs "
                            "from untraced output")
    try:
        tracer.require(workloads.EXPECTED_SPANS[workload.name])
    except CoverageError as exc:
        problems.append(str(exc))
    tracer.write_spans(spans_path)
    metrics = layer_metrics(tracer, traced, traced_wall - plain_wall)
    report = {
        "errorRate": failed / attempted,
        "untracedWallS": plain_wall,
        "tracedWallS": traced_wall,
        "overheadS": traced_wall - plain_wall,
        "spansRecorded": len(tracer.spans),
        "spansFile": str(spans_path),
        "perInvocation": [
            {"label": o.command.label, "seconds": o.seconds,
             "evalSurfaceCalls": o.eval_calls} for o in traced],
    }
    return metrics, attempted, failed, problems, report


# -- entry point --------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store output digests of one seed-0 iteration")
    return parser.parse_args(argv)


def load_surf4():
    """Import surf4 from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "surf4" / "cli.py").is_file():
        raise SystemExit(f"error: {src}/surf4 not found; run the benchmark "
                         "from a checkout of the surf4 repository")
    # One process, no extra threads: pin BLAS before numpy is imported.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(src))
    import surf4
    import surf4.cli
    if Path(surf4.__file__).resolve().parent != src / "surf4":
        raise SystemExit(f"error: imported surf4 from {surf4.__file__}")
    return surf4, surf4.cli


def print_report(name, seed, trace, facts, report, problems, result):
    print(f"surf4 benchmark: workload={name} seed={seed} trace={trace}")
    for key, value in facts.items():
        print(f"  {key}: {value}")
    for metric, stats in report.get("timings", {}).items():
        tail = stats["tail"]
        tail_text = (f"p{tail['percentile']:.1f} {tail['value']:.6g}"
                     if tail else "tail n/a")
        print(f"  {metric:28s} median {stats['median']:.6g} {stats['unit']}"
              f"  {tail_text}  n={stats['count']}")
    if "errorRate" in report:
        print(f"  {'error_rate':28s} {report['errorRate']:.6g} "
              f"({result['failed']}/{result['attempted']} invocations)")
    for key in ("untracedWallS", "tracedWallS", "overheadS"):
        if key in report:
            print(f"  {key}: {report[key]:.6g} s")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")


def main(argv=None):
    args = parse_args(argv)
    load_at_start = list(os.getloadavg())
    surf4, cli = load_surf4()
    import numpy
    os.chdir(ROOT)
    WORK.mkdir(parents=True, exist_ok=True)
    digests = (json.loads(DIGESTS.read_text(encoding="utf-8"))
               if DIGESTS.is_file() else {})
    workload = workloads.build(args.workload, args.seed, WORK, EXAMPLE1)
    if args.record_digests:
        return record(cli, args, workload, digests)
    facts = machine_facts(numpy, load_at_start)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, attempted, failed, problems, report = traced_run(
            cli, surf4, workload, digests, WORK / f"spans-{stem}.tsv")
        units = PER_LAYER
    else:
        metrics, attempted, failed, problems, report = timed_run(
            cli, workload, args.seconds, digests)
        units = END_TO_END
    if threading.active_count() != 1:
        problems.append("the benchmark process started extra threads")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  why=workloads.WHY[args.workload], inputs=workload.params,
                  machine=facts, problems=problems, result=result)
    (WORK / f"report-{stem}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print_report(args.workload, args.seed, args.trace, facts, report,
                 problems, result)
    print(json.dumps(result))
    return 0


def record(cli, args, workload, digests):
    if args.seed != 0:
        raise SystemExit("error: digests are recorded for seed 0 only")
    _, outcomes = run_iteration(cli, workload.commands)
    failed, problems = check_all(outcomes, {})
    if failed:
        raise SystemExit("error: refusing to record failing outputs:\n"
                         + "\n".join(problems))
    digests.update(workloads.record_digests(outcomes))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"recorded {len(outcomes)} digests for {args.workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
