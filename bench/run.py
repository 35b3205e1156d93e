"""newton-strata benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload poset-ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads (see ``BENCHMARK.json`` for why each exists): ``poset-ladder``,
``request-mix`` and ``cold-cli``; ``all`` runs each in its own process and
prints a table.  One client drives the library in a closed loop: the next
operation starts when the previous one returns.  Passes over the workload's
fixed operation list repeat until ``--seconds`` of pass time has elapsed.

``--trace 0`` measures untraced and prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics (per traced pass) plus both pass times, whose ratio is the tracing
overhead.  Every operation's output is checked against facts the benchmark
computes itself; the last stdout line is the result JSON, the line before
it a report with the run environment, output digest and failure counts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracer import Tracer
from workloads import DEFECT, OK, ROOT, SRC, WORKLOADS

LAYERS = ("polygon", "pel", "hypersym", "muord", "strata", "weil", "cli")
SETUP_REPEATS = 7
EXCLUDED = ["muord with d=3000000: mu_ordinary loops over all d slopes and does not finish in a run"]

# Per-layer metric -> (span name, "calls" | "self" | "total").
SPAN_METRICS = {
    "strata.enumerate_siegel.self_s": ("strata.enumerate_siegel", "self"),
    "strata.build_poset.self_s": ("strata.build_poset", "self"),
    "strata.to_dot.self_s": ("strata.to_dot", "self"),
    "polygon.measures.calls": ("polygon.NewtonPolygon.measures", "calls"),
    "polygon.leq.calls": ("polygon.NewtonPolygon.leq", "calls"),
    "polygon.leq.self_s": ("polygon.NewtonPolygon.leq", "self"),
    "polygon.leq.total_s": ("polygon.NewtonPolygon.leq", "total"),
    "polygon.NewtonPolygon.calls": ("polygon.NewtonPolygon", "calls"),
    "polygon.NewtonPolygon.self_s": ("polygon.NewtonPolygon", "self"),
    "cli.execute.calls": ("cli.execute", "calls"),
    "cli.execute.self_s": ("cli.execute", "self"),
    "pel.PELSlopeDatum.from_json.self_s": ("pel.PELSlopeDatum.from_json", "self"),
    "pel.restrict.self_s": ("pel.restrict", "self"),
    "pel.condition_star.self_s": ("pel.condition_star", "self"),
    "hypersym.hypersymmetric_verdict.self_s": ("hypersym.hypersymmetric_verdict", "self"),
    "hypersym.decompose.self_s": ("hypersym.decompose", "self"),
    "hypersym.subfield_transfer.self_s": ("hypersym.subfield_transfer", "self"),
    "hypersym.theorem_checklist.self_s": ("hypersym.theorem_checklist", "self"),
    "muord.mu_ordinary.self_s": ("muord.mu_ordinary", "self"),
    "weil.weil_parameters.self_s": ("weil.weil_parameters", "self"),
}
COUNTER_METRICS = (
    "cli.rejected.calls", "cli.internal_error.calls", "muord.slope_terms",
    "strata.nodes", "strata.relation_pairs", "strata.cover_edges",
)
SAMPLE_METRICS = {  # median over subprocess calls, in ms
    "process.interpreter_start_ms": "process.interpreter_start",
    "process.import_cli_ms": "process.import_cli",
}


def import_library() -> SimpleNamespace:
    """Import newton_strata afresh from the checkout's ``src``."""
    for name in [n for n in sys.modules if n.split(".")[0] == "newton_strata"]:
        del sys.modules[name]
    modules = [importlib.import_module(f"newton_strata.{layer}") for layer in LAYERS]
    where = Path(sys.modules["newton_strata"].__file__).resolve().parent
    if where != SRC / "newton_strata":
        raise SystemExit(f"error: imported newton_strata from {where}, not from {SRC}")
    return SimpleNamespace(modules=modules, **{layer: m for layer, m in zip(LAYERS, modules)})


def set_up(cls, seed: int):
    """Import, generate inputs and warm up SETUP_REPEATS times; returns the last workload and the median."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = perf_counter()
        workload = cls(import_library(), seed)
        workload.warm_up()
        times.append(perf_counter() - start)
    return workload, statistics.median(times)


def run_pass(workload):
    """One timed pass; an exception from an operation becomes its result.

    A full collection first makes every pass start from the same heap, so
    collector pauses land on the same operations in every pass.
    """
    results, latencies = [], []
    gc.collect()
    begin = perf_counter()
    for op in workload.ops:
        start = perf_counter()
        try:
            result = op()
        except Exception as exc:  # noqa: BLE001 - recorded and reported as a failed operation
            result = exc
        latencies.append(perf_counter() - start)
        results.append(result)
    return perf_counter() - begin, latencies, results


def judge(workload, wall, latencies, results) -> SimpleNamespace:
    """Check a pass's results and digest its output bytes."""
    try:
        outcomes = workload.check(results)
        digest = hashlib.sha256(workload.render(results)).hexdigest()
    except Exception as exc:  # noqa: BLE001 - a result the checks cannot read is a failure
        outcomes = [f"check raised {type(exc).__name__}: {exc}"] * len(results)
        digest = "unreadable"
    for i, result in enumerate(results):
        if isinstance(result, Exception):
            outcomes[i] = f"raised {type(result).__name__}: {result}"
    return SimpleNamespace(
        wall=wall, latencies=latencies, digest=digest,
        ok=outcomes.count(OK), defects=outcomes.count(DEFECT),
        problems=[o for o in outcomes if o not in (OK, DEFECT)],
    )


def measure(workload, seconds: float, tracer: Tracer | None):
    """Run passes until ``seconds`` of pass time; with a tracer, every untraced pass is followed by a traced one."""
    plain, traced, stats, counters, samples = [], [], {}, {}, {}
    spent = 0.0
    while spent < seconds:
        plain.append(judge(workload, *run_pass(workload)))
        spent += plain[-1].wall
        if tracer is None:
            continue
        with workload.tracing(tracer):
            wall, latencies, results = run_pass(workload)
        traced.append(judge(workload, wall, latencies, results))
        spent += wall
        for name, row in tracer.summary().items():
            stats[name] = [a + b for a, b in zip(stats.get(name, [0, 0, 0]), row)]
        counters["trace.spans"] = counters.get("trace.spans", 0) + len(tracer.start)
        for key, value in tracer.counters.items():
            counters[key] = counters.get(key, 0) + value
        for key, values in tracer.samples.items():
            samples.setdefault(key, []).extend(values)
        tracer.reset()
    return plain, traced, stats, counters, samples


def percentile(values, p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload, setup_s: float, passes) -> tuple[dict, dict]:
    latencies = [x for p in passes for x in p.latencies]
    attempted = len(latencies)
    # The highest of p50/p90/p99, up to the workload's own, with >= 10 samples beyond it.
    tail = max((p for p in (50, 90, 99) if p <= workload.tail_percentile
                and attempted * (100 - p) >= 1000), default=50)
    who = resource.RUSAGE_CHILDREN if workload.name == "cold-cli" else resource.RUSAGE_SELF
    wall = statistics.median(p.wall for p in passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "throughput_ops_s": (len(workload.ops) / wall, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_tail_ms": (percentile(latencies, tail) * 1e3, "ms"),
        "ok_share": (sum(p.ok for p in passes) / attempted, "share"),
        "peak_rss_mib": (resource.getrusage(who).ru_maxrss / 1024, "MiB"),
    }
    return metrics, {"latency_tail_percentile": tail, "latency_samples": attempted}


def per_layer(plain, traced, stats, counters, samples) -> dict:
    """Per-layer metrics per traced pass, plus the tracing overhead."""
    n = len(traced)
    fields = {"calls": 0, "total": 1, "self": 2}
    metrics = {}
    for metric, (span, field) in SPAN_METRICS.items():
        value = stats.get(span, [0, 0, 0])[fields[field]] / n
        metrics[metric] = (value, "count") if field == "calls" else (value / 1e9, "s")
    for layer in (*LAYERS, "process"):
        own = sum(row[2] for name, row in stats.items() if name.split(".")[0] == layer)
        metrics[f"{layer}.self_s"] = (own / n / 1e9, "s")
    for name in COUNTER_METRICS:
        metrics[name] = (counters.get(name.removesuffix(".calls"), 0) / n, "count")
    strict = counters.get("strata.relation_pairs", 0) - counters.get("strata.nodes", 0)
    metrics["strata.cover_ratio"] = (counters.get("strata.cover_edges", 0) / strict if strict else 0.0, "ratio")
    for metric, key in SAMPLE_METRICS.items():
        values = samples.get(key)
        metrics[metric] = (statistics.median(values) / 1e6 if values else 0.0, "ms")
    untraced = statistics.median(p.wall for p in plain)
    with_spans = statistics.median(p.wall for p in traced)
    metrics["trace.untraced_pass_s"] = (untraced, "s")
    metrics["trace.traced_pass_s"] = (with_spans, "s")
    metrics["trace.overhead_share"] = (with_spans / untraced - 1, "share")
    metrics["trace.spans"] = (counters.get("trace.spans", 0) / n, "count")
    return metrics


def environment() -> dict:
    sources = sorted((SRC / "newton_strata").glob("*.py"))
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in sources),
    }


def run_one(args) -> int:
    env = environment()
    workload, setup_s = set_up(WORKLOADS[args.workload], args.seed)
    tracer = Tracer() if args.trace else None
    plain, traced, stats, counters, samples = measure(workload, args.seconds, tracer)
    passes = plain + traced
    if args.trace:
        metrics, extra = per_layer(plain, traced, stats, counters, samples), {}
    else:
        metrics, extra = end_to_end(workload, setup_s, plain)
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.problems) for p in passes)
    defects = sum(p.defects for p in passes)
    digests = sorted({p.digest for p in passes})
    env["loadavg_end"] = os.getloadavg()
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": digests[0] if len(digests) == 1 else digests,
        "pass_walls_s": [round(p.wall, 4) for p in plain],
        "traced_pass_walls_s": [round(p.wall, 4) for p in traced],
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        "known_defects": defects, "known_defect_share": defects / attempted,
        **extra, "excluded": EXCLUDED, "env": env,
        "problems": sorted({q for p in passes for q in p.problems})[:10],
    }
    for problem in report["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and imports do not carry over."""
    all_correct = True
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        *_, report_line, result_line = proc.stdout.splitlines()
        report, result = json.loads(report_line), json.loads(result_line)
        all_correct &= result["correct"]
        print(f"{name}: correct={result['correct']} digest={report['digest']}")
        print(f"  failed_share {report['failed_share']:.4f} ({result['failed']} failed "
              f"of {result['attempted']} attempted); known exit-1 defects {report['known_defects']}")
        if "latency_tail_percentile" in report:
            print(f"  latency_tail_ms is p{report['latency_tail_percentile']} "
                  f"of {report['latency_samples']} samples")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<40} {m['value']:>16.6g} {m['unit']}")
    return 0 if all_correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "newton_strata" / "__init__.py").is_file():
        print(f"error: no newton_strata sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
