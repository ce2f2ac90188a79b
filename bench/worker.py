"""Run one workload in this process: warm up, measure, check every output.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE

``run.py`` starts this as a fresh process per workload, from the root of
a checkout with ``PYTHONPATH=src``.  Documents go one at a time through
``rqgames.cli.main`` with ``--spec -`` (one client, closed loop), in whole
cycles until SECONDS have passed.  The last stdout line is one JSON object
with the counts, the metrics and the report lines for ``run.py``.

With TRACE 1 every document runs twice, once plain and once traced, in
alternating order; the metrics are then the per-layer ones, per cycle.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import calibrate
import check
import workloads
from spans import LAYERS, Tracer

SPANS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

CALIBRATE_EVERY_S = 0.5


def call(main, doc):
    """One CLI call on a document: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(doc.text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            started = time.perf_counter()
            try:
                code = main(list(doc.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash fails this document, not the run
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue(), elapsed


class Tally:
    """Checked documents: how many ran, how many were wrong, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, doc, code, out, err):
        self.attempted += 1
        problem = check.check(doc.expect, code, out, err)
        if problem:
            self.fail(doc, problem)

    def fail(self, doc, problem):
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(f"{' '.join(doc.argv[:1] + doc.argv[3:])}: {problem}")


def _warm_up(main, workload, seed, tiny, tally):
    for doc in workloads.warmup(workload, seed, tiny):
        tally.record(doc, *call(main, doc)[:3])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, tiny: bool = False) -> dict:
    """End-to-end metrics of one untraced run, scaled to the reference host speed."""
    from rqgames.cli import main

    tally = Tally()
    _warm_up(main, workload, seed, tiny, tally)
    stamps, latencies, states, cycles = [], [], 0, 0
    calibrations = [(time.perf_counter(), calibrate.task_s())]
    stream = workloads.cycles(workload, seed, tiny=tiny)
    started = time.perf_counter()
    while cycles == 0 or time.perf_counter() - started < seconds:
        for doc in next(stream):
            stamps.append(len(calibrations) - 1)
            code, out, err, elapsed = call(main, doc)
            latencies.append(elapsed)
            states += doc.states
            tally.record(doc, code, out, err)
            if time.perf_counter() - calibrations[-1][0] >= CALIBRATE_EVERY_S:
                calibrations.append((time.perf_counter(), calibrate.task_s()))
        cycles += 1
    calibrations.append((time.perf_counter(), calibrate.task_s()))
    # each document is scaled by the calibrations just before and just after it
    timings = [c for _, c in calibrations]
    scaled = [calibrate.scaled(elapsed, timings[i], timings[i + 1]) for i, elapsed in zip(stamps, latencies)]
    busy = sum(scaled)
    ordered = sorted(scaled)
    rank = math.ceil(0.99 * len(ordered))
    measured = sorted(latencies)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "rows_per_s": _metric(states / busy, "1/s"),
        "docs_per_s": _metric(len(scaled) / busy, "1/s"),
        "doc_ms_p50": _metric(statistics.median(ordered) * 1e3, "ms"),
        "doc_ms_p99": _metric(ordered[rank - 1] * 1e3, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    report = [
        f"{cycles} cycles, {len(latencies)} timed documents, {states} states, "
        f"{sum(latencies):.3f} s in rqgames.cli.main as measured",
        f"host speed: {len(timings)} timings of the calibration task, mean {statistics.fmean(timings) * 1e3:.3f} ms; "
        f"times are scaled to the {calibrate.REFERENCE_S * 1e3:g} ms reference",
        f"as measured: rows_per_s {states / sum(latencies):.6g}, docs_per_s {len(latencies) / sum(latencies):.6g}, "
        f"doc_ms_p50 {statistics.median(measured) * 1e3:.6g}, doc_ms_p99 {measured[rank - 1] * 1e3:.6g}",
        f"doc_ms_p99 is the nearest-rank 99th percentile of n={len(ordered)}; "
        f"{len(ordered) - rank} documents lie beyond it",
    ]
    return _result(tally, metrics, report)


def _result(tally, metrics, report):
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "reasons": tally.reasons,
        "metrics": metrics,
        "report": report,
    }


def traced(workload: str, seed: int, seconds: float, tiny: bool = False, spans_path: str | None = None) -> dict:
    """Per-layer metrics of one run in which each document runs plain and traced."""
    import rqgames.cli
    import rqgames.induce
    import rqgames.nash

    main = rqgames.cli.main
    tracer = Tracer({"cli": rqgames.cli, "induce": rqgames.induce, "nash": rqgames.nash})
    traced_main = tracer.root(main)
    tally = Tally()
    _warm_up(main, workload, seed, tiny, tally)
    plain_s = traced_s = 0.0
    rejects = cycles = 0
    stream = workloads.cycles(workload, seed, tiny=tiny)
    started = time.perf_counter()
    while cycles == 0 or time.perf_counter() - started < seconds:
        for doc in next(stream):
            outputs = []
            for with_trace in (False, True) if tally.attempted % 4 == 0 else (True, False):
                if with_trace:
                    tracer.doc_id = tally.attempted
                    tracer.install()
                try:
                    code, out, err, elapsed = call(traced_main if with_trace else main, doc)
                finally:
                    tracer.uninstall()
                tally.record(doc, code, out, err)
                outputs.append((code, out))
                if with_trace:
                    traced_s += elapsed
                    rejects += code == 2
                else:
                    plain_s += elapsed
            if outputs[0] != outputs[1]:
                tally.fail(doc, "tracing changed the output")
        cycles += 1
    if spans_path:
        tracer.save(spans_path)
    return _result(tally, *_layer_metrics(tracer.summary(), cycles, rejects, plain_s, traced_s))


# Per-layer metrics for the result object: each is present on every
# workload.  Times that are zero on some workload (the classifier, the
# grid fallback, enumeration by game size) go to the report lines only.
PER_LAYER_UNITS = {
    "cli.main_s": "s",
    "cli.argparse_s": "s",
    "cli.parse_s": "s",
    "cli.render_s": "s",
    "cli.rejects": "count",
    "games.build_s": "s",
    "hilbert.state_s": "s",
    "hilbert.probs_s": "s",
    "induce.induce_s": "s",
    "induce.calls": "count",
    "induce.cells": "count",
    "nash.enum_s": "s",
    "nash.enum_calls": "count",
    "nash.enum_pairs": "count",
    "nash.us_per_pair": "us",
    "nash.equilibria": "count",
    "nash.verify_s": "s",
    "nash.verify_calls": "count",
    "nash.certified_ratio": "ratio",
    "nash.grid_fallbacks": "count",
    "trace_overhead_pct": "%",
    "trace.accounted_pct": "%",
}


def _layer_metrics(summary, cycles, rejects, plain_s, traced_s):
    values = {k: v / cycles for k, v in summary.items() if isinstance(v, (int, float))}
    values["cli.rejects"] = rejects / cycles
    values["nash.us_per_pair"] = summary["nash.enum_s"] / max(summary["nash.enum_pairs"], 1) * 1e6
    values["nash.certified_ratio"] = summary["nash.certified"] / max(summary["nash.verify_calls"], 1)
    values["trace_overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    values["trace.accounted_pct"] = summary["accounted_s"] / traced_s * 100.0
    metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}
    report = [f"{cycles} cycles traced; values are per cycle; traced documents took {traced_s / cycles:.4f} s per cycle"]
    for name in LAYERS + tuple(n for n in PER_LAYER_UNITS if n not in LAYERS):
        unit = PER_LAYER_UNITS.get(name, "s")
        note = "" if name in PER_LAYER_UNITS else "   (report only)"
        report.append(f"  {name:<22} {values[name]:>14.6g} {unit}{note}")
    report.append("  nash.enum_pairs is computed from game sizes as sum_k C(m,k)*C(n,k), not counted")
    for size, (own, calls, pairs) in sorted(summary["enum_by_size"].items()):
        report.append(
            f"  nash.enum_s.{size:<9} {own / cycles:>14.6g} s   ({calls / cycles:g} calls and "
            f"{pairs / cycles:g} pairs per cycle, {own / pairs * 1e6:.4g} us/pair)   (report only)"
        )
    return metrics, report


def main(argv) -> int:
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        result = traced(workload, seed, seconds, spans_path=os.path.join(SPANS_DIR, f"spans-{workload}.npz"))
    else:
        result = measure(workload, seed, seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
