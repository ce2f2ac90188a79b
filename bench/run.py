"""The rqgames benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload sweep|nash_large|docs_mixed --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src``.
With ``--trace 0`` it measures set-up time (fresh interpreters importing
``rqgames.cli``) and then starts one fresh worker process that warms up
and measures the workload; the last stdout line holds the end-to-end
metrics.  With ``--trace 1`` the worker runs each document plain and
traced, and the last line holds the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep", "nash_large", "docs_mixed")
SETUP_LAUNCHES = 15
DEADLINE_S = 170.0  # a run must end within 180 s
IMPORT = [sys.executable, "-c", "import rqgames.cli"]


def child_env() -> dict:
    """Single-threaded numpy and the checkout's own ``src`` on the path."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing rqgames.cli: scaled, as measured."""
    subprocess.run(IMPORT, env=env, check=True)  # untimed: writes the bytecode cache
    before = calibrate.task_s()
    measured, scaled = [], []
    for _ in range(SETUP_LAUNCHES):
        started = time.perf_counter()
        subprocess.run(IMPORT, env=env, check=True)
        measured.append(time.perf_counter() - started)
        after = calibrate.task_s()
        scaled.append(calibrate.scaled(measured[-1], before, after))
        before = after
    return statistics.median(scaled), statistics.median(measured)


def run_worker(args, env: dict, deadline: float) -> dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), args.workload, str(args.seed), str(args.seconds), str(args.trace)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=deadline - time.monotonic())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join("src", "rqgames", "cli.py")):
        print("error: run from the root of an rqgames checkout (src/rqgames/cli.py not found)", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup_s, setup_measured = (None, None) if args.trace else setup_seconds(env)
        result = run_worker(args, env, deadline)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for line in result["report"]:
        print(line)
    if setup_s is not None:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
        attempted, failed = result["attempted"], result["failed"]
        for name, metric in metrics.items():
            print(f"  {name:<12} {metric['value']:>14.6g} {metric['unit']}")
        print(f"  {'fail_ratio':<12} {failed / attempted:>14.6g} ratio  ({failed} of {attempted} documents)")
        print(
            f"setup_s is the median of {SETUP_LAUNCHES} launches of: python -c 'import rqgames.cli' "
            f"({setup_measured:.6g} s as measured)"
        )
    for reason in result["reasons"]:
        print(f"failed: {reason}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
