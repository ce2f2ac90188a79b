"""Tests of the benchmark itself: tiny workloads, the checker, seeding, the refusal path.

Run from the repository root:  python3 -m pytest bench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import workloads
import worker
from rqgames.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def first_cycle(workload, seed, tiny=True):
    return next(workloads.cycles(workload, seed, tiny=tiny))


def run_doc(doc):
    code, out, err, _ = worker.call(main, doc)
    return code, out, err


@pytest.mark.parametrize("workload", workloads.CYCLES)
def test_each_workload_runs_clean_at_tiny_size(workload):
    result = worker.measure(workload, seed=3, seconds=0, tiny=True)
    assert result["failed"] == 0, result["reasons"]
    assert result["attempted"] > 0
    assert all(m["value"] > 0 for m in result["metrics"].values())

    layered = worker.traced(workload, seed=3, seconds=0, tiny=True)
    assert layered["failed"] == 0, layered["reasons"]
    assert set(layered["metrics"]) == set(worker.PER_LAYER_UNITS)
    assert layered["metrics"]["nash.enum_calls"]["value"] > 0


def test_benchmark_json_names_what_the_runs_report():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.CYCLES)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == worker.PER_LAYER_UNITS
    measured = worker.measure("docs_mixed", seed=1, seconds=0, tiny=True)["metrics"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        "setup_s": "s",
        **{name: metric["unit"] for name, metric in measured.items()},
    }


@pytest.mark.parametrize("workload", workloads.CYCLES)
def test_same_seed_same_documents(workload):
    def texts(seed):
        return [(d.argv, d.text) for d in first_cycle(workload, seed)]

    assert texts(11) == texts(11)
    assert texts(11) != texts(12)
    assert [(d.argv, d.text) for d in workloads.warmup(workload, 11, tiny=True)] == [
        (d.argv, d.text) for d in workloads.warmup(workload, 11, tiny=True)
    ]


def anchor_sweep():
    return next(d for d in first_cycle("sweep", 5) if d.expect.get("anchor") == (37.25, 12.75))


def test_checker_accepts_the_paper_anchors():
    fair = next(d for d in first_cycle("docs_mixed", 5) if d.expect.get("anchor") == (74.5, 25.5))
    for doc in (anchor_sweep(), fair):
        assert check.check(doc.expect, *run_doc(doc)) is None


def test_checker_flags_a_perturbed_strategy():
    doc = anchor_sweep()
    code, out, err = run_doc(doc)
    assert "mu=0.5 nu=0.5 pp=37.25 pr=12.75" in out
    bad = out.replace("mu=0.5 nu=0.5", "mu=0.5001 nu=0.5", 1)
    assert "regret" in check.check(doc.expect, code, bad, err)

    game = next(d for d in first_cycle("nash_large", 5) if d.expect["format"] == "csv")
    code, out, err = run_doc(game)
    lines = out.splitlines()
    fields = lines[1].split(",")
    weights = fields[8].split()
    weights[0] = repr(float(weights[0]) + 1e-4)
    fields[8] = " ".join(weights)
    bad = "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n"
    assert check.check(game.expect, code, bad, err) is not None


def test_checker_flags_a_wrong_exit_code():
    docs = first_cycle("docs_mixed", 5)
    accepted = next(d for d in docs if d.expect["command"] == "nash" and "reject" not in d.expect)
    rejected = [d for d in docs if "reject" in d.expect]
    assert {d.expect["reject"] for d in rejected} == set(workloads.REJECTS)
    code, out, err = run_doc(accepted)
    assert check.check(accepted.expect, code, out, err) is None
    assert "exit 3" in check.check(accepted.expect, 3, out, "error: boom")
    for doc in rejected:
        code, out, err = run_doc(doc)
        assert check.check(doc.expect, code, out, err) is None
        assert "expected exit 2" in check.check(doc.expect, 3, out, err)
        assert "expected exit 2" in check.check(doc.expect, 0, "equilibria: 1\n", "")


@pytest.mark.parametrize("out_format", ("csv", "table"))
def test_checker_flags_a_dropped_sweep_row(out_format):
    doc = next(d for d in first_cycle("sweep", 5) if d.expect["format"] == out_format and d.expect["count"] > 9)
    code, out, err = run_doc(doc)
    lines = out.splitlines()
    assert check.check(doc.expect, code, out, err) is None
    dropped = "\n".join(lines[:3] + lines[4:]) + "\n"
    assert "sweep rows" in check.check(doc.expect, code, dropped, err)


def test_checker_flags_an_even_count_in_a_nondegenerate_game():
    for doc in first_cycle("nash_large", 7):
        if doc.expect["nondegenerate"] and doc.expect["format"] == "csv":
            code, out, err = run_doc(doc)
            lines = out.splitlines()
            doubled = "\n".join(lines + lines[1:2]) + "\n"
            assert "odd count" in check.check(doc.expect, code, doubled, err)
            return
    pytest.fail("no nondegenerate csv game in the cycle")


def test_run_refuses_outside_a_checkout(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
