"""The chunked ``rqgames sweep`` against a row-by-row reference and golden files."""

import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from helpers import rowwise_run_sweep
from rqgames import GameError, cli, hilbert, nash
from rqgames.cli import SWEEP_CHUNK, SWEEP_OUTPUTS, main, parse_sweep_spec, run_sweep

DATA = Path(__file__).parent / "data"
OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))
BASIS_PAIRS = [(a, b) for a in OUTCOMES for b in OUTCOMES if a != b]
OUTPUT_SUBSETS = [
    list(subset) for size in (1, 2, 3) for subset in itertools.combinations(SWEEP_OUTPUTS, size)
]


def sweep_doc(basis_a, basis_b, count, start=0, stop="2*pi", outputs=None, triple=(99, 50, 1)):
    block = {"theta": {"start": start, "stop": stop, "count": count}, "basis_a": basis_a, "basis_b": basis_b}
    if outputs is not None:
        block["outputs"] = outputs
    a, b, c = triple
    return json.dumps({"payoffs": {"ultimatum": {"a": a, "b": b, "c": c}}, "sweep": block})


def assert_same_lines(text, eps, out_format="csv"):
    sweep = parse_sweep_spec(text)
    assert run_sweep(sweep, eps, out_format) == rowwise_run_sweep(sweep, eps, out_format)


@pytest.mark.parametrize("eps", (1e-300, 1e-9, 5.0))
def test_every_basis_pair_and_output_subset_matches_the_row_by_row_sweep(eps):
    # 24 documents per eps; the output subsets rotate so each eps sees all seven
    for i, ((basis_a, basis_b), out_format) in enumerate(itertools.product(BASIS_PAIRS, ("csv", "table"))):
        outputs = OUTPUT_SUBSETS[i % len(OUTPUT_SUBSETS)]
        triple = ((99, 50, 1), (3, 2, 1))[i // 2 % 2]
        text = sweep_doc(list(basis_a), list(basis_b), 37, start="-pi/3", outputs=outputs, triple=triple)
        assert_same_lines(text, eps, out_format=out_format)


@pytest.mark.parametrize("count", (2, SWEEP_CHUNK, SWEEP_CHUNK + 1, 2 * SWEEP_CHUNK + 3))
def test_chunk_boundaries_match_the_row_by_row_sweep(count):
    # at eps 1e-300 a fair share of the rows goes to support_enumeration
    assert_same_lines(sweep_doc([1, 1], [0, 0], count, start="-pi", stop="pi", outputs=["equilibria"]), 1e-300)


def test_full_turn_with_two_equilibria_matches_the_row_by_row_sweep():
    text = sweep_doc([0, 1], [1, 1], 2001)
    sweep = parse_sweep_spec(text)
    lines = run_sweep(sweep, 1e-9, "table")
    assert lines == rowwise_run_sweep(sweep, 1e-9, "table")
    assert sum(";mu=" in line for line in lines) == 4


def test_percent_9g_prints_as_fmt():
    # the chunk renderer prints v + 0.0 through "%.9g" where a row prints fmt(v)
    rng = np.random.default_rng(7)
    tiny = np.nextafter(0.0, 1.0)
    awkward = [-0.0, 0.0, tiny, -tiny, 2.5e-310, np.finfo(float).tiny, 1e16, 1e-5, 1.5e-5, 9.9999999995e-5]
    awkward += [123456789.5, 999999999.5, 1e21, 0.1 + 0.2, math.pi, np.finfo(float).max, math.nan]
    awkward += [math.inf, -math.inf]
    awkward += (rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 300, 2000)).tolist()
    awkward += rng.integers(0, 2**63, 500).astype(float).tolist()
    values = np.array(awkward) + 0.0
    assert "\n".join(["%.9g"] * len(values)) % tuple(values.tolist()) == "\n".join(cli.fmt(v) for v in awkward)


@pytest.mark.parametrize("out_format", ("csv", "table"))
def test_negative_zero_payoffs_print_as_zero(out_format):
    # explicit matrices with -0.0 entries give payoffs of -0.0, which fmt prints as 0
    payoffs = {"proposer": [[-0.0, -0.0], [-1.0, -0.0]], "responder": [[-0.0, -1.0], [-2.0, -0.0]]}
    doc = json.loads(sweep_doc([1, 1], [0, 0], 9, stop="pi"))
    doc["payoffs"] = {"matrices": payoffs}
    assert_same_lines(json.dumps(doc), 1e-9, out_format=out_format)


@pytest.mark.parametrize("out_format", ("csv", "table"))
def test_pure_cells_beside_an_exact_mix_match_the_row_by_row_sweep(out_format):
    # at eps 1e-300 most rows have two pure equilibria and a mix that certifies only
    # exactly; each profile prints once
    doc = json.loads(sweep_doc([0, 0], [0, 1], 241, start="-pi", stop="pi"))
    doc["payoffs"] = {"matrices": {"proposer": [[2, 0], [0, 1]], "responder": [[1, 0], [0, 2]]}}
    assert_same_lines(json.dumps(doc), 1e-300, out_format=out_format)


@pytest.mark.parametrize("out_format", ("csv", "table"))
@pytest.mark.parametrize(
    "text, eps, special",
    [
        # the aligned pair's exact indifferences: two equilibria on rows 500 and 1500 in
        # the first chunk, 2500 and 3500 in the second
        (sweep_doc([0, 1], [1, 1], 4001), 1e-9, "two equilibria"),
        (sweep_doc([1, 1], [0, 0], 2 * SWEEP_CHUNK + 3, start="-pi", stop="pi"), 1e-300, "grid fallback"),
    ],
    ids=["two-equilibria", "grid-fallback"],
)
def test_special_rows_in_several_chunks_match_the_row_by_row_sweep(monkeypatch, text, eps, special, out_format):
    # "grid fallback" names the rows that once took the grid; they now get one
    # support_enumeration call each
    chunks = []  # per chunk: rows with two equilibria, rows handed to support_enumeration
    sweep_rows, enumeration = cli._sweep_rows, cli.support_enumeration

    def counting_rows(*args):
        chunks.append([0, 0])
        lines = sweep_rows(*args)
        chunks[-1][0] = sum(";mu=" in line for line in lines)
        return lines

    def counting_enumeration(*args):
        chunks[-1][1] += 1
        return enumeration(*args)

    monkeypatch.setattr(cli, "_sweep_rows", counting_rows)
    monkeypatch.setattr(cli, "support_enumeration", counting_enumeration)
    assert_same_lines(text, eps, out_format=out_format)
    column = 0 if special == "two equilibria" else 1
    assert sum(chunk[column] > 0 for chunk in chunks) >= 2


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_sweep_ends_fail_fast(tmp_path, capsys):
    # a literal of 1e400 reads as infinity and is rejected with the document;
    # finite ends whose step overflows give NaN and infinite thetas, which
    # fail the state check like any other row
    cases = [
        ("-1e400", 0, 2, "error: sweep.theta.start: expected a finite angle, got -inf\n"),
        (0, "1e400", 2, "error: sweep.theta.stop: expected a finite angle, got inf\n"),
        ("-1e308", "1e308", 3, "error: squared amplitudes sum to nan, expected 1 within 1e-09\n"),
    ]
    path = tmp_path / "spec.json"
    for start, stop, code, err in cases:
        text = sweep_doc([1, 1], [0, 0], 5).replace('"start": 0', f'"start": {start}')
        path.write_text(text.replace('"stop": "2*pi"', f'"stop": {stop}'))
        assert main(["sweep", "--spec", str(path)]) == code
        assert capsys.readouterr() == ("", err)


def test_chunks_see_the_row_by_row_thetas(monkeypatch):
    seen = []
    sweep_rows = cli._sweep_rows

    def recording(sweep, thetas, *args):
        seen.append(thetas)
        return sweep_rows(sweep, thetas, *args)

    monkeypatch.setattr(cli, "_sweep_rows", recording)
    sweep = parse_sweep_spec(sweep_doc([1, 1], [0, 0], 2 * SWEEP_CHUNK + 3, start=0.1, stop=0.3))
    run_sweep(sweep, 1e-9, "csv")
    step = (sweep.stop - sweep.start) / (sweep.count - 1)
    expected = [sweep.start + i * step for i in range(sweep.count - 1)] + [sweep.stop]
    assert [len(t) for t in seen] == [SWEEP_CHUNK, SWEEP_CHUNK, 3]
    assert np.concatenate(seen).tolist() == expected


@pytest.mark.parametrize(
    "name, text, flags",
    [
        ("sweep_fallback_1e-14.csv", sweep_doc([0, 0], [1, 1], 241), ["--eps", "1e-14"]),
        (
            "sweep_fallback_1e-300.csv",
            sweep_doc([1, 1], [0, 0], 97, start="-pi/3", stop="pi", triple=(3, 2, 1)),
            ["--eps", "1e-300", "--resolution", "8"],  # the resolution is accepted and unused
        ),
    ],
)
def test_golden_csv_byte_for_byte(tmp_path, capsys, name, text, flags):
    # captured from the row-by-row implementation; both files hold rows whose mix
    # certifies only in exact rationals
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["sweep", "--spec", str(path), "--format", "csv"] + flags) == 0
    assert capsys.readouterr().out == (DATA / name).read_text()


@pytest.mark.parametrize("module, name", [(hilbert, "NORM_TOL"), (nash, "SIMPLEX_SUM_TOL")])
def test_rows_failing_a_check_raise_the_row_by_row_error(monkeypatch, module, name):
    # With a zero tolerance, rows whose norm or mix weights are off by one
    # rounding fail the state check or mixed_strategy, as single states do.
    monkeypatch.setattr(module, name, 0.0)
    sweep = parse_sweep_spec(sweep_doc([1, 1], [0, 0], SWEEP_CHUNK + 500, start=0.1, stop=3))
    with pytest.raises(GameError) as expected:
        rowwise_run_sweep(sweep, 1e-9, "csv")
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        run_sweep(sweep, 1e-9, "csv")
