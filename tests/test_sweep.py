"""The chunked ``rqgames sweep`` against a row-by-row reference and golden files."""

import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def kernel_on_and_off(monkeypatch):
    """Render every chunk through _fixed_9g's texts, then every chunk through "%.9g" alone."""
    for minimum in (0, 1 << 62):
        monkeypatch.setattr(cli, "_FIXED_9G_MIN", minimum)
        yield minimum


def assert_equal_lines(got, expected):
    """``assert got == expected`` on two lists of lines.  A failure names the
    first line that differs, by number, with both versions of it, instead of
    the whole lists, whose diff takes pytest minutes on a sweep."""
    if got != expected:
        at = next((i for i, (u, v) in enumerate(zip(got, expected)) if u != v), min(len(got), len(expected)))
        got_line, expected_line = (lines[at] if at < len(lines) else "(no line)" for lines in (got, expected))
        raise AssertionError(
            f"line {at + 1} differs ({len(got)} lines, {len(expected)} expected):\n"
            f"  got      {got_line!r}\n  expected {expected_line!r}"
        )


def assert_same_lines(text, eps, out_format="csv"):
    sweep = parse_sweep_spec(text)
    got, expected = ("\n".join(run(sweep, eps, out_format)) for run in (run_sweep, rowwise_run_sweep))
    assert_equal_lines(got.split("\n"), expected.split("\n"))


@pytest.mark.parametrize("eps", (1e-300, 1e-9, 5.0))
def test_every_basis_pair_and_output_subset_matches_the_row_by_row_sweep(eps):
    # 24 documents per eps; the output subsets rotate so each eps sees all seven
    for i, ((basis_a, basis_b), out_format) in enumerate(itertools.product(BASIS_PAIRS, ("csv", "table"))):
        outputs = OUTPUT_SUBSETS[i % len(OUTPUT_SUBSETS)]
        triple = ((99, 50, 1), (3, 2, 1))[i // 2 % 2]
        text = sweep_doc(list(basis_a), list(basis_b), 37, start="-pi/3", outputs=outputs, triple=triple)
        assert_same_lines(text, eps, out_format=out_format)


@pytest.mark.parametrize("count", (2, SWEEP_CHUNK, SWEEP_CHUNK + 1, 2 * SWEEP_CHUNK + 3))
def test_chunk_boundaries_match_the_row_by_row_sweep(monkeypatch, count):
    # at eps 1e-300 a fair share of the rows goes to support_enumeration
    for _ in kernel_on_and_off(monkeypatch):
        assert_same_lines(sweep_doc([1, 1], [0, 0], count, start="-pi", stop="pi", outputs=["equilibria"]), 1e-300)


def test_full_turn_with_two_equilibria_matches_the_row_by_row_sweep(monkeypatch):
    text = sweep_doc([0, 1], [1, 1], 2001)
    sweep = parse_sweep_spec(text)
    expected = rowwise_run_sweep(sweep, 1e-9, "table")
    for _ in kernel_on_and_off(monkeypatch):
        lines = "\n".join(run_sweep(sweep, 1e-9, "table")).split("\n")
        assert_equal_lines(lines, expected)
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
    expected = "\n".join(cli.fmt(v) for v in awkward)
    assert "\n".join(["%.9g"] * len(values)) % tuple(values.tolist()) == expected
    # and through a bytes template, as the chunk renderer's pass runs
    assert (b"\n".join([b"%.9g"] * len(values)) % tuple(values.tolist())).decode("ascii") == expected


def assert_decided_as_percent_9g(values):
    """The texts ``_fixed_9g`` decides for ``values`` are those "%.9g" prints; the positions it decides."""
    values = np.asarray(values, dtype=float)
    at, texts = cli._fixed_9g(values)
    assert texts.dtype == np.dtype("S16") and len(texts) == len(at)
    assert [b"%.9g" % v for v in values[at].tolist()] == texts.tolist()
    return set(at.tolist())


def test_fixed_9g_prints_as_percent_9g_at_every_exponent():
    rng = np.random.default_rng(24)
    for exponent in range(-6, 11):
        mantissas = np.concatenate([rng.uniform(1.0, 10.0, 3000), np.round(rng.uniform(1.0, 10.0, 3000), rng.integers(0, 9))])
        values = mantissas * 10.0**exponent * rng.choice([-1.0, 1.0], len(mantissas))
        decided = assert_decided_as_percent_9g(values)
        if -4 <= exponent <= 8:  # fixed notation: all but the rare value within 1e-6 of a tie
            assert len(decided) >= 0.99 * len(values)
        elif exponent >= 9:  # exponent form
            assert not decided
    # whole numbers and short decimals, whose trailing zeros "%.9g" drops
    whole = rng.integers(1, 10**9, 5000).astype(float)
    assert_decided_as_percent_9g(np.concatenate([whole, whole / 10.0 ** rng.integers(0, 13, 5000), -whole / 1e4]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
def test_fixed_9g_decides_only_what_percent_9g_prints(values):
    assert_decided_as_percent_9g(values)


def test_fixed_9g_leaves_ties_carries_and_other_forms_undecided():
    ties = [123456789.5, 12345678.25, 1234567.125]  # exact binary halves at the ninth digit
    carries = [9.9999999995, 99999999.95, 999999999.5]  # round up into the next decade
    outside = [1e9, 1e10, 1.5e9, 9.99999999e-5, 5e-5, 1e-300, np.finfo(float).max]
    subnormal = [np.nextafter(0.0, 1.0), 2.5e-310, np.finfo(float).tiny / 2]
    odd = [math.nan, math.inf, -math.inf, 0.0, -0.0]
    undecided = ties + carries + outside + subnormal + odd
    undecided += [-v for v in undecided]
    assert not assert_decided_as_percent_9g(undecided)
    # either side of the ends of fixed notation, which "%.9g" may print either way
    edges = [np.nextafter(v, toward) for v in (1e-4, 1e9) for toward in (0.0, math.inf)]
    edges += [1e-4, 1.00000001e-4, 999999999.0, 999999999.4, 999999999.6, 9.999999995e-5]
    assert assert_decided_as_percent_9g(edges + [-v for v in edges]) >= {1, 4, 5, 6, 7}
    assert not assert_decided_as_percent_9g(np.zeros(0))


@pytest.mark.parametrize("out_format", ("csv", "table"))
def test_rows_of_many_values_print_as_fmt(monkeypatch, out_format):
    # row 3 prints 5 + 4 * 20 = 85 values, others fewer or none; the exact 0s
    # and 1s come from the templates, the values next to them through "%.9g"
    rng = np.random.default_rng(11)
    pool = [0.0, -0.0, 1.0, 0.5, -1.0, 2.0, 1e-300, math.pi, np.nextafter(1.0, 2.0), np.nextafter(0.0, -1.0)]
    count = 40
    games = np.sort(np.concatenate([rng.integers(0, count, 150), np.full(20, 3)]))
    head, labels = rng.choice(pool, (count, 5)), rng.random(count) < 0.5
    profiles = rng.choice(pool, (len(games), 4))
    columns = ["theta", "p00", "p01", "p10", "p11", "label", "equilibria"]
    expected = []
    for r in range(count):
        row = [cli.fmt(v) for v in head[r]] + [("aligned", "opposed")[int(labels[r])]]
        row.append(";".join("mu=%s nu=%s pp=%s pr=%s" % tuple(map(cli.fmt, p)) for p in profiles[games == r]))
        expected.append(",".join(row) if out_format == "csv" else "; ".join(f"{n}={v}" for n, v in zip(columns, row)))
    for _ in kernel_on_and_off(monkeypatch):
        assert_equal_lines(cli._render_rows(columns, out_format, head, labels, games, profiles).split("\n"), expected)
    assert 5 + 4 * np.count_nonzero(games == 3) > 70


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
    # exact re-check of their mix each
    chunks = []  # per chunk: rows with two equilibria, rows whose mix is re-checked exactly
    inside = []  # the row-by-row reference re-checks too; only the chunks' re-checks count
    sweep_rows, exact_profile = cli._sweep_rows, nash._exact_profile

    def counting_rows(*args):
        chunks.append([0, 0])
        inside.append(True)
        text = sweep_rows(*args)
        inside.pop()
        chunks[-1][0] = text.count(";mu=")
        return text

    def counting_exact_profile(*args):
        chunks[-1][1] += bool(inside)
        return exact_profile(*args)

    monkeypatch.setattr(cli, "_sweep_rows", counting_rows)
    monkeypatch.setattr(nash, "_exact_profile", counting_exact_profile)
    column = 0 if special == "two equilibria" else 1
    for _ in kernel_on_and_off(monkeypatch):
        chunks.clear()
        assert_same_lines(text, eps, out_format=out_format)
        assert sum(chunk[column] > 0 for chunk in chunks) >= 2


def test_non_finite_sweep_ends_fail_fast(tmp_path, capsys):
    # a literal of 1e400 reads as infinity and is rejected with the document,
    # and so are finite ends whose span overflows, which would give NaN and
    # infinite thetas
    cases = [
        ("-1e400", 0, 2, "error: sweep.theta.start: expected a finite angle, got -inf\n"),
        (0, "1e400", 2, "error: sweep.theta.stop: expected a finite angle, got inf\n"),
        ("-1e308", "1e308", 2, "error: sweep.theta: stop 1e+308 minus start -1e+308 is beyond float range\n"),
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
            ["--eps", "1e-300"],
        ),
    ],
)
def test_golden_csv_byte_for_byte(tmp_path, capsys, name, text, flags):
    # captured from the row-by-row implementation; both files hold rows whose mix
    # certifies only in exact rationals
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert main(["sweep", "--spec", str(path), "--format", "csv"] + flags) == 0
    assert_equal_lines(capsys.readouterr().out.split("\n"), (DATA / name).read_text().split("\n"))


@pytest.mark.parametrize("out_format, ext", [("table", "txt"), ("csv", "csv")])
@pytest.mark.parametrize("name", ["sweep_two_equilibria", "sweep_opposed"])
def test_default_eps_sweeps_print_their_golden_output(capsys, name, out_format, ext):
    # 401 thetas over a full turn: four rows with two equilibria, and 396
    # opposed rows beside 5 aligned ones
    spec = str(DATA / f"{name}.json")
    assert main(["sweep", "--spec", spec, "--format", out_format]) == 0
    assert_equal_lines(capsys.readouterr().out.split("\n"), (DATA / f"{name}.{ext}").read_text().split("\n"))


def test_a_benchmark_sized_sweep_prints_its_pinned_output(monkeypatch, capsys):
    # A 20 001-row sweep shaped like the benchmark's largest, whose chunks print
    # enough values for _fixed_9g at the default _FIXED_9G_MIN.  The sha256 of
    # each output was taken before _fixed_9g existed.
    calls = []
    kernel = cli._fixed_9g
    monkeypatch.setattr(cli, "_fixed_9g", lambda values: calls.append(len(values)) or kernel(values))
    for line in (DATA / "sweep_entangled_20001.sha256").read_text().splitlines():
        digest, name = line.split()
        out_format = {".csv": "csv", ".txt": "table"}[Path(name).suffix]
        assert main(["sweep", "--spec", str(DATA / "sweep_entangled_20001.json"), "--format", out_format]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    assert len(calls) == 2 * 10 and min(calls) >= cli._FIXED_9G_MIN


@pytest.mark.parametrize("module, name", [(hilbert, "NORM_TOL"), (nash, "SIMPLEX_SUM_TOL")])
def test_rows_failing_a_check_raise_the_row_by_row_error(monkeypatch, module, name):
    # With a zero tolerance, rows whose norm is off by one rounding fail the
    # state check, as single states do.  Rows whose mix weights sum to 1 only
    # within rounding go to the exact re-check, as single games do, and the
    # sweep prints what the row-by-row reference prints.
    monkeypatch.setattr(module, name, 0.0)
    sweep = parse_sweep_spec(sweep_doc([1, 1], [0, 0], SWEEP_CHUNK + 500, start=0.1, stop=3))
    if module is nash:
        exact = []
        exact_profile = nash._exact_profile
        monkeypatch.setattr(nash, "_exact_profile", lambda *args: exact.append(args) or exact_profile(*args))
        text = "\n".join(run_sweep(sweep, 1e-9, "csv"))
        assert exact  # at the default sum tolerance no row of this sweep is re-checked
        assert_equal_lines(text.split("\n"), rowwise_run_sweep(sweep, 1e-9, "csv"))
        return
    with pytest.raises(GameError) as expected:
        rowwise_run_sweep(sweep, 1e-9, "csv")
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        run_sweep(sweep, 1e-9, "csv")


def test_sweep_raises_at_the_first_overflowing_row(tmp_path):
    # Row 5 (theta = 0.98...) is the first whose induced game overflows to infinity;
    # it raises the error nash gives that single state, with no numpy warning.
    doc = json.loads(sweep_doc([0, 0], [1, 1], 9, stop="pi/2"))
    doc["payoffs"] = {"matrices": {"proposer": [[1.7976931348623157e308] * 2] * 2, "responder": [[1, 0], [0, 1]]}}
    # the reference's sum overflows with a warning on its way to the same error
    with pytest.raises(GameError, match="^payoff entries must be finite$"), np.errstate(over="ignore"):
        rowwise_run_sweep(parse_sweep_spec(json.dumps(doc)), 1e-9, "csv")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    process = subprocess.run(
        [sys.executable, "-m", "rqgames.cli", "sweep", "--spec", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        check=False,
    )
    assert (process.returncode, process.stdout, process.stderr) == (3, "", "error: payoff entries must be finite\n")
    # without the equilibria the rows have no game to overflow
    doc["sweep"]["outputs"] = ["probs", "label"]
    path.write_text(json.dumps(doc))
    assert main(["sweep", "--spec", str(path)]) == 0
