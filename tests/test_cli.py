"""Document parsing, rendering and the command-line surface."""

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqgames import ParseError, ValidationError, cli, nash
from rqgames.cli import main, parse_angle, parse_spec, parse_sweep_spec

from mutated_documents import GOLDEN, documents, outcome

ENTANGLED_DOC = json.dumps(
    {
        "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
        "state": {"bell": {"theta": "pi/4", "basis_a": [1, 1], "basis_b": [0, 0]}},
    }
)

# amplitude form keeps the two coefficients bit-identical, so both
# probability differences print as exact zeros
FAIR_DOC = json.dumps(
    {
        "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
        "state": {"amplitudes": {"matrix": [[0, 1], [0, 1]], "normalize": True}},
    }
)

SWEEP_DOC = json.dumps(
    {
        "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
        "sweep": {
            "theta": {"start": 0, "stop": "pi/4", "count": 2},
            "basis_a": [1, 1],
            "basis_b": [0, 0],
        },
    }
)


def write(tmp_path, text, name="spec.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_angle_accepts_symbolic_pi():
    assert parse_angle("pi/4", "f") == pytest.approx(math.pi / 4, abs=0)
    assert parse_angle("3*pi/4", "f") == pytest.approx(3 * math.pi / 4, abs=1e-15)
    assert parse_angle("-pi/2", "f") == pytest.approx(-math.pi / 2, abs=0)
    assert parse_angle("pi", "f") == math.pi
    assert parse_angle(0.25, "f") == 0.25
    assert parse_angle("0.25", "f") == 0.25
    with pytest.raises(ValidationError):
        parse_angle("two pi", "f")


def test_parse_spec_builds_the_entangled_setup():
    doc = parse_spec(ENTANGLED_DOC)
    assert doc.payoffs.dims == (2, 2)
    r = 1 / np.sqrt(2)
    assert np.allclose(doc.state.amps, [[r, 0], [0, r]], atol=1e-15)
    assert doc.moves_proposer.perms == ((1, 0), (0, 1))
    assert doc.eps is None


def test_parse_spec_explicit_matrices_and_amplitudes():
    doc = parse_spec(
        json.dumps(
            {
                "payoffs": {
                    "matrices": {
                        "proposer": [[99, 0], [50, 0]],
                        "responder": [[1, 0], [50, 0]],
                    }
                },
                "state": {
                    "amplitudes": {
                        "matrix": [[[0, 0], [0.6, 0]], [[0, 0], [0, 0.8]]],
                        "normalize": False,
                    }
                },
            }
        )
    )
    assert np.array_equal(doc.payoffs.proposer, [[99, 0], [50, 0]])
    assert doc.state.amps[0, 1] == 0.6
    assert doc.state.amps[1, 1] == 0.8j


def test_missing_state_block_is_a_validation_error():
    with pytest.raises(ValidationError) as info:
        parse_spec(json.dumps({"payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}}}))
    assert info.value.field == "state"


def test_unnormalized_amplitudes_without_flag_rejected():
    with pytest.raises(ValidationError) as info:
        parse_spec(
            json.dumps(
                {
                    "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
                    "state": {
                        "amplitudes": {
                            "matrix": [[[0.5, 0], [0, 0]], [[0, 0], [0, 0]]],
                            "normalize": False,
                        }
                    },
                }
            )
        )
    assert info.value.field == "state.amplitudes"


def test_two_state_sources_rejected():
    with pytest.raises(ValidationError):
        parse_spec(
            json.dumps(
                {
                    "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
                    "state": {
                        "bell": {"theta": 0, "basis_a": [1, 1], "basis_b": [0, 0]},
                        "amplitudes": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]},
                    },
                }
            )
        )


def test_unknown_top_level_key_rejected():
    with pytest.raises(ValidationError):
        parse_spec(
            json.dumps(
                {
                    "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
                    "state": {"bell": {"theta": 0, "basis_a": [1, 1], "basis_b": [0, 0]}},
                    "extra": 1,
                }
            )
        )


def test_malformed_document_reports_location():
    with pytest.raises(ParseError) as info:
        parse_spec('{"payoffs": ')
    assert info.value.location is not None


def test_explicit_moves_accepted_and_validated():
    doc = parse_spec(
        json.dumps(
            {
                "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
                "state": {"bell": {"theta": 0, "basis_a": [1, 1], "basis_b": [0, 0]}},
                "moves": {"proposer": [[0, 1]], "responder": [[1, 0], [0, 1]]},
            }
        )
    )
    assert doc.moves_proposer.perms == ((0, 1),)
    with pytest.raises(ValidationError):
        parse_spec(
            json.dumps(
                {
                    "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
                    "state": {"bell": {"theta": 0, "basis_a": [1, 1], "basis_b": [0, 0]}},
                    "moves": {"proposer": [[0, 0]]},
                }
            )
        )


def test_induce_command_csv(tmp_path, capsys):
    code, out, err = run(
        ["induce", "--spec", write(tmp_path, ENTANGLED_DOC), "--format", "csv"], capsys
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "matrix,row,col,value"
    assert "proposer,0,0,49.5" in lines
    assert "responder,1,1,0.5" in lines


def test_classify_command_csv(tmp_path, capsys):
    code, out, _ = run(
        ["classify", "--spec", write(tmp_path, FAIR_DOC), "--format", "csv"], capsys
    )
    assert code == 0
    assert out.splitlines() == ["label,diff1,diff2", "aligned,0,0"]


def test_nash_command_csv(tmp_path, capsys):
    code, out, _ = run(
        ["nash", "--spec", write(tmp_path, ENTANGLED_DOC), "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1] == "1,mixed,true,false,37.25,12.75,0,0,0.5 0.5,0.5 0.5"


def test_verify_command_reports_regret(tmp_path, capsys):
    code, out, _ = run(
        [
            "verify",
            "--spec",
            write(tmp_path, ENTANGLED_DOC),
            "--profile",
            "1,0;1,0",
            "--format",
            "csv",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[1] == "false,pure,49.5,0.5,0,24.5"


def test_table_format_outputs(tmp_path, capsys):
    path = write(tmp_path, ENTANGLED_DOC)
    code, out, _ = run(["induce", "--spec", path], capsys)
    assert code == 0
    assert out.splitlines()[0] == "induced game 2x2"
    assert "proposer:" in out and "responder:" in out
    code, out, _ = run(["nash", "--spec", path], capsys)
    assert code == 0
    assert out.splitlines()[0] == "equilibria: 1"
    assert "  payoffs: 37.25 12.75" in out.splitlines()
    code, out, _ = run(["verify", "--spec", path, "--profile", "0.5,0.5;0.5,0.5"], capsys)
    assert code == 0
    assert "certified: true" in out.splitlines()


@pytest.mark.parametrize(
    "profile, line",
    [
        ("1,0", "profile: expected two strategies separated by ';'"),
        ("x,1;0,1", "profile.proposer: cannot read weights from 'x,1'"),
        ("1,0,0;0,1", "profile.proposer: expected 2 weights, got 3"),
        ("1.5,-0.5;0,1", "profile: negative strategy weight in [1.5, -0.5]"),
    ],
    ids=["one-strategy", "unreadable-weight", "three-weights", "negative-weight"],
)
def test_verify_rejects_malformed_profile(tmp_path, capsys, profile, line):
    argv = ["verify", "--spec", write(tmp_path, ENTANGLED_DOC), "--profile", profile]
    assert run(argv, capsys) == (2, "", f"error: {line}\n")


def test_sweep_command_csv(tmp_path, capsys):
    code, out, _ = run(
        ["sweep", "--spec", write(tmp_path, SWEEP_DOC), "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theta,p00,p01,p10,p11,label,equilibria"
    assert lines[1] == "0,0,0,0,1,aligned,mu=1 nu=1 pp=99 pr=1"
    assert lines[2] == "0.785398163,0.5,0,0,0.5,opposed,mu=0.5 nu=0.5 pp=37.25 pr=12.75"


def test_sweep_reproduces_fair_superposition_payoffs(tmp_path, capsys):
    doc = json.dumps(
        {
            "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
            "sweep": {
                "theta": {"start": 0, "stop": "pi/4", "count": 2},
                "basis_a": [1, 1],
                "basis_b": [0, 1],
            },
        }
    )
    code, out, _ = run(["sweep", "--spec", write(tmp_path, doc), "--format", "csv"], capsys)
    assert code == 0
    final = out.splitlines()[2]
    assert "pp=74.5 pr=25.5" in final


def test_sweep_validation():
    with pytest.raises(ValidationError):
        parse_sweep_spec(
            json.dumps(
                {
                    "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
                    "sweep": {
                        "theta": {"start": 0, "stop": 0, "count": 2},
                        "basis_a": [1, 1],
                        "basis_b": [0, 0],
                    },
                }
            )
        )
    with pytest.raises(ValidationError):
        parse_sweep_spec(
            json.dumps(
                {
                    "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
                    "sweep": {
                        "theta": {"start": 0, "stop": 1, "count": 1},
                        "basis_a": [1, 1],
                        "basis_b": [0, 0],
                    },
                }
            )
        )


def test_sweep_output_subset(tmp_path, capsys):
    doc = json.dumps(
        {
            "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
            "sweep": {
                "theta": {"start": 0, "stop": "pi/4", "count": 2},
                "basis_a": [1, 1],
                "basis_b": [0, 0],
                "outputs": ["label"],
            },
        }
    )
    code, out, _ = run(["sweep", "--spec", write(tmp_path, doc), "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "theta,label"


def test_csv_output_is_deterministic(tmp_path, capsys):
    path = write(tmp_path, ENTANGLED_DOC)
    _, first, _ = run(["nash", "--spec", path, "--format", "csv"], capsys)
    _, second, _ = run(["nash", "--spec", path, "--format", "csv"], capsys)
    assert first == second


def test_spec_read_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(ENTANGLED_DOC))
    code, out, _ = run(["classify", "--spec", "-", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[1].startswith("opposed")


MISMATCHED_TOTALS_WARNING = "warning: offer rows imply different pot totals: a + c = 100 but 2b = 80\n"


def test_mismatched_pot_totals_warn_in_one_stderr_line(capsys, monkeypatch):
    # a + c != 2b is a legal table; the user sees one line and no program location
    doc = ENTANGLED_DOC.replace('"b": 50', '"b": 40')
    process = subprocess.run(
        [sys.executable, "-m", "rqgames.cli", "nash", "--spec", "-"],
        input=doc,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        check=False,
    )
    assert (process.returncode, process.stderr) == (0, MISMATCHED_TOTALS_WARNING)
    assert "payoffs: 34.75 10.25" in process.stdout
    for _ in range(2):  # every document of a long-running process warns
        monkeypatch.setattr("sys.stdin", io.StringIO(doc))
        assert run(["nash", "--spec", "-"], capsys) == (0, process.stdout, MISMATCHED_TOTALS_WARNING)


def test_validation_failure_exits_2(tmp_path, capsys):
    doc = json.dumps({"payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}}})
    code, out, err = run(["nash", "--spec", write(tmp_path, doc)], capsys)
    assert code == 2
    assert out == "" and "state" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(["nash", "--spec", "/nonexistent/spec.json"], capsys)
    assert code == 2
    assert err != ""


def test_oversize_game_exits_3(tmp_path, capsys):
    moves = [list(p) for p in itertools.permutations(range(4))][:13]
    amps = [[[0.5, 0], [0, 0]] for _ in range(4)]
    amps[0][1] = [0.5, 0]
    doc = json.dumps(
        {
            "payoffs": {"ultimatum": {"total": 100, "offers": [10, 20, 30, 40]}},
            "state": {"amplitudes": {"matrix": amps, "normalize": True}},
            "moves": {"proposer": moves},
        }
    )
    code, _, err = run(["nash", "--spec", write(tmp_path, doc)], capsys)
    assert code == 3
    assert "12" in err


def test_eps_flag_loosens_certification(tmp_path, capsys):
    path = write(tmp_path, ENTANGLED_DOC)
    _, strict, _ = run(["nash", "--spec", path, "--format", "csv"], capsys)
    _, loose, _ = run(["nash", "--spec", path, "--format", "csv", "--eps", "30"], capsys)
    assert len(loose.splitlines()) > len(strict.splitlines())


def test_solver_block_supplies_defaults(tmp_path, capsys):
    doc = json.dumps(
        {
            "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
            "state": {"bell": {"theta": "pi/4", "basis_a": [1, 1], "basis_b": [0, 0]}},
            "solver": {"eps": 30.0},
        }
    )
    _, loose, _ = run(["nash", "--spec", write(tmp_path, doc), "--format", "csv"], capsys)
    assert len(loose.splitlines()) > 2


@pytest.mark.parametrize(
    "doc",
    [
        '{"state": {"amplitudes": {"matrix": [[NaN, 1], [0, 1]]}},'
        ' "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}}}',
        '{"payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},'
        ' "state": {"bell": {"theta": "pi/4", "basis_a": [1, 1], "basis_b": [0, 0]}},'
        ' "solver": {"eps": NaN}}',
        '{"payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},'
        ' "state": {"bell": {"theta": Infinity, "basis_a": [1, 1], "basis_b": [0, 0]}}}',
        '{"payoffs": {"ultimatum": {"a": 99, "b": 50, "c": -Infinity}},'
        ' "state": {"bell": {"theta": 0, "basis_a": [1, 1], "basis_b": [0, 0]}}}',
    ],
)
def test_non_finite_json_constants_exit_2(tmp_path, capsys, doc):
    with pytest.raises(ParseError, match="not a finite number"):
        parse_spec(doc)
    code, out, err = run(["nash", "--spec", write(tmp_path, doc)], capsys)
    assert code == 2
    assert out == "" and "not a finite number" in err


def test_main_runs_many_documents_in_one_process(tmp_path, capsys):
    # the parser is built once and reused; outputs and exit codes must not change
    good = write(tmp_path, ENTANGLED_DOC, "good.json")
    bad = write(tmp_path, json.dumps({"payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}}}), "bad.json")
    first = [run(["nash", "--spec", good, "--format", "csv"], capsys), run(["nash", "--spec", bad], capsys)]
    second = [run(["nash", "--spec", good, "--format", "csv"], capsys), run(["nash", "--spec", bad], capsys)]
    assert first == second
    assert [code for code, _, _ in first] == [0, 2]
    assert "37.25" in first[0][1] and "state" in first[1][2]


class Writes:
    def __init__(self):
        self.calls = []

    def write(self, text):
        self.calls.append(text)


@pytest.mark.parametrize("out_format", ("table", "csv"))
@pytest.mark.parametrize("command", ("induce", "classify", "nash", "verify", "sweep"))
def test_main_writes_the_command_lines_in_one_call(tmp_path, monkeypatch, command, out_format):
    doc = SWEEP_DOC if command == "sweep" else ENTANGLED_DOC
    flags = ["--profile", "0.5,0.5;0.5,0.5"] if command == "verify" else []
    spec = parse_sweep_spec(doc) if command == "sweep" else parse_spec(doc)
    lines = {
        "induce": lambda: cli.run_induce(spec, out_format),
        "classify": lambda: cli.run_classify(spec, out_format),
        "nash": lambda: cli.run_nash(spec, 1e-9, out_format),
        "verify": lambda: cli.run_verify(spec, "0.5,0.5;0.5,0.5", 1e-9, out_format),
        "sweep": lambda: cli.run_sweep(spec, 1e-9, out_format),
    }[command]()
    stdout = Writes()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([command, "--spec", write(tmp_path, doc), "--format", out_format] + flags) == 0
    assert stdout.calls == ["".join(line + "\n" for line in lines)]
    assert len(lines) > 1


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--eps", "nan"], "--eps"),
        (["--eps", "-1"], "--eps"),
        (["--eps", "0"], "--eps"),
        (["--eps", "inf"], "--eps"),
        (["--resolution", "0"], "--resolution"),
        (["--resolution", "-3"], "--resolution"),
    ],
)
def test_bad_eps_and_resolution_flags_exit_2(tmp_path, capsys, flags, field):
    # --resolution is no flag, so argparse rejects it after its usage line
    line = f"error: {field}: "
    if field == "--resolution":
        line = f"rqgames: error: unrecognized arguments: {' '.join(flags)}"
    for command, doc in (("nash", ENTANGLED_DOC), ("sweep", SWEEP_DOC)):
        try:
            code = main([command, "--spec", write(tmp_path, doc)] + flags)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith(line)


def test_tiny_eps_prints_the_mix_that_certifies_exactly(tmp_path, capsys):
    # the float regret of the true mix is about 1e-16, above eps; its exact regret is 0
    doc = {
        "payoffs": {"ultimatum": {"a": 3, "b": 2, "c": 1}},
        "state": {"bell": {"theta": "-pi/4", "basis_a": [1, 1], "basis_b": [0, 0]}},
    }
    expected = (
        "equilibria: 1\n"
        "equilibrium 1: kind=mixed certified=true degenerate=false\n"
        "  proposer strategy: 0.5 0.5\n"
        "  responder strategy: 0.5 0.5\n"
        "  payoffs: 1.25 0.75\n"
        "  regrets: 0 0\n"
    )
    argv = ["nash", "--spec", write(tmp_path, json.dumps(doc)), "--eps", "1e-300"]
    assert run(argv, capsys) == (0, expected, "")
    # a resolution in the document is accepted and changes nothing
    doc["solver"] = {"resolution": 32}
    argv[2] = write(tmp_path, json.dumps(doc), "solver.json")
    assert run(argv, capsys) == (0, expected, "")


# a strict pure equilibrium at cell (2, 0), with other candidates whose float
# weights are garbled by payoffs 1e300 apart; with these moves and the state
# |00> the induced game is the payoff table itself
GARBLED_3X3 = {
    "payoffs": {
        "matrices": {
            "proposer": [[-2e300, -6e8, 0], [5e200, 2e200, 0], [8e300, -1e300, 1e8]],
            "responder": [[-6, 8e200, -3e200], [1, -9e300, -8e100], [-8e8, -6e300, -2e200]],
        }
    },
    "state": {"amplitudes": {"matrix": [[1, 0, 0], [0, 0, 0], [0, 0, 0]]}},
    "moves": {"proposer": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "responder": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
}


def test_nash_prints_the_equilibrium_of_a_game_with_garbled_float_mixes(tmp_path, capsys):
    # a candidate whose float weights sum to 7e-85 goes to the exact re-check
    # like any other float miss, and the game's one equilibrium prints
    expected = (
        "equilibria: 1\n"
        "equilibrium 1: kind=pure certified=true degenerate=false\n"
        "  proposer strategy: 0 0 1\n"
        "  responder strategy: 1 0 0\n"
        "  payoffs: 8e+300 -800000000\n"
        "  regrets: 0 0\n"
    )
    assert run(["nash", "--spec", write(tmp_path, json.dumps(GARBLED_3X3))], capsys) == (0, expected, "")


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize(
    "flags, name",
    [
        ([], "nash_8x8_integer.txt"),
        (["--eps", "1e-300"], "nash_8x8_integer_1e-300.txt"),
        (["--format", "csv"], "nash_8x8_integer.csv"),
    ],
)
def test_nash_on_an_8x8_integer_game_prints_its_golden_output(capsys, flags, name):
    # a degenerate game whose pairs span several support sizes, with near
    # duplicates and, at eps 1e-300, exact re-checks
    spec = os.path.join(DATA, "nash_8x8_integer.json")
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        assert run(["nash", "--spec", spec] + flags, capsys) == (0, handle.read(), "")


@pytest.mark.parametrize("fmt, ext", [("table", "txt"), ("csv", "csv")])
def test_nash_on_an_8x8_uniform_game_prints_its_golden_output(monkeypatch, capsys, fmt, ext):
    # a nondegenerate game with seeded uniform payoffs and complex amplitudes,
    # whose support pairs survive the proposer's systems in more than one chunk
    survivors = []
    candidates = nash._candidates

    def recording(*args):
        found = candidates(*args)
        survivors.append(len(found[0]))
        return found

    monkeypatch.setattr(nash, "_candidates", recording)
    spec = os.path.join(DATA, "nash_8x8_uniform.json")
    with open(os.path.join(DATA, f"nash_8x8_uniform.{ext}"), encoding="utf-8") as handle:
        assert run(["nash", "--spec", spec, "--format", fmt], capsys) == (0, handle.read(), "")
    assert sum(map(bool, survivors)) >= 2


@pytest.mark.parametrize("fmt, ext", [("table", "txt"), ("csv", "csv")])
@pytest.mark.parametrize("name", ["nash_6x6_uniform", "nash_6x6_integer", "nash_5x8_integer", "nash_12x4_uniform"])
def test_nash_on_mid_size_games_prints_their_golden_output(capsys, name, fmt, ext):
    # benchmark-style games, nondegenerate with uniform payoffs and degenerate
    # with 0..3 integers, whose pairs go through one call or two phases
    spec = os.path.join(DATA, f"{name}.json")
    with open(os.path.join(DATA, f"{name}.{ext}"), encoding="utf-8") as handle:
        assert run(["nash", "--spec", spec, "--format", fmt], capsys) == (0, handle.read(), "")


@pytest.mark.parametrize(
    "flags, golden",
    [
        pytest.param([], "nash_7x7_integer.txt", id="table-txt"),
        pytest.param(["--format", "csv"], "nash_7x7_integer.csv", id="csv-csv"),
        pytest.param(["--eps", "1e-300"], "nash_7x7_integer_1e-300.txt", id="table-txt-1e-300"),
    ],
)
def test_nash_on_a_7x7_game_with_many_near_duplicates_prints_its_golden_output(monkeypatch, capsys, flags, golden):
    # a degenerate 0..3 integer game with 35 profiles, whose duplicate pass
    # decides more than 50 candidates by the earlier ones near them; at eps
    # 1e-300 it also decides the exact re-checks' finds, which print some
    # profiles from the 10th on with zero regrets
    queued = []
    near_earlier = nash._near_earlier

    def recording(*args):
        pairs = near_earlier(*args)
        queued.append(len(set(pairs[1].tolist())))
        return pairs

    monkeypatch.setattr(nash, "_near_earlier", recording)
    spec = os.path.join(DATA, "nash_7x7_integer.json")
    with open(os.path.join(DATA, golden), encoding="utf-8") as handle:
        assert run(["nash", "--spec", spec] + flags, capsys) == (0, handle.read(), "")
    assert queued[0] >= 50


SMALL_GOLDENS = ["nash_small_bell_2x2", "nash_small_offers3", "nash_small_offers8", "nash_small_2x3_moves", "nash_small_4x4"]


@pytest.mark.parametrize("fmt, ext", [("table", "txt"), ("csv", "csv")])
@pytest.mark.parametrize("name", SMALL_GOLDENS)
def test_nash_on_small_games_prints_their_golden_output(capsys, name, fmt, ext):
    # games shaped like the small benchmark documents, each keeping at least
    # one support pair past the prefilter: a 2x2 Bell game, 3- and 8-offer
    # ultimatums, a 2x3 game with explicit moves and a 4x4 game keeping 14 pairs
    spec = os.path.join(DATA, f"{name}.json")
    with open(spec, encoding="utf-8") as handle:
        doc = parse_spec(handle.read())
    a, b = nash.game_matrices(cli.induce_game(doc.state, doc.payoffs, doc.moves_proposer, doc.moves_responder))
    slack = nash.DOMINANCE_SLACK * (1.0 + np.abs(a).max() + np.abs(b).max())
    assert len(nash._support_pairs(a, b, 1e-9, slack)) >= (14 if name.endswith("4x4") else 1)
    with open(os.path.join(DATA, f"{name}.{ext}"), encoding="utf-8") as handle:
        assert run(["nash", "--spec", spec, "--format", fmt], capsys) == (0, handle.read(), "")


@pytest.mark.parametrize("eps", ("0.5", "1e-9"))
def test_degenerate_flag_counts_support_by_weight_not_by_eps(tmp_path, capsys, eps):
    # the mix puts 0.0099 on move 0, below eps 0.5; it is still on the support
    doc = {
        "payoffs": {"matrices": {"proposer": [[100, 0], [0, 1]], "responder": [[100, 0], [0, 1]]}},
        "state": {"amplitudes": {"matrix": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}},
    }
    code, out, _ = run(["nash", "--spec", write(tmp_path, json.dumps(doc)), "--eps", eps], capsys)
    assert code == 0
    assert "equilibrium 3: kind=mixed certified=true degenerate=false\n  proposer strategy: 0.0099009901 0.99009901\n" in out


@pytest.mark.parametrize("count", (10**6 + 1, 2**63))
def test_sweep_above_the_row_budget_exits_3(tmp_path, capsys, count):
    doc = json.loads(SWEEP_DOC)
    doc["sweep"]["theta"]["count"] = count
    code, out, err = run(["sweep", "--spec", write(tmp_path, json.dumps(doc))], capsys)
    assert (code, out) == (3, "")
    assert err == f"error: sweep limited to 1000000 thetas, got {count}\n"


def test_bad_flags_are_rejected_before_the_document_is_read(capsys):
    code, _, err = run(["nash", "--spec", "/nonexistent/spec.json", "--eps", "nan"], capsys)
    assert code == 2 and err.startswith("error: --eps: ")


def test_solver_eps_must_be_finite():
    doc = ENTANGLED_DOC[:-1] + ', "solver": {"eps": 1e400}}'
    with pytest.raises(ValidationError, match="solver.eps"):
        parse_spec(doc)


GAME = {
    "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
    "state": {"bell": {"theta": "pi/4", "basis_a": [1, 1], "basis_b": [0, 0]}},
}
SWEEP = {
    "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
    "sweep": {"theta": {"start": 0, "stop": "pi/4", "count": 2}, "basis_a": [1, 1], "basis_b": [0, 0]},
}
DROP = object()
AMPS = [[1, 0], [0, 0]]
ONE_OF_PAYOFFS = "payoffs: need exactly one of 'ultimatum' or 'matrices'"
ONE_OF_STATE = "state: need exactly one of 'bell' or 'amplitudes'"
ULTIMATUM_KEYS = "payoffs.ultimatum: give either keys a, b, c or keys total, offers"
MATRICES_KEYS = "payoffs.matrices: need matrices 'proposer' and 'responder'"
MATRIX_ENTRIES = "payoffs.matrices: expected matrices of numbers"

# (path of the edited key, its new value or DROP, the one error line); the
# empty path replaces the whole document
SHARED_REJECTS = [
    ((), [1], "document: top level must be an object"),
    (("extra",), 1, "document.extra: unknown field"),
    (("payoffs",), DROP, "payoffs: missing"),
    (("payoffs",), 3, "payoffs: expected an object"),
    (("payoffs",), {}, ONE_OF_PAYOFFS),
    (("payoffs", "matrices"), {"proposer": [[1, 0]], "responder": [[1, 0]]}, ONE_OF_PAYOFFS),
    (("payoffs", "x"), 1, "payoffs.x: unknown field"),
    (("payoffs", "ultimatum"), [], "payoffs.ultimatum: expected an object"),
    (("payoffs", "ultimatum", "c"), DROP, ULTIMATUM_KEYS),
    (("payoffs", "ultimatum", "x"), 1, ULTIMATUM_KEYS),
    (("payoffs", "ultimatum", "a"), "x", "payoffs.ultimatum.a: expected a number, got 'x'"),
    (("payoffs", "ultimatum"), {"total": 10, "offers": 3}, "payoffs.ultimatum.offers: expected a list"),
    (("payoffs",), {"matrices": [1]}, MATRICES_KEYS),
    (("payoffs",), {"matrices": {"proposer": [[1, 0]]}}, MATRICES_KEYS),
    (("payoffs",), {"matrices": {"proposer": [[1]], "responder": [[1]], "x": 1}}, MATRICES_KEYS),
    (("solver",), 1, "solver: expected an object"),
    (("solver", "x"), 1, "solver.x: unknown field"),
    (("solver", "eps"), "x", "solver.eps: expected a number, got 'x'"),
    (("solver", "eps"), 0, "solver.eps: must be a finite positive number"),
    (("solver", "resolution"), 1.5, "solver.resolution: must be a positive integer"),
]
NASH_REJECTS = [
    (("state",), DROP, "state: missing"),
    (("state",), "x", "state: expected an object"),
    (("state",), {}, ONE_OF_STATE),
    (("state", "amplitudes"), {"matrix": AMPS}, ONE_OF_STATE),
    (("state", "x"), 1, "state.x: unknown field"),
    (("state", "bell"), 1, "state.bell: expected an object"),
    (("state", "bell", "x"), 1, "state.bell.x: unknown field"),
    (("state", "bell", "theta"), DROP, "state.bell.theta: missing"),
    (("state", "bell", "basis_b"), DROP, "state.bell.basis_b: missing"),
    (
        ("state", "bell", "theta"),
        "two pi",
        "state.bell.theta: cannot read 'two pi' as an angle (use a number or e.g. 'pi/4')",
    ),
    (("state",), {"amplitudes": 1}, "state.amplitudes: expected an object"),
    (("state",), {"amplitudes": {"matrix": AMPS, "x": 1}}, "state.amplitudes.x: unknown field"),
    (("state",), {"amplitudes": {"normalize": True}}, "state.amplitudes.matrix: missing"),
    (("state",), {"amplitudes": {"matrix": AMPS, "normalize": 1}}, "state.amplitudes.normalize: expected true or false"),
    (("moves",), [], "moves: expected an object"),
    (("moves", "x"), [], "moves.x: unknown field"),
    (("moves", "proposer"), 1, "moves.proposer: expected a list of permutations"),
    (("sweep",), {}, "document.sweep: unknown field"),
]
SWEEP_REJECTS = [
    (("sweep",), DROP, "sweep: missing"),
    (("state",), {}, "document.state: unknown field"),
    (("moves",), {}, "document.moves: unknown field"),
    (
        ("payoffs", "ultimatum"),
        {"total": 10, "offers": [2, 4, 6]},
        "payoffs: sweep requires a 2x2 payoff table, got (3, 2)",
    ),
    (("sweep",), [], "sweep: expected an object"),
    (("sweep", "x"), 1, "sweep.x: unknown field"),
    (("sweep", "theta"), DROP, "sweep.theta: missing"),
    (("sweep", "basis_a"), DROP, "sweep.basis_a: missing"),
    (("sweep", "theta"), 1, "sweep.theta: expected an object with start, stop, count"),
    (("sweep", "theta", "x"), 1, "sweep.theta.x: unknown field"),
    (("sweep", "theta", "stop"), DROP, "sweep.theta.stop: missing"),
    (("sweep", "theta", "count"), DROP, "sweep.theta.count: missing"),
    (("sweep", "theta", "count"), 1, "sweep.theta.count: must be an integer of at least 2"),
    (("sweep", "theta", "stop"), 0, "sweep.theta: start 0.0 must be below stop 0.0"),
    (("sweep", "basis_b"), [1, 1], "sweep.basis_b: basis pairs must differ"),
    (("sweep", "basis_b"), [2, 0], "sweep.basis_b: outcome (2, 0) outside (2, 2)"),
    (("sweep", "outputs"), ["x"], "sweep.outputs: expected a subset of ['probs', 'label', 'equilibria']"),
]
# more game document cases; they come last in the parameter list, so the
# cases above keep their ids, which number them
MORE_NASH_REJECTS = [
    (("state", "bell", "theta"), "pi/0", "state.bell.theta: division by zero in 'pi/0'"),
    (("state",), {"amplitudes": {"matrix": 5}}, "state.amplitudes.matrix: expected a matrix of entries"),
    (("moves", "proposer"), [[0, 1, 2], [1, 2, 0]], "moves: move sets act on (3, 2) but payoffs are (2, 2)"),
    # the state takes the payoff table's shape, so a shape of its own could only restate it
    (("state", "bell", "dims"), [2, 2], "state.bell.dims: unknown field"),
]
# a game document that nash reads, but whose state is no 2x2 state to classify
CLASSIFY_REJECTS = [
    (("payoffs", "ultimatum"), {"total": 10, "offers": [2, 4, 6]}, "state: operation requires a 2x2 state, got (3, 2)"),
]

SIDE_ONE = {
    "payoffs": {"matrices": {"proposer": [[1, 0]], "responder": [[1, 0]]}},
    "state": {"amplitudes": {"matrix": [[1, 0], [0, 1]]}},
}


def edited(doc, path, value):
    """A deep copy of doc with the key at path set to value, or removed for DROP."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    block = doc
    for key in path[:-1]:
        block = block.setdefault(key, {})
    if value is DROP:
        del block[path[-1]]
    else:
        block[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "command, path, value, line",
    [("nash", *case) for case in SHARED_REJECTS + NASH_REJECTS]
    + [("sweep", *case) for case in SHARED_REJECTS + SWEEP_REJECTS]
    + [("nash", *case) for case in MORE_NASH_REJECTS]
    + [("classify", *case) for case in CLASSIFY_REJECTS]
    # a side-1 table: the dimension check runs before any default move set is built
    + [("nash", (), SIDE_ONE, "state: state dimensions (2, 2) do not match payoffs (1, 2)")],
)
def test_golden_validation_errors(tmp_path, capsys, command, path, value, line):
    doc = edited(SWEEP if command == "sweep" else GAME, path, value)
    code, out, err = run([command, "--spec", write(tmp_path, json.dumps(doc))], capsys)
    assert (code, out, err) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "command, path, literal, line",
    [
        ("nash", ("state", "bell", "theta"), "1e400", "state.bell.theta: expected a finite angle, got inf"),
        ("nash", ("state", "bell", "theta"), '"-inf"', "state.bell.theta: expected a finite angle, got '-inf'"),
        ("nash", ("state", "bell", "theta"), str(10**400), f"state.bell.theta: expected a finite angle, got {10**400}"),
        (
            "nash",
            ("payoffs", "ultimatum", "c"),
            "-1e400",
            "payoffs.ultimatum.c: expected a finite number, got -inf",
        ),
        (
            "sweep",
            ("payoffs", "ultimatum", "a"),
            str(10**400),
            f"payoffs.ultimatum.a: expected a finite number, got {10**400}",
        ),
        ("sweep", ("solver", "eps"), "1e400", "solver.eps: expected a finite number, got inf"),
        (
            "nash",
            ("payoffs", "ultimatum"),
            '{"total": 10, "offers": [1e400]}',
            "payoffs.ultimatum: offers must be integers, got inf",
        ),
        (
            "nash",
            ("payoffs", "ultimatum"),
            '{"total": 10, "offers": ["a"]}',
            "payoffs.ultimatum: offers must be integers, got 'a'",
        ),
        (
            "nash",
            ("payoffs", "ultimatum"),
            '{"total": 10, "offers": [null]}',
            "payoffs.ultimatum: offers must be integers, got None",
        ),
        # past the interpreter's limit on integer digits
        (
            "nash",
            ("payoffs", "ultimatum", "a"),
            "9" * 5000,
            "integer literal longer than 4300 digits",
        ),
        # whole numbers beyond float range, which the table could not hold
        (
            "nash",
            ("payoffs", "ultimatum"),
            f'{{"total": {10**400}, "offers": [1]}}',
            "payoffs.ultimatum: total has 401 digits, beyond float range",
        ),
        (
            "nash",
            ("payoffs", "ultimatum"),
            f'{{"total": 10, "offers": [1, {10**400}]}}',
            "payoffs.ultimatum: an offer has 401 digits, beyond float range",
        ),
        # the decoder's recursion limit
        ("nash", (), "[" * 100_000 + "]" * 100_000, "arrays or objects nested too deeply"),
        # an amplitude entry or part, or a payoff entry, beyond float range: once an
        # OverflowError traceback, or "squared amplitudes sum to nan" after a warning
        (
            "nash",
            ("state",),
            f'{{"amplitudes": {{"matrix": [[1, 0], [0, {10**400}]]}}}}',
            f"state.amplitudes.matrix[1][1]: expected a finite number, got {10**400}",
        ),
        (
            "nash",
            ("state",),
            '{"amplitudes": {"matrix": [[1e309, 0], [0, 1]]}}',
            "state.amplitudes.matrix[0][0]: expected a finite number, got inf",
        ),
        (
            "nash",
            ("state",),
            '{"amplitudes": {"matrix": [[1, [0, -1e309]], [0, 1]]}}',
            "state.amplitudes.matrix[0][1]: expected a finite number, got [0, -inf]",
        ),
        (
            "nash",
            ("payoffs",),
            f'{{"matrices": {{"proposer": [[{10**400}, 0], [0, 1]], "responder": [[1, 0], [0, 1]]}}}}',
            "payoffs.matrices: payoff entries must be finite",
        ),
        # an int just past the float maximum, which numpy would round to the maximum
        (
            "nash",
            ("payoffs",),
            f'{{"matrices": {{"proposer": [[{int(sys.float_info.max) + 2**969}, 0], [0, 1]], "responder": [[1, 0], [0, 1]]}}}}',
            "payoffs.matrices: payoff entries must be finite",
        ),
    ],
    ids=[
        "theta-1e400",
        "theta-string-inf",
        "theta-big-int",
        "c-1e400",
        "a-big-int",
        "eps-1e400",
        "offers-1e400",
        "offers-string",
        "offers-null",
        "a-5000-digits",
        "total-401-digits",
        "offers-401-digits",
        "nested-100000-deep",
        "amplitude-10**400",
        "amplitude-1e309",
        "amplitude-imaginary-1e309",
        "payoff-10**400",
        "payoff-float-max-plus-2**969",
    ],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, command, path, literal, line):
    # literals that overflow a float read as infinity, and big integers stay exact
    text = json.dumps(edited(GAME if command == "nash" else SWEEP, path, "LITERAL"))
    code, out, err = run([command, "--spec", write(tmp_path, text.replace('"LITERAL"', literal))], capsys)
    assert (code, out, err) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize(
    "path, value, line",
    [
        (("moves", "proposer"), [["x", 0], [0, 1]], "moves.proposer: permutation entries must be integers, got 'x'"),
        (("moves", "proposer"), [[None, 0], [0, 1]], "moves.proposer: permutation entries must be integers, got None"),
        (("moves", "proposer"), [[1.5, 0], [0, 1]], "moves.proposer: permutation entries must be integers, got 1.5"),
        (
            ("payoffs",),
            {"matrices": {"proposer": [[1, 0], [0, 1]], "responder": {}}},
            "payoffs.matrices: expected matrices of numbers",
        ),
        # entries that numpy once read as numbers, or rejected with its own text
        *(
            (("payoffs",), {"matrices": {"proposer": proposer, "responder": [[1, 0], [0, 1]]}}, MATRIX_ENTRIES)
            for proposer in ([["3", 0], [0, 1]], [[True, 0], [0, 1]], [[1, 0], [0]], 3)
        ),
    ],
    ids=["move-string", "move-null", "move-fraction", "responder-object", "string", "true", "ragged", "scalar"],
)
def test_bad_move_entries_and_matrix_objects_exit_2(tmp_path, capsys, path, value, line):
    # these once raised a TypeError or ValueError with a traceback, or truncated
    # 1.5 to the move index 1
    doc = edited(GAME, path, value)
    code, out, err = run(["nash", "--spec", write(tmp_path, json.dumps(doc))], capsys)
    assert (code, out, err) == (2, "", f"error: {line}\n")


# an induced entry of this table sums the largest float weighted by probabilities,
# which can round past it to infinity where no outcome is certain
OVERFLOWING = {
    "matrices": {"proposer": [[1.7976931348623157e308] * 2] * 2, "responder": [[1, 0], [0, 1]]},
}


def test_nash_on_an_overflowing_induced_game_exits_3():
    state = {"bell": {"theta": 0.9817477042468103, "basis_a": [0, 0], "basis_b": [1, 1]}}
    doc = {"payoffs": OVERFLOWING, "state": state}
    process = subprocess.run(
        [sys.executable, "-m", "rqgames.cli", "nash", "--spec", "-"],
        input=json.dumps(doc),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        check=False,
    )
    # no numpy overflow warning beside the error line
    assert (process.returncode, process.stdout, process.stderr) == (3, "", "error: payoff entries must be finite\n")


@pytest.mark.parametrize(
    "matrix, line",
    [([[3e-170, 0], [0, 4e-170]], "opposed,0.64,-0.36"), ([[1e300, 0], [0, 1e300]], "opposed,0.5,-0.5")],
    ids=["3e-170", "1e300"],
)
def test_normalize_accepts_states_at_extreme_scales(tmp_path, capsys, matrix, line):
    # the squared norm once underflowed to 0 or overflowed to infinity
    doc = {**GAME, "state": {"amplitudes": {"matrix": matrix}}}
    code, out, err = run(["classify", "--spec", write(tmp_path, json.dumps(doc)), "--format", "csv"], capsys)
    assert (code, out, err) == (0, f"label,diff1,diff2\n{line}\n", "")


def test_unnormalized_amplitudes_that_overflow_exit_2_without_a_warning(tmp_path, capsys):
    doc = {**GAME, "state": {"amplitudes": {"matrix": [[1e300, 0], [0, 0]], "normalize": False}}}
    code, out, err = run(["nash", "--spec", write(tmp_path, json.dumps(doc))], capsys)
    assert (code, out) == (2, "")
    assert err == "error: state.amplitudes: squared amplitudes sum to inf, expected 1 within 1e-09\n"


# valid documents of all five commands, whose leaves the fuzz test mutates
FUZZ_DOCUMENTS = {
    "induce": GAME,
    "classify": {**GAME, "state": {"amplitudes": {"matrix": [[[0.6, 0], 0], [0, [0, 0.8]]], "normalize": True}}},
    "nash": {
        "payoffs": {"matrices": {"proposer": [[3, 0, 1], [1, 2, 0], [0, 1, 3]], "responder": [[1, 2, 0], [0, 1, 3], [3, 0, 1]]}},
        "state": {"amplitudes": {"matrix": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}},
        "moves": {"proposer": [[0, 1, 2], [1, 2, 0]], "responder": [[2, 0, 1], [0, 1, 2]]},
        "solver": {"eps": 1e-9},
    },
    "verify": GAME,
    "sweep": {**SWEEP, "sweep": {**SWEEP["sweep"], "theta": {"start": "-pi/3", "stop": "pi", "count": 9}}},
}
LEAF_VALUES = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 3e-170, 1e300, 1.7976931348623157e308, 10**308, "pi/2", "-pi/0"]),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 3), max_size=3),
    st.just(DROP),
)


def _leaves(doc, path=()):
    """The paths of the scalar leaves of a document."""
    if isinstance(doc, dict):
        return [leaf for key, value in doc.items() for leaf in _leaves(value, (*path, key))]
    if isinstance(doc, list):
        return [leaf for i, value in enumerate(doc) for leaf in _leaves(value, (*path, i))]
    return [path]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_mutated_documents_exit_cleanly(data):
    # a document with one leaf changed or dropped exits 0, 2 or 3, with no
    # traceback and no numpy warning; pytest raises either as an exception
    command = data.draw(st.sampled_from(sorted(FUZZ_DOCUMENTS)))
    doc = json.loads(json.dumps(FUZZ_DOCUMENTS[command]))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(_leaves(doc) or [()]))
        value = data.draw(LEAF_VALUES)
        if path == ("sweep", "theta", "count") and isinstance(value, int) and value > 1000:
            value = 1000  # a valid row count that keeps the test fast
        if not path:
            break
        block = doc
        for key in path[:-1]:
            block = block[key]
        if value is DROP:
            del block[path[-1]]
        else:
            block[path[-1]] = value
    argv = [command, "--spec", "-"] + (["--profile", "0.5,0.5;0.5,0.5"] if command == "verify" else [])
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3), err.getvalue()
    assert "Traceback" not in err.getvalue() and "encountered in" not in err.getvalue()


def run_caught(argv):
    """``main``'s exit code, stdout and stderr for ``argv``, with argparse's exits caught."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("stdin", [False, True])
def test_a_spec_that_is_not_utf8_exits_2(tmp_path, monkeypatch, stdin):
    data = b'\xff\xfe{"payoffs": {}}'
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    if stdin:  # a strict decoder, as under PYTHONIOENCODING=utf-8
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict"))
    code, out, err = run_caught(["nash", "--spec", "-" if stdin else str(path)])
    source = "stdin" if stdin else str(path)
    assert (code, out, err) == (2, "", f"error: {source}: not UTF-8 text (invalid start byte at byte 0)\n")


@pytest.mark.parametrize("stdin", [False, True])
def test_a_spec_that_starts_with_a_byte_order_mark_exits_2(tmp_path, monkeypatch, stdin):
    data = b"\xef\xbb\xbf" + ENTANGLED_DOC.encode()
    path = tmp_path / "bom.json"
    path.write_bytes(data)
    if stdin:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    code, out, err = run_caught(["nash", "--spec", "-" if stdin else str(path)])
    assert (code, out, err) == (2, "", "error: line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n")


@pytest.mark.parametrize("argv", [["-h"], ["nash", "-h"]])
def test_help_exits_0_with_usage(argv):
    code, out, err = run_caught(argv)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: rqgames {argv[0]} [-h]" if argv[0] != "-h" else "usage: rqgames [-h]")


@pytest.mark.parametrize(
    "flags",
    [
        ["--spec", "{spec}", "--form", "csv"],
        ["--spec", "{spec}", "--format=csv"],
        ["--spec={spec}", "--format", "csv"],
        ["--spec={spec}", "--format", "table", "--format", "csv"],
    ],
)
def test_other_argv_forms_print_the_plain_forms_output(flags):
    # argparse parses these; the stdout is that of --spec PATH --format csv
    spec = os.path.join(DATA, "nash_6x6_uniform.json")
    with open(os.path.join(DATA, "nash_6x6_uniform.csv"), encoding="utf-8") as handle:
        golden = handle.read()
    assert run_caught(["nash"] + [flag.format(spec=spec) for flag in flags]) == (0, golden, "")


def test_the_last_of_a_repeated_option_wins():
    spec = os.path.join(DATA, "nash_6x6_uniform.json")
    with open(os.path.join(DATA, "nash_6x6_uniform.txt"), encoding="utf-8") as handle:
        assert run_caught(["nash", "--spec", spec, "--format", "csv", "--format", "table"]) == (0, handle.read(), "")


@pytest.mark.parametrize(
    "argv, line",
    [
        (["verify", "--spec", "-"], "rqgames verify: error: the following arguments are required: --profile"),
        (["bogus", "--spec", "-"], "rqgames: error: argument command: invalid choice: 'bogus'"),
        (["nash", "--spec", "-", "--format", "xml"], "rqgames nash: error: argument --format: invalid choice: 'xml'"),
        (["nash", "--spec", "-", "--eps", "abc"], "rqgames nash: error: argument --eps: invalid float value: 'abc'"),
    ],
)
def test_argv_errors_exit_2_with_argparse_messages(argv, line):
    code, out, err = run_caught(argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: rqgames")
    assert err.splitlines()[-1].startswith(line)


def test_a_plain_argv_runs_without_importing_argparse():
    # a fresh interpreter: pytest itself imports argparse
    script = (
        "import sys\n"
        "from rqgames.cli import main\n"
        "main(sys.argv[1:])\n"
        "print('argparse' in sys.modules, file=sys.stderr)\n"
        "main(['nash', '-h'])\n"
    )
    spec = os.path.join(DATA, "nash_6x6_uniform.json")
    process = subprocess.run(
        [sys.executable, "-c", script, "nash", "--spec", spec, "--format", "csv"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        check=False,
    )
    with open(os.path.join(DATA, "nash_6x6_uniform.csv"), encoding="utf-8") as handle:
        golden = handle.read()
    assert (process.returncode, process.stderr) == (0, "False\n")
    assert process.stdout.startswith(golden + "usage: rqgames nash [-h]")


def test_importing_the_cli_leaves_fractions_out():
    # a fresh interpreter: pytest and the test helpers import fractions; only
    # the exact re-check of support enumeration needs it
    script = "import sys\nimport rqgames.cli\nprint(sorted({'fractions', 'decimal'} & set(sys.modules)))\n"
    process = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        check=False,
    )
    assert (process.returncode, process.stdout, process.stderr) == (0, "[]\n", "")


_PARSER = cli.build_parser()


def _argparse_args(argv):
    """``vars`` of argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_PARSER.parse_args(argv))
        except SystemExit:
            return None


def _same_args(plain, parsed):
    """Equal argument dicts, with NaN equal to NaN."""
    return plain.keys() == parsed.keys() and all(
        a == b or (isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b))
        for a, b in zip(plain.values(), (parsed[key] for key in plain))
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["nash", "--spec", "-"],
        ["sweep", "--spec", "-", "--format", "csv", "--eps", "1e-300"],
        ["verify", "--spec", "doc.json", "--profile", "0.5,0.5;0.5,0.5", "--eps", " 1e-9 "],
        ["classify", "--format", "table", "--spec", "", "--format", "csv", "--eps", "nan"],
        ["induce", "--eps", "1_0", "--spec", "x", "--eps", "inf"],
    ],
)
def test_plain_argv_takes_the_fast_path_with_argparses_values(argv):
    plain = cli._plain_args(argv)
    assert plain is not None and _same_args(plain, _argparse_args(argv))


# values that suit each option, and other tokens: abbreviations, --name=value
# forms, dash-led values, help and the end-of-options marker
ARGV_VALUES = {
    "--spec": ["-", "", "doc.json", "-x"],
    "--eps": ["1e-9", " 1e-9 ", "nan", "inf", "1_0", "abc", "-1"],
    "--format": ["csv", "table", "xml"],
    "--profile": ["0.5,0.5;0.5,0.5", "-", ""],
}
ARGV_TOKENS = st.sampled_from(
    sorted({value for values in ARGV_VALUES.values() for value in values})
    + ["induce", "nash", "verify", "--spec", "--eps", "--format", "--profile", "--sp", "--e", "--form", "--prof"]
    + ["--spec=-", "--eps=1", "--format=csv", "--profile=0.5,0.5;0.5,0.5", "--", "-h"]
)


@settings(derandomize=True, max_examples=1500, deadline=None)
@given(st.data())
def test_the_fast_path_gives_argparses_namespace_or_declines(data):
    # options with suitable values, in any order and number, with other
    # tokens sometimes inserted; wherever the fast path does not decline it
    # must agree with argparse
    command = data.draw(st.sampled_from(["induce", "classify", "nash", "verify", "sweep", "bogus", "-h"]))
    argv = [command]
    for option in data.draw(st.lists(st.sampled_from(["--spec", *ARGV_VALUES]), max_size=5)):
        argv += [option, data.draw(st.sampled_from(ARGV_VALUES[option]))]
    for _ in range(data.draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(data.draw(st.integers(0, len(argv))), data.draw(ARGV_TOKENS))
    plain = cli._plain_args(argv)
    if plain is not None:
        parsed = _argparse_args(argv)
        assert parsed is not None and _same_args(plain, parsed), argv


def test_mutated_documents_match_their_golden():
    # every outcome as recorded by tests/mutated_documents.py: an error's text
    # and its order among a document's errors, and the stdout of a success
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = [json.loads(line) for line in handle]
    docs = list(documents())
    outcomes = [outcome(argv, text) for argv, text in docs]
    assert len(outcomes) == len(golden)
    changed = [(i, text, want, got) for i, ((_, text), want, got) in enumerate(zip(docs, golden, outcomes)) if want != got]
    assert not changed, changed[:3]
