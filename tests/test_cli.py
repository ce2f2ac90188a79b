"""Document parsing, rendering and the command-line surface."""

import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from rqgames import ParseError, ValidationError, cli
from rqgames.cli import main, parse_angle, parse_spec, parse_sweep_spec, render_spec

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


def test_round_trip_preserves_the_spec():
    doc = parse_spec(ENTANGLED_DOC)
    again = parse_spec(render_spec(doc))
    assert np.array_equal(doc.payoffs.proposer, again.payoffs.proposer)
    assert np.array_equal(doc.payoffs.responder, again.payoffs.responder)
    assert np.array_equal(doc.state.amps, again.state.amps)
    assert doc.moves_proposer.perms == again.moves_proposer.perms
    assert doc.moves_responder.perms == again.moves_responder.perms
    assert doc.eps == again.eps
    assert doc.source == again.source


def test_sweep_round_trip():
    sweep = parse_sweep_spec(SWEEP_DOC)
    again = parse_sweep_spec(render_spec(sweep))
    assert (sweep.start, sweep.stop, sweep.count) == (again.start, again.stop, again.count)
    assert sweep.basis_a == again.basis_a and sweep.basis_b == again.basis_b
    assert sweep.outputs == again.outputs


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


def test_verify_rejects_malformed_profile(tmp_path, capsys):
    code, _, err = run(
        ["verify", "--spec", write(tmp_path, ENTANGLED_DOC), "--profile", "1,0"], capsys
    )
    assert code == 2
    assert "profile" in err


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
    for command, doc in (("nash", ENTANGLED_DOC), ("sweep", SWEEP_DOC)):
        code, out, err = run([command, "--spec", write(tmp_path, doc)] + flags, capsys)
        assert code == 2
        assert out == "" and err.startswith(f"error: {field}: ")


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
    # a resolution, from the flag or the document, is accepted and changes nothing
    assert run(argv + ["--resolution", "8"], capsys) == (0, expected, "")
    doc["solver"] = {"resolution": 32}
    argv[2] = write(tmp_path, json.dumps(doc), "solver.json")
    assert run(argv, capsys) == (0, expected, "")


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
    + [("sweep", *case) for case in SHARED_REJECTS + SWEEP_REJECTS],
)
def test_golden_validation_errors(tmp_path, capsys, command, path, value, line):
    doc = edited(GAME if command == "nash" else SWEEP, path, value)
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
    ],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, command, path, literal, line):
    # literals that overflow a float read as infinity, and big integers stay exact
    text = json.dumps(edited(GAME if command == "nash" else SWEEP, path, "LITERAL"))
    code, out, err = run([command, "--spec", write(tmp_path, text.replace('"LITERAL"', literal))], capsys)
    assert (code, out, err) == (2, "", f"error: {line}\n")
