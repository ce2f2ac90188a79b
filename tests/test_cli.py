"""Document parsing, rendering and the command-line surface."""

import io
import itertools
import json
import math

import numpy as np
import pytest

from rqgames import ParseError, ValidationError
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
    assert doc.eps is None and doc.resolution is None


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
    assert doc.eps == again.eps and doc.resolution == again.resolution
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
