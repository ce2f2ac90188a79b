"""Command-line surface: parse game documents, induce, classify, solve, verify, sweep.

Documents are JSON objects.  A game document carries exactly one payoff
source and one state source, plus optional move sets and solver options:

    {
      "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
      "state": {"bell": {"theta": "pi/4", "basis_a": [1, 1], "basis_b": [0, 0]}},
      "moves": {"proposer": [[1, 0], [0, 1]], "responder": [[1, 0], [0, 1]]},
      "solver": {"eps": 1e-9, "resolution": 64}
    }

Payoffs may instead be explicit {"matrices": {"proposer": [[...]], "responder":
[[...]]}} and the state an explicit {"amplitudes": {"matrix": [[[re, im], ...],
...], "normalize": true}} block.  A sweep document replaces "state" with a
"sweep" block holding a theta grid and a fixed basis pair.  Angles accept
plain numbers or symbolic multiples of pi such as "pi/4" or "-3*pi/2".
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import GameError, ParseError, TooLargeError, ValidationError
from .games import PayoffTable, UltimatumParams, ultimatum_2x2, ultimatum_general
from .hilbert import QuantumState, bell_like, probability_table, state_from_amplitudes
from .induce import InducedGame, MoveSet, classify_state, default_move_set, induce_game
from .nash import EPS_DEFAULT, EquilibriumProfile, grid_oracle, support_enumeration, verify_equilibrium

RESOLUTION_FLAG_DEFAULT = 64
SWEEP_OUTPUTS = ("probs", "label", "equilibria")

_PI_PATTERN = re.compile(
    r"^\s*([+-]?)\s*(?:(\d+(?:\.\d+)?)\s*\*\s*)?pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True, eq=False)
class GameSpecDocument:
    """A validated game document with its source recipe kept for rendering."""

    payoffs: PayoffTable
    state: QuantumState
    moves_proposer: MoveSet
    moves_responder: MoveSet
    eps: float | None
    resolution: int | None
    source: dict


@dataclass(frozen=True, eq=False)
class SweepSpec:
    """A validated sweep document: theta grid over a fixed two-term family."""

    payoffs: PayoffTable
    start: float
    stop: float
    count: int
    basis_a: tuple[int, int]
    basis_b: tuple[int, int]
    outputs: tuple[str, ...]
    eps: float | None
    resolution: int | None
    source: dict


def _reject_constant(name: str):
    raise ParseError(f"{name} is not a finite number")


def _load_json(text: str) -> dict:
    try:
        data = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, (exc.lineno, exc.colno)) from exc
    if not isinstance(data, dict):
        raise ValidationError("document", "top level must be an object")
    return data


def parse_angle(value, field: str) -> float:
    """Accept a number, a numeric string, or a symbolic pi expression."""
    if isinstance(value, bool):
        raise ValidationError(field, f"expected an angle, got {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        match = _PI_PATTERN.match(value)
        if match:
            sign = -1.0 if match.group(1) == "-" else 1.0
            factor = float(match.group(2)) if match.group(2) else 1.0
            divisor = float(match.group(3)) if match.group(3) else 1.0
            if divisor == 0.0:
                raise ValidationError(field, f"division by zero in {value!r}")
            return sign * factor * math.pi / divisor
        try:
            return float(value)
        except ValueError:
            raise ValidationError(
                field, f"cannot read {value!r} as an angle (use a number or e.g. 'pi/4')"
            ) from None
    raise ValidationError(field, f"expected an angle, got {value!r}")


def _require_keys(block: dict, field: str, allowed: set[str]):
    for key in block:
        if key not in allowed:
            raise ValidationError(f"{field}.{key}", "unknown field")


def _number(block: dict, field: str, key: str):
    if key not in block:
        raise ValidationError(f"{field}.{key}", "missing")
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{field}.{key}", f"expected a number, got {value!r}")
    return value


def _index_pair(value, field: str) -> tuple[int, int]:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or any(isinstance(v, bool) or not isinstance(v, int) for v in value)
    ):
        raise ValidationError(field, f"expected a pair of integer indices, got {value!r}")
    return (value[0], value[1])


def _build_payoffs(block, field: str = "payoffs") -> PayoffTable:
    if not isinstance(block, dict):
        raise ValidationError(field, "expected an object")
    sources = [k for k in ("ultimatum", "matrices") if k in block]
    if len(sources) != 1:
        raise ValidationError(field, "need exactly one of 'ultimatum' or 'matrices'")
    _require_keys(block, field, {"ultimatum", "matrices"})
    if sources[0] == "ultimatum":
        sub = block["ultimatum"]
        if not isinstance(sub, dict):
            raise ValidationError(f"{field}.ultimatum", "expected an object")
        if set(sub) == {"a", "b", "c"}:
            try:
                return ultimatum_2x2(
                    _number(sub, f"{field}.ultimatum", "a"),
                    _number(sub, f"{field}.ultimatum", "b"),
                    _number(sub, f"{field}.ultimatum", "c"),
                )
            except GameError as exc:
                raise ValidationError(f"{field}.ultimatum", str(exc)) from exc
        if set(sub) == {"total", "offers"}:
            offers = sub["offers"]
            if not isinstance(offers, list):
                raise ValidationError(f"{field}.ultimatum.offers", "expected a list")
            try:
                params = UltimatumParams(sub["total"], tuple(offers))
                return ultimatum_general(params)
            except GameError as exc:
                raise ValidationError(f"{field}.ultimatum", str(exc)) from exc
        raise ValidationError(
            f"{field}.ultimatum", "give either keys a, b, c or keys total, offers"
        )
    sub = block["matrices"]
    if not isinstance(sub, dict) or set(sub) != {"proposer", "responder"}:
        raise ValidationError(f"{field}.matrices", "need matrices 'proposer' and 'responder'")
    try:
        return PayoffTable(np.array(sub["proposer"], dtype=float), np.array(sub["responder"], dtype=float))
    except (GameError, ValueError) as exc:
        raise ValidationError(f"{field}.matrices", str(exc)) from exc


def _complex_entry(value, field: str) -> complex:
    if isinstance(value, bool):
        raise ValidationError(field, f"expected a number or [re, im] pair, got {value!r}")
    if isinstance(value, (int, float)):
        return complex(value, 0.0)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(value[0], value[1])
    raise ValidationError(field, f"expected a number or [re, im] pair, got {value!r}")


def _build_state(block, payoff_dims: tuple[int, int], field: str = "state") -> QuantumState:
    if not isinstance(block, dict):
        raise ValidationError(field, "expected an object")
    sources = [k for k in ("bell", "amplitudes") if k in block]
    if len(sources) != 1:
        raise ValidationError(field, "need exactly one of 'bell' or 'amplitudes'")
    _require_keys(block, field, {"bell", "amplitudes"})
    if sources[0] == "bell":
        sub = block["bell"]
        if not isinstance(sub, dict):
            raise ValidationError(f"{field}.bell", "expected an object")
        _require_keys(sub, f"{field}.bell", {"theta", "basis_a", "basis_b", "dims"})
        for key in ("theta", "basis_a", "basis_b"):
            if key not in sub:
                raise ValidationError(f"{field}.bell.{key}", "missing")
        theta = parse_angle(sub["theta"], f"{field}.bell.theta")
        basis_a = _index_pair(sub["basis_a"], f"{field}.bell.basis_a")
        basis_b = _index_pair(sub["basis_b"], f"{field}.bell.basis_b")
        dims = payoff_dims
        if "dims" in sub:
            dims = _index_pair(sub["dims"], f"{field}.bell.dims")
        try:
            return bell_like(theta, basis_a, basis_b, dims)
        except GameError as exc:
            raise ValidationError(f"{field}.bell", str(exc)) from exc
    sub = block["amplitudes"]
    if not isinstance(sub, dict):
        raise ValidationError(f"{field}.amplitudes", "expected an object")
    _require_keys(sub, f"{field}.amplitudes", {"matrix", "normalize"})
    if "matrix" not in sub:
        raise ValidationError(f"{field}.amplitudes.matrix", "missing")
    rows = sub["matrix"]
    if not isinstance(rows, list) or not rows or any(not isinstance(r, list) for r in rows):
        raise ValidationError(f"{field}.amplitudes.matrix", "expected a matrix of entries")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError(f"{field}.amplitudes.matrix", "ragged rows")
    amps = np.array(
        [
            [
                _complex_entry(v, f"{field}.amplitudes.matrix[{i}][{j}]")
                for j, v in enumerate(row)
            ]
            for i, row in enumerate(rows)
        ],
        dtype=complex,
    )
    normalize = sub.get("normalize", True)
    if not isinstance(normalize, bool):
        raise ValidationError(f"{field}.amplitudes.normalize", "expected true or false")
    try:
        return state_from_amplitudes(amps, normalize=normalize)
    except GameError as exc:
        raise ValidationError(f"{field}.amplitudes", str(exc)) from exc


def _build_moves(block, payoff_dims: tuple[int, int]) -> tuple[MoveSet, MoveSet]:
    moves_p = default_move_set(payoff_dims[0])
    moves_r = default_move_set(payoff_dims[1])
    if block is None:
        return moves_p, moves_r
    if not isinstance(block, dict):
        raise ValidationError("moves", "expected an object")
    _require_keys(block, "moves", {"proposer", "responder"})
    for key in block:
        perms = block[key]
        if not isinstance(perms, list) or any(not isinstance(p, list) for p in perms):
            raise ValidationError(f"moves.{key}", "expected a list of permutations")
        try:
            move_set = MoveSet(tuple(tuple(p) for p in perms))
        except GameError as exc:
            raise ValidationError(f"moves.{key}", str(exc)) from exc
        if key == "proposer":
            moves_p = move_set
        else:
            moves_r = move_set
    return moves_p, moves_r


def _build_solver(block) -> tuple[float | None, int | None]:
    if block is None:
        return None, None
    if not isinstance(block, dict):
        raise ValidationError("solver", "expected an object")
    _require_keys(block, "solver", {"eps", "resolution"})
    eps = None
    resolution = None
    if "eps" in block:
        eps = _number(block, "solver", "eps")
        if eps <= 0:
            raise ValidationError("solver.eps", "must be positive")
        eps = float(eps)
    if "resolution" in block:
        resolution = block["resolution"]
        if isinstance(resolution, bool) or not isinstance(resolution, int) or resolution < 1:
            raise ValidationError("solver.resolution", "must be a positive integer")
    return eps, resolution


def parse_spec(text: str) -> GameSpecDocument:
    """Parse and validate a game document."""
    data = _load_json(text)
    _require_keys(data, "document", {"payoffs", "state", "moves", "solver"})
    if "payoffs" not in data:
        raise ValidationError("payoffs", "missing")
    if "state" not in data:
        raise ValidationError("state", "missing")
    payoffs = _build_payoffs(data["payoffs"])
    state = _build_state(data["state"], payoffs.dims)
    moves_p, moves_r = _build_moves(data.get("moves"), payoffs.dims)
    eps, resolution = _build_solver(data.get("solver"))
    if state.dims != payoffs.dims:
        raise ValidationError(
            "state", f"state dimensions {state.dims} do not match payoffs {payoffs.dims}"
        )
    if (moves_p.d, moves_r.d) != payoffs.dims:
        raise ValidationError(
            "moves",
            f"move sets act on ({moves_p.d}, {moves_r.d}) but payoffs are {payoffs.dims}",
        )
    return GameSpecDocument(
        payoffs=payoffs,
        state=state,
        moves_proposer=moves_p,
        moves_responder=moves_r,
        eps=eps,
        resolution=resolution,
        source=data,
    )


def parse_sweep_spec(text: str) -> SweepSpec:
    """Parse and validate a sweep document."""
    data = _load_json(text)
    _require_keys(data, "document", {"payoffs", "sweep", "solver"})
    if "payoffs" not in data:
        raise ValidationError("payoffs", "missing")
    if "sweep" not in data:
        raise ValidationError("sweep", "missing")
    payoffs = _build_payoffs(data["payoffs"])
    if payoffs.dims != (2, 2):
        raise ValidationError("payoffs", f"sweep requires a 2x2 payoff table, got {payoffs.dims}")
    block = data["sweep"]
    if not isinstance(block, dict):
        raise ValidationError("sweep", "expected an object")
    _require_keys(block, "sweep", {"theta", "basis_a", "basis_b", "outputs"})
    for key in ("theta", "basis_a", "basis_b"):
        if key not in block:
            raise ValidationError(f"sweep.{key}", "missing")
    theta = block["theta"]
    if not isinstance(theta, dict):
        raise ValidationError("sweep.theta", "expected an object with start, stop, count")
    _require_keys(theta, "sweep.theta", {"start", "stop", "count"})
    for key in ("start", "stop", "count"):
        if key not in theta:
            raise ValidationError(f"sweep.theta.{key}", "missing")
    start = parse_angle(theta["start"], "sweep.theta.start")
    stop = parse_angle(theta["stop"], "sweep.theta.stop")
    count = theta["count"]
    if isinstance(count, bool) or not isinstance(count, int) or count < 2:
        raise ValidationError("sweep.theta.count", "must be an integer of at least 2")
    if not start < stop:
        raise ValidationError("sweep.theta", f"start {start} must be below stop {stop}")
    basis_a = _index_pair(block["basis_a"], "sweep.basis_a")
    basis_b = _index_pair(block["basis_b"], "sweep.basis_b")
    if basis_a == basis_b:
        raise ValidationError("sweep.basis_b", "basis pairs must differ")
    for name, (k, l) in (("basis_a", basis_a), ("basis_b", basis_b)):
        if not (0 <= k < payoffs.dims[0] and 0 <= l < payoffs.dims[1]):
            raise ValidationError(f"sweep.{name}", f"outcome ({k}, {l}) outside {payoffs.dims}")
    outputs = block.get("outputs", list(SWEEP_OUTPUTS))
    if (
        not isinstance(outputs, list)
        or not outputs
        or any(o not in SWEEP_OUTPUTS for o in outputs)
        or len(set(outputs)) != len(outputs)
    ):
        raise ValidationError("sweep.outputs", f"expected a subset of {list(SWEEP_OUTPUTS)}")
    eps, resolution = _build_solver(data.get("solver"))
    return SweepSpec(
        payoffs=payoffs,
        start=start,
        stop=stop,
        count=count,
        basis_a=basis_a,
        basis_b=basis_b,
        outputs=tuple(o for o in SWEEP_OUTPUTS if o in outputs),
        eps=eps,
        resolution=resolution,
        source=data,
    )


def render_spec(doc: GameSpecDocument | SweepSpec) -> str:
    """Serialize a parsed document back to text; reparsing yields the same spec."""
    return json.dumps(doc.source, indent=2) + "\n"


def fmt(x: float) -> str:
    """Numbers printed with 9 significant digits; negative zero normalized."""
    value = float(x)
    if value == 0.0:
        value = 0.0
    return format(value, ".9g")


def _fmt_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _matrix_lines(name: str, matrix: np.ndarray) -> list[str]:
    cells = [[fmt(v) for v in row] for row in matrix]
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells[0]))]
    lines = [f"{name}:"]
    for row in cells:
        lines.append("  " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return lines


def _strategy_text(weights: np.ndarray) -> str:
    return " ".join(fmt(w) for w in weights)


def _profile_lines(index: int, profile: EquilibriumProfile) -> list[str]:
    return [
        f"equilibrium {index}: kind={profile.kind} certified={_fmt_bool(profile.certified)} "
        f"degenerate={_fmt_bool(profile.degenerate)}",
        f"  proposer strategy: {_strategy_text(profile.proposer_strategy)}",
        f"  responder strategy: {_strategy_text(profile.responder_strategy)}",
        f"  payoffs: {fmt(profile.payoffs[0])} {fmt(profile.payoffs[1])}",
        f"  regrets: {fmt(profile.regret[0])} {fmt(profile.regret[1])}",
    ]


def _solve_game(game: InducedGame, eps: float, resolution: int) -> list[EquilibriumProfile]:
    profiles = support_enumeration(game, eps)
    if not profiles and game.dims == (2, 2):
        # Continuum-only corner: fall back to grid representatives.
        profiles = [
            verify_equilibrium(game, ((mu, 1.0 - mu), (nu, 1.0 - nu)), eps)
            for mu, nu in grid_oracle(game, resolution, eps)
        ]
    return profiles


def run_induce(doc: GameSpecDocument, out_format: str) -> list[str]:
    game = induce_game(doc.state, doc.payoffs, doc.moves_proposer, doc.moves_responder)
    if out_format == "csv":
        lines = ["matrix,row,col,value"]
        for name, matrix in (("proposer", game.proposer), ("responder", game.responder)):
            for i in range(matrix.shape[0]):
                for j in range(matrix.shape[1]):
                    lines.append(f"{name},{i},{j},{fmt(matrix[i, j])}")
        return lines
    lines = [f"induced game {game.dims[0]}x{game.dims[1]}"]
    lines += _matrix_lines("proposer", game.proposer)
    lines += _matrix_lines("responder", game.responder)
    return lines


def run_classify(doc: GameSpecDocument, out_format: str) -> list[str]:
    classification = classify_state(doc.state)
    d1, d2 = classification.diffs
    if out_format == "csv":
        return ["label,diff1,diff2", f"{classification.label},{fmt(d1)},{fmt(d2)}"]
    return [
        f"label: {classification.label}",
        f"diff1: {fmt(d1)}",
        f"diff2: {fmt(d2)}",
    ]


def run_nash(doc: GameSpecDocument, eps: float, resolution: int, out_format: str) -> list[str]:
    game = induce_game(doc.state, doc.payoffs, doc.moves_proposer, doc.moves_responder)
    profiles = _solve_game(game, eps, resolution)
    if out_format == "csv":
        lines = [
            "index,kind,certified,degenerate,payoff_proposer,payoff_responder,"
            "regret_proposer,regret_responder,proposer_strategy,responder_strategy"
        ]
        for idx, p in enumerate(profiles, start=1):
            lines.append(
                f"{idx},{p.kind},{_fmt_bool(p.certified)},{_fmt_bool(p.degenerate)},"
                f"{fmt(p.payoffs[0])},{fmt(p.payoffs[1])},{fmt(p.regret[0])},{fmt(p.regret[1])},"
                f"{_strategy_text(p.proposer_strategy)},{_strategy_text(p.responder_strategy)}"
            )
        return lines
    lines = [f"equilibria: {len(profiles)}"]
    for idx, p in enumerate(profiles, start=1):
        lines += _profile_lines(idx, p)
    return lines


def parse_profile(text: str, dims: tuple[int, int]) -> tuple[list[float], list[float]]:
    """Read a strategy pair written as "p0,p1,...;q0,q1,..."."""
    parts = text.split(";")
    if len(parts) != 2:
        raise ValidationError("profile", "expected two strategies separated by ';'")
    strategies = []
    for part, size, name in zip(parts, dims, ("proposer", "responder")):
        try:
            weights = [float(v) for v in part.split(",")]
        except ValueError:
            raise ValidationError(f"profile.{name}", f"cannot read weights from {part!r}") from None
        if len(weights) != size:
            raise ValidationError(
                f"profile.{name}", f"expected {size} weights, got {len(weights)}"
            )
        strategies.append(weights)
    return strategies[0], strategies[1]


def run_verify(doc: GameSpecDocument, profile_text: str, eps: float, out_format: str) -> list[str]:
    game = induce_game(doc.state, doc.payoffs, doc.moves_proposer, doc.moves_responder)
    x, y = parse_profile(profile_text, (len(doc.moves_proposer), len(doc.moves_responder)))
    try:
        profile = verify_equilibrium(game, (x, y), eps)
    except GameError as exc:
        raise ValidationError("profile", str(exc)) from exc
    if out_format == "csv":
        return [
            "certified,kind,payoff_proposer,payoff_responder,regret_proposer,regret_responder",
            f"{_fmt_bool(profile.certified)},{profile.kind},"
            f"{fmt(profile.payoffs[0])},{fmt(profile.payoffs[1])},"
            f"{fmt(profile.regret[0])},{fmt(profile.regret[1])}",
        ]
    return [
        f"certified: {_fmt_bool(profile.certified)}",
        f"kind: {profile.kind}",
        f"payoffs: {fmt(profile.payoffs[0])} {fmt(profile.payoffs[1])}",
        f"regrets: {fmt(profile.regret[0])} {fmt(profile.regret[1])}",
    ]


def _equilibria_cell(profiles: list[EquilibriumProfile]) -> str:
    groups = []
    for p in profiles:
        groups.append(
            f"mu={fmt(p.proposer_strategy[0])} nu={fmt(p.responder_strategy[0])} "
            f"pp={fmt(p.payoffs[0])} pr={fmt(p.payoffs[1])}"
        )
    return ";".join(groups)


def run_sweep(sweep: SweepSpec, eps: float, resolution: int, out_format: str) -> list[str]:
    moves = default_move_set(2)
    step = (sweep.stop - sweep.start) / (sweep.count - 1)
    columns = ["theta"]
    if "probs" in sweep.outputs:
        columns += ["p00", "p01", "p10", "p11"]
    if "label" in sweep.outputs:
        columns.append("label")
    if "equilibria" in sweep.outputs:
        columns.append("equilibria")
    rows = []
    for i in range(sweep.count):
        theta = sweep.start + i * step if i < sweep.count - 1 else sweep.stop
        state = bell_like(theta, sweep.basis_a, sweep.basis_b, sweep.payoffs.dims)
        row = [fmt(theta)]
        if "probs" in sweep.outputs:
            probs = probability_table(state).probs
            row += [fmt(probs[0, 0]), fmt(probs[0, 1]), fmt(probs[1, 0]), fmt(probs[1, 1])]
        if "label" in sweep.outputs:
            row.append(classify_state(state).label)
        if "equilibria" in sweep.outputs:
            game = induce_game(state, sweep.payoffs, moves, moves)
            row.append(_equilibria_cell(_solve_game(game, eps, resolution)))
        rows.append(row)
    if out_format == "csv":
        return [",".join(columns)] + [",".join(row) for row in rows]
    lines = []
    for row in rows:
        lines.append("; ".join(f"{name}={value}" for name, value in zip(columns, row)))
    return lines


def _read_spec_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rqgames",
        description="Induce, classify and solve the classical games generated by "
        "an initial state under permutation moves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "induce": "print the induced bimatrix game",
        "classify": "label the state aligned or opposed",
        "nash": "enumerate equilibria of the induced game",
        "verify": "certify a given strategy profile",
        "sweep": "tabulate a theta family of two-term states",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--spec", required=True, help="document path, or - for stdin")
        cmd.add_argument("--eps", type=float, default=None, help="regret tolerance (default 1e-9)")
        cmd.add_argument(
            "--resolution", type=int, default=None, help="grid resolution (default 64)"
        )
        cmd.add_argument("--format", choices=("table", "csv"), default="table")
        if name == "verify":
            cmd.add_argument(
                "--profile", required=True, help='strategy pair, e.g. "0.5,0.5;0.5,0.5"'
            )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        text = _read_spec_text(args.spec)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "sweep":
            spec = parse_sweep_spec(text)
        else:
            spec = parse_spec(text)
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    eps = args.eps if args.eps is not None else (spec.eps if spec.eps is not None else EPS_DEFAULT)
    resolution = (
        args.resolution
        if args.resolution is not None
        else (spec.resolution if spec.resolution is not None else RESOLUTION_FLAG_DEFAULT)
    )
    try:
        if args.command == "induce":
            lines = run_induce(spec, args.format)
        elif args.command == "classify":
            lines = run_classify(spec, args.format)
        elif args.command == "nash":
            lines = run_nash(spec, eps, resolution, args.format)
        elif args.command == "verify":
            lines = run_verify(spec, args.profile, eps, args.format)
        else:
            lines = run_sweep(spec, eps, resolution, args.format)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GameError, TooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
