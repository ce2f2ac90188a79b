"""Command-line surface: parse game documents, induce, classify, solve, verify, sweep.

Documents are JSON objects.  A game document carries exactly one payoff
source and one state source, plus optional move sets and solver options:

    {
      "payoffs": {"ultimatum": {"a": 99, "b": 50, "c": 1}},
      "state": {"bell": {"theta": "pi/4", "basis_a": [1, 1], "basis_b": [0, 0]}},
      "moves": {"proposer": [[1, 0], [0, 1]], "responder": [[1, 0], [0, 1]]},
      "solver": {"eps": 1e-9}
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
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import GameError, ParseError, ValidationError
from .games import Bimatrix, PayoffTable, UltimatumParams, _finite, ultimatum_2x2, ultimatum_general
from .hilbert import QuantumState, bell_like, bell_like_probs, probability_table, state_from_amplitudes
from .induce import (
    MoveSet,
    class_labels,
    classify_state,
    default_move_set,
    induce_game,
    induce_stack,
)
from .nash import (
    EPS_DEFAULT,
    EquilibriumProfile,
    equilibria_2x2,
    grid_oracle,  # unused here; bench/spans.py wraps cli.grid_oracle, so a traced run needs it
    support_enumeration,
    verify_equilibrium,
)

SWEEP_OUTPUTS = ("probs", "label", "equilibria")
# Thetas per pass of ``run_sweep`` through the layers; it bounds the memory
# one pass takes.
SWEEP_CHUNK = 2048

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
    source: dict


def _reject_constant(name: str):
    raise ParseError(f"{name} is not a finite number")


def _load_json(text: str):
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, (exc.lineno, exc.colno)) from exc
    except ParseError:
        raise
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError(f"integer literal longer than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:  # the decoder recurses once per level of nesting
        raise ParseError("arrays or objects nested too deeply") from exc


def _object(block, field: str, allowed=None, required=(), reason: str = "expected an object") -> dict:
    """Check a document block: an object, with no key outside ``allowed``
    (when given) and every ``required`` key, checked in that order.

    Missing top-level keys are named without the ``document.`` prefix.
    """
    if not isinstance(block, dict):
        raise ValidationError(field, reason)
    for key in block:
        if allowed is not None and key not in allowed:
            raise ValidationError(f"{field}.{key}", "unknown field")
    for key in required:
        if key not in block:
            raise ValidationError(key if field == "document" else f"{field}.{key}", "missing")
    return block


def _source(block, field: str, names: tuple[str, str]) -> tuple[str, object]:
    """The one of the two ``names`` an object gives as its source, and its block."""
    given = [name for name in names if name in _object(block, field)]
    if len(given) != 1:
        raise ValidationError(field, f"need exactly one of {names[0]!r} or {names[1]!r}")
    _object(block, field, names)
    return given[0], block[given[0]]


def parse_angle(value, field: str) -> float:
    """Accept a finite number, a numeric string, or a symbolic pi expression."""
    angle = value
    if isinstance(value, str):
        match = _PI_PATTERN.match(value)
        if match:
            sign = -1.0 if match.group(1) == "-" else 1.0
            factor = float(match.group(2)) if match.group(2) else 1.0
            divisor = float(match.group(3)) if match.group(3) else 1.0
            if divisor == 0.0:
                raise ValidationError(field, f"division by zero in {value!r}")
            angle = sign * factor * math.pi / divisor
        else:
            try:
                angle = float(value)
            except ValueError:
                raise ValidationError(
                    field, f"cannot read {value!r} as an angle (use a number or e.g. 'pi/4')"
                ) from None
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, f"expected an angle, got {value!r}")
    if not _finite(angle):
        raise ValidationError(field, f"expected a finite angle, got {value!r}")
    return float(angle)


def _number(value, field: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(field, f"expected a number, got {value!r}")
    if not _finite(value):
        raise ValidationError(field, f"expected a finite number, got {value!r}")
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
    source, sub = _source(block, field, ("ultimatum", "matrices"))
    if source == "ultimatum":
        field = f"{field}.ultimatum"
        if set(_object(sub, field)) == {"a", "b", "c"}:
            coefficients = [_number(sub[key], f"{field}.{key}") for key in "abc"]
            try:
                return ultimatum_2x2(*coefficients)
            except GameError as exc:
                raise ValidationError(field, str(exc)) from exc
        if set(sub) == {"total", "offers"}:
            offers = sub["offers"]
            if not isinstance(offers, list):
                raise ValidationError(f"{field}.offers", "expected a list")
            try:
                params = UltimatumParams(sub["total"], tuple(offers))
                return ultimatum_general(params)
            except GameError as exc:
                raise ValidationError(field, str(exc)) from exc
        raise ValidationError(field, "give either keys a, b, c or keys total, offers")
    field = f"{field}.matrices"
    need = "need matrices 'proposer' and 'responder'"
    if set(_object(sub, field, reason=need)) != {"proposer", "responder"}:
        raise ValidationError(field, need)
    try:
        return PayoffTable(np.array(sub["proposer"], dtype=float), np.array(sub["responder"], dtype=float))
    except (GameError, ValueError) as exc:
        raise ValidationError(field, str(exc)) from exc


def _complex_entry(value, field: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else (value, 0.0)
    for v in parts:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(field, f"expected a number or [re, im] pair, got {value!r}")
    return complex(*parts)


def _build_state(block, payoff_dims: tuple[int, int], field: str = "state") -> QuantumState:
    source, sub = _source(block, field, ("bell", "amplitudes"))
    field = f"{field}.{source}"
    if source == "bell":
        keys = ("theta", "basis_a", "basis_b")
        _object(sub, field, {*keys, "dims"}, keys)
        theta = parse_angle(sub["theta"], f"{field}.theta")
        basis_a = _index_pair(sub["basis_a"], f"{field}.basis_a")
        basis_b = _index_pair(sub["basis_b"], f"{field}.basis_b")
        dims = payoff_dims
        if "dims" in sub:
            dims = _index_pair(sub["dims"], f"{field}.dims")
        try:
            return bell_like(theta, basis_a, basis_b, dims)
        except GameError as exc:
            raise ValidationError(field, str(exc)) from exc
    rows = _object(sub, field, {"matrix", "normalize"}, ("matrix",))["matrix"]
    if not isinstance(rows, list) or not rows or any(not isinstance(r, list) for r in rows):
        raise ValidationError(f"{field}.matrix", "expected a matrix of entries")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError(f"{field}.matrix", "ragged rows")
    amps = np.array(
        [
            [
                _complex_entry(v, f"{field}.matrix[{i}][{j}]")
                for j, v in enumerate(row)
            ]
            for i, row in enumerate(rows)
        ],
        dtype=complex,
    )
    normalize = sub.get("normalize", True)
    if not isinstance(normalize, bool):
        raise ValidationError(f"{field}.normalize", "expected true or false")
    try:
        return state_from_amplitudes(amps, normalize=normalize)
    except GameError as exc:
        raise ValidationError(field, str(exc)) from exc


def _build_moves(block, payoff_dims: tuple[int, int]) -> tuple[MoveSet, MoveSet]:
    moves = {"proposer": default_move_set(payoff_dims[0]), "responder": default_move_set(payoff_dims[1])}
    if block is not None:
        for key, perms in _object(block, "moves", set(moves)).items():
            if not isinstance(perms, list) or any(not isinstance(p, list) for p in perms):
                raise ValidationError(f"moves.{key}", "expected a list of permutations")
            try:
                moves[key] = MoveSet(tuple(tuple(p) for p in perms))
            except GameError as exc:
                raise ValidationError(f"moves.{key}", str(exc)) from exc
    return moves["proposer"], moves["responder"]


def _build_solver(block) -> float | None:
    if block is None:
        return None
    _object(block, "solver", {"eps", "resolution"})
    eps = None
    if "eps" in block:
        eps = _check_eps(_number(block["eps"], "solver.eps"), "solver.eps")
    if "resolution" in block:
        _check_resolution(block["resolution"], "solver.resolution")
    return eps


def _check_eps(eps, field: str) -> float:
    if not 0 < eps < math.inf:  # NaN fails too
        raise ValidationError(field, "must be a finite positive number")
    return float(eps)


def _check_resolution(resolution, field: str) -> None:
    if isinstance(resolution, bool) or not isinstance(resolution, int) or resolution < 1:
        raise ValidationError(field, "must be a positive integer")


def _document(text: str, keys: tuple[str, str], optional: set[str]) -> dict:
    """The top level of a document: an object with the two ``keys`` and some ``optional`` ones."""
    return _object(_load_json(text), "document", {*keys, *optional}, keys, "top level must be an object")


def parse_spec(text: str) -> GameSpecDocument:
    """Parse and validate a game document."""
    data = _document(text, ("payoffs", "state"), {"moves", "solver"})
    payoffs = _build_payoffs(data["payoffs"])
    state = _build_state(data["state"], payoffs.dims)
    moves_p, moves_r = _build_moves(data.get("moves"), payoffs.dims)
    eps = _build_solver(data.get("solver"))
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
        source=data,
    )


def parse_sweep_spec(text: str) -> SweepSpec:
    """Parse and validate a sweep document."""
    data = _document(text, ("payoffs", "sweep"), {"solver"})
    payoffs = _build_payoffs(data["payoffs"])
    if payoffs.dims != (2, 2):
        raise ValidationError("payoffs", f"sweep requires a 2x2 payoff table, got {payoffs.dims}")
    keys = ("theta", "basis_a", "basis_b")
    block = _object(data["sweep"], "sweep", {*keys, "outputs"}, keys)
    keys = ("start", "stop", "count")
    theta = _object(block["theta"], "sweep.theta", keys, keys, "expected an object with start, stop, count")
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
    eps = _build_solver(data.get("solver"))
    return SweepSpec(
        payoffs=payoffs,
        start=start,
        stop=stop,
        count=count,
        basis_a=basis_a,
        basis_b=basis_b,
        outputs=tuple(o for o in SWEEP_OUTPUTS if o in outputs),
        eps=eps,
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


def run_nash(doc: GameSpecDocument, eps: float, out_format: str) -> list[str]:
    game = induce_game(doc.state, doc.payoffs, doc.moves_proposer, doc.moves_responder)
    profiles = support_enumeration(game, eps)
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


def run_sweep(sweep: SweepSpec, eps: float, out_format: str) -> list[str]:
    step = (sweep.stop - sweep.start) / (sweep.count - 1)
    columns = ["theta"]
    if "probs" in sweep.outputs:
        columns += ["p00", "p01", "p10", "p11"]
    if "label" in sweep.outputs:
        columns.append("label")
    if "equilibria" in sweep.outputs:
        columns.append("equilibria")
    lines = [",".join(columns)] if out_format == "csv" else []
    for first in range(0, sweep.count, SWEEP_CHUNK):
        index = np.arange(first, min(first + SWEEP_CHUNK, sweep.count))
        with np.errstate(all="ignore"):  # an infinite end warns no more than float arithmetic does
            thetas = sweep.start + index * step
        if index[-1] == sweep.count - 1:
            thetas[-1] = sweep.stop
        lines += _sweep_rows(sweep, thetas, eps, columns, out_format)
    return lines


def _line_template(columns: list[str], out_format: str, label: str, groups: int) -> str:
    """The %-template of a sweep line; "%.9g" prints v + 0.0 as ``fmt`` prints v."""
    cell = {"label": label, "equilibria": ";".join(["mu=%.9g nu=%.9g pp=%.9g pr=%.9g"] * groups)}
    cells = [cell.get(name, "%.9g") for name in columns]
    return ",".join(cells) if out_format == "csv" else "; ".join(f"{n}={c}" for n, c in zip(columns, cells))


def _sweep_rows(sweep: SweepSpec, thetas: np.ndarray, eps: float, columns: list[str], out_format: str) -> list[str]:
    """Lines for a chunk of thetas, each layer run once on the whole chunk.

    Every row gets the checks a single state gets, as array tests.  Rows a
    check flags are finished in row order with the single-state functions,
    as in a row-by-row loop: a failed state raises its error, and a row
    ``equilibria_2x2`` leaves unsettled gets one ``support_enumeration``
    call.  The chunk is rendered by one ``%`` over the floats it prints,
    with each row's template chosen by its label and number of equilibria.
    """
    count = len(thetas)
    probs, failed = bell_like_probs(thetas, sweep.basis_a, sweep.basis_b, sweep.payoffs.dims)
    values = [thetas[:, None], probs.reshape(count, 4)]
    printed = [np.ones((count, 1), dtype=bool), np.full((count, 4), "probs" in sweep.outputs)]
    labels = [""] * count
    if "label" in sweep.outputs:
        labels = class_labels(probs[:, 1, 1] - probs[:, 0, 1], probs[:, 1, 0] - probs[:, 0, 0]).tolist()
    groups = [0] * count
    unsettled = np.zeros(count, dtype=bool)
    if "equilibria" in sweep.outputs:
        moves = default_move_set(2)
        a, b = induce_stack(probs, sweep.payoffs, moves, moves)
        x, y, pay_p, pay_r, found, unsettled = equilibria_2x2(a, b, eps)
        found &= ~unsettled[:, None]
        values.append(np.stack([x[..., 0], y[..., 0], pay_p, pay_r], axis=-1).reshape(count, -1))
        printed.append(np.repeat(found, 4, axis=1))
        groups = found.sum(axis=1).tolist()
    settled = {}
    for r in np.flatnonzero(failed | unsettled).tolist():
        if failed[r]:
            # raises the error of this row's state or table
            probability_table(bell_like(float(thetas[r]), sweep.basis_a, sweep.basis_b, sweep.payoffs.dims))
        if unsettled[r]:
            profiles = support_enumeration(Bimatrix(a[r], b[r]), eps)
            groups[r] = len(profiles)
            floats = [(p.proposer_strategy[0], p.responder_strategy[0], *p.payoffs) for p in profiles]
            settled[r] = [float(v) + 0.0 for group in floats for v in group]
    printed = np.hstack(printed)
    args = (np.hstack(values)[printed] + 0.0).tolist()
    ends = np.cumsum(printed.sum(axis=1)).tolist()
    for r in reversed(settled):  # these profiles follow the other floats of their row
        args[ends[r] : ends[r]] = settled[r]
    keys = list(zip(labels, groups))
    templates = {key: _line_template(columns, out_format, *key) for key in set(keys)}
    return ("\n".join([templates[key] for key in keys]) % tuple(args)).split("\n")


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
            "--resolution", type=int, default=None, help="accepted for old documents and scripts; unused"
        )
        cmd.add_argument("--format", choices=("table", "csv"), default="table")
        if name == "verify":
            cmd.add_argument(
                "--profile", required=True, help='strategy pair, e.g. "0.5,0.5;0.5,0.5"'
            )
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning the document draws, such as ``MismatchedTotalsWarning``,
    as one stderr line with no program location."""
    print(f"warning: {message}", file=sys.stderr)


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if args.eps is not None:
            _check_eps(args.eps, "--eps")
        if args.resolution is not None:
            _check_resolution(args.resolution, "--resolution")
        text = _read_spec_text(args.spec)
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            spec = parse_sweep_spec(text) if args.command == "sweep" else parse_spec(text)
    except (GameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    eps = next(v for v in (args.eps, spec.eps, EPS_DEFAULT) if v is not None)
    try:
        if args.command == "induce":
            lines = run_induce(spec, args.format)
        elif args.command == "classify":
            lines = run_classify(spec, args.format)
        elif args.command == "nash":
            lines = run_nash(spec, eps, args.format)
        elif args.command == "verify":
            lines = run_verify(spec, args.profile, eps, args.format)
        else:
            lines = run_sweep(spec, eps, args.format)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GameError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write("\n".join([*lines, ""]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
