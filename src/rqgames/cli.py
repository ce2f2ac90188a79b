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

import json
import math
import re
import sys
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import GameError, ParseError, TooLargeError, ValidationError
from .games import _FLOAT_MAX, Bimatrix, PayoffTable, UltimatumParams, _finite, ultimatum_2x2, ultimatum_general
from .hilbert import QuantumState, bell_like, bell_like_probs, probability_table, state_from_amplitudes
from .induce import (
    ALIGNED,
    OPPOSED,
    MoveSet,
    classify_state,
    default_move_set,
    induce_game,
    induce_stack,
    opposed,
)
from .nash import (
    EPS_DEFAULT,
    EquilibriumProfile,
    _enumerate,
    grid_oracle,  # unused here; bench/spans.py wraps cli.grid_oracle, so a traced run needs it
    support_enumeration,
    verify_equilibrium,
)

SWEEP_OUTPUTS = ("probs", "label", "equilibria")
# Thetas per pass of ``run_sweep`` through the layers; it bounds the memory
# one pass takes.
SWEEP_CHUNK = 2048
# The most thetas one sweep may have; a larger count exits 3 before any row
# is computed.  A million ultimatum rows take about 2.4 s and 149 MB peak
# traced memory in process in table format (2-vCPU Xeon, numpy 2.4).
SWEEP_MAX_ROWS = 1_000_000

_PI_PATTERN = re.compile(
    r"^\s*([+-]?)\s*(?:(\d+(?:\.\d+)?)\s*\*\s*)?pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$",
    re.IGNORECASE,
)


@dataclass(frozen=True, eq=False)
class GameSpecDocument:
    """A validated game document."""

    payoffs: PayoffTable
    state: QuantumState
    moves_proposer: MoveSet
    moves_responder: MoveSet
    eps: float | None


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


class _reported_as:  # a class: a contextlib.contextmanager costs about 1 us more per block
    """Report a library ``GameError`` raised in the block, not a ``ValidationError``, as one of ``field``."""

    def __init__(self, field: str):
        self.field = field

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, traceback):
        if isinstance(exc, GameError) and not isinstance(exc, ValidationError):
            raise ValidationError(self.field, str(exc)) from exc


def _reject_constant(name: str):
    raise ParseError(f"{name} is not a finite number")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)  # json.loads would build one per document


def _load_json(text: str):
    try:
        if text.startswith("\ufeff"):  # json.loads' own error, which the decoder leaves to it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, (exc.lineno, exc.colno)) from exc
    except ParseError:
        raise
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ParseError(f"integer literal longer than {sys.get_int_max_str_digits()} digits") from exc
    except RecursionError as exc:  # the decoder recurses once per level of nesting
        raise ParseError("arrays or objects nested too deeply") from exc


def _fields(block, field: str, rules: dict, required=(), reason: str = "expected an object", got=None) -> dict:
    """Read a document block into ``got`` (a new dict by default): check an object with no key outside
    ``rules`` and every ``required`` key, then read each key it gives, in the order of ``rules``, by its
    rule: a reader ``read(value, path)``, a ``(read,)`` reader ``read(value, path, got)`` that looks up
    the keys read before it, or a ``(test, reason)`` pair that takes a value passing ``test``.  A
    top-level key's path has no ``document.`` prefix, except in an unknown-field error."""
    if not isinstance(block, dict):
        raise ValidationError(field, reason)
    if not block.keys() <= rules.keys():
        key = next(key for key in block if key not in rules)
        raise ValidationError(f"{field}.{key}", "unknown field")
    prefix = "" if field == "document" else f"{field}."
    for key in required:
        if key not in block:
            raise ValidationError(prefix + key, "missing")
    got = {} if got is None else got
    for key, rule in rules.items():
        if key in block:
            value = block[key]
            if type(rule) is not tuple:
                value = rule(value, prefix + key)
            elif len(rule) == 1:
                value = rule[0](value, prefix + key, got)
            elif not rule[0](value):
                raise ValidationError(prefix + key, rule[1])
            got[key] = value
    return got


def _source(block, field: str, rules: dict):
    """The value of the one key of ``rules`` an object gives as its source, read by its rule."""
    if isinstance(block, dict) and len(block.keys() & rules.keys()) != 1:
        first, second = rules
        raise ValidationError(field, f"need exactly one of {first!r} or {second!r}")
    (value,) = _fields(block, field, rules).values()
    return value


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
    if type(value) not in (list, tuple) or len(value) != 2 or type(value[0]) is not int or type(value[1]) is not int:
        raise ValidationError(field, f"expected a pair of integer indices, got {value!r}")
    return (value[0], value[1])


def _check_eps(eps, field: str) -> float:
    if not 0 < eps < math.inf:  # NaN fails too
        raise ValidationError(field, "must be a finite positive number")
    return float(eps)


def _ultimatum(block, field: str) -> PayoffTable:
    with _reported_as(field):
        if not isinstance(block, dict) or block.keys() == _ULTIMATUM_ABC.keys():  # _fields rejects a non-object
            return ultimatum_2x2(**_fields(block, field, _ULTIMATUM_ABC))
        if block.keys() == _ULTIMATUM_OFFERS.keys():
            return ultimatum_general(UltimatumParams(**_fields(block, field, _ULTIMATUM_OFFERS)))
    raise ValidationError(field, "give either keys a, b, c or keys total, offers")


def _floats(values: list, numbers) -> np.ndarray | None:
    """The JSON numbers ``values`` as a float array, or None if one of ``numbers``, the same values one by one,
    is beyond float range: exactly, as numpy would round an int just past the float maximum to the maximum."""
    return np.array(values, dtype=float) if max(map(abs, numbers), default=0) <= _FLOAT_MAX else None


def _matrices(block, field: str) -> PayoffTable:
    if not isinstance(block, dict) or set(block) != {"proposer", "responder"}:
        raise ValidationError(field, "need matrices 'proposer' and 'responder'")
    for rows in block.values():  # lists of equal-length lists of JSON numbers, so numpy reads them as given
        if (
            type(rows) is not list
            or any(type(row) is not list or len(row) != len(rows[0]) for row in rows)
            or not {type(v) for row in rows for v in row} <= {int, float}
        ):
            raise ValidationError(field, "expected matrices of numbers")
    proposer, responder = (
        _floats(rows, chain.from_iterable(rows)) for rows in (block["proposer"], block["responder"])
    )
    if proposer is None or responder is None:
        raise ValidationError(field, "payoff entries must be finite")
    with _reported_as(field):
        return PayoffTable(proposer, responder)


def _amplitude_matrix(rows, field: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or any(not isinstance(r, list) for r in rows):
        raise ValidationError(field, "expected a matrix of entries")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValidationError(field, "ragged rows")
    # the whole matrix in one pass; the entry by entry check names the first bad entry
    parts = [p for row in rows for v in row for p in (v if type(v) is list and len(v) == 2 else (v, 0.0))]
    # the types first, as numpy reads "3" and true as numbers
    values = _floats(parts, parts) if {type(p) for p in parts} <= {int, float} else None
    if values is None:
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                for p in v if type(v) is list and len(v) == 2 else (v,):
                    if type(p) not in (int, float):
                        raise ValidationError(f"{field}[{i}][{j}]", f"expected a number or [re, im] pair, got {v!r}")
                    if not _finite(p):
                        raise ValidationError(f"{field}[{i}][{j}]", f"expected a finite number, got {v!r}")
    return values.view(complex).reshape(len(rows), width)


def _amplitudes(block, field: str) -> QuantumState:
    with _reported_as(field):
        given = _fields(block, field, _AMPLITUDES, ("matrix",))
        return state_from_amplitudes(given["matrix"], normalize=given.get("normalize", True))


def _state(block, field: str, got: dict) -> QuantumState:
    state = _source(block, field, _STATES)
    if type(state) is dict:  # the fields of a bell block, whose state takes the payoff table's shape
        with _reported_as(f"{field}.bell"):
            return bell_like(**state, dims=got["payoffs"].dims)
    return state


def _move_set(perms, field: str) -> MoveSet:
    if not isinstance(perms, list) or any(not isinstance(p, list) for p in perms):
        raise ValidationError(field, "expected a list of permutations")
    with _reported_as(field):
        return MoveSet(perms)


def _solver(block, field: str) -> float | None:  # null is no block
    return None if block is None else _fields(block, field, _SOLVER).get("eps")


def _sweep_payoffs(block, field: str) -> PayoffTable:
    table = _source(block, field, _PAYOFFS)
    if table.dims != (2, 2):
        raise ValidationError(field, f"sweep requires a 2x2 payoff table, got {table.dims}")
    return table


def _theta(block, field: str) -> dict:
    given = _fields(block, field, _THETA, _THETA, "expected an object with start, stop, count")
    if not given["start"] < given["stop"]:
        raise ValidationError(field, f"start {given['start']} must be below stop {given['stop']}")
    if not _finite(given["stop"] - given["start"]):  # the thetas between would not be finite
        raise ValidationError(field, f"stop {given['stop']} minus start {given['start']} is beyond float range")
    return given


def _basis_b(value, path: str, got: dict) -> tuple[int, int]:
    # checked with basis_a, read before it, and both at the 2x2 table, before the outputs are read
    basis_a, basis_b = got["basis_a"], _index_pair(value, path)
    if basis_b == basis_a:
        raise ValidationError(path, "basis pairs must differ")
    for name, (k, l) in (("basis_a", basis_a), ("basis_b", basis_b)):
        if not (0 <= k < 2 and 0 <= l < 2):
            raise ValidationError(f"{path.rpartition('.')[0]}.{name}", f"outcome ({k}, {l}) outside (2, 2)")
    return basis_b


# The rules of the document's fields.  JSON gives a whole number as an int, never as a bool.
_PAYOFFS = {"ultimatum": _ultimatum, "matrices": _matrices}
_ULTIMATUM_ABC = {"a": _number, "b": _number, "c": _number}
_ULTIMATUM_OFFERS = {"total": lambda total, field: total, "offers": (lambda v: isinstance(v, list), "expected a list")}
_BELL = {"theta": parse_angle, "basis_a": _index_pair, "basis_b": _index_pair}
_STATES = {"bell": lambda block, field: _fields(block, field, _BELL, _BELL), "amplitudes": _amplitudes}
_AMPLITUDES = {"matrix": _amplitude_matrix, "normalize": (lambda v: isinstance(v, bool), "expected true or false")}
_MOVES = {"proposer": _move_set, "responder": _move_set}
_SOLVER = {
    "eps": lambda eps, field: _check_eps(_number(eps, field), field),
    # accepted and unused, so older documents still run
    "resolution": (lambda v: type(v) is int and v >= 1, "must be a positive integer"),
}
_THETA = {
    "start": parse_angle,
    "stop": parse_angle,
    "count": (lambda v: type(v) is int and v >= 2, "must be an integer of at least 2"),
}
_OUTPUTS = (
    lambda v: isinstance(v, list) and v and all(o in SWEEP_OUTPUTS for o in v) and len(set(v)) == len(v),
    f"expected a subset of {list(SWEEP_OUTPUTS)}",
)
_GAME = {
    "payoffs": lambda block, field: _source(block, field, _PAYOFFS),
    "state": (_state,),
    "moves": lambda block, field: {} if block is None else _fields(block, field, _MOVES),  # null is no block
    "solver": _solver,
}
_SWEEP = {"theta": _theta, "basis_a": _index_pair, "basis_b": (_basis_b,), "outputs": _OUTPUTS}
_SWEEP_DOCUMENT = {
    "payoffs": _sweep_payoffs,
    "sweep": lambda block, field: _fields(block, field, _SWEEP, ("theta", "basis_a", "basis_b")),
    "solver": _solver,
}


def parse_spec(text: str) -> GameSpecDocument:
    """Parse and validate a game document."""
    got = _fields(_load_json(text), "document", _GAME, ("payoffs", "state"), "top level must be an object")
    payoffs, state, given, dims = got["payoffs"], got["state"], got.get("moves", {}), got["payoffs"].dims
    if state.dims != dims:
        raise ValidationError("state", f"state dimensions {state.dims} do not match payoffs {dims}")
    # a default move set only now: a table with a side of 1 has failed the check above
    moves_p = given["proposer"] if "proposer" in given else default_move_set(dims[0])
    moves_r = given["responder"] if "responder" in given else default_move_set(dims[1])
    if (moves_p.d, moves_r.d) != dims:
        raise ValidationError("moves", f"move sets act on ({moves_p.d}, {moves_r.d}) but payoffs are {dims}")
    return GameSpecDocument(
        payoffs=payoffs,
        state=state,
        moves_proposer=moves_p,
        moves_responder=moves_r,
        eps=got.get("solver"),
    )


def parse_sweep_spec(text: str) -> SweepSpec:
    """Parse and validate a sweep document."""
    doc = _fields(_load_json(text), "document", _SWEEP_DOCUMENT, ("payoffs", "sweep"), "top level must be an object")
    block, outputs = doc["sweep"], doc["sweep"].get("outputs", SWEEP_OUTPUTS)
    return SweepSpec(
        payoffs=doc["payoffs"],
        **block["theta"],
        basis_a=block["basis_a"],
        basis_b=block["basis_b"],
        outputs=tuple(o for o in SWEEP_OUTPUTS if o in outputs),
        eps=doc.get("solver"),
    )


def fmt(x: float) -> str:
    """Numbers printed with 9 significant digits; negative zero normalized."""
    value = float(x)
    if value == 0.0:
        value = 0.0
    return format(value, ".9g")


def _matrix_lines(name: str, matrix: np.ndarray) -> list[str]:
    cells = [[fmt(v) for v in row] for row in matrix]
    widths = [max(len(cells[i][j]) for i in range(len(cells))) for j in range(len(cells[0]))]
    lines = [f"{name}:"]
    for row in cells:
        lines.append("  " + "  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
    return lines


def _profile_fields(profile: EquilibriumProfile) -> dict[str, str]:
    """A profile's printed fields, named as its csv columns."""
    return {
        "kind": profile.kind,
        "certified": str(profile.certified).lower(),
        "degenerate": str(profile.degenerate).lower(),
        "payoff_proposer": fmt(profile.payoffs[0]),
        "payoff_responder": fmt(profile.payoffs[1]),
        "regret_proposer": fmt(profile.regret[0]),
        "regret_responder": fmt(profile.regret[1]),
        "proposer_strategy": " ".join(map(fmt, profile.proposer_strategy)),
        "responder_strategy": " ".join(map(fmt, profile.responder_strategy)),
    }


def _render(out_format: str, columns: str, table: str, records: list[dict[str, str]]) -> list[str]:
    """csv: the ``columns`` header, then those fields of each record;
    table: the ``table`` template filled in by each record, line by line."""
    if out_format == "csv":
        return [columns, *(",".join(record[name] for name in columns.split(",")) for record in records)]
    return [line for record in records for line in table.format_map(record).split("\n")]


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
    with _reported_as("state"):  # a state of another shape than 2x2
        classification = classify_state(doc.state)
    d1, d2 = classification.diffs
    fields = {"label": classification.label, "diff1": fmt(d1), "diff2": fmt(d2)}
    return _render(out_format, "label,diff1,diff2", "label: {label}\ndiff1: {diff1}\ndiff2: {diff2}", [fields])


def run_nash(doc: GameSpecDocument, eps: float, out_format: str) -> list[str]:
    game = induce_game(doc.state, doc.payoffs, doc.moves_proposer, doc.moves_responder)
    profiles = support_enumeration(game, eps)
    lines = _render(
        out_format,
        "index,kind,certified,degenerate,payoff_proposer,payoff_responder,"
        "regret_proposer,regret_responder,proposer_strategy,responder_strategy",
        "equilibrium {index}: kind={kind} certified={certified} degenerate={degenerate}\n"
        "  proposer strategy: {proposer_strategy}\n  responder strategy: {responder_strategy}\n"
        "  payoffs: {payoff_proposer} {payoff_responder}\n  regrets: {regret_proposer} {regret_responder}",
        [{"index": str(i), **_profile_fields(p)} for i, p in enumerate(profiles, start=1)],
    )
    return lines if out_format == "csv" else [f"equilibria: {len(profiles)}", *lines]


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
    with _reported_as("profile"):
        profile = verify_equilibrium(game, (x, y), eps)
    return _render(
        out_format,
        "certified,kind,payoff_proposer,payoff_responder,regret_proposer,regret_responder",
        "certified: {certified}\nkind: {kind}\n"
        "payoffs: {payoff_proposer} {payoff_responder}\nregrets: {regret_proposer} {regret_responder}",
        [_profile_fields(profile)],
    )


def run_sweep(sweep: SweepSpec, eps: float, out_format: str) -> list[str]:
    """The sweep's lines in pieces that join with newlines: the csv header, the first row, then each chunk's rest."""
    if sweep.count > SWEEP_MAX_ROWS:
        raise TooLargeError(f"sweep limited to {SWEEP_MAX_ROWS} thetas, got {sweep.count}")
    step = (sweep.stop - sweep.start) / (sweep.count - 1)
    columns = ["theta"]
    if "probs" in sweep.outputs:
        columns += ["p00", "p01", "p10", "p11"]
    if "label" in sweep.outputs:
        columns.append("label")
    if "equilibria" in sweep.outputs:
        columns.append("equilibria")
    texts = [",".join(columns)] if out_format == "csv" else []
    for first in range(0, sweep.count, SWEEP_CHUNK):
        index = np.arange(first, min(first + SWEEP_CHUNK, sweep.count))
        with np.errstate(all="ignore"):  # an infinite end warns no more than float arithmetic does
            thetas = sweep.start + index * step
        if index[-1] == sweep.count - 1:
            thetas[-1] = sweep.stop
        text = _sweep_rows(sweep, thetas, eps, columns, out_format)
        texts += text.split("\n", 1) if first == 0 else [text]
    return texts


# What a printed value puts in its line's template, by its code: a value of
# exactly 0 (either sign) or 1 is the literal ``fmt`` prints for it, and any
# other value is a slot of the chunk's ``%`` pass, "%.9g" for the value or
# "%s" for its "%.9g" text.  _ABSENT marks the unused profile slots of a row
# with fewer equilibria than the chunk's most.
_ABSENT = 3
# The fewest values a chunk prints for ``_fixed_9g`` to decide their texts.
# Below about 700 to 1 100 values the kernel's fixed cost of about 100 us
# outweighs what it saves over "%.9g" (real sweep chunks, 2-vCPU Xeon); at
# twice that, the chunk renders about 20% faster.  The benchmark's 201-row
# documents print at most about 1 300 values, its larger chunks at least 7 800.
_FIXED_9G_MIN = 2048


def _line_template(columns: list[str], out_format: str, key: bytes, slot: str) -> str:
    """The %-template of a sweep line keyed by its label (0 aligned, 1
    opposed), then the code of each value the line prints; ``slot`` is the
    template of a value the ``%`` pass prints."""
    cells_of = (slot, "0", "1")
    codes = iter(key[1:])
    cells = []
    for name in columns:
        if name == "label":
            cells.append((ALIGNED, OPPOSED)[key[0]])
        elif name == "equilibria":
            values = [cells_of[code] for code in codes if code != _ABSENT]
            profiles = (tuple(values[i : i + 4]) for i in range(0, len(values), 4))
            cells.append(";".join("mu=%s nu=%s pp=%s pr=%s" % profile for profile in profiles))
        else:
            cells.append(cells_of[next(codes)])
    return ",".join(cells) if out_format == "csv" else "; ".join(f"{n}={c}" for n, c in zip(columns, cells))


def _sweep_rows(sweep: SweepSpec, thetas: np.ndarray, eps: float, columns: list[str], out_format: str) -> str:
    """The lines for a chunk of thetas, each layer run once on the whole chunk.

    The equilibria come from ``nash._enumerate``, the core of
    ``support_enumeration``, on the chunk's stack of induced games.  The
    first row that fails a check raises the error of its single state.
    """
    count = len(thetas)
    probs, failed = bell_like_probs(thetas, sweep.basis_a, sweep.basis_b, sweep.payoffs.dims)
    head = np.hstack([thetas[:, None], probs.reshape(count, 4)]) if "probs" in sweep.outputs else thetas[:, None]
    labels = np.zeros(count, dtype=bool)
    if "label" in sweep.outputs:
        labels = opposed(probs[:, 1, 1] - probs[:, 0, 1], probs[:, 1, 0] - probs[:, 0, 0])
    games, profiles = np.zeros(0, dtype=int), np.zeros((0, 4))
    if "equilibria" in sweep.outputs:
        moves = default_move_set(2)
        a, b = induce_stack(probs, sweep.payoffs, moves, moves)
        games, x, y, payoffs = _enumerate(a.transpose(1, 2, 0), b.transpose(1, 2, 0), eps)[:4]
        failed = failed | ~(np.isfinite(a).all(axis=(1, 2)) & np.isfinite(b).all(axis=(1, 2)))
        profiles = np.column_stack([x[:, 0], y[:, 0], payoffs])
    if failed.any():
        r = int(failed.argmax())
        # the checks of a single state, in order; the first that fails raises
        probability_table(bell_like(float(thetas[r]), sweep.basis_a, sweep.basis_b, sweep.payoffs.dims))
        Bimatrix(a[r], b[r])  # the induced game's finite-payoff check
    return _render_rows(columns, out_format, head, labels, games, profiles)


def _render_rows(
    columns: list[str], out_format: str, head: np.ndarray, labels: np.ndarray, games: np.ndarray, profiles: np.ndarray
) -> str:
    """The text of the sweep lines whose rows print their ``head`` values,
    then mu, nu and the payoffs of each of their ``profiles``; ``labels``
    marks opposed rows and ``games`` gives each profile's row, in row order.

    The rows are rendered by one ``%`` over the values that are not exactly
    0 or 1, with each row's bytes template keyed by its label and the code
    of each value it prints.  A chunk that prints at least ``_FIXED_9G_MIN``
    such values passes their "%.9g" texts: those ``_fixed_9g`` decides,
    and each other one printed by "%.9g" on its own.
    """
    count, width = head.shape
    groups = np.bincount(games, minlength=count)
    slots = np.arange(4 * groups.max(initial=0))
    cells = np.empty((count, width + len(slots)))
    cells[:, :width] = head
    rank = np.arange(len(games)) - (np.cumsum(groups) - groups)[games]
    cells[games[:, None], width + 4 * rank[:, None] + np.arange(4)] = profiles
    keys = np.empty((count, 1 + cells.shape[1]), dtype=np.uint8)
    keys[:, 0] = labels
    keys[:, 1:] = (cells == 0.0) + 2 * (cells == 1.0)
    keys[:, 1 + width :][slots >= 4 * groups[:, None]] = _ABSENT
    printed = cells[keys[:, 1:] == 0]
    if len(printed) < _FIXED_9G_MIN:
        slot, values = "%.9g", printed.tolist()
    else:
        at, decided = _fixed_9g(printed)
        texts = np.empty(len(printed), dtype="S16")  # "%.9g" prints at most 16 characters
        texts[at] = decided
        rest = np.ones(len(printed), dtype=bool)
        rest[at] = False
        texts[rest] = [b"%.9g" % value for value in printed[rest].tolist()]
        slot, values = "%s", texts.tolist()
    keys = keys.view(f"V{keys.shape[1]}").ravel().tolist()
    templates = {key: _line_template(columns, out_format, key, slot).encode() for key in set(keys)}
    return (b"\n".join(map(templates.__getitem__, keys)) % tuple(values)).decode("ascii")


# The tables of ``_fixed_9g``: exact powers of ten; the four ASCII digits of
# each number below 10 000 as one word, the first digit in the lowest byte,
# and its count of trailing zeros; the masks of the lowest 0 to 8 bytes of a
# word and a point in each of those bytes; and, by the code e + 4 + 13 * (v < 0)
# of a value's decimal exponent e and sign, the text before its first digit
# and how many of its other eight digits come before the point (8 for all).
_POW10 = np.array([float(10**k) for k in range(13)])
_ASCII4 = sum((48 + np.arange(10_000) // 10 ** (3 - i) % 10).astype("<u8") << np.uint64(8 * i) for i in range(4))
_ZEROS4 = sum(np.arange(10_000) % 10**m == 0 for m in range(1, 5)).astype(np.uint8)
_LOW = np.array([(1 << 8 * m) - 1 for m in range(9)], dtype="<u8")
_POINT = np.array([ord(".") << 8 * m for m in range(8)] + [0], dtype="<u8")
_HEADS = [b"-"[:neg] + (b"0." + b"0" * (-1 - e) if e < 0 else b"") for neg in (0, 1) for e in range(-4, 9)]
_HEAD = np.array([int.from_bytes(head, "little") for head in _HEADS], dtype="<u8")
_HEAD_BITS = np.array([8 * len(head) for head in _HEADS], dtype="<u8")
_SPLIT = np.array([e if e >= 0 else 8 for e in range(-4, 9)] * 2)


def _shifted(words: np.ndarray, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high words of ``words`` shifted left by ``bits`` < 128 in 128 bits; numpy shifts a
    uint64 by 64 or more, such as a negative count wrapped around, to 0."""
    return words << bits, (words << (bits - np.uint64(64))) | (words >> (np.uint64(64) - bits))


def _fixed_9g(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions of the ``values`` whose "%.9g" text is decided here, and those texts as "S16" bytes.

    A value is decided when "%.9g" prints it in fixed notation, with a decimal
    exponent e from -4 to 8, and its rounding to 9 digits is not in doubt.
    With e = floor(log10|v|), q = |v| * 10**(8 - e) carries one rounding, an
    error below 6e-8, as the power of ten is exact.  So a q in [1e8, 1e9)
    nearer than 0.5 - 1e-6 to its nearest integer D rounds to D, the 9 digits
    "%.9g" prints, with exponent e.  Ties, exponent form, an e that log10 puts
    one off, and values that are not finite are left undecided.
    """
    magnitude = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        # an exponent outside -4..8, and NaN, are clamped into it, where q then misses [1e8, 1e9)
        e = np.fmin(np.fmax(np.floor(np.log10(magnitude)), -4.0), 8.0).astype(np.intp)
        q = magnitude * _POW10[8 - e]
        nearest = np.rint(q)
        at = np.flatnonzero((q >= 1e8) & (nearest < 1e9) & (np.abs(q - nearest) < 0.5 - 1e-6))
    e, digits = e[at], nearest[at].astype(np.intp)
    lead = digits // 10**8
    rest = digits - lead * 10**8
    high = rest // 10**4
    low = rest - high * 10**4
    zeros = np.where(low != 0, _ZEROS4[low], 4 + _ZEROS4[high])  # of the other eight digits
    # the other eight digits, without the trailing zeros after the point
    tail = (_ASCII4[high] | _ASCII4[low] << np.uint64(32)) & _LOW[np.maximum(8 - zeros, e)]
    code = e + 4 + 13 * (values[at] < 0)
    split = _SPLIT[code]
    after = tail >> (8 * split).astype("<u8")
    before = tail & _LOW[split] | (after != 0) * _POINT[split]  # with the point, if digits follow it
    bits = _HEAD_BITS[code]
    texts = np.zeros((len(at), 2), dtype="<u8")  # the low and high word of each text
    texts[:, 0] = _HEAD[code] | (lead + 48).astype("<u8") << bits
    for words, shift in ((before, bits + np.uint64(8)), (after, bits + (8 * split + 16).astype("<u8"))):
        low_word, high_word = _shifted(words, shift)
        texts[:, 0] |= low_word
        texts[:, 1] |= high_word
    return at, texts.view("S16").ravel()


def _read_spec_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        source = "stdin" if path == "-" else path
        raise ParseError(f"{source}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


# The command-line surface: each command's help and options, as the
# keywords of argparse's ``add_argument``.  ``build_parser`` and
# ``_plain_args`` both read it.
_OPTIONS = {
    "--spec": {"required": True, "help": "document path, or - for stdin"},
    "--eps": {"type": float, "default": None, "help": f"regret tolerance (default {EPS_DEFAULT})"},
    "--format": {"choices": ("table", "csv"), "default": "table"},
}
_COMMANDS = {
    "induce": ("print the induced bimatrix game", _OPTIONS),
    "classify": ("label the state aligned or opposed", _OPTIONS),
    "nash": ("enumerate equilibria of the induced game", _OPTIONS),
    "verify": (
        "certify a given strategy profile",
        {**_OPTIONS, "--profile": {"required": True, "help": 'strategy pair, e.g. "0.5,0.5;0.5,0.5"'}},
    ),
    "sweep": ("tabulate a theta family of two-term states", _OPTIONS),
}


def build_parser():
    """The argparse parser of ``_COMMANDS``; argparse is imported only here."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="rqgames",
        description="Induce, classify and solve the classical games generated by "
        "an initial state under permutation moves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        for option, keywords in options.items():
            cmd.add_argument(option, **keywords)
    return parser


def _plain_args(argv) -> dict | None:
    """The arguments of a plain ``argv``, as ``vars`` of ``build_parser``'s
    namespace for it; None for any other ``argv``.

    Plain is a command, then whole option names, each followed by one value
    that does not start with '-' (a lone '-' may), with every required
    option given and every value one argparse accepts.  Everything else
    (-h, --, abbreviations, --name=value, dash-led values, errors) is left
    to argparse, which owns the help and error text.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    options = _COMMANDS[argv[0]][1]
    args = {"command": argv[0]}
    for option, value in zip(argv[1::2], argv[2::2]):
        keywords = options.get(option)
        if keywords is None or (value[:1] == "-" and value != "-"):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        args[option[2:]] = value  # the last of a repeated option wins
    for option, keywords in options.items():
        if option[2:] not in args:
            if keywords.get("required"):
                return None
            args[option[2:]] = keywords.get("default")
    return args


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a warning the document draws, such as ``MismatchedTotalsWarning``,
    as one stderr line with no program location."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        args = vars(build_parser().parse_args(argv))
    command, out_format = args["command"], args["format"]
    try:
        if args["eps"] is not None:
            _check_eps(args["eps"], "--eps")
        text = _read_spec_text(args["spec"])
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            spec = parse_sweep_spec(text) if command == "sweep" else parse_spec(text)
    except (GameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    eps = next(v for v in (args["eps"], spec.eps, EPS_DEFAULT) if v is not None)
    try:
        if command == "induce":
            lines = run_induce(spec, out_format)
        elif command == "classify":
            lines = run_classify(spec, out_format)
        elif command == "nash":
            lines = run_nash(spec, eps, out_format)
        elif command == "verify":
            lines = run_verify(spec, args["profile"], eps, out_format)
        else:
            lines = run_sweep(spec, eps, out_format)
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
