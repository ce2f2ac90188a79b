"""Seeded document generators for the three benchmark workloads.

A workload is an endless stream of cycles.  Every cycle of a workload has
the same composition (commands, formats, game sizes, basis pairs, row
counts, which documents must be rejected) and fresh random numbers drawn
from the seed.  So runs with different seeds do the same kind and amount
of work, and the same seed always yields the same documents.  The program
only ever sees ``Doc.argv`` and ``Doc.text``; ``Doc.expect`` carries the
numbers the independent checker in ``check.py`` needs.

Cheap documents come first in each cycle, so the first documents of a
cycle serve as the warm-up.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

# Paper anchors: the 99/50/1 ultimatum at theta = pi/4.  Basis (1,1),(0,0)
# gives the entangled diagonal state whose only equilibrium pays
# 37.25/12.75; basis (0,1),(1,1) gives the fair superposition, 74.5/25.5.
PAPER_TRIPLE = (99, 50, 1)
ANCHORS = {((1, 1), (0, 0)): (37.25, 12.75), ((0, 1), (1, 1)): (74.5, 25.5)}

OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))
BASIS_PAIRS = tuple((a, b) for a in OUTCOMES for b in OUTCOMES if a != b)

# nash_large game sizes, cheapest first.  Each size comes once per payoff
# kind and cycle; six 6x6 games per kind keep the median document inside
# the 6x6 group, away from the steps between sizes.
NASH_SIZES = ((5, 5), (3, 12)) + ((6, 6),) * 6 + ((5, 8), (12, 4), (4, 12), (7, 7), (6, 9), (8, 8))
NASH_SIZES_TINY = ((2, 2), (3, 3), (2, 4))

DEFAULT_EPS = 1e-9


@dataclass(frozen=True)
class Doc:
    """One CLI call: arguments, the JSON document fed on stdin, and what to check."""

    argv: tuple[str, ...]
    text: str
    expect: dict = field(compare=False)

    @property
    def states(self) -> int:
        """States the document takes through the pipeline; a sweep row is one."""
        if "reject" in self.expect:
            return 0
        if self.expect["command"] == "sweep":
            return self.expect["count"]
        return 1


def default_moves(d: int) -> list[list[int]]:
    """The d cyclic shifts with the identity last, as the README defines them."""
    return [[(k + d - 1 - i) % d for k in range(d)] for i in range(d)]


def _doc(command, out_format, body, expect, extra=()) -> Doc:
    argv = (command, "--spec", "-", "--format", out_format) + tuple(extra)
    return Doc(argv, json.dumps(body), dict(expect, command=command, format=out_format))


def _triple(rng) -> tuple[int, int, int]:
    # a + c = 2b exactly, so the 2x2 builder never warns about pot totals
    b = int(rng.integers(2, 60))
    spread = int(rng.integers(1, b))
    return b + spread, b, b - spread


def _ultimatum(a, b, c):
    block = {"ultimatum": {"a": a, "b": b, "c": c}}
    return block, np.array([[a, 0.0], [b, 0.0]]), np.array([[c, 0.0], [b, 0.0]])


def _pi_angle(rng) -> tuple[str, float]:
    """A symbolic multiple of pi as a document writes it, and its value."""
    k = int(rng.integers(1, 16))
    n = int(rng.integers(1, 9))
    sign = -1.0 if rng.random() < 0.25 else 1.0
    return f"{'-' if sign < 0 else ''}{k}*pi/{n}", sign * float(k) * math.pi / float(n)


def _bell_probs(theta: float, basis_a, basis_b, dims) -> np.ndarray:
    probs = np.zeros(dims)
    probs[tuple(basis_a)] = math.cos(theta) ** 2
    probs[tuple(basis_b)] = math.sin(theta) ** 2
    return probs


def _amplitudes(rng, dims) -> tuple[list, np.ndarray]:
    """Random complex amplitudes written as [re, im] pairs, and their probabilities."""
    re = np.round(rng.normal(size=dims), 6)
    im = np.round(rng.normal(size=dims), 6)
    matrix = [[[float(re[i, j]), float(im[i, j])] for j in range(dims[1])] for i in range(dims[0])]
    weights = re**2 + im**2
    return matrix, weights / weights.sum()


def _matrices(P, R) -> dict:
    return {"matrices": {"proposer": P.tolist(), "responder": R.tolist()}}


# --- sweep -------------------------------------------------------------------

_SWEEP_OUTPUTS = (("probs", "label", "equilibria"), ("probs", "equilibria"), ("label", "equilibria"))
_ZERO = (0, 0.0)
_FULL_TURN = ("2*pi", 2.0 * math.pi)


def _sweep_doc(rng, out_format, pair, count, start, stop, outputs=_SWEEP_OUTPUTS[0], triple=None):
    """A sweep document; start and stop are (document form, value) pairs."""
    payoffs, P, R = _ultimatum(*(triple or _triple(rng)))
    body = {
        "payoffs": payoffs,
        "sweep": {
            "theta": {"start": start[0], "stop": stop[0], "count": count},
            "basis_a": list(pair[0]),
            "basis_b": list(pair[1]),
            "outputs": list(outputs),
        },
    }
    expect = {
        "P": P,
        "R": R,
        "start": start[1],
        "stop": stop[1],
        "count": count,
        "basis_a": pair[0],
        "basis_b": pair[1],
        "outputs": tuple(outputs),
        "eps": DEFAULT_EPS,
    }
    if triple == PAPER_TRIPLE and pair in ANCHORS:
        expect["anchor"] = ANCHORS[pair]
    return _doc("sweep", out_format, body, expect)


def sweep_cycle(rng, tiny: bool = False) -> list[Doc]:
    """Two anchor documents, one short sweep per basis pair, then 2 001 and 20 001 rows."""
    short, mid, big = (5, 21, 41) if tiny else (201, 2001, 20001)
    quarter_turn = ("pi/2", math.pi / 2)
    docs = [
        _sweep_doc(rng, fmt, pair, 9, _ZERO, quarter_turn, triple=PAPER_TRIPLE)
        for pair, fmt in zip(ANCHORS, ("csv", "table"))
    ]
    for i, pair in enumerate(BASIS_PAIRS):
        start = _pi_angle(rng)
        stop = start[1] + 2.0 * math.pi
        docs.append(
            _sweep_doc(rng, ("csv", "table")[i % 2], pair, short, start, (stop, stop), _SWEEP_OUTPUTS[i % 3])
        )
    # Over a full turn in 2 000 steps the aligned pair (0,1),(1,1) meets its
    # exact proposer indifferences on grid points, where two equilibria print.
    docs.append(_sweep_doc(rng, "table", ((0, 1), (1, 1)), mid, _ZERO, _FULL_TURN))
    docs.append(_sweep_doc(rng, "csv", ((1, 1), (0, 0)), big, _ZERO, _FULL_TURN))
    return docs


# --- nash_large --------------------------------------------------------------


def _large_game(rng, m, n, kind, out_format) -> Doc:
    if kind == "uniform":
        # continuous payoffs and an entangled state: a nondegenerate game
        P = np.round(rng.uniform(0.0, 10.0, (m, n)), 6)
        R = np.round(rng.uniform(0.0, 10.0, (m, n)), 6)
        matrix, probs = _amplitudes(rng, (m, n))
    else:
        # small integers and a product basis state: degenerate, with ties
        P = rng.integers(0, 4, (m, n)).astype(float)
        R = rng.integers(0, 4, (m, n)).astype(float)
        k, l = int(rng.integers(m)), int(rng.integers(n))
        matrix = [[0] * n for _ in range(m)]
        matrix[k][l] = 1
        probs = np.zeros((m, n))
        probs[k, l] = 1.0
    body = {"payoffs": _matrices(P, R), "state": {"amplitudes": {"matrix": matrix}}}
    expect = {
        "P": P,
        "R": R,
        "probs": probs,
        "moves_p": default_moves(m),
        "moves_r": default_moves(n),
        "eps": DEFAULT_EPS,
        "nondegenerate": kind == "uniform",
    }
    return _doc("nash", out_format, body, expect)


def nash_large_cycle(rng, tiny: bool = False) -> list[Doc]:
    docs = []
    for m, n in NASH_SIZES_TINY if tiny else NASH_SIZES:
        for kind in ("uniform", "integer"):
            docs.append(_large_game(rng, m, n, kind, ("csv", "table")[len(docs) % 2]))
    return docs


# --- docs_mixed --------------------------------------------------------------


def _game(rng, name: str) -> tuple[dict, dict]:
    """A game document body without command, and the numbers behind it."""
    moves = None
    if name in ("bell", "bell_pi", "complex", "fair"):
        triple = PAPER_TRIPLE if name == "fair" else _triple(rng)
        payoffs, P, R = _ultimatum(*triple)
        if name == "complex":
            matrix, probs = _amplitudes(rng, (2, 2))
            state = {"amplitudes": {"matrix": matrix}}
        elif name == "fair":
            state = {"amplitudes": {"matrix": [[0, 1], [0, 1]], "normalize": True}}
            probs = np.array([[0.0, 0.5], [0.0, 0.5]])
        else:
            pair = BASIS_PAIRS[int(rng.integers(len(BASIS_PAIRS)))]
            if name == "bell":
                theta = float(np.round(rng.uniform(-math.pi, math.pi), 6))
                angle = (theta, theta)
            else:
                angle = _pi_angle(rng)
            state = {"bell": {"theta": angle[0], "basis_a": list(pair[0]), "basis_b": list(pair[1])}}
            probs = _bell_probs(angle[1], pair[0], pair[1], (2, 2))
    elif name.startswith("offers"):
        count = int(name[len("offers"):])
        total = int(rng.integers(20, 200))
        offers = sorted(int(o) for o in rng.choice(np.arange(1, total), count, replace=False))
        payoffs = {"ultimatum": {"total": total, "offers": offers}}
        P = np.array([[total - o, 0.0] for o in offers])
        R = np.array([[o, 0.0] for o in offers], dtype=float)
        if count % 2:
            cells = rng.choice(2 * count, 2, replace=False)
            basis_a, basis_b = divmod(int(cells[0]), 2), divmod(int(cells[1]), 2)
            theta = float(np.round(rng.uniform(0.0, math.pi), 6))
            state = {"bell": {"theta": theta, "basis_a": list(basis_a), "basis_b": list(basis_b)}}
            probs = _bell_probs(theta, basis_a, basis_b, (count, 2))
        else:
            matrix, probs = _amplitudes(rng, (count, 2))
            state = {"amplitudes": {"matrix": matrix}}
    else:
        dims, _, n_moves = name[len("matrix"):].partition("_moves")
        m, n = (int(v) for v in dims.split("x"))
        P = np.round(rng.uniform(0.0, 100.0, (m, n)), 3)
        R = np.round(rng.uniform(0.0, 100.0, (m, n)), 3)
        payoffs = _matrices(P, R)
        matrix, probs = _amplitudes(rng, (m, n))
        state = {"amplitudes": {"matrix": matrix}}
        if n_moves:
            moves = {
                "proposer": _random_moves(rng, m, int(n_moves[0])),
                "responder": _random_moves(rng, n, int(n_moves[1])),
            }
    body = {"payoffs": payoffs, "state": state}
    if moves is not None:
        body["moves"] = moves
    dims = probs.shape
    expect = {
        "P": P,
        "R": R,
        "probs": probs,
        "moves_p": moves["proposer"] if moves else default_moves(dims[0]),
        "moves_r": moves["responder"] if moves else default_moves(dims[1]),
        "eps": DEFAULT_EPS,
    }
    if name == "fair":
        expect["anchor"] = ANCHORS[((0, 1), (1, 1))]
    return body, expect


def _random_moves(rng, d: int, count: int) -> list[list[int]]:
    perms = list(permutations(range(d)))
    return [list(perms[int(i)]) for i in rng.choice(len(perms), count, replace=False)]


def _profile(rng, size: int) -> list[float]:
    if rng.random() < 0.4:
        pure = int(rng.integers(size))
        return [1.0 if i == pure else 0.0 for i in range(size)]
    cuts = np.sort(rng.choice(np.arange(1, 100), size - 1, replace=False))
    parts = np.diff(np.concatenate(([0], cuts, [100])))
    return [int(p) / 100 for p in parts]


def _mixed_doc(rng, command: str, game, out_format: str) -> Doc:
    if command == "sweep":
        pair = BASIS_PAIRS[int(rng.integers(len(BASIS_PAIRS)))]
        start = _pi_angle(rng)
        stop = float(np.round(start[1] + rng.uniform(0.5, 6.0), 6))
        return _sweep_doc(rng, out_format, pair, game, start, (stop, stop))
    body, expect = _game(rng, game)
    extra = ()
    if command == "verify":
        x = _profile(rng, len(expect["moves_p"]))
        y = _profile(rng, len(expect["moves_r"]))
        expect["profile"] = (x, y)
        extra = ("--profile", ",".join(map(repr, x)) + ";" + ",".join(map(repr, y)))
        if game == "complex":
            extra += ("--eps", "1e-06")
            expect["eps"] = 1e-6
    elif command == "nash" and game == "complex":
        body["solver"] = {"eps": 1e-8, "resolution": 32}
        expect["eps"] = 1e-8
    return _doc(command, out_format, body, expect, extra)


# (command, game) pairs of one cycle; each runs once per output format.
MIXED = (
    ("classify", "bell"),
    ("classify", "bell_pi"),
    ("classify", "complex"),
    ("classify", "matrix2x2"),
    ("induce", "bell"),
    ("induce", "complex"),
    ("induce", "offers5"),
    ("induce", "matrix3x4"),
    ("induce", "matrix3x3_moves23"),
    ("verify", "bell"),
    ("verify", "complex"),
    ("verify", "offers5"),
    ("verify", "matrix3x3"),
    ("nash", "bell"),
    ("nash", "bell_pi"),
    ("nash", "complex"),
    ("nash", "offers3"),
    ("nash", "offers8"),
    ("nash", "matrix2x3"),
    ("nash", "matrix3x3_moves23"),
    ("nash", "matrix4x4"),
    ("nash", "matrix4x4_moves44"),
    ("sweep", 17),
    ("sweep", 50),
)

# Documents that must exit 2, one per kind and cycle (about 10% of them).
REJECTS = ("bad_json", "unknown_field", "a_le_b", "ragged", "bad_move", "dims")


def _reject(rng, kind: str) -> Doc:
    expect = {"reject": kind}
    if kind == "bad_json":
        doc = _mixed_doc(rng, "sweep", 17, "csv")
        text = doc.text[: len(doc.text) // 2]
        return Doc(doc.argv, text, dict(expect, command="sweep", format="csv"))
    body, _ = _game(rng, "bell")
    if kind == "unknown_field":
        body["notes"] = "not a field"
        return _doc("verify", "table", body, expect, ("--profile", "1,0;0,1"))
    if kind == "a_le_b":
        b = int(rng.integers(2, 60))
        body["payoffs"] = {"ultimatum": {"a": int(rng.integers(1, b + 1)), "b": b, "c": 1}}
        return _doc("nash", "csv", body, expect)
    if kind == "ragged":
        body["payoffs"] = {"matrices": {"proposer": [[1, 2], [3]], "responder": [[1, 2], [3, 4]]}}
        return _doc("induce", "table", body, expect)
    if kind == "bad_move":
        body["moves"] = {"proposer": [[0, 0], [1, 1]]}
        return _doc("nash", "table", body, expect)
    matrix, _ = _amplitudes(rng, (3, 2))
    body["state"] = {"amplitudes": {"matrix": matrix}}
    return _doc("classify", "csv", body, expect)


def docs_mixed_cycle(rng, tiny: bool = False) -> list[Doc]:
    """All documents are small already, so ``tiny`` changes nothing here."""
    docs = []
    for command, game in MIXED:
        for out_format in ("table", "csv"):
            docs.append(_mixed_doc(rng, command, game, out_format))
    fair_body, fair_expect = _game(rng, "fair")
    docs.append(_doc("nash", "table", fair_body, fair_expect))
    docs += [_reject(rng, kind) for kind in REJECTS]
    return docs


CYCLES = {"sweep": sweep_cycle, "nash_large": nash_large_cycle, "docs_mixed": docs_mixed_cycle}

# Leading documents of a cycle that make up the warm-up (None: all of it).
WARMUP = {"sweep": 14, "nash_large": 8, "docs_mixed": None}


def cycles(workload: str, seed: int, stream: int = 0, tiny: bool = False):
    """Endless cycles of one workload; ``stream`` 1 is the warm-up's own stream."""
    rng = np.random.default_rng([seed, stream])
    make = CYCLES[workload]
    while True:
        yield make(rng, tiny)


def warmup(workload: str, seed: int, tiny: bool = False) -> list[Doc]:
    return next(cycles(workload, seed, stream=1, tiny=tiny))[: WARMUP[workload]]
