"""Induced classical games: permutation moves applied to an initial state.

Each player's moves are permutations of their own basis indices.  Playing
the move pair (i, j) against a state with outcome probabilities p turns an
outcome payoff table into the induced bimatrix game

    induced[i][j] = sum over (k, l) of p[k][l] * payoff[sigma_i(k)][tau_j(l)]

so each induced entry is a probability-weighted average of outcome
payoffs.  With a factorized state the induced game is just the original
table with rows and columns relabeled; entanglement is what produces
genuinely new games.

Move-labeling convention for two basis states: move 0 swaps the indices,
move 1 is the identity.  Under that labeling the 2x2 ultimatum induced
game has entries

    proposer: [[a*p11 + b*p01, a*p10 + b*p00], [b*p11 + a*p01, b*p10 + a*p00]]
    responder: [[c*p11 + b*p01, c*p10 + b*p00], [b*p11 + c*p01, b*p10 + c*p00]]

which the test suite pins by exhaustive outcome enumeration.  The 2x2
aligned/opposed classifier serves ``classify`` and the sweep's labels; the
paper's closed forms for this game are test oracles in ``tests/helpers.py``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidMoveSetError
from .games import Bimatrix, PayoffTable
from .hilbert import QuantumState, _whole, probability_table

SIGN_TOL = 1e-12

ALIGNED = "aligned"
OPPOSED = "opposed"


@dataclass(frozen=True)
class MoveSet:
    """Ordered list of basis permutations available to one player; entries are whole numbers."""

    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        bad = [v for p in self.perms for v in p if not _whole(v)]
        if bad:
            raise InvalidMoveSetError(f"permutation entries must be integers, got {bad[0]!r}")
        perms = tuple(tuple(map(int, p)) for p in self.perms)
        if not perms:
            raise InvalidMoveSetError("move set must contain at least one permutation")
        d = len(perms[0])
        for p in perms:
            if len(p) != d or sorted(p) != list(range(d)):
                raise InvalidMoveSetError(f"{p} is not a permutation of 0..{d - 1}")
        if len(set(perms)) != len(perms):
            raise InvalidMoveSetError("move set contains duplicate permutations")
        object.__setattr__(self, "perms", perms)

    @property
    def d(self) -> int:
        return len(self.perms[0])

    def __len__(self) -> int:
        return len(self.perms)


@functools.lru_cache(maxsize=16)
def default_move_set(d: int) -> MoveSet:
    """The d cyclic shifts of the basis, ordered so the identity comes last.

    For d = 2 this is [swap, identity], the labeling the induced-game
    entries above assume.  Pass explicit permutation lists to any consumer
    of MoveSet for other conventions.  A MoveSet is frozen, so each d's
    is built once and shared.
    """
    if d < 2:
        raise InvalidMoveSetError(f"basis size must be at least 2, got {d}")
    return MoveSet(
        tuple(tuple((k + d - 1 - i) % d for k in range(d)) for i in range(d))
    )


InducedGame = Bimatrix


def induce_game(
    state: QuantumState,
    payoffs: PayoffTable,
    moves_p: MoveSet,
    moves_r: MoveSet,
) -> Bimatrix:
    """Expected-payoff bimatrix over all move pairs.

    Entries are accumulated in a fixed outcome order independent of the
    moves, so relabeling moves or swapping amplitude rows/columns permutes
    the induced matrices bit-exactly.
    """
    if state.dims != payoffs.dims or state.dims != (moves_p.d, moves_r.d):
        raise DimensionMismatchError(
            f"state {state.dims}, payoffs {payoffs.dims} and moves "
            f"({moves_p.d}, {moves_r.d}) must agree"
        )
    probs = probability_table(state).probs
    proposer, responder = induce_stack(probs[None], payoffs, moves_p, moves_r)
    return Bimatrix(proposer[0], responder[0])


def induce_stack(
    probs: np.ndarray, payoffs: PayoffTable, moves_p: MoveSet, moves_r: MoveSet
) -> tuple[np.ndarray, np.ndarray]:
    """``induce_game`` on a (B, dP, dR) stack of outcome probabilities.

    Returns the (B, m, n) proposer and responder matrices.  Each cell sums
    a contiguous dP x dR block of products in a fixed outcome order, so a
    stacked entry equals the single-game one bit for bit, and relabeling
    moves permutes the matrices bit-exactly.
    """
    # moved[s, i, j] is table s with move i undone on its rows and move j on
    # its columns, gathered by one take of flat outcome indices.  The take
    # lays it out C-contiguous, which keeps each block's summation order.
    dims = probs.shape[1:]
    moved = probs.reshape(len(probs), -1).take(_outcome_index(moves_p.perms, moves_r.perms, dims), axis=1)
    with np.errstate(over="ignore"):  # an overflowing sum gives inf, which fails the game's finite check
        proposer = np.add.reduce(moved * payoffs.proposer, axis=(-2, -1))
        responder = np.add.reduce(moved * payoffs.responder, axis=(-2, -1))
    return proposer, responder


@functools.lru_cache(maxsize=16)
def _outcome_index(perms_p: tuple, perms_r: tuple, dims: tuple[int, int]) -> np.ndarray:
    """The (m, n, dP, dR) flat index into a dP x dR table of the outcome that
    move pair (i, j) sends to each cell (k, l).  Keyed by the move sets'
    permutations, which hash faster than a ``MoveSet``, so it is built once."""
    inv_p = np.argsort(perms_p, axis=1)
    inv_r = np.argsort(perms_r, axis=1)
    index = inv_p[:, None, :, None] * dims[1] + inv_r[:, None, :]
    index.flags.writeable = False
    return index


def _probs_2x2(state: QuantumState) -> np.ndarray:
    if state.dims != (2, 2):
        raise DimensionMismatchError(f"operation requires a 2x2 state, got {state.dims}")
    return probability_table(state).probs


@dataclass(frozen=True)
class StateClass:
    """Sign classification of a 2x2 state's probability differences.

    diffs = (p11 - p01, p10 - p00).  When the differences agree in sign
    (or one vanishes) the state is 'aligned' and the proposer has a weakly
    dominant move; strictly opposite signs are 'opposed', where only pure
    or mixed equilibria depending on the coefficients exist.  A difference
    within SIGN_TOL of zero counts as vanishing.
    """

    label: str
    diffs: tuple[float, float]


def classify_state(state: QuantumState) -> StateClass:
    """Label a 2x2 state aligned or opposed from its probability differences."""
    t = _probs_2x2(state).tolist()  # floats: numpy's calls on scalars cost more than the arithmetic
    d1 = t[1][1] - t[0][1]
    d2 = t[1][0] - t[0][0]
    return StateClass(label=OPPOSED if opposed(d1, d2) else ALIGNED, diffs=(d1, d2))


def opposed(diff1, diff2) -> np.ndarray:
    """Whether each state is opposed, from its differences p11 - p01 and p10 - p00."""
    return _sign(diff1) * _sign(diff2) < 0


def _sign(diff):
    """The sign of a probability difference, 0 within SIGN_TOL of zero.

    The one sign rule of ``opposed``, and so of ``classify_state`` and the
    sweep's labels, for a float or an array; a NaN difference counts as 0.
    """
    return 1 * (diff > SIGN_TOL) - (diff < -SIGN_TOL)
