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

which the test suite pins by exhaustive outcome enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidMoveSetError,
    InvalidProbabilityError,
    WrongClassError,
)
from .games import Bimatrix, PayoffTable, ultimatum_2x2
from .hilbert import QuantumState, probability_table
from .nash import EPS_DEFAULT, EquilibriumProfile, verify_equilibrium

SIGN_TOL = 1e-12

ALIGNED = "aligned"
OPPOSED = "opposed"


@dataclass(frozen=True)
class MoveSet:
    """Ordered list of basis permutations available to one player."""

    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        perms = tuple(tuple(int(v) for v in p) for p in self.perms)
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

    def apply(self, move: int, basis_index: int) -> int:
        """Image of a basis index under the given move."""
        return self.perms[move][basis_index]


def default_move_set(d: int) -> MoveSet:
    """The d cyclic shifts of the basis, ordered so the identity comes last.

    For d = 2 this is [swap, identity], the labeling the induced-game
    entries above assume.  Pass explicit permutation lists to any consumer
    of MoveSet for other conventions.
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
    inv_p = np.argsort(moves_p.perms, axis=1)
    inv_r = np.argsort(moves_r.perms, axis=1)
    # moved[s, i, j] is table s with move i undone on its rows and move j on
    # its columns.  Indexing every axis lays it out C-contiguous, which keeps
    # each block's summation order.
    stack = np.arange(len(probs))[:, None, None, None, None]
    moved = probs[stack, inv_p[:, None, :, None], inv_r[:, None, :]]
    proposer = (moved * payoffs.proposer).sum(axis=(-2, -1))
    responder = (moved * payoffs.responder).sum(axis=(-2, -1))
    return proposer, responder


def _probs_2x2(state: QuantumState) -> np.ndarray:
    if state.dims != (2, 2):
        raise DimensionMismatchError(f"operation requires a 2x2 state, got {state.dims}")
    return probability_table(state).probs


def _check_probability(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise InvalidProbabilityError(f"{name} must lie in [0, 1], got {value}")
    return float(value)


def proposer_payoff(
    state: QuantumState, a: float, b: float, c: float, mu: float, nu: float
) -> float:
    """Closed-form expected proposer payoff in the induced 2x2 ultimatum game.

    mu and nu are the probabilities that proposer and responder play
    move 0.  Equals the bilinear contraction of the induced game with
    (mu, 1 - mu) and (nu, 1 - nu).
    """
    mu = _check_probability("mu", mu)
    nu = _check_probability("nu", nu)
    t = _probs_2x2(state)
    base = nu * b * (t[1, 1] - t[1, 0]) + nu * a * (t[0, 1] - t[0, 0]) + b * t[1, 0] + a * t[0, 0]
    slope = (a - b) * (nu * (t[1, 1] - t[0, 1]) + (1.0 - nu) * (t[1, 0] - t[0, 0]))
    return float(mu * slope + base)


def responder_payoff(
    state: QuantumState, a: float, b: float, c: float, mu: float, nu: float
) -> float:
    """Closed-form expected responder payoff, companion to proposer_payoff."""
    mu = _check_probability("mu", mu)
    nu = _check_probability("nu", nu)
    t = _probs_2x2(state)
    base = mu * (c - b) * (t[1, 0] - t[0, 0]) + b * t[1, 0] + c * t[0, 0]
    slope = (t[1, 1] - t[1, 0]) * (mu * c + (1.0 - mu) * b) + (t[0, 1] - t[0, 0]) * (
        mu * b + (1.0 - mu) * c
    )
    return float(nu * slope + base)


def swap_proposer_coeffs(state: QuantumState) -> QuantumState:
    """Exchange the two proposer rows of the amplitude matrix."""
    if state.dims != (2, 2):
        raise DimensionMismatchError(f"swap requires a 2x2 state, got {state.dims}")
    return QuantumState(state.amps[::-1, :].copy())


def swap_responder_coeffs(state: QuantumState) -> QuantumState:
    """Exchange the two responder columns of the amplitude matrix."""
    if state.dims != (2, 2):
        raise DimensionMismatchError(f"swap requires a 2x2 state, got {state.dims}")
    return QuantumState(state.amps[:, ::-1].copy())


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
    t = _probs_2x2(state)
    d1 = float(t[1, 1] - t[0, 1])
    d2 = float(t[1, 0] - t[0, 0])
    return StateClass(label=str(class_labels(d1, d2)), diffs=(d1, d2))


def class_labels(diff1, diff2) -> np.ndarray:
    """The label of each state from its differences p11 - p01 and p10 - p00."""
    return np.where(_sign(diff1) * _sign(diff2) < 0, OPPOSED, ALIGNED)


def _sign(diff):
    """The sign of a probability difference, 0 within SIGN_TOL of zero.

    The one sign rule of ``class_labels`` and ``aligned_equilibrium``.
    """
    return np.sign(diff) * (np.abs(diff) > SIGN_TOL)


def aligned_equilibrium(
    state: QuantumState, a: float, b: float, c: float, eps: float = EPS_DEFAULT
) -> list[EquilibriumProfile]:
    """Pure equilibria of the induced ultimatum game for an oriented aligned state.

    Requires p11 >= p01 and p10 >= p00; apply swap_proposer_coeffs first
    when the differences point the other way.  The proposer plays move 0
    with certainty, and the responder's pure move follows the sign of
    c*(p11 - p10) + b*(p01 - p00).  On exact indifference both responder
    moves are returned.  Each profile carries a verified regret
    certificate against the induced game.
    """
    classification = classify_state(state)
    if classification.label == OPPOSED:
        raise WrongClassError(
            f"state is opposed (diffs {classification.diffs}); no dominant proposer move"
        )
    d1, d2 = classification.diffs
    if _sign(d1) < 0 or _sign(d2) < 0:
        raise WrongClassError(
            f"aligned state has diffs {classification.diffs}; "
            "apply swap_proposer_coeffs to orient it first"
        )
    t = _probs_2x2(state)
    table = ultimatum_2x2(a, b, c)
    moves = default_move_set(2)
    game = induce_game(state, table, moves, moves)
    responder_gap = c * (t[1, 1] - t[1, 0]) + b * (t[0, 1] - t[0, 0])
    if responder_gap > SIGN_TOL:
        nus = [1.0]
    elif responder_gap < -SIGN_TOL:
        nus = [0.0]
    else:
        nus = [1.0, 0.0]
    return [
        verify_equilibrium(game, ((1.0, 0.0), (nu, 1.0 - nu)), eps) for nu in nus
    ]
