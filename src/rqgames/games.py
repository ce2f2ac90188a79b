"""Outcome payoff tables and the ultimatum family.

The ultimatum game: the proposer picks one of several splits of a pot of
coins, the responder either accepts (the split is implemented) or rejects
(both players get nothing).  Tables are indexed by joint basis outcome,
row = proposer move, column = responder move with column 0 = accept and
column 1 = reject.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidOffersError, InvalidPayoffsError
from .hilbert import _freeze, _whole


class MismatchedTotalsWarning(UserWarning):
    """The two offer rows of a 2x2 ultimatum table imply different pot totals."""


@dataclass(frozen=True, eq=False)
class Bimatrix:
    """Pair of finite real payoff matrices, one per player, same shape.

    Rows are proposer moves and columns responder moves.  An outcome payoff
    table and the game a state induces from it are both bimatrices, hence
    the aliases ``PayoffTable`` and ``induce.InducedGame``.
    """

    proposer: np.ndarray
    responder: np.ndarray

    def __post_init__(self):
        proposer, responder = _matrix_pair((self.proposer, self.responder))
        if np.count_nonzero(np.isfinite(proposer) & np.isfinite(responder)) != proposer.size:
            raise InvalidPayoffsError("payoff entries must be finite")
        object.__setattr__(self, "proposer", _freeze(proposer))
        object.__setattr__(self, "responder", _freeze(responder))

    @property
    def dims(self) -> tuple[int, int]:
        return self.proposer.shape


PayoffTable = Bimatrix


def _matrix_pair(pair) -> tuple[np.ndarray, np.ndarray]:
    """A (proposer, responder) pair of payoff matrices as float arrays, checked to share one 2-D shape."""
    a, b = (np.asarray(v, dtype=float) for v in pair)
    if a.ndim != 2 or a.shape != b.shape:
        raise DimensionMismatchError(
            f"payoff matrices must share one 2-D shape, got {a.shape} and {b.shape}"
        )
    return a, b


@dataclass(frozen=True)
class UltimatumParams:
    """Pot size and the strictly increasing list of responder shares offered."""

    total: int
    offers: tuple[int, ...]

    def __post_init__(self):
        total = self.total
        if not _whole(total) or total <= 0:
            raise InvalidOffersError(f"total must be a positive integer, got {total!r}")
        if not _finite(total):
            raise InvalidOffersError(f"total has {len(str(total))} digits, beyond float range")
        total = int(total)
        offers = tuple(self.offers)
        if not offers:
            raise InvalidOffersError("offer list is empty")
        cleaned = []
        for o in offers:
            if not _whole(o):
                raise InvalidOffersError(f"offers must be integers, got {o!r}")
            if not _finite(o):
                raise InvalidOffersError(f"an offer has {len(str(abs(o)))} digits, beyond float range")
            cleaned.append(int(o))
        if any(not 0 < o < total for o in cleaned):
            raise InvalidOffersError(
                f"every offer must lie strictly between 0 and {total}, got {cleaned}"
            )
        if any(b <= a for a, b in zip(cleaned, cleaned[1:])):
            raise InvalidOffersError(f"offers must be strictly increasing, got {cleaned}")
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "offers", tuple(cleaned))


_FLOAT_MAX = sys.float_info.max  # read once: a lookup on each call costs as much as the test


def _finite(value) -> bool:
    # abs(int) compares exactly, so an integer beyond float range fails too
    return abs(value) <= _FLOAT_MAX


def ultimatum_2x2(a: float, b: float, c: float) -> PayoffTable:
    """Two-offer ultimatum table.

    Row 0 is the greedy split paying (a, c) on acceptance, row 1 the fair
    split paying (b, b); rejection pays (0, 0) in both rows.  Requires
    a > b > c > 0.  A single pot implies a + c = 2b; tables that break the
    relation are legal but draw ``MismatchedTotalsWarning``.
    """
    if not (a > b > c > 0):
        raise InvalidPayoffsError(f"need a > b > c > 0, got a={a}, b={b}, c={c}")
    scale = max(1.0, abs(float(a)), abs(float(b)), abs(float(c)))
    if abs((a + c) - 2 * b) > 1e-12 * scale:
        warnings.warn(
            f"offer rows imply different pot totals: a + c = {a + c} but 2b = {2 * b}",
            MismatchedTotalsWarning,
            stacklevel=2,
        )
    proposer = np.array([[a, 0.0], [b, 0.0]], dtype=float)
    responder = np.array([[c, 0.0], [b, 0.0]], dtype=float)
    return PayoffTable(proposer, responder)


def ultimatum_general(params: UltimatumParams) -> PayoffTable:
    """Multi-offer ultimatum table, one row per offer and columns (accept, reject).

    Accepting offer o pays (total - o, o); rejecting pays (0, 0).
    """
    total = params.total
    proposer = np.zeros((len(params.offers), 2), dtype=float)
    responder = np.zeros((len(params.offers), 2), dtype=float)
    for i, o in enumerate(params.offers):
        proposer[i, 0] = total - o
        responder[i, 0] = o
    return PayoffTable(proposer, responder)
