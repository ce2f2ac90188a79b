"""Equilibrium search and certification for bimatrix games.

Every function accepts either a ``Bimatrix`` (an induced game or a payoff
table) or a plain ``(proposer, responder)`` pair of array-likes of equal
shape.  Mixed strategies are 1-D probability vectors; a profile is the
pair (proposer strategy, responder strategy).

The certification primitive is regret: the gap between a player's best
pure response against the opponent mix and the payoff actually realized.
A profile with both regrets at zero is a Nash equilibrium; max regret
below ``eps`` certifies an eps-equilibrium.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatchError, InvalidProbabilityError, TooLargeError
from .games import Bimatrix
from .hilbert import _freeze

EPS_DEFAULT = 1e-9
PIVOT_TOL = 1e-12
WEIGHT_CLAMP_TOL = 1e-12
SIMPLEX_SUM_TOL = 1e-9
PURE_KIND_TOL = 1e-9
# Relative margin, far above the rounding of a dot product of at most 12
# terms, within which the off-support prefilter defers to the off-support test.
DOMINANCE_SLACK = 1e-12

# Support pairs per stacked solve in ``support_enumeration``; it bounds the
# memory one stack takes.
STACK_PAIRS = 1024
# Stacks of up to this many pairs solve both players' systems in one call
# instead of two phases.  On random uniform 4x4 to 10x10 levels alone
# (2-vCPU Xeon, numpy 2.4), two phases took 0.77x the one-call time at 64
# pairs, 0.74x at 256 and 0.65x at 384.  But on the nash_large workload a
# limit of 0 (one call only for a stack that leaves no row out) gave a median
# of 174 documents/s against 183 at 256, and won 2 of 10 alternating runs.
TWO_PHASE_MIN_PAIRS = 256


@dataclass(frozen=True, eq=False)
class EquilibriumProfile:
    """A mixed-strategy pair together with its payoffs and regret certificate.

    ``certified`` records whether max regret was within the eps the profile
    was checked at.  ``degenerate`` flags profiles where some player has
    more pure best responses than strategies in their support, the
    signature of an equilibrium continuum.
    """

    proposer_strategy: np.ndarray
    responder_strategy: np.ndarray
    payoffs: tuple[float, float]
    regret: tuple[float, float]
    kind: str
    certified: bool
    degenerate: bool = False


def game_matrices(game) -> tuple[np.ndarray, np.ndarray]:
    """The (proposer, responder) payoff matrices of a ``Bimatrix`` or a raw
    pair, in C order, which gives a profile the products it gets in a stack.
    A raw pair gets the shape check only."""
    if isinstance(game, Bimatrix):
        a, b = game.proposer, game.responder
    else:
        a, b = (np.asarray(v, dtype=float) for v in game)
        if a.ndim != 2 or a.shape != b.shape:
            raise DimensionMismatchError(
                f"payoff matrices must share one 2-D shape, got {a.shape} and {b.shape}"
            )
    return np.ascontiguousarray(a), np.ascontiguousarray(b)


def mixed_strategy(weights, size: int | None = None) -> np.ndarray:
    """Validate a finite probability vector; tiny negative entries are clamped to zero."""
    w = np.array(weights, dtype=float).reshape(-1)
    if size is not None and w.size != size:
        raise DimensionMismatchError(f"strategy has {w.size} weights, expected {size}")
    if (w < -WEIGHT_CLAMP_TOL).any():
        raise InvalidProbabilityError(f"negative strategy weight in {w.tolist()}")
    w[w < 0.0] = 0.0
    total = float(w.sum())
    if not abs(total - 1.0) <= SIMPLEX_SUM_TOL:  # a NaN or infinite weight fails too
        raise InvalidProbabilityError(f"strategy weights sum to {total}, expected 1")
    return w


def _is_pure(x, y):
    """Whether stacked profiles put all but PURE_KIND_TOL of each player's weight on one move."""
    return (x.max(axis=-1) >= 1.0 - PURE_KIND_TOL) & (y.max(axis=-1) >= 1.0 - PURE_KIND_TOL)


def verify_equilibrium(game, profile, eps: float = EPS_DEFAULT) -> EquilibriumProfile:
    """Evaluate a strategy pair and certify it when max regret stays within eps.

    Always returns a certificate; a failed check is reported through the
    ``certified`` field, never as an exception.  A NaN or infinite payoff
    or regret never certifies.
    """
    a, b = game_matrices(game)
    x = mixed_strategy(profile[0], a.shape[0])
    y = mixed_strategy(profile[1], a.shape[1])
    pay_p, pay_r, regret_p, regret_r, certified, degenerate = _certify(a, b, x, y, eps)
    kind = "pure" if _is_pure(x, y) else "mixed"
    payoffs, regret = (float(pay_p), float(pay_r)), (float(regret_p), float(regret_r))
    return EquilibriumProfile(_freeze(x), _freeze(y), payoffs, regret, kind, bool(certified), bool(degenerate))


def _certify(a, b, x, y, eps):
    """Payoffs, regrets, the certified flag and the degenerate flag of
    profiles (x, y) in games (a, b).

    Games and strategies may be stacked on broadcastable leading axes.  Every
    product is one ``np.matmul`` kernel call per profile, the same call a
    single profile makes, so stacked values equal single ones bit for bit.
    A NaN gap stays NaN, and a NaN or infinite payoff or regret never
    certifies.
    """
    x_row, y_col = x[..., None, :], y[..., :, None]
    xb = np.matmul(x_row, b)
    row_values, col_values = np.matmul(a, y_col)[..., 0], xb[..., 0, :]  # a @ y and x @ b
    best_p, best_r = _across(np.maximum, row_values), _across(np.maximum, col_values)
    pay_p = np.matmul(np.matmul(x_row, a), y_col)[..., 0, 0]
    pay_r = np.matmul(xb, y_col)[..., 0, 0]
    regret_p, regret_r = (np.where(gap <= 0.0, 0.0, gap) for gap in (best_p - pay_p, best_r - pay_r))
    certified = (regret_p <= eps) & (regret_r <= eps) & np.isfinite(pay_p) & np.isfinite(pay_r)
    degenerate = _degenerate(row_values >= best_p[..., None] - eps, col_values >= best_r[..., None] - eps, x, y)
    return pay_p, pay_r, regret_p, regret_r, certified, degenerate


def _degenerate(row_best, col_best, x, y):
    """Whether some player has more best responses (masks) than support moves,
    the weights above WEIGHT_CLAMP_TOL."""
    more_p = _across(np.add, row_best) > _across(np.add, x > WEIGHT_CLAMP_TOL)
    return more_p | (_across(np.add, col_best) > _across(np.add, y > WEIGHT_CLAMP_TOL))


def _across(ufunc, v):
    """``ufunc.reduce(v, axis=-1)``, for more than 32 rows over a copy with that axis first,
    which numpy reduces much faster when it is short.  Exact for maxima and integer sums."""
    if v.size <= 32 * v.shape[-1]:
        return ufunc.reduce(v, axis=-1)
    return ufunc.reduce(np.ascontiguousarray(v.transpose(v.ndim - 1, *range(v.ndim - 1))), axis=0)


def pure_equilibria(game, eps: float = EPS_DEFAULT) -> list[EquilibriumProfile]:
    """All pure cells that are mutual best responses, ties within eps included.

    Cells come out in lexicographic (row, column) order, and they are the
    pure profiles ``support_enumeration`` returns: the cells ``_pure_cells``
    finds, with the certificates it reads off the payoff entries.  The list
    may be empty (matching-pennies structure has no pure equilibrium).
    """
    a, b = game_matrices(game)
    m, n = a.shape
    regret_p, regret_r, found, degenerate = _pure_cells(a, b, eps)
    return [
        EquilibriumProfile(
            _freeze(np.eye(m)[i]), _freeze(np.eye(n)[j]), (float(a[i, j]), float(b[i, j])),
            (float(regret_p[i, j]), float(regret_r[i, j])), "pure", True, bool(degenerate[i, j]),
        )
        for i, j in np.argwhere(found).tolist()
    ]


def _valid_weights(solution: np.ndarray, k: int) -> np.ndarray:
    """Whether indifference solutions (axis 0: k weights, then the value) are
    finite with no weight below -WEIGHT_CLAMP_TOL."""
    return np.isfinite(solution).all(axis=0) & (solution[:k] >= -WEIGHT_CLAMP_TOL).all(axis=0)


def _solve_stacked(ab: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian elimination with partial pivoting on a stack of systems in one pass.

    ``ab`` is a C-contiguous (s, s + 1, N) float array, overwritten (row
    swaps write through ``ab.reshape(-1)``): system i has the matrix
    ``ab[:, :s, i]`` and the right-hand side ``ab[:, s, i]``.  The stack
    runs along the last axis so that every step acts on contiguous runs of
    systems, and the right-hand side rides along as one more column, so
    each row operation updates both with the same arithmetic as separate
    updates.  Each system goes through the pivot choices and the
    floating-point operations of a textbook row-by-row elimination, so its
    solution does not depend on the width of the stack it is solved in.
    Returns the (s, N) solutions and the (N,) mask of singular systems,
    those with a pivot magnitude at or below PIVOT_TOL; their solution
    columns are meaningless.

    Step k swaps only the columns from k on, and updates the rows below the
    pivot only right of it: nothing reads the other entries again.  A row
    with a zero multiplier is updated too, where the textbook skips it:
    x - 0 y is x for a finite y but for the sign of a zero x, and a pivot
    row with a non-finite entry, or a zero or NaN pivot, leaves the system
    singular or its solution non-finite either way.  So every solution that
    is finite and not singular equals the textbook's, and only the singular
    flag of a system with a non-finite solution may differ.
    """
    n, _, count = ab.shape
    flat = ab.reshape(-1)
    row = np.arange((n + 1) * count).reshape(n + 1, count)
    x = np.empty((count, n))
    with np.errstate(all="ignore"):  # singular systems run on with tiny or zero pivots
        for k in range(n - 1):  # the last row has no rows below to pivot with
            p = k + np.abs(ab[k:, k]).argmax(axis=0)
            at = p * ((n + 1) * count) + row[k:]
            pivot_row = flat[at]
            flat[at] = ab[k, k:]
            ab[k, k:] = pivot_row
            lam = ab[k + 1 :, k] / ab[k, k]
            ab[k + 1 :, k + 1 :] -= lam[:, None] * ab[k, k + 1 :]
        # a step never changes the rows above it, so the diagonal holds every pivot
        singular = (np.abs(np.diagonal(ab, axis1=0, axis2=1)) <= PIVOT_TOL).any(axis=1)
        for k in range(n - 1, -1, -1):
            # np.matmul on unit-stride rows reaches the same dot routine as a
            # 1-D ``@`` of one row, so the products round alike at any width
            upper = np.ascontiguousarray(ab[k, k + 1 : n].T)
            done = np.matmul(upper[:, None, :], x[:, k + 1 :, None])[:, 0, 0]
            x[:, k] = (ab[k, n] - done) / ab[k, k]
    return x.T, singular


def _same_profile(found_x, found_y, x, y) -> np.ndarray:
    """Which found profiles (strategies stacked on axis -2) lie within 1e-9 of (x, y)."""
    return (_across(np.maximum, np.abs(found_x - x)) <= 1e-9) & (_across(np.maximum, np.abs(found_y - y)) <= 1e-9)


def _pure_cells(a, b, eps):
    """The certificates of every pure cell, read off the payoff entries of
    games stacked on trailing axes, (m, n, ...) per player.

    A cell's payoffs are its two entries, and its regrets are the column
    maximum of ``a`` and the row maximum of ``b`` minus them, clipped at 0.
    Returns the (m, n, ...) regrets and two masks: the cells enumeration
    finds (both regrets within eps in a finite game, and no pure deviation
    gains more than eps) and the degenerate cells.  Each value is what
    ``verify_equilibrium`` gives the unit profile, whose products multiply
    the entries by ones and zeros, bar the sign of a zero payoff; a
    non-finite entry makes one NaN.
    """
    with np.errstate(all="ignore"):  # inf - inf is NaN, which never certifies
        col_best = a.max(axis=0, keepdims=True)
        row_best = b.max(axis=1, keepdims=True)
        gap_p, gap_r = col_best - a, row_best - b
        regret_p = np.where(gap_p <= 0.0, 0.0, gap_p)
        regret_r = np.where(gap_r <= 0.0, 0.0, gap_r)
        finite = np.isfinite(a).all(axis=(0, 1)) & np.isfinite(b).all(axis=(0, 1))
        certified = (regret_p <= eps) & (regret_r <= eps) & finite
        found = certified & ~((col_best > a + eps) | (row_best > b + eps))
        # _degenerate's test: more best responses than the one support move
        degenerate = ((a >= col_best - eps).sum(axis=0, keepdims=True) > 1) | (
            (b >= row_best - eps).sum(axis=1, keepdims=True) > 1
        )
    return regret_p, regret_r, found, degenerate


def _slack(a, b):
    """The prefilters' rounding margin: DOMINANCE_SLACK times one plus the
    largest payoff magnitude of each player, per game of a (m, n, ...) stack."""
    return DOMINANCE_SLACK * (1.0 + np.abs(a).max(axis=(0, 1)) + np.abs(b).max(axis=(0, 1)))


def support_enumeration(game, eps: float = EPS_DEFAULT) -> list[EquilibriumProfile]:
    """Equilibria via enumeration of equal-size support pairs.

    Size-one supports are the pure equilibria, the profiles of
    ``pure_equilibria``.  For each larger candidate pair the two
    indifference systems are solved directly; solutions are kept when they
    are valid simplex vectors whose on-support value dominates every
    off-support pure move within eps.  Singular systems are skipped,
    duplicates merged, and every returned profile certifies at eps.

    In a finite game, a candidate whose weights miss the sum test of
    ``mixed_strategy``, or that fails the off-support test or certification,
    perhaps by rounding alone, is re-checked exactly; in a non-finite game
    it is dropped.  A pure cell needs no such re-check: its regret is one
    float subtraction, and rounding is monotone, so a float regret above
    eps is above it exactly.

    Pairs are visited by support size, then lexicographically by rows and
    by columns.  This is the one-game case of ``_enumerate``.
    """
    a, b = game_matrices(game)
    m, n = a.shape
    if max(m, n) > 12:
        raise TooLargeError(f"support enumeration limited to 12 moves per side, got {m}x{n}")
    _, x, y, payoffs, regrets, degenerate = _enumerate(a, b, eps)
    fields = zip(x, y, payoffs.tolist(), regrets.tolist(), _is_pure(x, y).tolist(), degenerate.tolist())
    return [
        EquilibriumProfile(_freeze(p), _freeze(q), tuple(pay), tuple(reg), "pure" if pure else "mixed", True, flag)
        for p, q, pay, reg, pure, flag in fields
    ]


def _enumerate(a, b, eps):
    """``support_enumeration`` on B games stacked on a trailing axis, (m, n,
    B) per player, or on one game, (m, n).  Nothing here raises.  Returns
    the profiles found as flat arrays, by game and in each game's
    enumeration order: the game index, the (P, m) and (P, n) strategies,
    the (P, 2) payoffs and regrets and the (P,) degenerate flags.

    For each support size k >= 2, the pairs ``_support_pairs`` keeps are
    solved in stacks by ``_candidates`` and certified by ``_certify``, whose
    values do not depend on the stack.  The steps that depend on what a
    game has found so far (the duplicate test and the exact re-check) run
    in ``_Finds.add_stack``, one pass per stack.
    """
    m, n, count = *a.shape[:2], a[0, 0].size
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)  # C order, the games on the last axis
    with np.errstate(all="ignore"):  # a non-finite game gives NaNs, which never certify
        # each game's matrices in C order, and the responder's transposed, a row per their move
        ga, gb = (np.ascontiguousarray(v.reshape(m, n, count).transpose(2, 0, 1)) for v in (a, b))
        gbt = np.ascontiguousarray(gb.transpose(0, 2, 1))
        slack = _slack(a, b)
        regret_p, regret_r, cells, degenerate = (v.reshape(m, n, -1).transpose(2, 0, 1) for v in _pure_cells(a, b, eps))
        cell = np.nonzero(cells)  # (game, row, column), by game
        payoffs, regrets = np.array([ga[cell], gb[cell]]).T, np.array([regret_p[cell], regret_r[cell]]).T
        pure = cell[0], np.eye(m)[cell[1]], np.eye(n)[cell[2]], payoffs, regrets, degenerate[cell]
        finds = None  # made at the first candidate
        for k in range(2, min(m, n) + 1):
            row_sets, col_sets, kept = _support_pairs(a, b, k, eps, slack)
            size = max(STACK_PAIRS, count)  # a stack of games takes a pair of each at once
            for start in range(0, len(kept), size):
                pair, games = np.divmod(kept[start : start + size], count)
                r, c = np.divmod(pair, len(col_sets))
                pick, x, y, valid = _candidates(ga, gbt, games, k, r, c, eps, np.reshape(slack, count)[games])
                if not len(pick):
                    continue
                if finds is None:
                    finds = _Finds(count, *pure)
                    finite = np.reshape(np.isfinite(a).all(axis=(0, 1)) & np.isfinite(b).all(axis=(0, 1)), count)
                games, rows, cols = games[pick], row_sets[r[pick]], col_sets[c[pick]]
                pay_p, pay_r, reg_p, reg_r, certified, degen = _certify(ga[games], gb[games], x, y, eps)
                payoffs, regrets = np.array([pay_p, pay_r]).T, np.array([reg_p, reg_r]).T
                # a candidate that is no duplicate certifies or, in a finite game, gets re-checked exactly;
                # a valid float profile is a duplicate by its float strategies, any other candidate by
                # its exact ones, which _exact_profile tests
                good = valid & certified

                def recheck(s, found_x, found_y):
                    g = games[s]
                    return _exact_profile(ga[g], gb[g], rows[s].tolist(), cols[s].tolist(), eps, found_x, found_y)

                finds.add_stack(games, x, y, payoffs, regrets, degen, valid, good, ~good & finite[games], recheck)
    return finds.flat() if finds else pure


class _Finds:
    """The profiles ``_enumerate`` has found, per game of a stack of count
    games, in the order found, starting from the pure ones, sorted by game."""

    def __init__(self, count: int, games, x, y, payoffs, regrets, degenerate):
        self.size = np.zeros(count, dtype=int)
        # the strategies of each game, padded with NaN, which is close to nothing
        self.x, self.y = (np.full((count, 4, v.shape[1]), np.nan) for v in (x, y))
        self.parts = []
        self.add(games, x, y, payoffs, regrets, degenerate)

    def add(self, games, x, y, payoffs, regrets, degenerate):
        """Append profiles, each to its game's, in order."""
        slot = self.size[games] + _rank(games)
        while len(slot) and slot.max() >= self.x.shape[1]:  # double the slots
            self.x, self.y = (np.concatenate([v, np.full_like(v, np.nan)], axis=1) for v in (self.x, self.y))
        self.x[games, slot], self.y[games, slot] = x, y
        self.size += np.bincount(games, minlength=len(self.size))
        self.parts.append((games, x, y, payoffs, regrets, degenerate))

    def seen(self, games, x, y):
        """Whether each profile (x[i], y[i]) lies within 1e-9 of one found in game games[i]."""
        used = self.size[games].max(initial=0)  # the slots any of these games fills
        if not used:
            return np.zeros(len(games), dtype=bool)
        return _across(np.logical_or, _same_profile(self.x[games, :used], self.y[games, :used], x[:, None], y[:, None]))

    def add_stack(self, games, x, y, payoffs, regrets, degenerate, valid, good, retry, recheck):
        """Add the candidates of a stack, as if each game took its own in order.

        A valid candidate (a valid float profile) within 1e-9 of a profile
        its game found before it is a duplicate.  Any other candidate is
        found when it is good, and when it is a retry and
        ``recheck(s, found_x, found_y)`` returns its exact (x, y, payoffs,
        regrets, degenerate flag), which then overwrite row s of the arrays;
        ``recheck`` tests duplicates itself.  One ``seen`` call tests the
        stack against the profiles found before it.  Then only the
        candidates whose verdict depends on an earlier one of their game
        are decided one by one, in order: good ones within 1e-9 of an
        earlier good one, retries, and good ones after an exact find.
        """
        fresh = ~(valid & self.seen(games, x, y))
        good, retry = good & fresh, retry & fresh
        queue = np.flatnonzero(retry | (good & _near_earlier(games, x, y, good))).tolist()  # sorted: a heap
        take = good.copy()
        take[queue] = False
        while queue:
            s = heapq.heappop(queue)
            g = games[s]
            before = np.flatnonzero(take[:s] & (games[:s] == g))
            if valid[s] and _same_profile(x[before], y[before], x[s], y[s]).any():
                continue
            if good[s]:
                take[s] = True
                continue
            found_x, found_y = (np.concatenate([v[g, : self.size[g]], w[before]]) for v, w in ((self.x, x), (self.y, y)))
            profile = recheck(s, found_x, found_y)
            if profile is None:
                continue
            x[s], y[s], payoffs[s], regrets[s], degenerate[s] = profile
            take[s] = True
            later = s + 1 + np.flatnonzero(take[s + 1 :] & (games[s + 1 :] == g))  # may duplicate the exact find
            take[later] = False
            for t in later.tolist():
                heapq.heappush(queue, t)
        self.add(games[take], x[take], y[take], payoffs[take], regrets[take], degenerate[take])

    def flat(self):
        """The profiles as flat arrays (game, x, y, payoffs, regrets, degenerate), by game."""
        fields = [np.concatenate(field) for field in zip(*self.parts)]
        if len(self.size) == 1:  # one game, in order already
            return tuple(fields)
        order = np.argsort(fields[0], kind="stable")
        return tuple(field[order] for field in fields)


def _rank(games) -> np.ndarray:
    """How many entries before each of ``games`` name the same game."""
    if (np.diff(games) > 0).all():  # each game once
        return np.zeros(len(games), dtype=int)
    order = np.argsort(games, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(games)) - np.searchsorted(games[order], games[order])
    return rank


def _near_earlier(games, x, y, mask) -> np.ndarray:
    """Which candidates in ``mask`` lie within 1e-9 of an earlier one in
    ``mask`` of the same game; STACK_PAIRS pairs are compared at a time."""
    near = np.zeros(len(games), dtype=bool)
    order = np.flatnonzero(mask)
    if (np.diff(games[order]) > 0).all():  # at most one per game, as in a sweep
        return near
    order = order[np.argsort(games[order], kind="stable")]  # by game, then in stack order
    by_game = games[order]
    first = np.searchsorted(by_game, by_game)
    earlier = np.arange(len(order)) - first  # how many of its game come before each
    later = np.repeat(np.arange(len(order)), earlier)
    before = first[later] + np.arange(len(later)) - np.repeat(np.cumsum(earlier) - earlier, earlier)
    for start in range(0, len(later), STACK_PAIRS):
        i, j = (order[v[start : start + STACK_PAIRS]] for v in (later, before))
        near[i[_same_profile(x[j], y[j], x[i], y[i])]] = True
    return near


def _support_pairs(a, b, k, eps, slack):
    """The row sets and column sets of size k, and the flat indices, in
    enumeration order, of the (row set, column set) pairs worth solving.
    Games may be stacked on trailing axes, (m, n, ...) per player, with a
    slack each; the flat indices then run over (row set, column set, game).

    A pair is dropped when some move of one player's support is beaten on
    every move of the opponent's support by another move of the same player
    by more than eps + 2 k slack (Porter, Nudelman & Shoham, GEB 63, 2008).
    A beater off the support fails the off-support test.  A beater on it
    leaves the system singular or its weights invalid: k - 1 weights down to
    -WEIGHT_CLAMP_TOL (= DOMINANCE_SLACK) on gaps of up to twice the largest
    payoff, plus rounding, make up less than 2 k slack.  A non-finite payoff
    makes the slack non-finite, so such a game drops nothing.
    """
    row_sets, col_sets = _subsets(a.shape[0], k)[0], _subsets(a.shape[1], k)[0]
    threshold = eps + 2 * k * slack
    beaten_rows = _beaten(a, col_sets, threshold)
    beaten_cols = _beaten(np.swapaxes(b, 0, 1), row_sets, threshold)
    dropped = beaten_rows[row_sets].any(axis=1) | np.swapaxes(beaten_cols[col_sets].any(axis=1), 0, 1)
    return row_sets, col_sets, np.flatnonzero(~dropped)


def _beaten(a, col_sets, threshold) -> np.ndarray:
    """(rows, column sets, ...) mask of the rows of ``a`` that some row beats
    by more than threshold on every column of the set; games may be stacked
    on trailing axes, with a threshold each."""
    beats = a[:, None] - a[None] > threshold  # [r, i, j, ...]: row r beats row i in column j
    return beats[:, :, col_sets].all(axis=3).any(axis=0)


@functools.lru_cache(maxsize=None)
def _subsets(size: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-subsets of range(size) in lexicographic order, and the moves
    each leaves out: the (size - k)-subsets in reverse order.  Read-only."""
    sets, rest = ([*itertools.combinations(range(size), t)] for t in (k, size - k))
    return tuple(_freeze(np.array(v, dtype=int).reshape(len(v), t)) for v, t in ((sets, k), (rest[::-1], size - k)))


def _candidates(ga, gbt, games, k, r, c, eps, slack):
    """The candidates of a stack of support pairs: pair i is game games[i]
    (proposer ga[games[i]], responder transposed gbt[games[i]]) on the k-row
    set r[i] and k-column set c[i] of ``_subsets``, with margin slack[i].
    Phase 1 solves the proposer's systems, which give the responder's mix
    y; phase 2 solves the responder's systems, which give x, for the pairs
    phase 1 keeps.  A stack of at most ``TWO_PHASE_MIN_PAIRS`` pairs, or
    one leaving no row out, where phase 1 could drop only invalid weights,
    solves both in one call.  After each phase a pair whose best
    off-support move beats the support's value by more than eps + slack is
    dropped, as it could not pass even exactly; one beaten by more than eps
    fails the off-support test.  Those payoffs are ``a[off_rows] @ y`` and
    ``x @ b[:, off_cols]``, each one kernel call per pair on the layout a
    single pair's indexing gives (C, then Fortran order).  Returns the pairs
    kept with valid weights, their (x, y) mixes, and which are valid float
    profiles: mixes that pass the sum test of ``mixed_strategy`` and the
    off-support test.
    """
    count, (_, m, n) = len(games), ga.shape
    (rows, off_rows), (cols, off_cols) = _subsets(m, k), _subsets(n, k)  # the sets, and the moves they leave out
    rows, cols = rows[r], cols[c]
    one_call = count <= TWO_PHASE_MIN_PAIRS or k == m
    blocks = _blocks(ga, games, rows, cols)
    if one_call:  # the responder's systems follow the proposer's in one stack
        blocks = np.concatenate([blocks, _blocks(gbt, games, cols, rows)], axis=-1)
    weights, value, ok = _indifference(blocks)
    pairs = np.flatnonzero(ok[:count] & ok[count:] if one_call else ok)
    y, value_p, passed = _spread(weights[:, pairs], cols[pairs], n), value[pairs], np.ones(len(pairs), bool)
    if k < m:
        best = _across(np.maximum, (ga[games[pairs, None], off_rows[r[pairs]]] @ y[..., None])[..., 0])
        kept, passed = ~(best > value_p + eps + slack[pairs]), ~(best > value_p + eps)
        pairs, y, passed = pairs[kept], y[kept], passed[kept]
    if not len(pairs):
        return pairs, np.zeros((0, m)), y, passed
    if one_call:
        weights, value = weights[:, count + pairs], value[count + pairs]
    else:
        weights, value, ok = _indifference(_blocks(gbt, games[pairs], cols[pairs], rows[pairs]))
        pairs, y, passed, weights, value = pairs[ok], y[ok], passed[ok], weights[:, ok], value[ok]
    x = _spread(weights, rows[pairs], m)
    if k < n:
        best = _across(np.maximum, (x[:, None] @ gbt[games[pairs, None], off_cols[c[pairs]]].transpose(0, 2, 1))[:, 0])
        kept, passed = ~(best > value + eps + slack[pairs]), passed & ~(best > value + eps)
        pairs, x, y, passed = pairs[kept], x[kept], y[kept], passed[kept]
    # mixed_strategy's sum test; the weights are clamped to nonnegative already
    summed = (np.abs(np.array([x.sum(axis=-1), y.sum(axis=-1)]) - 1.0) <= SIMPLEX_SUM_TOL).all(axis=0)
    return pairs, x, y, passed & summed


def _blocks(ga, games, rows, cols) -> np.ndarray:
    """The (k, k, N) blocks ``ga[games[i]][rows[i]][:, cols[i]]`` of a stack of support pairs.

    A block has one row per pure move of the player made indifferent, so
    the responder's blocks come from their transposed payoffs.
    """
    return ga[games[:, None, None], rows[:, :, None], cols[:, None, :]].transpose(1, 2, 0)


def _spread(weights, support, size) -> np.ndarray:
    """The (N, size) mixes that put the (k, N) weights on the (N, k) supports."""
    mix = np.zeros((len(support), size))
    mix[np.arange(len(support))[:, None], support] = weights.T
    return mix


def _indifference(blocks: np.ndarray):
    """The mixes that make one player indifferent on stacks of k x k blocks, (k, k, N).

    A block has one row per pure move of the player made indifferent and
    one column per support move of the opponent, whose mix is solved for.
    Returns the clamped (k, N) weights, the (N,) values and the (N,) mask
    of the systems that are non-singular with valid weights.
    """
    k, _, count = blocks.shape
    # Systems [[block, -1], [1, 0]] with right-hand side (0, ..., 0, 1): the
    # weights, then the common value; all solved together by _solve_stacked.
    ab = np.zeros((k + 1, k + 2, count))
    ab[:k, :k] = blocks
    ab[:k, k] = -1.0
    ab[k, :k] = 1.0
    ab[k, k + 1] = 1.0
    solution, singular = _solve_stacked(ab)
    ok = ~singular & _valid_weights(solution, k)
    return np.where(solution[:k] < 0.0, 0.0, solution[:k]), solution[k], ok


def _exact_profile(a, b, rows, cols, eps, found_x, found_y):
    """A support pair re-solved and re-certified in exact rationals, from the
    float payoffs, which are exact rationals.  Returns the floats of its exact
    strategies, payoffs and regrets, with the degenerate flag of those
    strategies, or None when a system is singular, a weight negative, a
    regret above eps or the profile already found."""
    a_cols = [[Fraction(v) for v in row] for row in a[:, cols].tolist()]  # m x k
    b_rows = [[Fraction(v) for v in row] for row in b[rows].T.tolist()]  # n x k
    y = _exact_mix([a_cols[i] for i in rows])
    x = _exact_mix([b_rows[j] for j in cols])
    if y is None or x is None or min(x[:-1] + y[:-1]) < 0:
        return None
    # on an exact solution every support move earns the value, the last entry
    regret = [max(sum(map(Fraction.__mul__, row, w)) for row in p) - w[-1] for p, w in ((a_cols, y), (b_rows, x))]
    # bincount scatters the weights, each rounded to its nearest float
    xs, ys = np.bincount(rows, x[:-1], a.shape[0]), np.bincount(cols, y[:-1], a.shape[1])
    if max(regret) > eps or _same_profile(found_x, found_y, xs, ys).any():
        return None
    return xs, ys, (float(y[-1]), float(x[-1])), tuple(map(float, regret)), bool(_certify(a, b, xs, ys, eps)[5])


def _exact_mix(block):
    """The exact opponent weights, then the value, that make a player
    indifferent on a k x k block of Fractions (one row per their move), or
    None when the system is singular; Gauss-Jordan elimination."""
    system = [[*map(Fraction, [*row, -1, 0])] for row in block] + [[*map(Fraction, [1] * len(block) + [0, 1])]]
    for c in range(len(system)):
        p = next((r for r in range(c, len(system)) if system[r][c]), None)
        if p is None:
            return None
        system[c], system[p] = system[p], system[c]
        for r in range(len(system)):
            if r != c and system[r][c]:
                f = system[r][c] / system[c][c]
                system[r] = [u - f * w for u, w in zip(system[r], system[c])]
    return [row[-1] / row[i] for i, row in enumerate(system)]


def grid_oracle(game, resolution: int = 64, eps: float = EPS_DEFAULT) -> list[tuple[float, float]]:
    """Brute-force scan of a 2x2 game over an evenly spaced strategy grid.

    Returns the (mu, nu) grid points whose profile has max regret within
    eps, in row-major order (mu first, then nu), where mu and nu are the
    weights each player puts on move 0.  Kept deliberately independent of
    the enumeration solver so it can serve as a cross-checking oracle.
    """
    a, b = game_matrices(game)
    if a.shape != (2, 2):
        raise DimensionMismatchError(f"grid oracle handles 2x2 games only, got {a.shape}")
    if resolution < 1:
        raise ValueError(f"resolution must be a positive integer, got {resolution}")
    grid = np.arange(resolution + 1) / resolution
    x = np.stack([grid, 1.0 - grid], axis=1)
    y = np.stack([grid, 1.0 - grid], axis=1)
    xa = x @ a
    xb = x @ b
    realized_p = xa @ y.T
    realized_r = xb @ y.T
    best_p = (a @ y.T).max(axis=0)
    best_r = xb.max(axis=1)
    ok = (best_p[None, :] - realized_p <= eps) & (best_r[:, None] - realized_r <= eps)
    return [(float(grid[i]), float(grid[j])) for i, j in np.argwhere(ok)]
