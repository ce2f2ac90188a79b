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
import itertools
from dataclasses import dataclass

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

# Support pairs per chunk of ``support_enumeration``'s first phase and per
# stack of its second; it bounds the memory one solve takes.
STACK_PAIRS = 1024
# A game (or stack of games) that keeps up to this many support pairs in all
# solves both players' systems in one call instead of two phases.  Over the
# games of two nash_large cycles (seeds 3 and 5; 2-vCPU Xeon, numpy 2.4.6;
# per game the best of 15 alternating runs), enumeration took 70 and 72 ms
# at a limit of 0, 66 and 69 at 64, 64 and 64 at 256, and 64 and 66 at 1024.
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
    if np.logical_or.reduce(w < -WEIGHT_CLAMP_TOL):
        raise InvalidProbabilityError(f"negative strategy weight in {w.tolist()}")
    w[w < 0.0] = 0.0
    total = float(np.add.reduce(w))
    if not abs(total - 1.0) <= SIMPLEX_SUM_TOL:  # a NaN or infinite weight fails too
        raise InvalidProbabilityError(f"strategy weights sum to {total}, expected 1")
    return w


def _is_pure(x, y):
    """Whether stacked profiles put all but PURE_KIND_TOL of each player's weight on one move."""
    return (np.maximum.reduce(x, axis=-1) >= 1.0 - PURE_KIND_TOL) & (np.maximum.reduce(y, axis=-1) >= 1.0 - PURE_KIND_TOL)


def verify_equilibrium(game, profile, eps: float = EPS_DEFAULT) -> EquilibriumProfile:
    """Evaluate a strategy pair and certify it when max regret stays within eps.

    Always returns a certificate; a failed check is reported through the
    ``certified`` field, never as an exception.  A NaN or infinite payoff
    or regret never certifies.
    """
    a, b = game_matrices(game)
    x = mixed_strategy(profile[0], a.shape[0])
    y = mixed_strategy(profile[1], a.shape[1])
    payoffs, regret, certified, degenerate = _certify(a, b, x, y, eps)
    kind = "pure" if _is_pure(x, y) else "mixed"
    payoffs, regret = tuple(payoffs.tolist()), tuple(regret.tolist())
    return EquilibriumProfile(_freeze(x), _freeze(y), payoffs, regret, kind, bool(certified), bool(degenerate))


def _certify(a, b, x, y, eps):
    """The (2, ...) payoffs and regrets, the certified flags and the
    degenerate flags of profiles (x, y) in games (a, b), the proposer's
    values first.

    Games and strategies may be stacked on broadcastable leading axes.  Every
    product is one ``np.matmul`` kernel call per profile, the same call a
    single profile makes, so stacked values equal single ones bit for bit.
    A NaN gap stays NaN, and a NaN or infinite payoff or regret never
    certifies.
    """
    x_row, y_col = x[..., None, :], y[..., :, None]
    xb = np.matmul(x_row, b)
    row_values, col_values = np.matmul(a, y_col)[..., 0], xb[..., 0, :]  # a @ y and x @ b
    best = np.array([_across(np.maximum, row_values), _across(np.maximum, col_values)])
    payoffs = np.array([np.matmul(np.matmul(x_row, a), y_col)[..., 0, 0], np.matmul(xb, y_col)[..., 0, 0]])
    regret = best - payoffs
    regret[regret <= 0.0] = 0.0
    certified = (regret <= eps) & np.isfinite(payoffs)
    low = best[..., None] - eps  # a best response earns at least this
    # degenerate: a player has more best responses than support moves, the weights above WEIGHT_CLAMP_TOL
    more_p = _across(np.add, np.subtract(row_values >= low[0], x > WEIGHT_CLAMP_TOL, dtype=int)) > 0
    more_r = _across(np.add, np.subtract(col_values >= low[1], y > WEIGHT_CLAMP_TOL, dtype=int)) > 0
    return payoffs, regret, certified[0] & certified[1], more_p | more_r


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
    both = np.array(game_matrices(game))
    _, m, n = both.shape
    with np.errstate(all="ignore"):  # inf - inf is NaN, which never certifies
        regret, found, degenerate = _pure_cells(both, np.isfinite(both).all(), eps)
    return [
        EquilibriumProfile(
            _freeze(np.eye(m)[i]), _freeze(np.eye(n)[j]), tuple(both[:, i, j].tolist()),
            tuple(regret[:, i, j].tolist()), "pure", True, bool(degenerate[i, j]),
        )
        for i, j in np.argwhere(found).tolist()
    ]


def _solve_stacked(ab: np.ndarray, sizes=None) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian elimination with partial pivoting on a stack of systems in one pass.

    ``ab`` is a C-contiguous (s, s + 1, N) float array, overwritten (row
    swaps write through flat views of it): system i has the matrix
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

    Systems of several sizes share one stack when ``sizes``, nondecreasing,
    gives each one's: system i then fills the bottom right sizes[i] x
    (sizes[i] + 1) of its matrix.  Step k acts only on the systems that are
    real at row k, a suffix of the stack, so each system takes exactly the
    steps it takes alone: those an identity block above and left of it
    would add pivot on 1 with multipliers of 0.  Nothing reads the rest of
    its matrix, and its solution is zero above its own rows.

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
    first = [0] * n if sizes is None else sizes.searchsorted(n - np.arange(n)).tolist()  # real at row k
    row = np.arange((n + 1) * count).reshape(n + 1, count)
    x = np.zeros((count, n))
    with np.errstate(all="ignore"):  # singular systems run on with tiny or zero pivots
        for k in range(n - 1):  # the last row has no rows below to pivot with
            s = first[k]
            below = ab[k:].reshape(-1)  # the rows from k on, flat
            at = np.abs(ab[k:, k, s:]).argmax(axis=0) * ((n + 1) * count) + row[k:, s:]  # the pivot rows from column k
            pivot_row = below[at]
            below[at] = ab[k, k:, s:]
            ab[k, k:, s:] = pivot_row
            lam = ab[k + 1 :, k, s:] / pivot_row[0]
            ab[k + 1 :, k + 1 :, s:] -= lam[:, None] * pivot_row[1:]
        # a step never changes the rows above it, so the diagonal holds every pivot
        small = np.abs(ab.diagonal().T) <= PIVOT_TOL  # (n, N): the or over rows is then elementwise
        singular = np.logical_or.reduce(small if sizes is None else small & (np.arange(n)[:, None] >= n - sizes))
        x[:, -1] = (ab[-1, n] - 0.0) / ab[-1, -2]  # an empty dot product is 0
        for k in range(n - 2, -1, -1):
            s = first[k]
            # np.matmul on unit-stride rows reaches the same dot routine as a
            # 1-D ``@`` of one row, so the products round alike at any width
            upper = np.ascontiguousarray(ab[k, k + 1 : n, s:].T)
            done = np.matmul(upper[:, None, :], x[s:, k + 1 :, None])[:, 0, 0]
            x[s:, k] = (ab[k, n, s:] - done) / ab[k, k, s:]
    return np.ascontiguousarray(x.T), singular


def _same_profile(xs, ys, x, y) -> np.ndarray:
    """Which profiles (strategies stacked on axis -2) lie within 1e-9 of (x, y)."""
    return (_across(np.maximum, np.abs(xs - x)) <= 1e-9) & (_across(np.maximum, np.abs(ys - y)) <= 1e-9)


def _pure_cells(both, finite, eps):
    """The certificates of every pure cell, read off the payoff entries of
    games stacked on trailing axes, both players' in one (2, m, n, ...)
    array, given which games are finite; run with floating-point warnings off.

    A cell's payoffs are its two entries, and its regrets are the column
    maximum of the proposer's payoffs and the row maximum of the responder's
    minus them, clipped at 0.  Returns the (2, m, n, ...) regrets and two
    masks: the cells enumeration finds (both regrets within eps in a finite
    game, and no pure deviation gains more than eps) and the degenerate
    cells.  Each value is what ``verify_equilibrium`` gives the unit
    profile, whose products multiply the entries by ones and zeros, bar the
    sign of a zero payoff; a non-finite entry makes one NaN.
    """
    best = np.empty(both.shape)  # each player's best payoff against the opponent's move
    best[0] = np.maximum.reduce(both[0], axis=0)
    best[1] = np.maximum.reduce(both[1], axis=1, keepdims=True)
    # _certify's degenerate test: more best responses than the one support move
    near = both >= best - eps
    degenerate = (np.add.reduce(near[0], axis=0) > 1) | (np.add.reduce(near[1], axis=1, keepdims=True) > 1)
    held = best <= both + eps  # not beaten by more than eps
    regret = np.subtract(best, both, out=best)
    regret[regret <= 0.0] = 0.0
    held &= regret <= eps  # and certified
    return regret, np.logical_and.reduce(held) & finite, degenerate


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
    # the rows of a read-only array are read-only views
    fields = zip(_freeze(x), _freeze(y), payoffs.tolist(), regrets.tolist(), _is_pure(x, y).tolist(), degenerate.tolist())
    return [
        EquilibriumProfile(p, q, tuple(pay), tuple(reg), "pure" if pure else "mixed", True, flag)
        for p, q, pay, reg, pure, flag in fields
    ]


def _enumerate(a, b, eps):
    """``support_enumeration`` on B games stacked on a trailing axis, (m, n,
    B) per player, or on one game, (m, n).  Nothing here raises.  Returns
    the profiles found as flat arrays, by game and in each game's
    enumeration order: the game index, the (P, m) and (P, n) strategies,
    the (P, 2) payoffs and regrets and the (P,) degenerate flags.

    The pairs ``_support_pairs`` keeps at every support size k >= 2 form
    one list in enumeration order, which ``_candidates`` takes through
    phase 1 in chunks that may span sizes; phase 2 takes the pairs every
    chunk leaves, in enumeration order, in stacks of the chunk size as they
    fill.  ``_certify``, whose values do not depend on the stack, then
    certifies all the candidates at once.  A valid candidate within 1e-9 of
    a pure profile is its duplicate.  Every other candidate that does not
    certify is, in a finite game, re-checked exactly on its own, and an
    exact find overwrites its row unless it lies within 1e-9 of a pure
    profile.  Then ``_take`` drops each candidate within 1e-9 of one its
    game took before it.  Pure profiles are always taken.
    """
    m, n, count = *a.shape[:2], a[0, 0].size
    with np.errstate(all="ignore"):  # a non-finite game gives NaNs, which never certify
        both = np.array([a, b]).reshape(2, m, n, count)  # the games last
        a, b = both[0], both[1]
        scale = np.maximum.reduce(np.abs(both), axis=(1, 2))  # NaN or inf for a player with a non-finite payoff
        finite = np.maximum(scale[0], scale[1]) < np.inf
        regret, cells, degenerate = _pure_cells(both, finite, eps)
        cell = cells.transpose(2, 0, 1).nonzero()  # (game, row, column), by game
        at = np.ravel_multi_index(cell[1:] + cell[:1], (m, n, count))  # each field gathered at the cells
        units = np.zeros((len(at), m + n))  # both players' strategies side by side
        units[np.arange(len(at)), np.array([cell[1], m + cell[2]])] = 1.0
        gathered = both.reshape(2, -1).take(at, axis=1).T, regret.reshape(2, -1).take(at, axis=1).T
        pure = cell[0], units[:, :m], units[:, m:], *gathered, degenerate.take(at)
        slack = DOMINANCE_SLACK * (1.0 + scale[0] + scale[1])  # the prefilters' rounding margin
        pairs = _support_pairs(a, b, eps, slack)
        if not len(pairs):
            return pure
        # each game's matrices in C order, and the responder's transposed, a row per their move
        by_game = np.ascontiguousarray(both.transpose(0, 3, 1, 2))
        (ga, gb), gbt = by_game, np.ascontiguousarray(b.transpose(2, 1, 0))
        size, tables = max(STACK_PAIRS, count), (by_game.reshape(-1), ga, gbt, slack, eps)
        found, left = [], None  # the candidates so far, and the pairs phase 1 left that phase 2 has yet to solve
        for s in range(0, len(pairs), size):
            part = _candidates(*tables, len(pairs) <= TWO_PHASE_MIN_PAIRS, pairs[s : s + size])
            done = len(part) == 7  # x solved too: one call, in a small game or a chunk of the largest k
            if not done:
                left = part if left is None else _joined([left, part])
            # phase 2 as its stacks fill, and on the rest before the candidates of one call or after the last chunk
            end = done or s + size >= len(pairs)
            while left is not None and len(left[0]) >= (1 if end else size):
                found.append(_phase(*tables, (1,), [v[:size] for v in left]))
                left = [v[size:] for v in left]
            if done:
                found.append(part)
        fields = _joined(found)
        if not fields or not len(fields[0]):
            return pure
        games, row_sets, col_sets, _, passed, y, x = fields
        # mixed_strategy's sum test; the weights are clamped to nonnegative already
        summed = np.abs(np.array([np.add.reduce(x, -1), np.add.reduce(y, -1)]) - 1.0) <= SIMPLEX_SUM_TOL
        valid = passed & np.logical_and.reduce(summed)
        payoffs, regrets, certified, degen = _certify(*by_game.take(games, axis=1), x, y, eps)
        candidates = games, x, y, payoffs.T, regrets.T, degen
        fresh = ~(valid & _near_cell(cells, games, x, y)) if len(at) else True  # not a pure profile's duplicate
        kept = valid & certified & fresh
        retry = (~kept & fresh & finite[games]).nonzero()[0]
        for s in retry.tolist():
            g = games[s]
            rows, cols = _set_table(m, min(m, n))[1][:, row_sets[s]], _set_table(n, min(m, n))[1][:, col_sets[s]]
            rows, cols = rows[rows < m].tolist(), cols[cols < n].tolist()  # without the moves that lead them
            profile = _exact_profile(ga[g], gb[g], rows, cols, eps)
            if profile is not None:
                x[s], y[s], payoffs[:, s], regrets[:, s], degen[s] = profile
                kept[s] = True
        if len(retry):  # an exact find may repeat a pure profile
            exact = retry[kept[retry]]
            kept[exact] = ~_near_cell(cells, games[exact], x[exact], y[exact])
        picked = _take(games, x, y, kept).nonzero()[0]
        fields = candidates if len(picked) == len(games) else [v.take(picked, axis=0) for v in candidates]
        if len(pure[0]):
            fields = [np.concatenate([u, v]) for u, v in zip(pure, fields)]
    # each game's pure profiles, then its candidates, which a stack's come by support pair: sorted
    # by game, stably, unless one game or their order already puts them so
    if count > 1 and (fields[0][1:] < fields[0][:-1]).any():
        order = fields[0].argsort(kind="stable")
        fields = [v.take(order, axis=0) for v in fields]
    return tuple(fields)


def _joined(parts) -> list:
    """The fields of several parts, each concatenated over the parts."""
    return parts[0] if len(parts) == 1 else [np.concatenate(v) for v in zip(*parts)]


def _take(games, x, y, kept) -> np.ndarray:
    """Which kept candidates a pass over each game's in order takes: each
    one unless it lies within 1e-9 of one its game took before it."""
    earlier, later = _near_earlier(games, x, y, kept)
    take = kept.copy()
    for s, t in sorted(zip(later.tolist(), earlier.tolist())):  # by the later one, so take[t] is final
        if take[t]:
            take[s] = False
    return take


def _near_cell(cells, games, x, y) -> np.ndarray:
    """Whether each profile (x[i], y[i]) lies within 1e-9 of a pure profile
    of game games[i] that ``cells`` (m, n, B) marks: of the one on its
    largest weights, as no other can be that close."""
    rows, cols = x.argmax(axis=1), y.argmax(axis=1)
    near = cells[rows, cols, games]
    at = near.nonzero()[0]
    if len(at):
        units = np.eye(x.shape[1]).take(rows[at], axis=0), np.eye(y.shape[1]).take(cols[at], axis=0)
        near[at] = _same_profile(*units, x.take(at, axis=0), y.take(at, axis=0))
    return near


def _near_earlier(games, x, y, mask) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of candidates in ``mask`` of one game that lie within 1e-9
    of each other, as the earlier ones and the later ones.
    Candidates are sorted by game and by a key, their weights times the
    move indices summed, and only pairs whose keys lie within (m^2 + n^2)
    1e-9 / 2, as those of any two profiles within 1e-9 do, are compared,
    STACK_PAIRS pairs at a time."""
    order = mask.nonzero()[0]
    none = order[:0], order[:0]
    if np.logical_and.reduce(games[order[1:]] > games[order[:-1]]):  # at most one per game, as in a sweep
        return none
    m, n = x.shape[1], y.shape[1]
    key = x.take(order, axis=0) @ np.arange(m) + y.take(order, axis=0) @ np.arange(n)
    key = games[order] + 1j * key  # sorts by game, then key
    by_key = key.argsort(kind="stable")
    order, key, at = order[by_key], key[by_key], np.arange(len(order))
    window = key.searchsorted(key + 0.5j * (m * m + n * n) * 1e-9, side="right") - at - 1  # how many follow each
    if not window.any():
        return none
    first = at.repeat(window)
    second = np.arange(len(first)) + (at + 1 - (window.cumsum() - window)).repeat(window)
    pairs = []
    for start in range(0, len(first), STACK_PAIRS):
        i, j = order[first[start : start + STACK_PAIRS]], order[second[start : start + STACK_PAIRS]]
        near = _same_profile(*(v.take(t, axis=0) for t in (i, j) for v in (x, y)))
        pairs.append((np.minimum(i, j)[near], np.maximum(i, j)[near]))
    return tuple(map(np.concatenate, zip(*pairs)))


def _support_pairs(a, b, eps, slack):
    """The flat indices, in enumeration order, of the support pairs worth
    solving, over (pair, game): the (row set, column set) pairs of every
    size k = 2 .. min(m, n), numbered as in ``_pair_table``.  Games may be
    stacked on trailing axes, (m, n, ...) per player, with a slack each.

    A pair is dropped when some move of one player's support is beaten on
    every move of the opponent's support by another move of the same player
    by more than eps + 2 k slack (Porter, Nudelman & Shoham, GEB 63, 2008).
    A beater off the support fails the off-support test.  A beater on it
    leaves the system singular or its weights invalid: k - 1 weights down to
    -WEIGHT_CLAMP_TOL (= DOMINANCE_SLACK) on gaps of up to twice the largest
    payoff, plus rounding, make up less than 2 k slack.  A non-finite payoff
    makes the slack non-finite, so such a game drops nothing.  One bitmask
    of each player's beaten moves, given each opponent set of every size,
    serves every k.
    """
    m, n = a.shape[:2]
    top = min(m, n)
    if top < 2:
        return np.zeros(0, dtype=int)
    a, b, slack = a.reshape(m, n, -1), b.reshape(m, n, -1), np.asarray(slack).reshape(-1)
    thresholds = eps + _set_table(m, top)[6] * slack  # [k, 1, 1, 1, game]
    beaten_rows, beaten_cols = _beaten(a.swapaxes(0, 1), thresholds, 0), _beaten(b, thresholds, 1)
    (rows, starts, cols), games = _pair_table(m, n)[:3].tolist(), len(slack)
    # a word per set and game: the set's own moves, and the opponent's moves it beats 16 bits up,
    # so that a row set's word AND a column set's is zero where neither support has a beaten move
    row_words = beaten_cols | _set_table(m, top)[2][0, :, None]
    col_words = _set_table(n, top)[2][1, :, None] | beaten_rows
    keep = np.empty(starts[-1] * games, dtype=bool)
    for r0, r1, c0, c1, at, end in zip(rows, rows[1:], cols, cols[1:], starts, starts[1:]):  # by k
        dropped = row_words[r0:r1, None] & col_words[c0:c1]  # [row set, column set, game]
        np.logical_not(dropped, out=keep[at * games : end * games].reshape(dropped.shape))
    return keep.nonzero()[0]


def _beaten(columns, thresholds, half) -> np.ndarray:
    """(column sets, games) bitmask of the rows that some row beats by more
    than the threshold of the set's size on every column of the set, for
    payoffs given by column, (columns, rows, games): where the bitmask of
    its beaters, ANDed over the set, is not zero.  The column sets are those
    of ``_set_table``, one threshold per size, (sizes, 1, 1, 1, games).  Half
    1 puts the bitmask 16 bits up."""
    beats = columns[:, :, None] - columns[:, None] > thresholds  # [k, j, r, i, game]
    sizes, width, rows = beats.shape[:3]
    bits = _set_table(rows, sizes + 1)[4]
    beaters = np.matmul(bits[0], beats.reshape(sizes * width, rows, -1))  # [k j, i game]
    beaten = np.bitwise_and.reduce(beaters.take(_set_table(width, sizes + 1)[0], axis=0), axis=0) != 0  # moves first
    return np.matmul(bits[half], beaten.reshape(beaten.shape[0], rows, -1))


@functools.lru_cache(maxsize=None)
def _set_table(size: int, top: int) -> tuple[np.ndarray, ...]:
    """The k-subsets of range(size) for k = 2 .. top, by k and then in
    ``_subsets`` order, in read-only tables: the set led up to top moves by
    its first move again, as indices into (k - 2, move) flattened, and the
    set led up to top moves by size, a column per set each; and its
    bitmask, as it is and 16 bits up.  Then where the sets of each k start,
    by k, and each move's bitmask, as it is and 16 bits up; a row per set,
    the moves it leaves out, in ``_subsets`` order and followed by zeros up
    to size - 2 moves; and 2 k for each k, as a (k, 1, 1, 1, 1) array."""
    sets, rest = zip(*(_subsets(size, k) for k in range(2, top + 1)))
    first = [np.hstack([np.repeat(v[:, :1], top - v.shape[1], axis=1), v]) + level * size for level, v in enumerate(sets)]
    padded = [np.hstack([np.full((len(v), top - v.shape[1]), size), v]) for v in sets]
    masks = np.concatenate([np.left_shift(1, v).sum(axis=1) for v in sets])
    starts = (0, 0, 0, *np.cumsum([len(v) for v in sets]).tolist())  # where each k starts
    rest = np.concatenate([np.hstack([v, np.zeros((len(v), size - 2 - v.shape[1]), dtype=int)]) for v in rest])
    masks, bits = (np.left_shift(v, [[0], [16]]).astype(np.int32) for v in (masks, np.left_shift(1, np.arange(size))))
    tables = *(np.ascontiguousarray(np.concatenate(v).T) for v in (first, padded)), masks
    twice = np.arange(4.0, 2 * top + 1, 2).reshape(-1, 1, 1, 1, 1)
    return (*map(_freeze, tables), starts, *map(_freeze, (bits, rest, twice)))


@functools.lru_cache(maxsize=None)
def _pair_table(m: int, n: int) -> np.ndarray:
    """Where the row sets, the pairs (in enumeration order: by k, then rows,
    then columns) and the column sets of each size k = 2 .. min(m, n) start,
    then the ends.  Then, in column i, what decodes a pair p of size k = i + 1
    (i sizes start at or before it): the shift that makes (p + shift) over
    the number of column sets of size k its row set with its column set of
    size k as the remainder, that number, where those start, and k.  Read-only."""
    rows, cols = (np.array(_set_table(size, min(m, n))[3][2:]) for size in (m, n))
    widths = np.diff(cols)
    starts = np.append(0, np.cumsum(np.diff(rows) * widths))
    decode = np.array([rows[:-1] * widths - starts[:-1], widths, cols[:-1], np.arange(2, len(widths) + 2)])
    return _freeze(np.vstack([rows, starts, cols, np.hstack([np.ones((4, 1), dtype=int), decode])]))


@functools.lru_cache(maxsize=None)
def _subsets(size: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-subsets of range(size) in lexicographic order, and the moves
    each leaves out: the (size - k)-subsets in reverse order.  Read-only."""
    sets, rest = ([*itertools.combinations(range(size), t)] for t in (k, size - k))
    return tuple(_freeze(np.array(v, dtype=int).reshape(len(v), t)) for v, t in ((sets, k), (rest[::-1], size - k)))


def _candidates(payoffs, ga, gbt, slack, eps, one_call, ids):
    """Phase 1 of a chunk of support pairs, flat indices ``ids`` of
    ``_support_pairs``: ``_phase`` on the proposer's systems.  With
    ``one_call``, or when no pair leaves a row out, where phase 1 could drop
    only invalid weights, it solves both players' systems in one call
    instead, and the pairs are dropped once after both tests.  Returns the
    games, row sets, column sets and sizes of the pairs kept, which pass so
    far and their y, then, after one call, their x."""
    count, m, n = ga.shape
    pair, games = np.divmod(ids, count)
    table = _pair_table(m, n)
    shift, widths, col_starts, sizes = table[3:].take(table[1].searchsorted(pair, side="right"), axis=1)
    row_sets, col_sets = np.divmod(pair + shift, widths)
    players = (0, 1) if one_call or sizes[0] == m else (0,)
    pairs = [games, row_sets, col_sets + col_starts, sizes, np.ones(len(ids), dtype=bool)]
    return _phase(payoffs, ga, gbt, slack, eps, players, pairs)


def _phase(payoffs, ga, gbt, slack, eps, players, pairs):
    """One phase of the search for candidates: solve the systems of
    ``players`` (0, the proposer, whose systems give the responder's mix y,
    or 1, whose systems give x) for support pairs in one ``_indifference``
    call, then test each solved mix off the support.

    ``pairs`` lists the games, row sets and column sets (of ``_set_table``),
    sizes, nondecreasing, and which pass so far of the pairs, and after
    phase 1 their y: pair i is game games[i] (proposer ga[games[i]],
    responder transposed gbt[games[i]]) with margin slack[games[i]];
    ``payoffs`` is ``ga``, then the responder's untransposed, flattened.
    A pair whose best off-support move beats the support's value by more
    than eps + slack is dropped, as it could not pass even exactly; one
    beaten by more than eps fails the off-support test.  Those payoffs are
    ``a[off_rows] @ y`` and ``x @ b[:, off_cols]``: each player's test
    gathers every pair's off-support rows (columns) at once, then makes one
    kernel call per size on the layout a single pair's indexing gives (C,
    then Fortran order), so that each product rounds as it does alone.
    Returns ``pairs`` for the pairs kept, those with valid weights and no
    move beyond the margin, with which pass updated and the mixes solved
    appended in the order of ``players``.
    """
    _, m, n = ga.shape
    games, row_sets, col_sets, sizes = pairs[:4]
    width, top = min(m, n), int(sizes[-1])
    # each pair's row and column set, led up to the largest k by a move past the last
    sets = [_set_table(v, width)[1][width - top :].take(s, axis=1) for v, s in ((m, row_sets), (n, col_sets))]
    weights, value, ok = _indifference(payoffs, ga.shape, games, *sets, sizes, players)
    at = np.logical_and.reduce(ok).nonzero()[0]
    pairs = [v.take(at, axis=0) for v in pairs] if len(at) < len(games) else [*pairs]
    games, row_sets, col_sets, sizes, passed = pairs[:5]
    kept, low = np.ones(len(at), dtype=bool), int(sizes[0]) if len(at) else top
    if low < max(m, n):  # what the off-support tests read: where each size starts, then ends, margins and limits
        edges, margin, limit = sizes.searchsorted(np.arange(2, top + 2)).tolist(), slack[games], value.take(at, axis=-1) + eps
    for i, player in enumerate(players):
        (size, moves, own), other = ((m, ga.reshape(-1, n), row_sets), n) if player == 0 else ((n, gbt.reshape(-1, m), col_sets), m)
        mix = _spread(weights[:, i].take(at, axis=-1), sets[1 - player].take(at, axis=1), other)
        pairs.append(mix)
        if low == size:  # no pair leaves a move out
            continue
        off = _set_table(size, width)[5][:, : size - low].take(own, axis=0) + (games * size)[:, None]
        off = moves.take(off, axis=0)  # every pair's off-support moves at once
        values = np.full((len(at), size - low), -np.inf)
        for k, lo, hi in zip(range(low, size), edges[low - 2 :], edges[low - 1 :]):
            if hi > lo and player == 0:  # a[off_rows] @ y
                np.matmul(off[lo:hi, : size - k], mix[lo:hi, :, None], out=values[lo:hi, : size - k, None])
            elif hi > lo:  # x @ b[:, off_cols]
                np.matmul(mix[lo:hi, None], off[lo:hi, : size - k].transpose(0, 2, 1), out=values[lo:hi, None, : size - k])
        best = _across(np.maximum, values)
        kept &= ~(best > limit[i] + margin)
        pairs[4] = passed = passed & ~(best > limit[i])
    at = kept.nonzero()[0]
    return pairs if len(at) == len(kept) else [v.take(at, axis=0) for v in pairs]


def _spread(weights, support, size) -> np.ndarray:
    """The (N, size) mixes that put the (w, N) weights on the (w, N)
    supports; a support entry of size takes nothing."""
    mix = np.zeros((support.shape[1], size + 1))
    mix[np.arange(len(mix)), support] = weights
    return np.ascontiguousarray(mix[:, :size])


def _indifference(payoffs, shape, games, rows, cols, sizes, players):
    """The mixes that make each of ``players`` (0, the proposer, or 1)
    indifferent, for support pairs of several sizes solved in one
    ``_solve_stacked`` call.

    ``payoffs`` holds each game's proposer payoffs, then each game's
    responder payoffs, both of a (B, m, n) ``shape``, flattened.  Pair i is
    game games[i] on the sizes[i]-row set rows[:, i] and the sizes[i]-column
    set cols[:, i], sizes nondecreasing, each led up to the largest size K by
    m (n): (K, N) each.
    A player's block is their payoffs on the pair, one row per their support
    move and one column per the opponent's, whose mix is solved for.  The
    systems are [[block, -1], [1, 0]] with right-hand side (0, ..., 0, 1):
    the weights, then the common value.  Each sits at the bottom right of
    size K + 1, so the value's column, the row of ones and the right-hand
    side are shared, and the rest of its block, which nothing reads, holds
    other payoffs.  Returns the clamped (K, players, N) weights, with a
    system's in its last k rows and zeros above, the (players, N) values and
    the (players, N) mask of the systems that are non-singular with valid
    weights.
    """
    count, m, n = shape
    top = len(rows)  # the largest k
    at = rows * n + games * (m * n)  # where each block row starts
    index = np.empty((top, top, len(games), len(players)), dtype=int)  # a pair's systems side by side
    for i, player in enumerate(players):  # the responder's block is the proposer's transposed, in their payoffs
        np.add(*(((at + count * m * n)[None], cols[:, None]) if player else (at[:, None], cols)), out=index[..., i])
    ab = np.empty((top + 1, top + 2, index[0, 0].size))
    payoffs.take(index.reshape(top, top, -1), out=ab[:top, :top], mode="clip")
    ab[:top, top], ab[:top, top + 1] = -1.0, 0.0
    ab[top, :top], ab[top, top], ab[top, top + 1] = 1.0, 0.0, 1.0
    solution, singular = _solve_stacked(ab, None if sizes[0] == top else (sizes + 1).repeat(len(players)))
    # the rows above a system's own solve to zero, which passes both tests
    valid = np.isfinite(solution)
    valid[:-1] &= solution[:-1] >= -WEIGHT_CLAMP_TOL
    ok = ~singular & np.logical_and.reduce(valid)
    weights = np.where(solution[:-1] < 0.0, 0.0, solution[:-1]).reshape(top, -1, len(players)).transpose(0, 2, 1)
    return weights, solution[-1].reshape(-1, len(players)).T, ok.reshape(-1, len(players)).T


def _exact_profile(a, b, rows, cols, eps):
    """A support pair re-solved and re-certified in exact rationals, from the
    float payoffs, which are exact rationals.  Returns the floats of its exact
    strategies, payoffs and regrets, with the degenerate flag of those
    strategies, or None when a system is singular, a weight negative or a
    regret above eps."""
    from fractions import Fraction  # imported here: few runs ever re-check

    a_cols = [[Fraction(v) for v in row] for row in a[:, cols].tolist()]  # m x k
    b_rows = [[Fraction(v) for v in row] for row in b[rows].T.tolist()]  # n x k
    y = _exact_mix([a_cols[i] for i in rows])
    x = _exact_mix([b_rows[j] for j in cols])
    if y is None or x is None or min(x[:-1] + y[:-1]) < 0:
        return None
    # on an exact solution every support move earns the value, the last entry
    regret = [max(sum(map(Fraction.__mul__, row, w)) for row in p) - w[-1] for p, w in ((a_cols, y), (b_rows, x))]
    if max(regret) > eps:
        return None
    # bincount scatters the weights, each rounded to its nearest float
    xs, ys = np.bincount(rows, x[:-1], a.shape[0]), np.bincount(cols, y[:-1], a.shape[1])
    return xs, ys, (float(y[-1]), float(x[-1])), tuple(map(float, regret)), bool(_certify(a, b, xs, ys, eps)[3])


def _exact_mix(block):
    """The exact opponent weights, then the value, that make a player
    indifferent on a k x k block of Fractions (one row per their move), or
    None when the system is singular; Gauss-Jordan elimination."""
    from fractions import Fraction

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
