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

import itertools
from dataclasses import dataclass, replace
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
# terms, within which the stacked off-support test defers to the exact one.
DOMINANCE_SLACK = 1e-12

# Support pairs per stacked solve in ``support_enumeration``; it bounds the
# memory one stack takes.
STACK_PAIRS = 1024
# Stacks of up to this many pairs solve both players' systems in one call
# instead of two phases.  A second _solve_stacked call costs about 60 us
# however few systems it solves; on random 4x4 to 10x10 levels (2-vCPU Xeon,
# numpy 2.4) two phases took 1.24x the one-call time at 64 pairs, 1.0x at
# 256 and 0.81x at 384.
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
    """The (proposer, responder) payoff matrices of a ``Bimatrix`` or a raw pair.

    A ``Bimatrix`` was checked when it was built; a raw pair gets the shape
    check only.
    """
    if isinstance(game, Bimatrix):
        return game.proposer, game.responder
    proposer, responder = game
    a = np.asarray(proposer, dtype=float)
    b = np.asarray(responder, dtype=float)
    if a.ndim != 2 or a.shape != b.shape:
        raise DimensionMismatchError(
            f"payoff matrices must share one 2-D shape, got {a.shape} and {b.shape}"
        )
    return a, b


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


def best_response_value(game, who: str, opponent) -> float:
    """Best expected payoff over a player's pure moves against an opponent mix."""
    a, b = game_matrices(game)
    if who == "proposer":
        y = mixed_strategy(opponent, a.shape[1])
        return float((a @ y).max())
    if who == "responder":
        x = mixed_strategy(opponent, a.shape[0])
        return float((x @ b).max())
    raise ValueError(f"player must be 'proposer' or 'responder', got {who!r}")


def _unit(size: int, index: int) -> np.ndarray:
    v = np.zeros(size)
    v[index] = 1.0
    return v


def _degenerate(a, b, x, y, eps) -> bool:
    row_values = a @ y
    col_values = x @ b
    row_best = row_values >= row_values.max() - eps
    col_best = col_values >= col_values.max() - eps
    return bool(
        row_best.sum() > np.count_nonzero(x > eps)
        or col_best.sum() > np.count_nonzero(y > eps)
    )


def verify_equilibrium(game, profile, eps: float = EPS_DEFAULT) -> EquilibriumProfile:
    """Evaluate a strategy pair and certify it when max regret stays within eps.

    Always returns a certificate; a failed check is reported through the
    ``certified`` field, never as an exception.  A NaN or infinite payoff
    or regret never certifies.
    """
    a, b = game_matrices(game)
    x = mixed_strategy(profile[0], a.shape[0])
    y = mixed_strategy(profile[1], a.shape[1])
    pay_p, pay_r, regret_p, regret_r, certified = _certify(a, b, x, y, eps)
    kind = "pure" if x.max() >= 1.0 - PURE_KIND_TOL and y.max() >= 1.0 - PURE_KIND_TOL else "mixed"
    return EquilibriumProfile(
        proposer_strategy=_freeze(x),
        responder_strategy=_freeze(y),
        payoffs=(float(pay_p), float(pay_r)),
        regret=(float(regret_p), float(regret_r)),
        kind=kind,
        certified=bool(certified),
        degenerate=_degenerate(a, b, x, y, eps),
    )


def _certify(a, b, x, y, eps):
    """Payoffs, regrets and the certified flag of profiles (x, y) in games (a, b).

    Games and strategies may be stacked on broadcastable leading axes.  Every
    product is one ``np.matmul`` kernel call per profile, the same call a
    single profile makes, so stacked values equal single ones bit for bit.
    A NaN gap stays NaN, and a NaN or infinite payoff or regret never
    certifies.
    """
    x_row, y_col = x[..., None, :], y[..., :, None]
    xb = np.matmul(x_row, b)
    pay_p = np.matmul(np.matmul(x_row, a), y_col)[..., 0, 0]
    pay_r = np.matmul(xb, y_col)[..., 0, 0]
    gap_p = np.matmul(a, y_col)[..., 0].max(axis=-1) - pay_p
    gap_r = xb[..., 0, :].max(axis=-1) - pay_r
    regret_p = np.where(gap_p <= 0.0, 0.0, gap_p)
    regret_r = np.where(gap_r <= 0.0, 0.0, gap_r)
    certified = (regret_p <= eps) & (regret_r <= eps) & np.isfinite(pay_p) & np.isfinite(pay_r)
    return pay_p, pay_r, regret_p, regret_r, certified


def pure_equilibria(game, eps: float = EPS_DEFAULT) -> list[EquilibriumProfile]:
    """All pure cells that are mutual best responses, ties within eps included.

    Cells come out in lexicographic (row, column) order, and they are the
    pure profiles ``support_enumeration`` returns: the same pure-cell test,
    kept when the profile certifies.  The list may be empty
    (matching-pennies structure has no pure equilibrium).
    """
    a, b = game_matrices(game)
    m, n = a.shape
    cells = np.argwhere(_pure_cells(a, b, eps))
    profiles = [verify_equilibrium(game, (_unit(m, i), _unit(n, j)), eps) for i, j in cells]
    return [p for p in profiles if p.certified]


def solve_pivoting(a, rhs, pivot_tol: float = PIVOT_TOL) -> np.ndarray | None:
    """Gaussian elimination with partial pivoting on a small dense system.

    Returns None when some pivot magnitude falls to pivot_tol or below,
    which marks the system singular for our purposes.  This is the
    one-system case of ``_solve_stacked``.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    ab = np.empty((n, n + 1, 1))
    ab[:, :n, 0] = a
    ab[:, n, 0] = rhs
    x, singular = _solve_stacked(ab, pivot_tol)
    return None if singular[0] else x[:, 0]


def _valid_weights(solution: np.ndarray, k: int) -> np.ndarray:
    """Whether indifference solutions (axis 0: k weights, then the value) are
    finite with no weight below -WEIGHT_CLAMP_TOL."""
    return np.isfinite(solution).all(axis=0) & (solution[:k] >= -WEIGHT_CLAMP_TOL).all(axis=0)


def _solve_stacked(ab: np.ndarray, pivot_tol: float = PIVOT_TOL) -> tuple[np.ndarray, np.ndarray]:
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
    those with a pivot magnitude at or below pivot_tol; their solution
    columns are meaningless.
    """
    n, _, count = ab.shape
    flat = ab.reshape(-1)
    row = np.arange((n + 1) * count).reshape(n + 1, count)
    x = np.empty((count, n))
    with np.errstate(all="ignore"):  # singular systems run on with tiny or zero pivots
        for k in range(n - 1):  # the last row has no rows below to pivot with
            p = k + np.abs(ab[k:, k]).argmax(axis=0)
            at = p * ((n + 1) * count) + row
            pivot_row = flat[at]
            flat[at] = ab[k]
            ab[k] = pivot_row
            below = ab[k + 1 :, k]
            lam = below / ab[k, k]
            np.subtract(ab[k + 1 :, k:], lam[:, None] * ab[k, k:], out=ab[k + 1 :, k:], where=below[:, None] != 0.0)
        # a step never changes the rows above it, so the diagonal holds every pivot
        singular = (np.abs(np.diagonal(ab, axis1=0, axis2=1)) <= pivot_tol).any(axis=1)
        for k in range(n - 1, -1, -1):
            # np.matmul on unit-stride rows reaches the same dot routine as a
            # 1-D ``@`` of one row, so the products round alike at any width
            upper = np.ascontiguousarray(ab[k, k + 1 : n].T)
            done = np.matmul(upper[:, None, :], x[:, k + 1 :, None])[:, 0, 0]
            x[:, k] = (ab[k, n] - done) / ab[k, k]
    return x.T, singular


def _same_profile(found_x, found_y, x, y, tol: float = 1e-9) -> np.ndarray:
    """Which found profiles (strategies stacked on axis -2) lie within tol of (x, y)."""
    return (np.abs(found_x - x).max(axis=-1) <= tol) & (np.abs(found_y - y).max(axis=-1) <= tol)


def _pure_cells(a, b, eps) -> np.ndarray:
    """Mask of the cells where neither player gains more than eps by a pure deviation.

    Games may be stacked on leading axes.
    """
    return ~((a.max(axis=-2, keepdims=True) > a + eps) | (b.max(axis=-1, keepdims=True) > b + eps))


def support_enumeration(game, eps: float = EPS_DEFAULT) -> list[EquilibriumProfile]:
    """Equilibria via enumeration of equal-size support pairs.

    For each candidate pair the two indifference systems are solved
    directly; solutions are kept when they are valid simplex vectors whose
    on-support value dominates every off-support pure move within eps.
    Singular systems are skipped.  Size-one supports reproduce the pure
    equilibria, so those are always included.  Duplicates arising from
    degenerate games are merged; every returned profile re-verifies at eps,
    so no profile with a non-finite strategy, payoff or regret comes back.

    In a finite game, a candidate that fails the off-support test or
    verification, perhaps by rounding alone, is re-checked exactly.

    Pairs are visited by support size, then lexicographically by rows and
    by columns.  Pairs in which some support move is beaten on the whole
    opposing support are dropped before any system is solved (see
    ``_support_pairs``); they could not pass the tests above.  The kept
    pairs of one size are solved together as stacks of up to
    ``STACK_PAIRS`` pairs (see ``_solve_stack``): the proposer's systems
    first, then the responder's systems of the pairs the proposer's side
    of the test keeps.
    """
    a, b = game_matrices(game)
    m, n = a.shape
    if max(m, n) > 12:
        raise TooLargeError(f"support enumeration limited to 12 moves per side, got {m}x{n}")
    slack = DOMINANCE_SLACK * (1.0 + np.abs(a).max() + np.abs(b).max())
    found: list[EquilibriumProfile] = []
    found_x, found_y = np.empty((0, m)), np.empty((0, n))
    for k in range(1, min(m, n) + 1):
        for candidate, support in _support_candidates(a, b, k, eps, slack):
            if candidate is not None and _same_profile(found_x, found_y, *candidate).any():
                continue
            profile = None if candidate is None else verify_equilibrium(game, candidate, eps)
            if (profile is None or not profile.certified) and np.isfinite(a).all() and np.isfinite(b).all():
                profile = _exact_profile(a, b, *support, eps, found_x, found_y)
            if profile is not None and profile.certified:
                found.append(profile)
                found_x = np.vstack([found_x, profile.proposer_strategy])
                found_y = np.vstack([found_y, profile.responder_strategy])
    return found


def equilibria_2x2(a: np.ndarray, b: np.ndarray, eps: float = EPS_DEFAULT):
    """``support_enumeration`` on a stack of 2x2 games, (B, 2, 2) per player.

    A 2x2 game has five candidates in enumeration order: the four pure
    cells, row by row, then the full-support mix.  Returns their (B, 5, 2)
    strategies ``x`` and ``y``, their (B, 5) payoffs, the (B, 5) mask of
    the profiles ``support_enumeration`` returns, and the (B,) mask of
    games it leaves unsettled: their mix fails ``mixed_strategy``, where
    ``support_enumeration`` raises, or is valid but fails certification,
    where it re-checks exactly.  Their row of the first mask means nothing.
    A pure cell's regret is one float subtraction, so none certifies only
    exactly.  Each step runs the single-game code on the whole stack, so
    every value and decision equals the single-game one.
    """
    count = len(a)
    with np.errstate(all="ignore"):  # the mix of a singular game is garbage until masked
        x = np.empty((count, 5, 2))
        y = np.empty((count, 5, 2))
        x[:, :4] = np.eye(2)[[0, 0, 1, 1]]
        y[:, :4] = np.eye(2)[[0, 1, 0, 1]]
        # the block the proposer is made indifferent on is a, the responder's is b transposed
        weights, _, ok = _indifference(np.concatenate([a.transpose(1, 2, 0), b.transpose(2, 1, 0)], axis=-1))
        mixed = ok[:count] & ok[count:]
        x[:, 4] = weights[:, count:].T
        y[:, 4] = weights[:, :count].T
        pay_p, pay_r, _, _, certified = _certify(a[:, None], b[:, None], x, y, eps)
        found = np.empty((count, 5), dtype=bool)
        found[:, :4] = _pure_cells(a, b, eps).reshape(count, 4) & certified[:, :4]
        mixed &= ~(_same_profile(x[:, :4], y[:, :4], x[:, 4:], y[:, 4:]) & found[:, :4]).any(axis=1)
        # mixed_strategy's sum test; the weights are clamped to nonnegative already
        sums_ok = np.abs(np.stack([x[:, 4], y[:, 4]]).sum(axis=-1) - 1.0) <= SIMPLEX_SUM_TOL
        found[:, 4] = mixed & certified[:, 4]
    return x, y, pay_p, pay_r, found, mixed & ~(sums_ok.all(axis=0) & certified[:, 4])


def _support_candidates(a, b, k, eps, slack):
    """Yield the candidates of size k in enumeration order (for k >= 2, of the pairs ``_support_pairs``
    keeps): (x, y), or None when it fails the off-support test, and the support (rows, cols) as lists."""
    m, n = a.shape
    if k == 1:
        for i, j in np.argwhere(_pure_cells(a, b, eps)).tolist():
            yield (_unit(m, i), _unit(n, j)), ([i], [j])
        return
    row_sets, col_sets, kept = _support_pairs(a, b, k, eps, slack)
    for start in range(0, len(kept), STACK_PAIRS):
        index = kept[start : start + STACK_PAIRS]
        rows = row_sets[index // len(col_sets)]
        cols = col_sets[index % len(col_sets)]
        yield from _solve_stack(a, b, rows, cols, eps, slack)


def _support_pairs(a, b, k, eps, slack):
    """The row sets and column sets of size k, and the flat indices, in
    enumeration order, of the (row set, column set) pairs worth solving.

    A pair is dropped when some move of one player's support is beaten on
    every move of the opponent's support by another move of the same player
    by more than eps + 2 k slack (Porter, Nudelman & Shoham, GEB 63, 2008).
    A beater off the support fails the off-support test.  A beater on it
    leaves the system singular or its weights invalid: k - 1 weights down to
    -WEIGHT_CLAMP_TOL (= DOMINANCE_SLACK) on gaps of up to twice the largest
    payoff, plus rounding, make up less than 2 k slack.
    """
    m, n = a.shape
    row_sets = np.array(list(itertools.combinations(range(m), k)))
    col_sets = np.array(list(itertools.combinations(range(n), k)))
    threshold = eps + 2 * k * slack
    beaten_rows = _beaten(a, col_sets, threshold)
    beaten_cols = _beaten(b.T, row_sets, threshold)
    dropped = np.zeros((len(row_sets), len(col_sets)), dtype=bool)
    for t in range(k):
        dropped |= beaten_rows[row_sets[:, t]] | beaten_cols[col_sets[:, t]].T
    return row_sets, col_sets, np.flatnonzero(~dropped)


def _beaten(a, col_sets, threshold) -> np.ndarray:
    """(rows, column sets) mask of the rows of ``a`` that some row beats by
    more than threshold on every column of the set."""
    beats = a[:, None] - a[None] > threshold  # [r, i, j]: row r beats row i in column j
    return beats[:, :, col_sets].all(axis=-1).any(axis=0)


def _solve_stack(a, b, rows, cols, eps, slack):
    """Yield the candidates among a stack of support pairs: rows and cols are (N, k).

    Phase 1 solves the proposer's systems and drops the pairs the
    proposer-side test rejects; phase 2 solves the responder's systems of
    the survivors only.  A stack of at most ``TWO_PHASE_MIN_PAIRS`` pairs
    solves both players' systems in one call instead.
    """
    count = len(rows)
    one_call = count <= TWO_PHASE_MIN_PAIRS
    blocks = _blocks(a, rows, cols)
    if one_call:  # the responder's systems follow the proposer's in one stack
        blocks = np.concatenate([blocks, _blocks(b, rows, cols).transpose(1, 0, 2)], axis=-1)
    weights, value, ok = _indifference(blocks)
    kept, y = _undominated(a, rows, cols, weights[:, :count], value[:count], ok[:count], eps, slack)
    value_p = value[:count]
    if one_call:
        pairs = np.arange(count)
        weights, value, ok = weights[:, count:], value[count:], ok[count:] & kept
    else:
        pairs = np.flatnonzero(kept)
        # the responder is made indifferent on the transposed blocks of b
        weights, value, ok = _indifference(_blocks(b, rows[pairs], cols[pairs]).transpose(1, 0, 2))
    kept, x = _undominated(b.T, cols[pairs], rows[pairs], weights, value, ok, eps, slack)
    for i in np.flatnonzero(kept):
        j = pairs[i]
        support = rows[j].tolist(), cols[j].tolist()
        ok = _off_support_ok(a, b, *support, x[i], y[j], value_p[j], value[i], eps)
        yield ((x[i], y[j]) if ok else None), support


def _blocks(a, rows, cols) -> np.ndarray:
    """The (k, k, N) blocks ``a[rows[i]][:, cols[i]]`` of a stack of support pairs."""
    return np.take(a, rows.T[:, None] * a.shape[1] + cols.T[None])


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


def _undominated(a, rows, cols, weights, value, ok, eps, slack):
    """One player's side of the off-support prefilter on a stack of support pairs.

    ``a`` holds the payoffs of the player made indifferent, one row per
    their move, and ``weights``, ``value`` and ``ok`` come from
    ``_indifference`` on its blocks.  Returns the (N,) mask of the pairs
    with valid weights that no off-support row beats by more than
    eps + slack, and the (N, columns) opponent mixes.
    """
    stack = np.arange(len(rows))[:, None]
    mix = np.zeros((len(rows), a.shape[1]))
    mix[stack, cols] = weights.T
    # These products round differently from _off_support_ok's, so this test
    # only drops pairs beaten by more than any rounding could account for;
    # _off_support_ok then decides the rest exactly.
    with np.errstate(all="ignore"):  # 0 * inf off the support; garbage where not ok
        best = mix @ a.T
        best[stack, rows] = -np.inf
        return ok & ~(best.max(axis=1) > value + eps + slack), mix


def _off_support_ok(a, b, rows, cols, x, y, value_p, value_r, eps) -> bool:
    """No off-support pure move beats either player's support value by more than eps."""
    m, n = a.shape
    off_rows = [i for i in range(m) if i not in rows]
    if off_rows and float((a[off_rows] @ y).max()) > value_p + eps:
        return False
    off_cols = [j for j in range(n) if j not in cols]
    if off_cols and float((x @ b[:, off_cols]).max()) > value_r + eps:
        return False
    return True


def _exact_profile(a, b, rows, cols, eps, found_x, found_y) -> EquilibriumProfile | None:
    """A support pair re-solved and re-certified in exact rationals, from the
    float payoffs, which are exact rationals.  Returns the floats of its exact
    values, or None when a system is singular, a weight negative, a regret
    above eps or the profile already found."""
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
    profile = verify_equilibrium((a, b), (xs, ys), eps)
    payoffs, regret = (float(y[-1]), float(x[-1])), tuple(map(float, regret))
    return replace(profile, payoffs=payoffs, regret=regret, certified=True)


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
