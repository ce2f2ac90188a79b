"""Equilibrium search and certification for bimatrix games.

Every function accepts either an object exposing ``proposer`` and
``responder`` payoff matrices of equal shape (``InducedGame`` qualifies)
or a plain ``(proposer, responder)`` pair of array-likes.  Mixed
strategies are 1-D probability vectors; a profile is the pair
(proposer strategy, responder strategy).

The certification primitive is regret: the gap between a player's best
pure response against the opponent mix and the payoff actually realized.
A profile with both regrets at zero is a Nash equilibrium; max regret
below ``eps`` certifies an eps-equilibrium.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidProbabilityError, TooLargeError
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
STACK_PAIRS = 256
# A stacked solve costs about as much as three or four pairs solved one at a
# time, so support sizes with fewer pairs than this go pair by pair.
STACK_MIN_PAIRS = 4


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
    """Extract the (proposer, responder) payoff matrices from any game form."""
    if isinstance(game, (tuple, list)) and len(game) == 2:
        proposer, responder = game
    else:
        proposer, responder = game.proposer, game.responder
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
    pay_p = float(x @ a @ y)
    pay_r = float(x @ b @ y)
    gap_p = float((a @ y).max()) - pay_p
    gap_r = float((x @ b).max()) - pay_r
    # max(0.0, nan) is 0.0, so a NaN gap is passed on as it is
    regret_p = gap_p if math.isnan(gap_p) else max(0.0, gap_p)
    regret_r = gap_r if math.isnan(gap_r) else max(0.0, gap_r)
    kind = "pure" if x.max() >= 1.0 - PURE_KIND_TOL and y.max() >= 1.0 - PURE_KIND_TOL else "mixed"
    return EquilibriumProfile(
        proposer_strategy=_freeze(x),
        responder_strategy=_freeze(y),
        payoffs=(pay_p, pay_r),
        regret=(regret_p, regret_r),
        kind=kind,
        certified=regret_p <= eps and regret_r <= eps and math.isfinite(pay_p) and math.isfinite(pay_r),
        degenerate=_degenerate(a, b, x, y, eps),
    )


def pure_equilibria(game, eps: float = EPS_DEFAULT) -> list[EquilibriumProfile]:
    """All pure cells that are mutual best responses, ties within eps included.

    Cells come out in lexicographic (row, column) order; the list may be
    empty (matching-pennies structure has no pure equilibrium).
    """
    a, b = game_matrices(game)
    m, n = a.shape
    col_max = a.max(axis=0)
    row_max = b.max(axis=1)
    found = []
    for i in range(m):
        for j in range(n):
            if a[i, j] >= col_max[j] - eps and b[i, j] >= row_max[i] - eps:
                found.append(verify_equilibrium(game, (_unit(m, i), _unit(n, j)), eps))
    return found


def solve_pivoting(a, rhs, pivot_tol: float = PIVOT_TOL) -> np.ndarray | None:
    """Gaussian elimination with partial pivoting on a small dense system.

    Returns None when some pivot magnitude falls to pivot_tol or below,
    which marks the system singular for our purposes.
    """
    a = np.array(a, dtype=float)
    b = np.array(rhs, dtype=float)
    n = a.shape[0]
    for k in range(n):
        p = k + int(np.abs(a[k:, k]).argmax())
        if abs(a[p, k]) <= pivot_tol:
            return None
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        for i in range(k + 1, n):
            if a[i, k] != 0.0:
                lam = a[i, k] / a[k, k]
                a[i, k:] -= lam * a[k, k:]
                b[i] -= lam * b[k]
    x = np.empty(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


def _indifference_mix(values: np.ndarray, axis_size: int, support) -> tuple[np.ndarray, float] | None:
    """Solve for the mix over ``support`` that equalizes the given payoff rows.

    ``values`` is the k x k payoff block seen by the player being made
    indifferent (one row per their pure move, one column per opposing
    support move).  Returns the full-length mix and the common value.
    """
    k = values.shape[0]
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = values
    system[:k, k] = -1.0
    system[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    solution = solve_pivoting(system, rhs)
    if solution is None or not _valid_weights(solution, k):
        return None
    weights = np.where(solution[:k] < 0.0, 0.0, solution[:k])
    full = np.zeros(axis_size)
    full[list(support)] = weights
    return full, float(solution[k])


def _valid_weights(solution: np.ndarray, k: int) -> np.ndarray:
    """Whether indifference solutions (axis 0: k weights, then the value) are
    finite with no weight below -WEIGHT_CLAMP_TOL."""
    return np.isfinite(solution).all(axis=0) & (solution[:k] >= -WEIGHT_CLAMP_TOL).all(axis=0)


def _solve_stacked(ab: np.ndarray, pivot_tol: float = PIVOT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """``solve_pivoting`` applied to a stack of systems in one pass.

    ``ab`` is an (s, s + 1, N) float array, overwritten: system i has the
    matrix ``ab[:, :s, i]`` and the right-hand side ``ab[:, s, i]``.  The
    stack runs along the last axis so that every step acts on contiguous
    runs of systems, and the right-hand side rides along as one more
    column, so each row operation updates both with the same arithmetic
    as separate updates.  Each system goes through the same pivot choices
    and the same floating-point operations as in ``solve_pivoting``, so
    non-singular solutions agree bit for bit.  Returns the (s, N)
    solutions and the (N,) mask of systems that ``solve_pivoting`` reports
    singular; their solution columns are meaningless.
    """
    n, _, count = ab.shape
    flat = ab.reshape(-1)
    row = np.arange((n + 1) * count).reshape(n + 1, count)
    singular = np.zeros(count, dtype=bool)
    x = np.empty((count, n))
    with np.errstate(all="ignore"):  # singular systems run on with tiny or zero pivots
        for k in range(n):
            p = k + np.argmax(np.abs(ab[k:, k]), axis=0)
            at = p * ((n + 1) * count) + row
            pivot_row = flat[at]
            singular |= np.abs(pivot_row[k]) <= pivot_tol
            flat[at] = ab[k]
            ab[k] = pivot_row
            below = ab[k + 1 :, k]
            lam = below / ab[k, k]
            np.subtract(ab[k + 1 :, k:], lam[:, None] * ab[k, k:], out=ab[k + 1 :, k:], where=below[:, None] != 0.0)
        for k in range(n - 1, -1, -1):
            # np.matmul on unit-stride rows reaches the same dot routine as
            # solve_pivoting's ``@``, so the products round alike
            upper = np.ascontiguousarray(ab[k, k + 1 : n].T)
            done = np.matmul(upper[:, None, :], x[:, k + 1 :, None])[:, 0, 0]
            x[:, k] = (ab[k, n] - done) / ab[k, k]
    return x.T, singular


def _same_profile(p: EquilibriumProfile, x: np.ndarray, y: np.ndarray, tol: float = 1e-9) -> bool:
    return (
        float(np.max(np.abs(p.proposer_strategy - x))) <= tol
        and float(np.max(np.abs(p.responder_strategy - y))) <= tol
    )


def support_enumeration(game, eps: float = EPS_DEFAULT) -> list[EquilibriumProfile]:
    """Equilibria via enumeration of equal-size support pairs.

    For each candidate pair the two indifference systems are solved
    directly; solutions are kept when they are valid simplex vectors whose
    on-support value dominates every off-support pure move within eps.
    Singular systems are skipped.  Size-one supports reproduce the pure
    equilibria, so those are always included.  Duplicates arising from
    degenerate games are merged; every returned profile re-verifies at eps,
    so no profile with a non-finite strategy, payoff or regret comes back.

    Pairs are visited by support size, then lexicographically by rows and
    by columns.  The pairs of one size are solved together as stacks of up
    to ``STACK_PAIRS`` pairs (see ``_solve_stacked``); sizes with fewer than
    ``STACK_MIN_PAIRS`` pairs are solved one pair at a time.  Both ways
    yield the same candidates.
    """
    a, b = game_matrices(game)
    m, n = a.shape
    if max(m, n) > 12:
        raise TooLargeError(f"support enumeration limited to 12 moves per side, got {m}x{n}")
    found: list[EquilibriumProfile] = []
    for k in range(1, min(m, n) + 1):
        for x, y in _support_candidates(a, b, k, eps):
            if any(_same_profile(p, x, y) for p in found):
                continue
            profile = verify_equilibrium(game, (x, y), eps)
            if profile.certified:
                found.append(profile)
    return found


def _support_candidates(a, b, k, eps):
    """Yield the (x, y) candidates with supports of size k, in enumeration order."""
    m, n = a.shape
    if k == 1:
        beaten = (a.max(axis=0) > a + eps) | (b.max(axis=1)[:, None] > b + eps)
        for i, j in np.argwhere(~beaten):
            yield _unit(m, i), _unit(n, j)
        return
    row_sets = list(itertools.combinations(range(m), k))
    col_sets = list(itertools.combinations(range(n), k))
    pairs = len(row_sets) * len(col_sets)
    if pairs < STACK_MIN_PAIRS:
        for rows in row_sets:
            for cols in col_sets:
                pair = _solve_support(a, b, rows, cols, eps)
                if pair is not None:
                    yield pair
        return
    row_sets = np.array(row_sets)
    col_sets = np.array(col_sets)
    for start in range(0, pairs, STACK_PAIRS):
        index = np.arange(start, min(start + STACK_PAIRS, pairs))
        rows = row_sets[index // len(col_sets)]
        cols = col_sets[index % len(col_sets)]
        yield from _solve_stack(a, b, rows, cols, eps)


def _solve_stack(a, b, rows, cols, eps):
    """``_solve_support`` on a stack of support pairs: rows and cols are (N, k)."""
    m, n = a.shape
    count, k = rows.shape
    # Systems [[block, -1], [1, 0]] with right-hand side (0, ..., 0, 1), as in
    # _indifference_mix: the proposer's block of a, then the transposed block of b.
    ab = np.zeros((k + 1, k + 2, 2 * count))
    ab[:k, :k, :count] = np.take(a, rows.T[:, None] * n + cols.T[None])
    ab[:k, :k, count:] = np.take(b, rows.T[None] * n + cols.T[:, None])
    ab[:k, k] = -1.0
    ab[k, :k] = 1.0
    ab[k, k + 1] = 1.0
    solution, singular = _solve_stacked(ab)
    ok = ~singular & _valid_weights(solution, k)
    keep = np.flatnonzero(ok[:count] & ok[count:])
    rows, cols = rows[keep], cols[keep]
    weights = np.where(solution[:k] < 0.0, 0.0, solution[:k])
    stack = np.arange(len(keep))[:, None]
    y = np.zeros((len(keep), n))
    y[stack, cols] = weights[:, keep].T
    x = np.zeros((len(keep), m))
    x[stack, rows] = weights[:, count + keep].T
    value_p = solution[k, keep]
    value_r = solution[k, count + keep]
    # These products round differently from the per-pair ones, so this test
    # only drops pairs beaten by more than any rounding could account for;
    # _off_support_ok then decides the rest exactly as the per-pair path.
    slack = DOMINANCE_SLACK * (1.0 + np.abs(a).max() + np.abs(b).max())
    with np.errstate(invalid="ignore"):  # 0 * inf off the support
        best_p = y @ a.T
        best_r = x @ b
    best_p[stack, rows] = -np.inf
    best_r[stack, cols] = -np.inf
    beaten = (best_p.max(axis=1) > value_p + eps + slack) | (best_r.max(axis=1) > value_r + eps + slack)
    for i in np.flatnonzero(~beaten):
        if _off_support_ok(a, b, rows[i].tolist(), cols[i].tolist(), x[i], y[i], value_p[i], value_r[i], eps):
            yield x[i], y[i]


def _solve_support(a, b, rows, cols, eps):
    m, n = a.shape
    block = np.ix_(list(rows), list(cols))
    mix_y = _indifference_mix(a[block], n, cols)
    if mix_y is None:
        return None
    y, value_p = mix_y
    mix_x = _indifference_mix(b[block].T, m, rows)
    if mix_x is None:
        return None
    x, value_r = mix_x
    if not _off_support_ok(a, b, rows, cols, x, y, value_p, value_r, eps):
        return None
    return x, y


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
