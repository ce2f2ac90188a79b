"""Shared test utilities: random generators and slow independent oracles."""

import itertools
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from rqgames import (
    EPS_DEFAULT,
    DimensionMismatchError,
    InducedGame,
    bell_like,
    classify_state,
    default_move_set,
    probability_table,
    state_from_amplitudes,
    support_enumeration,
    verify_equilibrium,
)
from rqgames.cli import fmt
from rqgames.nash import PIVOT_TOL, WEIGHT_CLAMP_TOL, game_matrices


def random_state(rng, dims=(2, 2)):
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    return state_from_amplitudes(amps, normalize=True)


def random_product_state(rng, dims=(2, 2)):
    left = rng.normal(size=dims[0]) + 1j * rng.normal(size=dims[0])
    right = rng.normal(size=dims[1]) + 1j * rng.normal(size=dims[1])
    return state_from_amplitudes(np.outer(left, right), normalize=True)


def balanced_triple(rng):
    # a + c = 2b holds exactly in integers, so the 2x2 builder stays quiet
    b = int(rng.integers(2, 60))
    spread = int(rng.integers(1, b))
    return float(b + spread), float(b), float(b - spread)


def random_bimatrix(rng, max_side=4):
    m = int(rng.integers(2, max_side + 1))
    n = int(rng.integers(2, max_side + 1))
    return rng.uniform(0.0, 100.0, (m, n)), rng.uniform(0.0, 100.0, (m, n))


def enumerate_induced(state, payoffs, moves_p, moves_r):
    """Induced-game oracle: plain-Python enumeration of every outcome."""
    dp, dr = state.dims
    probs = [[abs(state.amps[k, l]) ** 2 for l in range(dr)] for k in range(dp)]
    m, n = len(moves_p), len(moves_r)
    proposer = np.zeros((m, n))
    responder = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for k in range(dp):
                for l in range(dr):
                    kk = moves_p.apply(i, k)
                    ll = moves_r.apply(j, l)
                    proposer[i, j] += probs[k][l] * payoffs.proposer[kk, ll]
                    responder[i, j] += probs[k][l] * payoffs.responder[kk, ll]
    return proposer, responder


def ultimatum_entries_2x2(probs, a, b, c):
    """Frozen entry formulas for the induced 2x2 ultimatum game."""
    p = probs
    proposer = np.array(
        [
            [a * p[1][1] + b * p[0][1], a * p[1][0] + b * p[0][0]],
            [b * p[1][1] + a * p[0][1], b * p[1][0] + a * p[0][0]],
        ]
    )
    responder = np.array(
        [
            [c * p[1][1] + b * p[0][1], c * p[1][0] + b * p[0][0]],
            [b * p[1][1] + c * p[0][1], b * p[1][0] + c * p[0][0]],
        ]
    )
    return proposer, responder


def loop_solve_pivoting(a, rhs, pivot_tol=PIVOT_TOL):
    """Reference: Gaussian elimination with partial pivoting, row by row.

    Returns None when some pivot magnitude falls to pivot_tol or below.
    The stacked elimination in ``rqgames.nash`` must match it bit for bit.
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


def pairwise_support_enumeration(game, eps=EPS_DEFAULT):
    """Reference: support enumeration one support pair at a time.

    Plain loops over the pairs in the order ``support_enumeration``
    promises, each solved with ``loop_solve_pivoting``; tests require the
    same profiles in the same order from both.  In a finite game, a pair
    with valid float weights whose candidate fails the off-support test or
    verification is re-solved by Cramer's rule in exact rationals
    (``exact_pairwise_profile``).
    """
    a, b = game_matrices(game)
    m, n = a.shape
    finite = np.isfinite(a).all() and np.isfinite(b).all()
    found = []

    def seen(x, y):
        return any(
            float(np.max(np.abs(p.proposer_strategy - x))) <= 1e-9
            and float(np.max(np.abs(p.responder_strategy - y))) <= 1e-9
            for p in found
        )

    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                mixes = _pairwise_mixes(a, b, rows, cols, eps)
                if mixes is None:
                    continue
                x, y = mixes[:2]
                profile = None
                if _pairwise_off_support_ok(a, b, rows, cols, *mixes, eps):
                    if seen(x, y):
                        continue
                    profile = verify_equilibrium(game, (x, y), eps)
                if finite and (profile is None or not profile.certified):
                    profile = exact_pairwise_profile(a, b, rows, cols, eps)
                    if profile is not None and seen(profile.proposer_strategy, profile.responder_strategy):
                        continue
                if profile is not None and profile.certified:
                    found.append(profile)
    return found


def _pairwise_mix(values, axis_size, support):
    k = values.shape[0]
    system = np.zeros((k + 1, k + 1))
    system[:k, :k] = values
    system[:k, k] = -1.0
    system[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    solution = loop_solve_pivoting(system, rhs)
    if solution is None:
        return None
    weights = solution[:k]
    if np.any(weights < -WEIGHT_CLAMP_TOL):
        return None
    weights = np.where(weights < 0.0, 0.0, weights)
    full = np.zeros(axis_size)
    full[list(support)] = weights
    return full, float(solution[k])


def _pairwise_mixes(a, b, rows, cols, eps):
    """Reference: the float (x, y, value_p, value_r) of one support pair, or
    None when it is not a pure cell (k = 1) or its weights are not valid."""
    m, n = a.shape
    if len(rows) == 1:
        i, j = rows[0], cols[0]
        if a[:, j].max() > a[i, j] + eps or b[i, :].max() > b[i, j] + eps:
            return None
        unit_x, unit_y = np.zeros(m), np.zeros(n)
        unit_x[i] = unit_y[j] = 1.0
        return unit_x, unit_y, a[i, j], b[i, j]
    block = np.ix_(list(rows), list(cols))
    mix_y = _pairwise_mix(a[block], n, cols)
    if mix_y is None:
        return None
    mix_x = _pairwise_mix(b[block].T, m, rows)
    if mix_x is None:
        return None
    return mix_x[0], mix_y[0], mix_y[1], mix_x[1]


def _pairwise_off_support_ok(a, b, rows, cols, x, y, value_p, value_r, eps):
    m, n = a.shape
    off_rows = [i for i in range(m) if i not in rows]
    if off_rows and float((a[off_rows] @ y).max()) > value_p + eps:
        return False
    off_cols = [j for j in range(n) if j not in cols]
    if off_cols and float((x @ b[:, off_cols]).max()) > value_r + eps:
        return False
    return True


def pairwise_support(a, b, rows, cols, eps):
    """Reference: the float (x, y) candidate of one support pair, or None when it is rejected."""
    mixes = _pairwise_mixes(a, b, rows, cols, eps)
    if mixes is None or not _pairwise_off_support_ok(a, b, rows, cols, *mixes, eps):
        return None
    return mixes[:2]


def cramer_mix(values):
    """Reference: the exact weights, then the value, that make a player
    indifferent on a k x k block of floats, or None when the system is singular.

    The system is [[block, -1], [1 ... 1, 0]] z = (0, ..., 0, 1).  By
    Cramer's rule each z_t is the cofactor of entry (k, t) over the
    determinant, and the determinant is the expansion along row k, so every
    number is a minor of the first k rows, by Laplace expansion on Fractions.
    """
    k = len(values)
    top = [[Fraction(v) for v in row] + [Fraction(-1)] for row in np.asarray(values).tolist()]

    @lru_cache(maxsize=None)
    def minor(cols):  # the first len(cols) rows of top on the columns cols
        if not cols:
            return Fraction(1)
        r = len(cols) - 1
        return sum((-1) ** (r + p) * top[r][c] * minor(cols[:p] + cols[p + 1 :]) for p, c in enumerate(cols))

    full = tuple(range(k + 1))
    cofactors = [(-1) ** (k + t) * minor(full[:t] + full[t + 1 :]) for t in full]
    det = sum(cofactors[:k])  # row k is (1, ..., 1, 0)
    if det == 0:
        return None
    return [c / det for c in cofactors]


def exact_pairwise_profile(a, b, rows, cols, eps):
    """Reference: the profile of one support pair in exact rationals, or None
    when it is singular, a weight is negative or a regret exceeds eps."""
    m, n = a.shape
    y = cramer_mix(a[np.ix_(rows, cols)])
    x = cramer_mix(b[np.ix_(rows, cols)].T)
    if y is None or x is None or min(x[:-1] + y[:-1]) < 0:
        return None
    xs, ys = [Fraction(0)] * m, [Fraction(0)] * n
    for i, w in zip(rows, x):
        xs[i] = w
    for j, w in zip(cols, y):
        ys[j] = w
    fa = [[Fraction(v) for v in row] for row in a.tolist()]
    fb = [[Fraction(v) for v in row] for row in b.tolist()]
    row_values = [sum(fa[i][j] * ys[j] for j in range(n)) for i in range(m)]
    col_values = [sum(xs[i] * fb[i][j] for i in range(m)) for j in range(n)]
    pay_p = sum(xs[i] * row_values[i] for i in range(m))
    pay_r = sum(col_values[j] * ys[j] for j in range(n))
    regret = (max(row_values) - pay_p, max(col_values) - pay_r)
    if max(regret) > eps:
        return None
    floats = np.array([float(w) for w in xs]), np.array([float(w) for w in ys])
    profile = verify_equilibrium((a, b), floats, eps)
    return replace(profile, payoffs=(float(pay_p), float(pay_r)), regret=tuple(map(float, regret)), certified=True)


def loop_induce_game(state, payoffs, moves_p, moves_r):
    """Reference: the induced game built one cell at a time.

    Each cell sums the dP x dR block of products in outcome order; the
    stacked ``induce_game`` must match it bit for bit.
    """
    if state.dims != payoffs.dims or state.dims != (moves_p.d, moves_r.d):
        raise DimensionMismatchError(
            f"state {state.dims}, payoffs {payoffs.dims} and moves "
            f"({moves_p.d}, {moves_r.d}) must agree"
        )
    probs = probability_table(state).probs
    m, n = len(moves_p), len(moves_r)
    proposer = np.empty((m, n))
    responder = np.empty((m, n))
    inv_p = [_inverse(p) for p in moves_p.perms]
    inv_r = [_inverse(q) for q in moves_r.perms]
    for i in range(m):
        for j in range(n):
            moved = probs[np.ix_(inv_p[i], inv_r[j])]
            proposer[i, j] = float(np.sum(moved * payoffs.proposer))
            responder[i, j] = float(np.sum(moved * payoffs.responder))
    return InducedGame(proposer, responder)


def _inverse(perm):
    inv = [0] * len(perm)
    for k, image in enumerate(perm):
        inv[image] = k
    return inv


def rowwise_run_sweep(sweep, eps, out_format):
    """Reference: ``rqgames sweep`` output computed one theta at a time.

    Every row builds its own state, probability table, induced game and
    support enumeration; the chunked ``run_sweep`` must print the same lines.
    """
    moves = default_move_set(2)
    step = (sweep.stop - sweep.start) / (sweep.count - 1)
    columns = ["theta"]
    if "probs" in sweep.outputs:
        columns += ["p00", "p01", "p10", "p11"]
    if "label" in sweep.outputs:
        columns.append("label")
    if "equilibria" in sweep.outputs:
        columns.append("equilibria")
    rows = []
    for i in range(sweep.count):
        theta = sweep.start + i * step if i < sweep.count - 1 else sweep.stop
        state = bell_like(theta, sweep.basis_a, sweep.basis_b, sweep.payoffs.dims)
        row = [fmt(theta)]
        if "probs" in sweep.outputs:
            probs = probability_table(state).probs
            row += [fmt(probs[0, 0]), fmt(probs[0, 1]), fmt(probs[1, 0]), fmt(probs[1, 1])]
        if "label" in sweep.outputs:
            row.append(classify_state(state).label)
        if "equilibria" in sweep.outputs:
            game = loop_induce_game(state, sweep.payoffs, moves, moves)
            profiles = support_enumeration(game, eps)
            row.append(
                ";".join(
                    f"mu={fmt(p.proposer_strategy[0])} nu={fmt(p.responder_strategy[0])} "
                    f"pp={fmt(p.payoffs[0])} pr={fmt(p.payoffs[1])}"
                    for p in profiles
                )
            )
        rows.append(row)
    if out_format == "csv":
        return [",".join(columns)] + [",".join(row) for row in rows]
    lines = []
    for row in rows:
        lines.append("; ".join(f"{name}={value}" for name, value in zip(columns, row)))
    return lines
