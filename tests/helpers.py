"""Shared test utilities: random generators and slow independent oracles."""

import itertools

import numpy as np

from rqgames import EPS_DEFAULT, solve_pivoting, state_from_amplitudes, verify_equilibrium
from rqgames.nash import WEIGHT_CLAMP_TOL, game_matrices


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


def pairwise_support_enumeration(game, eps=EPS_DEFAULT):
    """Reference: support enumeration one support pair at a time.

    Plain loops over the pairs in the order ``support_enumeration``
    promises, each solved with ``solve_pivoting``; tests require the same
    profiles in the same order from both.
    """
    a, b = game_matrices(game)
    m, n = a.shape
    found = []
    for k in range(1, min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                pair = _pairwise_support(a, b, rows, cols, eps)
                if pair is None:
                    continue
                x, y = pair
                if any(
                    float(np.max(np.abs(p.proposer_strategy - x))) <= 1e-9
                    and float(np.max(np.abs(p.responder_strategy - y))) <= 1e-9
                    for p in found
                ):
                    continue
                profile = verify_equilibrium(game, (x, y), eps)
                if profile.certified:
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
    solution = solve_pivoting(system, rhs)
    if solution is None:
        return None
    weights = solution[:k]
    if np.any(weights < -WEIGHT_CLAMP_TOL):
        return None
    weights = np.where(weights < 0.0, 0.0, weights)
    full = np.zeros(axis_size)
    full[list(support)] = weights
    return full, float(solution[k])


def _pairwise_support(a, b, rows, cols, eps):
    m, n = a.shape
    if len(rows) == 1:
        i, j = rows[0], cols[0]
        if a[:, j].max() > a[i, j] + eps or b[i, :].max() > b[i, j] + eps:
            return None
        unit_x, unit_y = np.zeros(m), np.zeros(n)
        unit_x[i] = unit_y[j] = 1.0
        return unit_x, unit_y
    block = np.ix_(list(rows), list(cols))
    mix_y = _pairwise_mix(a[block], n, cols)
    if mix_y is None:
        return None
    y, value_p = mix_y
    mix_x = _pairwise_mix(b[block].T, m, rows)
    if mix_x is None:
        return None
    x, value_r = mix_x
    off_rows = [i for i in range(m) if i not in rows]
    if off_rows and float((a[off_rows] @ y).max()) > value_p + eps:
        return None
    off_cols = [j for j in range(n) if j not in cols]
    if off_cols and float((x @ b[:, off_cols]).max()) > value_r + eps:
        return None
    return x, y
