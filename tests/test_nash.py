"""Best responses, certification, pure/support enumeration and the grid oracle."""

import itertools
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqgames import (
    DimensionMismatchError,
    InvalidProbabilityError,
    TooLargeError,
    bell_like,
    default_move_set,
    grid_oracle,
    induce_game,
    mixed_strategy,
    nash,
    pure_equilibria,
    state_from_amplitudes,
    support_enumeration,
    ultimatum_2x2,
    verify_equilibrium,
)

from rqgames.cli import parse_spec
from rqgames.nash import (
    DOMINANCE_SLACK,
    EPS_DEFAULT,
    STACK_PAIRS,
    TWO_PHASE_MIN_PAIRS,
    _enumerate,
    _exact_profile,
    _indifference,
    _pure_cells,
    _solve_stacked,
    _same_profile,
    _subsets,
    _support_pairs,
)

import helpers
from helpers import (
    loop_solve_pivoting,
    masked_solve_stacked,
    pairwise_support,
    pairwise_support_enumeration,
    random_bimatrix,
    reference_take,
)

MOVES2 = default_move_set(2)


def entangled_game():
    state = bell_like(np.pi / 4, (1, 1), (0, 0))
    return induce_game(state, ultimatum_2x2(99, 50, 1), MOVES2, MOVES2)


def fair_game():
    state = state_from_amplitudes([[0, 1], [0, 1]], normalize=True)
    return induce_game(state, ultimatum_2x2(99, 50, 1), MOVES2, MOVES2)


def classical_game():
    state = state_from_amplitudes([[1, 0], [0, 0]])
    return induce_game(state, ultimatum_2x2(99, 50, 1), MOVES2, MOVES2)


def test_mixed_strategy_validation():
    assert np.array_equal(mixed_strategy([0.25, 0.75]), [0.25, 0.75])
    clamped = mixed_strategy([1.0, -1e-13])
    assert clamped[1] == 0.0
    with pytest.raises(InvalidProbabilityError):
        mixed_strategy([0.5, -0.1])
    with pytest.raises(InvalidProbabilityError):
        mixed_strategy([0.5, 0.4])
    with pytest.raises(DimensionMismatchError):
        mixed_strategy([0.5, 0.5], size=3)
    for weights in ([np.nan, np.nan], [np.inf, 0.0], [1.0, np.nan]):
        with pytest.raises(InvalidProbabilityError):
            mixed_strategy(weights)


def best_response_values(game, x, y):
    """Each player's best pure payoff against the other's mix: payoff plus regret."""
    profile = verify_equilibrium(game, (x, y))
    return profile.payoffs[0] + profile.regret[0], profile.payoffs[1] + profile.regret[1]


def test_best_response_examples():
    value = best_response_values(entangled_game(), [0.5, 0.5], [1.0, 0.0])[1]
    assert abs(value - 12.75) <= 1e-12
    a = np.array([[3.0, 7.0], [5.0, 2.0]])
    b = np.zeros((2, 2))
    assert best_response_values((a, b), [1.0, 0.0], [0.0, 1.0])[0] == 7.0
    single_row = (np.array([[1.0, 2.0, 3.0]]), np.zeros((1, 3)))
    value = best_response_values(single_row, [1.0], [1 / 3, 1 / 3, 1 / 3])[0]
    assert abs(value - 2.0) <= 1e-12


def test_best_response_validation():
    # an opponent mix of the wrong length is rejected
    with pytest.raises(DimensionMismatchError):
        best_response_values(entangled_game(), [1.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(DimensionMismatchError):
        best_response_values(entangled_game(), [1.0, 0.0, 0.0], [1.0, 0.0])


def test_verify_certifies_the_mixed_point():
    profile = verify_equilibrium(entangled_game(), ((0.5, 0.5), (0.5, 0.5)))
    assert profile.certified
    assert max(profile.regret) <= 1e-12
    assert profile.payoffs == pytest.approx((37.25, 12.75), abs=1e-12)
    assert profile.kind == "mixed"
    assert not profile.degenerate


def test_verify_flags_the_greedy_profile():
    profile = verify_equilibrium(entangled_game(), ((1.0, 0.0), (1.0, 0.0)))
    assert not profile.certified
    assert profile.kind == "pure"
    assert profile.payoffs == pytest.approx((49.5, 0.5), abs=1e-12)
    assert profile.regret[0] <= 1e-12
    assert abs(profile.regret[1] - 24.5) <= 1e-12


def test_verify_rejects_non_finite_strategies():
    with pytest.raises(InvalidProbabilityError):
        verify_equilibrium((np.eye(2), np.eye(2)), ([np.nan, np.nan], [0.5, 0.5]))


def test_verify_never_certifies_non_finite_payoffs_or_regrets():
    nan_game = (np.array([[np.nan, 1.0], [0.0, 1.0]]), np.eye(2))
    profile = verify_equilibrium(nan_game, ((0.5, 0.5), (0.5, 0.5)), eps=float("inf"))
    assert np.isnan(profile.payoffs[0]) and np.isnan(profile.regret[0])
    assert not profile.certified
    inf_game = (np.array([[np.inf, 0.0], [0.0, 1.0]]), np.eye(2))
    with np.errstate(invalid="ignore"):
        profile = verify_equilibrium(inf_game, ((1.0, 0.0), (1.0, 0.0)), eps=float("inf"))
    assert profile.payoffs[0] == np.inf and np.isnan(profile.regret[0])
    assert not profile.certified


def test_verify_with_infinite_tolerance():
    profile = verify_equilibrium(entangled_game(), ((1.0, 0.0), (0.0, 1.0)), eps=float("inf"))
    assert profile.certified


def test_pure_equilibria_classical_game():
    profiles = pure_equilibria(classical_game())
    assert len(profiles) == 1
    profile = profiles[0]
    assert np.array_equal(profile.proposer_strategy, [0.0, 1.0])
    assert np.array_equal(profile.responder_strategy, [0.0, 1.0])
    assert profile.payoffs == (99.0, 1.0)


def test_pure_equilibria_empty_for_entangled_game():
    assert pure_equilibria(entangled_game()) == []


def test_pure_equilibria_total_indifference():
    ones = np.ones((2, 2))
    profiles = pure_equilibria((ones, ones))
    assert len(profiles) == 4


def test_pure_equilibria_are_the_pure_profiles_of_support_enumeration():
    rng = np.random.default_rng(43)
    for trial in range(400):
        shape = tuple(rng.integers(2, 6, 2))
        if trial % 2:  # ties everywhere
            a, b = rng.integers(0, 3, shape).astype(float), rng.integers(0, 3, shape).astype(float)
        else:
            a, b = rng.uniform(0, 100, shape), rng.uniform(0, 100, shape)
        eps = (1e-9, 0.0, 1.0)[trial % 3]
        enumerated = [
            p
            for p in support_enumeration((a, b), eps)
            if np.count_nonzero(p.proposer_strategy) == 1 and np.count_nonzero(p.responder_strategy) == 1
        ]
        pure = pure_equilibria((a, b), eps)
        assert [profile_fields(p) for p in pure] == [profile_fields(p) for p in enumerated]
    # 1.1 - 1.0 rounds above 0.1 while 1.1 - 0.1 <= 1.0: the cell (0, 0)
    # certifies at eps 1.0, so both lists hold it
    a = np.array([[0.1, 0.0], [1.1, 0.0]])
    cells = [(p.proposer_strategy.argmax(), p.responder_strategy.argmax()) for p in pure_equilibria((a, 0 * a), 1.0)]
    assert cells == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(support_enumeration((a, 0 * a), 1.0)) == 4


def profile_fields(p):
    return (p.proposer_strategy.tolist(), p.responder_strategy.tolist(), p.payoffs, p.regret, p.kind, p.certified, p.degenerate)


def test_support_enumeration_entangled_game():
    profiles = support_enumeration(entangled_game())
    assert len(profiles) == 1
    profile = profiles[0]
    assert np.allclose(profile.proposer_strategy, [0.5, 0.5], atol=1e-9)
    assert np.allclose(profile.responder_strategy, [0.5, 0.5], atol=1e-9)
    assert profile.payoffs == pytest.approx((37.25, 12.75), abs=1e-9)


def test_support_enumeration_fair_game_includes_dominant_profile():
    profiles = support_enumeration(fair_game())
    matches = [
        p
        for p in profiles
        if np.allclose(p.proposer_strategy, [1, 0], atol=1e-9)
        and np.allclose(p.responder_strategy, [1, 0], atol=1e-9)
    ]
    assert len(matches) == 1
    assert matches[0].payoffs == pytest.approx((74.5, 25.5), abs=1e-9)
    assert matches[0].degenerate


def test_support_enumeration_matching_pennies():
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    profiles = support_enumeration((a, -a))
    assert len(profiles) == 1
    assert np.allclose(profiles[0].proposer_strategy, [0.5, 0.5], atol=1e-12)
    assert np.allclose(profiles[0].responder_strategy, [0.5, 0.5], atol=1e-12)


def pi_8_game():
    state = bell_like(np.pi / 8, (1, 1), (0, 0))
    return induce_game(state, ultimatum_2x2(99, 50, 1), MOVES2, MOVES2)


# PIVOT_TOL is absolute, while the last pivot of an indifference system
# shrinks as one over the payoff scale: far from scale one the system reads
# as singular and its mix is lost
PIVOT_SCALE = pytest.mark.xfail(strict=True, reason="an absolute PIVOT_TOL drops the mix at this payoff scale")


@pytest.mark.parametrize(
    "game, scale, eps",
    [
        (pi_8_game(), 2.0**20, EPS_DEFAULT),
        pytest.param(pi_8_game(), 2.0**40, EPS_DEFAULT, marks=PIVOT_SCALE),
        pytest.param(([[1.0, -1.0], [-1.0, 1.0]], [[-1.0, 1.0], [1.0, -1.0]]), 1e-13, 1e-300, marks=PIVOT_SCALE),
    ],
    ids=["pi_8-2**20", "pi_8-2**40", "pennies-1e-13"],
)
def test_a_payoff_scale_keeps_the_enumerated_mix(game, scale, eps):
    # scaling payoffs by a power of two, or pennies by 1e-13, is exact
    a, b = nash.game_matrices(game)
    (expected,) = support_enumeration((a, b), eps)
    profiles = support_enumeration((a * scale, b * scale), eps)
    assert [p.kind for p in profiles] == ["mixed"]
    assert np.allclose(profiles[0].proposer_strategy, expected.proposer_strategy, atol=1e-12)
    assert np.allclose(profiles[0].responder_strategy, expected.responder_strategy, atol=1e-12)


@pytest.mark.xfail(strict=True, reason="the float regret 0.5 - (-0.5 - 2**-53) rounds down to eps")
def test_a_regret_above_eps_before_rounding_does_not_certify():
    # the exact regret of row 0 against row 1 is 1 + 2**-53 > eps = 1
    a = np.array([[0.5], [-0.5 - 2.0**-53]])
    profile = verify_equilibrium((a, np.zeros((2, 1))), ([0, 1], [1]), 1.0)
    assert not profile.certified


def test_support_enumeration_classical_game():
    profiles = support_enumeration(classical_game())
    assert len(profiles) == 1
    assert profiles[0].payoffs == (99.0, 1.0)
    assert profiles[0].kind == "pure"


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1)])
def test_one_move_games_have_only_pure_supports(shape):
    rng = np.random.default_rng([53, *shape])
    for integer in (False, True):
        game = _random_game(rng, shape, integer)
        found = support_enumeration(game)
        assert found and all(p.kind == "pure" for p in found)
        _assert_same_profiles(found, pairwise_support_enumeration(game))
    a, b = (np.repeat(v[..., None], 3, axis=-1) for v in game)
    assert _enumerate(a, b, EPS_DEFAULT)[0].tolist() == sorted(list(range(3)) * len(found))


def test_support_enumeration_size_guard():
    with pytest.raises(TooLargeError):
        support_enumeration((np.zeros((13, 2)), np.zeros((13, 2))))


def test_grid_oracle_entangled_game():
    assert grid_oracle(entangled_game(), 64) == [(0.5, 0.5)]


def test_grid_oracle_classical_game():
    points = grid_oracle(classical_game(), 64)
    assert (0.0, 0.0) in points
    assert points == [(0.0, 0.0)]


def test_grid_oracle_constant_game():
    ones = np.ones((2, 2))
    points = grid_oracle((ones, ones), 8)
    assert len(points) == 81


def test_grid_oracle_requires_2x2():
    with pytest.raises(DimensionMismatchError):
        grid_oracle((np.zeros((2, 3)), np.zeros((2, 3))), 8)


def test_grid_oracle_matches_pointwise_verification():
    rng = np.random.default_rng(21)
    for _ in range(10):
        a = rng.uniform(0, 100, (2, 2))
        b = rng.uniform(0, 100, (2, 2))
        points = grid_oracle((a, b), 16, eps=1e-9)
        for mu in np.arange(17) / 16:
            for nu in np.arange(17) / 16:
                profile = verify_equilibrium((a, b), ((mu, 1 - mu), (nu, 1 - nu)), eps=1e-9)
                assert profile.certified == ((float(mu), float(nu)) in points)


def test_solver_soundness_and_existence():
    rng = np.random.default_rng(17)
    for _ in range(200):
        a, b = random_bimatrix(rng)
        profiles = support_enumeration((a, b))
        assert profiles
        for p in profiles:
            check = verify_equilibrium((a, b), (p.proposer_strategy, p.responder_strategy))
            assert check.certified
            assert max(check.regret) <= 1e-9


def test_support_enumeration_includes_every_pure_equilibrium():
    rng = np.random.default_rng(16)
    for _ in range(50):
        a, b = random_bimatrix(rng)
        enumerated = support_enumeration((a, b))
        for pure in pure_equilibria((a, b)):
            assert any(
                np.allclose(p.proposer_strategy, pure.proposer_strategy, atol=1e-12)
                and np.allclose(p.responder_strategy, pure.responder_strategy, atol=1e-12)
                for p in enumerated
            )


def test_oracle_and_enumeration_agree_on_2x2():
    rng = np.random.default_rng(18)
    for _ in range(60):
        a = rng.uniform(0, 100, (2, 2))
        b = rng.uniform(0, 100, (2, 2))
        profiles = support_enumeration((a, b))
        points = grid_oracle((a, b), 64)
        spacing = 1 / 64
        for p in profiles:
            mu = float(p.proposer_strategy[0])
            nu = float(p.responder_strategy[0])
            on_grid = abs(mu * 64 - round(mu * 64)) <= 1e-9 and abs(nu * 64 - round(nu * 64)) <= 1e-9
            if on_grid:
                assert any(abs(mu - gm) <= 1e-9 and abs(nu - gn) <= 1e-9 for gm, gn in points)
        for gm, gn in points:
            assert any(
                abs(gm - float(p.proposer_strategy[0])) <= spacing + 1e-9
                and abs(gn - float(p.responder_strategy[0])) <= spacing + 1e-9
                for p in profiles
            )


def test_payoff_shift_leaves_equilibria_unchanged():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a, b = random_bimatrix(rng, max_side=3)
        base = support_enumeration((a, b))
        shifted = support_enumeration((a + 17.5, b))
        assert len(base) == len(shifted)
        for p, q in zip(base, shifted):
            assert np.allclose(p.proposer_strategy, q.proposer_strategy, atol=1e-9)
            assert np.allclose(p.responder_strategy, q.responder_strategy, atol=1e-9)
            assert abs((p.payoffs[0] + 17.5) - q.payoffs[0]) <= 1e-9
            assert abs(p.payoffs[1] - q.payoffs[1]) <= 1e-9


def test_row_permutation_permutes_proposer_supports():
    rng = np.random.default_rng(20)
    for _ in range(20):
        a, b = random_bimatrix(rng, max_side=3)
        order = rng.permutation(a.shape[0])
        base = support_enumeration((a, b))
        permuted = support_enumeration((a[order], b[order]))
        assert len(base) == len(permuted)
        for p in base:
            moved = p.proposer_strategy[order]
            assert any(
                np.allclose(q.proposer_strategy, moved, atol=1e-9)
                and np.allclose(q.responder_strategy, p.responder_strategy, atol=1e-9)
                for q in permuted
            )


def solve_one(a, rhs):
    """One system through the stacked elimination: its solution, or None when singular."""
    solution, singular = _solve_stacked(np.concatenate([a, rhs[:, None]], axis=1)[..., None].copy())
    return None if singular[0] else solution[:, 0]


def test_solve_pivoting_matches_reference_solver():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n))
        rhs = rng.normal(size=n)
        x = solve_one(a, rhs)
        assert x is not None
        assert np.allclose(x, np.linalg.solve(a, rhs), atol=1e-9)


def test_solve_pivoting_reports_singular_systems():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert solve_one(singular, np.array([1.0, 2.0])) is None
    assert solve_one(np.zeros((2, 2)), np.zeros(2)) is None


def test_support_enumeration_certifies_nothing_in_a_nan_game():
    # 0 * nan is nan, so every profile of a game with a NaN entry has a NaN payoff
    rng = np.random.default_rng(23)
    for shape in ((2, 2), (4, 4), (3, 6)):
        a, b = rng.uniform(0, 100, shape), rng.uniform(0, 100, shape)
        a[1, 1] = np.nan
        assert support_enumeration((a, b)) == []
        assert support_enumeration((b, a)) == []


def _indifference_like(rng, count, n):
    """Systems shaped like support enumeration's, with 0..3 integer blocks."""
    systems = rng.integers(0, 4, (count, n, n)).astype(float)
    systems[:, :-1, -1] = -1.0
    systems[:, -1, :-1] = 1.0
    systems[:, -1, -1] = 0.0
    return systems


def test_stacked_elimination_matches_solve_pivoting_bit_for_bit():
    rng = np.random.default_rng(24)
    singular_seen = 0
    for trial in range(120):
        n = 3 + trial % 11
        # 40 systems, then stacks as narrow as the smallest support levels
        for width in (40, 1, 2, 3):
            if trial % 2:
                systems = _indifference_like(rng, width, n)
            else:
                systems = rng.normal(size=(width, n, n))
            rhs = rng.normal(size=(width, n)) if trial % 3 else np.eye(n)[np.full(width, n - 1)]
            augmented = np.concatenate([systems, rhs[:, :, None]], axis=2)
            solutions, singular = _solve_stacked(np.moveaxis(augmented, 0, -1).copy())
            for i in range(width):
                expected = loop_solve_pivoting(systems[i], rhs[i])
                assert singular[i] == (expected is None)
                if expected is None:
                    singular_seen += 1
                else:
                    assert np.array_equal(solutions[:, i], expected)
    assert singular_seen > 100


def _extreme_blocks(rng, k, count):
    """k x k blocks that overflow, span the float range, hold NaN or infinite
    entries, or hold zeros of both signs: count of each kind."""
    shape = (k, k, count)
    return np.concatenate(
        [
            rng.uniform(-1.0, 1.0, shape) * 1e300,
            rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-300, 300, shape),
            rng.choice([0.0, -0.0, 1.0, -1.0, 2.0, 1e300, -1e300, np.inf, -np.inf, np.nan], shape),
            rng.integers(-2, 3, shape) * rng.choice([1.0, -0.0, 0.0], shape),
        ],
        axis=-1,
    )


def _solve_blocks(blocks):
    """``_indifference`` of (k, k, N) stacks of blocks, in nondecreasing k,
    in one call, each block the proposer's top left of its own game: the
    (K, N) weights, the (N,) values and the (N,) mask."""
    top = blocks[-1].shape[0]
    games = np.zeros((sum(v.shape[2] for v in blocks), top, top))
    sets, sizes, at = [], [], 0
    for v in blocks:
        k, _, count = v.shape
        games[at : at + count, :k, :k] = v.transpose(2, 0, 1)
        sets.append(np.tile([top] * (top - k) + list(range(k)), (count, 1)))  # led up to top by a move past the last
        sizes += [k] * count
        at += count
    sets, payoffs = np.concatenate(sets), np.concatenate([games.reshape(-1), np.zeros(games.size)])
    weights, value, ok = _indifference(payoffs, games.shape, np.arange(at), sets.T, sets.T, np.array(sizes), (0,))
    return weights[:, 0], value[0], ok[0]


def test_unmasked_elimination_keeps_the_masked_steps_solutions():
    # The elimination once skipped the rows with a zero multiplier, as the
    # textbook does; that masked step is the reference.  Where its solution
    # is valid the unmasked step gives the same mask and the same bits.
    rng = np.random.default_rng(46)
    ok_seen = failed_seen = 0
    for k in range(1, 8):
        blocks = _extreme_blocks(rng, k, 200)
        weights, value, ok = _solve_blocks([blocks])
        ab = np.zeros((k + 1, k + 2, blocks.shape[2]))
        ab[:k, :k], ab[:k, k], ab[k, :k], ab[k, k + 1] = blocks, -1.0, 1.0, 1.0
        solution, singular = masked_solve_stacked(ab)
        expected = ~singular & np.isfinite(solution).all(axis=0) & (solution[:k] >= -nash.WEIGHT_CLAMP_TOL).all(axis=0)
        assert np.array_equal(ok, expected)
        assert weights[:, ok].tobytes() == np.where(solution[:k] < 0.0, 0.0, solution[:k])[:, ok].tobytes()
        assert value[ok].tobytes() == solution[k, ok].tobytes()
        ok_seen, failed_seen = ok_seen + ok.sum(), failed_seen + (~ok).sum()
    assert ok_seen > 500 and failed_seen > 500


def _padded(stacks):
    """Augmented (s, s + 1, N) stacks of sizes s, each at the bottom right
    of one stack of the largest size, and their sizes."""
    top = max(ab.shape[0] for ab in stacks)
    padded = np.full((top, top + 1, sum(ab.shape[2] for ab in stacks)), np.nan)  # nothing reads the rest
    at = 0
    for ab in stacks:
        pad, span = top - ab.shape[0], slice(at, at + ab.shape[2])
        padded[pad:, pad:, span] = ab
        at += ab.shape[2]
    return padded, np.repeat([ab.shape[0] for ab in stacks], [ab.shape[2] for ab in stacks])


def test_padded_solve_gives_each_size_the_bits_it_gets_alone():
    # Systems of sizes 3 to 9 (k = 2 to 8), extreme and 0..3-integer blocks,
    # solved in one padded stack: each gets its own solution bits, singular
    # flag and valid-weights mask, whatever fills the rest of the stack.
    rng = np.random.default_rng(49)
    stacks, blocks = [], []
    for k in range(2, 9):
        block = np.concatenate([_extreme_blocks(rng, k, 30), rng.integers(0, 4, (k, k, 40)).astype(float)], axis=-1)
        ab = np.zeros((k + 1, k + 2, block.shape[2]))
        ab[:k, :k], ab[:k, k], ab[k, :k], ab[k, k + 1] = block, -1.0, 1.0, 1.0
        stacks.append(ab)
        blocks.append(block)
    alone = [_solve_stacked(ab.copy()) for ab in stacks]
    padded, sizes = _padded(stacks)
    solution, singular = _solve_stacked(padded, sizes)
    weights, value, ok = _solve_blocks(blocks)
    at, seen = 0, {"ok": 0, "singular": 0, "non-finite": 0}
    for (own, own_singular), block in zip(alone, blocks):
        k, span = block.shape[0], slice(at, at + block.shape[2])
        at += block.shape[2]
        assert solution[-(k + 1) :, span].tobytes() == own.tobytes()
        assert not solution[: -(k + 1), span].any()  # zero above a system's own rows
        assert np.array_equal(singular[span], own_singular)
        own_weights, own_value, own_ok = _solve_blocks([block])
        assert np.array_equal(ok[span], own_ok) and not weights[:-k, span].any()
        assert weights[-k:, span].tobytes() == own_weights.tobytes() and value[span].tobytes() == own_value.tobytes()
        seen["ok"] += own_ok.sum()
        seen["singular"] += own_singular.sum()
        seen["non-finite"] += (~np.isfinite(own).all(axis=0) & ~own_singular).sum()
    assert min(seen.values()) > 20


def _near_duplicates(monkeypatch):
    """A list that counts the candidates ``_near_earlier`` finds near an earlier one."""
    found = []
    near_earlier = nash._near_earlier

    def recording(*args):
        pairs = near_earlier(*args)
        found.append(len(set(pairs[1].tolist())))
        return pairs

    monkeypatch.setattr(nash, "_near_earlier", recording)
    return found


@pytest.mark.parametrize("chunk", [STACK_PAIRS, 7])
def test_near_earlier_finds_what_comparing_all_pairs_finds(monkeypatch, chunk):
    # Three games, each with candidates drawn from a few mixes, many of them
    # zero on the first moves, moved by 0, 0.6e-9 or 1.2e-9 per weight: near
    # duplicates within and across games, and pairs just beyond 1e-9.
    monkeypatch.setattr(nash, "STACK_PAIRS", chunk)
    rng = np.random.default_rng(53)
    mixes = np.array([[0, 0, 0.5, 0.5], [0, 0, 0.25, 0.75], [0, 0.5, 0, 0.5], [1, 0, 0, 0]])
    pick = rng.integers(0, len(mixes), (300, 2))
    x = mixes[pick[:, 0]] + rng.integers(0, 3, (300, 4)) * 0.6e-9
    y = mixes[pick[:, 1]] + rng.integers(0, 3, (300, 4)) * 0.6e-9
    games, mask = rng.integers(0, 3, 300), rng.random(300) < 0.8
    close = (np.abs(x[:, None] - x[None]).max(axis=2) <= 1e-9) & (np.abs(y[:, None] - y[None]).max(axis=2) <= 1e-9)
    close &= (games[:, None] == games[None]) & mask[:, None] & mask[None]
    expected = np.tril(close, k=-1)  # each candidate's earlier ones near it in the stack
    assert 50 < expected.any(axis=1).sum() < mask.sum() - 50
    earlier, later = nash._near_earlier(games, x, y, mask)
    assert sorted(zip(later.tolist(), earlier.tolist())) == sorted(zip(*(v.tolist() for v in expected.nonzero())))


def _duplicate_pass(x, y, games, flags, cells):
    """``nash._take`` on synthetic candidates as ``_enumerate`` hands them
    over: those flagged, less those within 1e-9 of a pure profile that the
    (m, n, games) ``cells`` mark.  Checks ``_near_cell`` against comparing
    with every marked cell, and the pass against ``reference_take``.
    Returns the take mask as a list."""
    x, y, games, flags = (np.array(v) for v in (x, y, games, flags))
    m, n = x.shape[1], y.shape[1]
    units = [(g, np.eye(m)[i], np.eye(n)[j]) for i, j, g in np.argwhere(cells).tolist()]
    near = [any(g == games[s] and _same_profile(p, q, x[s], y[s]) for g, p, q in units) for s in range(len(games))]
    assert nash._near_cell(cells, games, x, y).tolist() == near
    kept = flags & ~np.array(near, dtype=bool)
    take = nash._take(games, x, y, kept)
    assert take.tolist() == reference_take(games, x, y, kept).tolist()
    return take.tolist()


def _exact_finds(monkeypatch, choose):
    """Patch ``nash._exact_profile`` and the pairwise reference's exact
    re-check alike: a support pair whose exact profile certifies finds
    ``choose(a, b, rows, cols, (x, y))`` instead, given its exact
    strategies, with payoffs (-1, -2), zero regrets and the degenerate
    flag; None finds nothing.  Returns the list of the support pairs
    ``nash`` re-checks, in order."""
    calls = []
    exact_profile = nash._exact_profile

    def chosen(a, b, rows, cols, eps):
        real = exact_profile(a, b, list(rows), list(cols), eps)
        return None if real is None else choose(a, b, tuple(rows), tuple(cols), real[:2])

    def patched(a, b, rows, cols, eps):
        calls.append((tuple(rows), tuple(cols)))
        mix = chosen(a, b, rows, cols, eps)
        return None if mix is None else (*mix, (-1.0, -2.0), (0.0, 0.0), True)

    def patched_pairwise(a, b, rows, cols, eps):
        mix = chosen(a, b, rows, cols, eps)
        if mix is None:
            return None
        kind = "pure" if nash._is_pure(*mix) else "mixed"
        return nash.EquilibriumProfile(*(np.array(v) for v in mix), (-1.0, -2.0), (0.0, 0.0), kind, True, True)

    monkeypatch.setattr(nash, "_exact_profile", patched)
    monkeypatch.setattr(helpers, "exact_pairwise_profile", patched_pairwise)
    return calls


# A 4x4 game whose re-checks at eps 1e-300 are, in candidate order, the
# pairs (0 1 | 0 2), (1 3 | 0 2), (2 3 | 0 2), (0 1 3 | 0 1 2) and
# (1 2 3 | 0 1 2).  Its pure equilibria are cells (1, 0) and (1, 1).  Its
# float candidates that certify are, in order, R = (e1, (0, .5, .5, 0))
# after the first re-check, Q' near the first re-check's exact find Q =
# (e1, (.5, 0, .5, 0)) after the third, and F = ((.3, 0, .5, .2), (.5, 0,
# .5, 0)) after the fourth.
EXACT_FIND_GAME = (
    np.array([[0, 0, 3, 0], [3, 3, 0, 0], [3, 0, 0, 3], [2, 1, 1, 2]], dtype=float),
    np.array([[1, 3, 0, 2], [3, 3, 3, 1], [2, 2, 3, 0], [3, 0, 2, 1]], dtype=float),
)


def test_duplicate_pass_on_a_chain_a_pure_cell_and_an_exact_find(monkeypatch):
    # 3x3 games.  Game 0: a duplicate of its pure cell (0, 1), then a chain
    # a ~ b ~ c with a not near c, and d near c: a and c are taken.  Game 1:
    # p, one near p, one that is not, and one not kept.  Game 2: two
    # candidates far apart.
    e = np.eye(3)
    a, third, p = np.array([0.5, 0.5, 0.0]), np.full(3, 1 / 3), np.array([0.0, 0.5, 0.5])
    step = np.array([0.7e-9, -0.7e-9, 0.0])
    x = [e[0] + step / 2, a, a + step, a + 2 * step, a + 2.7 * step, p, p + 0.5e-9, third, third, a, e[2]]
    y = [e[1], a, a, a, a, p, p, third, a, a, p]
    games = [0] * 5 + [1] * 4 + [2] * 2
    cells = np.zeros((3, 3, 3), bool)
    cells[0, 1, 0] = True
    flags = [True] * 8 + [False, True, True]
    assert _duplicate_pass(x, y, games, flags, cells) == [False, True, False, True, False, True, False, True, False, True, True]

    # Exact finds, through _enumerate: Q itself; the pure cell (1, 0) moved
    # by 0.5e-9, dropped; F moved by 0.5e-9, taken, so that the later F is
    # dropped; the earlier R, dropped; and a new profile N, taken.  Every
    # fresh candidate that misses the certificate is re-checked, whatever
    # its game took before it.
    a, b = EXACT_FIND_GAME
    e, mid, half = np.eye(4), np.array([0.0, 0.5, 0.5, 0.0]), np.array([0.5, 0.5, 0.0, 0.0])
    found = support_enumeration((a, b), 1e-300)
    r, f, near = found[3], found[-1], np.array([0.5e-9, -0.5e-9, 0.0, 0.0])
    assert (r.proposer_strategy.tolist(), r.responder_strategy.tolist()) == (e[1].tolist(), mid.tolist())
    finds = {
        ((1, 3), (0, 2)): (e[1], e[0] + near),
        ((2, 3), (0, 2)): (f.proposer_strategy + near, f.responder_strategy + near),
        ((0, 1, 3), (0, 1, 2)): (r.proposer_strategy, r.responder_strategy),
        ((1, 2, 3), (0, 1, 2)): (mid, half),
    }
    calls = _exact_finds(monkeypatch, lambda a, b, rows, cols, real: finds.get((rows, cols), real))
    patched = support_enumeration((a, b), 1e-300)
    assert calls == [((0, 1), (0, 2)), ((1, 3), (0, 2)), ((2, 3), (0, 2)), ((0, 1, 3), (0, 1, 2)), ((1, 2, 3), (0, 1, 2))]
    assert [(p.proposer_strategy.tolist(), p.responder_strategy.tolist(), p.payoffs) for p in patched] == [
        (e[1].tolist(), e[0].tolist(), (3.0, 3.0)),
        (e[1].tolist(), e[1].tolist(), (3.0, 3.0)),
        (e[1].tolist(), [0.5, 0.0, 0.5, 0.0], (-1.0, -2.0)),  # Q, which drops Q'
        (e[1].tolist(), mid.tolist(), r.payoffs),  # R
        ((f.proposer_strategy + near).tolist(), (f.responder_strategy + near).tolist(), (-1.0, -2.0)),
        (mid.tolist(), half.tolist(), (-1.0, -2.0)),  # N
    ]
    _assert_same_profiles(patched, pairwise_support_enumeration((a, b), 1e-300))


@pytest.mark.parametrize("seed", range(40))
def test_duplicate_pass_matches_the_reference_loop(monkeypatch, seed):
    # Candidates of three synthetic 4x4 games drawn from a few mixes, moved
    # by 0, 0.6e-9 or 1.2e-9 per weight: chains of near duplicates, some near
    # pure cells.
    rng = np.random.default_rng([seed, 61])
    mixes = np.array([[0, 0, 0.5, 0.5], [0, 0.25, 0, 0.75], [1, 0, 0, 0], [0.25, 0.25, 0.25, 0.25]])
    count = 60
    pick = rng.integers(0, len(mixes), (count, 2))
    x = mixes[pick[:, 0]] + rng.integers(0, 3, (count, 4)) * 0.6e-9
    y = mixes[pick[:, 1]] + rng.integers(0, 3, (count, 4)) * 0.6e-9
    games = rng.integers(0, 3, count)  # interleaved, as a stack's candidates come by support pair
    _duplicate_pass(x, y, games, rng.random(count) < 0.7, rng.random((4, 4, 3)) < 0.3)

    # Exact finds, through _enumerate on a stack of three 5x5 0..3 games at
    # eps 1e-300 and a zero sum tolerance, where every seed re-checks: each
    # re-check finds nothing, its exact profile, or a profile its game
    # prints (pure or mixed, before or after it), moved by 0, 0.6e-9 or
    # 1.2e-9 per weight.
    monkeypatch.setattr(nash, "SIMPLEX_SUM_TOL", 0.0)
    stack = rng.integers(0, 4, (2, 5, 5, 3)).astype(float)
    printed = {}
    for g in range(3):
        game = stack[..., g]
        printed[game.tobytes()] = [(p.proposer_strategy, p.responder_strategy) for p in support_enumeration(game, 1e-300)]

    def choose(a, b, rows, cols, real):
        pick = np.random.default_rng([seed, *rows, 9, *cols])
        pool = printed[np.array([a, b]).tobytes()]
        which = int(pick.integers(len(pool) + 2))
        if which >= len(pool):
            return None if which == len(pool) else real
        return tuple(v + pick.integers(0, 3, len(v)) * 0.6e-9 for v in pool[which])

    calls = _exact_finds(monkeypatch, choose)
    found = _enumerate(*stack, 1e-300)
    assert calls
    for g in range(3):
        mine = found[0] == g
        fields = zip(*(v[mine].tolist() for v in found[1:]))
        expected = pairwise_support_enumeration(stack[..., g], 1e-300)
        assert [(p, q, tuple(pay), tuple(reg), d) for p, q, pay, reg, d in fields] == [
            profile_fields(p)[:4] + (p.degenerate,) for p in expected
        ]
def test_stacked_copies_of_a_degenerate_game_each_get_its_profiles(monkeypatch):
    # five copies put duplicate candidates of several games in each stack
    rng = np.random.default_rng(48)
    a, b = rng.integers(0, 2, (2, 6, 6)).astype(float)
    expected = [profile_fields(p)[:4] + (p.degenerate,) for p in support_enumeration((a, b))]
    near = _near_duplicates(monkeypatch)
    games, x, y, payoffs, regrets, degenerate = _enumerate(*(np.repeat(v[..., None], 5, axis=-1) for v in (a, b)), EPS_DEFAULT)
    assert sum(near) > 0
    assert games.tolist() == sorted(list(range(5)) * len(expected))
    for g in range(5):
        mine = games == g
        fields = [x[mine].tolist(), y[mine].tolist(), payoffs[mine].tolist(), regrets[mine].tolist()]
        assert expected == [(p, q, tuple(pay), tuple(reg), d) for p, q, pay, reg, d in zip(*fields, degenerate[mine].tolist())]


def test_float_duplicates_and_exact_finds_in_one_stack_match_the_pairwise_loop(monkeypatch):
    # At a zero sum tolerance this 0/1 game sends six candidates to the exact
    # re-check, which finds six profiles among float candidates that
    # duplicate earlier ones of the same stack.  The duplicate pass drops
    # four of the finds.
    rng = np.random.default_rng([2, 8])
    a, b = rng.integers(0, 2, (2, 8, 8)).astype(float)
    monkeypatch.setattr(nash, "SIMPLEX_SUM_TOL", 0.0)
    near = _near_duplicates(monkeypatch)
    found = support_enumeration((a, b))
    assert sum(near) > 0
    _assert_same_profiles(found, pairwise_support_enumeration((a, b)))
    # the duplicate rule reads only strategies, so marking the payoffs of the
    # exact finds shows which of them print
    calls = _exact_finds(monkeypatch, lambda a, b, rows, cols, real: real)
    marked = support_enumeration((a, b))
    assert len(calls) == 6 and len(marked) == len(found)
    assert sum(p.payoffs == (-1.0, -2.0) for p in marked) == 6 - 4


@pytest.mark.parametrize("seed", [0, 29, 30])
def test_zero_sum_tolerance_matches_the_exact_pairwise_reference(monkeypatch, seed):
    # the exact weights of some profiles of these 0/1 games round to floats
    # that do not sum to exactly 1
    rng = np.random.default_rng([seed, 8])
    a, b = rng.integers(0, 2, (2, 8, 8)).astype(float)
    monkeypatch.setattr(nash, "SIMPLEX_SUM_TOL", 0.0)
    found = support_enumeration((a, b))
    assert any(sum(p.proposer_strategy) != 1.0 or sum(p.responder_strategy) != 1.0 for p in found)
    _assert_same_profiles(found, pairwise_support_enumeration((a, b)))


def _assert_same_profiles(found, expected):
    assert len(found) == len(expected)
    for p, q in zip(found, expected):
        assert np.array_equal(p.proposer_strategy, q.proposer_strategy)
        assert np.array_equal(p.responder_strategy, q.responder_strategy)
        assert p.payoffs == q.payoffs and p.regret == q.regret
        assert (p.kind, p.certified, p.degenerate) == (q.kind, q.certified, q.degenerate)


def _random_game(rng, shape, integer):
    # integer payoffs are degenerate: exact ties, singular blocks, duplicate profiles
    if integer:
        return rng.integers(0, 4, shape).astype(float), rng.integers(0, 4, shape).astype(float)
    return rng.uniform(0, 100, shape), rng.uniform(0, 100, shape)


# with one support level of many sets, (8, 2) to (2, 12), as an n-offer ultimatum has
SHAPES = [(m, n) for m in range(2, 7) for n in range(2, 7)] + [(3, 7), (7, 3), (2, 7), (8, 2), (2, 8), (12, 2), (2, 12)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(SHAPES),
    integer=st.booleans(),
    eps=st.sampled_from([1e-9, 0.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_support_enumeration_matches_the_pairwise_loop(shape, integer, eps, seed):
    game = _random_game(np.random.default_rng(seed), shape, integer)
    _assert_same_profiles(support_enumeration(game, eps), pairwise_support_enumeration(game, eps))


def _slack(a, b):
    """The per-game slack ``support_enumeration`` hands to the prefilter."""
    return DOMINANCE_SLACK * (1.0 + np.abs(a).max() + np.abs(b).max())


def _levels(kept, shape, count=1):
    """The flat indices of ``_support_pairs`` by support size k = 2, 3, ...,
    each level's numbered from 0: (row set, column set, game) flattened."""
    sizes = [len(_subsets(shape[0], k)[0]) * len(_subsets(shape[1], k)[0]) * count for k in range(2, min(shape) + 1)]
    starts = np.cumsum([0, *sizes])
    return [kept[(kept >= lo) & (kept < hi)] - lo for lo, hi in zip(starts, starts[1:])]


def _kept_pairs(game, k, eps):
    """The row sets, column sets and kept flat pair indices of level k of the prefilter table."""
    a, b = game
    return _subsets(a.shape[0], k)[0], _subsets(a.shape[1], k)[0], _levels(_support_pairs(a, b, eps, _slack(a, b)), a.shape)[k - 2]


def _kept_total(game, eps):
    """How many support pairs of every size the prefilter keeps in a game."""
    return len(_support_pairs(*game, eps, _slack(*game)))


# The 0..3-integer 6x6, 5x8, 7x7 and 12x4 games keep more than 256 support
# pairs in all and take the two phases; the others keep fewer and take one call.
TWO_PHASE_GAMES = {((6, 6), True), ((5, 8), True), ((7, 7), True), ((12, 4), True)}


@pytest.mark.parametrize("shape", [(6, 6), (5, 8), (7, 7), (12, 4), (4, 12)], ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("eps", [1e-9, 0.0])
def test_two_phase_levels_match_the_pairwise_loop(shape, integer, eps):
    game = _random_game(np.random.default_rng([*shape, integer]), shape, integer)
    two_phase = _kept_total(game, eps) > TWO_PHASE_MIN_PAIRS
    assert two_phase == ((shape, integer) in TWO_PHASE_GAMES)
    _assert_same_profiles(support_enumeration(game, eps), pairwise_support_enumeration(game, eps))


def test_support_enumeration_splits_large_levels_into_stacks():
    rng = np.random.default_rng(25)
    game = _random_game(rng, (8, 8), integer=True)
    sizes = [len(_kept_pairs(game, k, EPS_DEFAULT)[2]) for k in range(2, 9)]
    # level 4 spans two chunks, and the first chunk also holds levels 2 and 3
    assert sizes[2] > STACK_PAIRS and sizes[0] + sizes[1] < STACK_PAIRS < sum(sizes[:3])
    expected = pairwise_support_enumeration(game)
    assert len(expected) > 1
    _assert_same_profiles(support_enumeration(game), expected)


def _two_phase_chunk(game, eps, profile):
    """(chunk, k) of the chunk that solves a mixed profile's support pair, in
    the game's one list of kept pairs, or None when the game takes one call."""
    if _kept_total(game, eps) <= TWO_PHASE_MIN_PAIRS:
        return None
    rows = tuple(np.flatnonzero(profile.proposer_strategy))
    cols = tuple(np.flatnonzero(profile.responder_strategy))
    row_sets, col_sets, kept = _kept_pairs(game, len(rows), eps)
    pair = row_sets.tolist().index(list(rows)) * len(col_sets) + col_sets.tolist().index(list(cols))
    position = int(np.searchsorted(kept, pair))
    assert kept[position] == pair
    before = sum(len(_kept_pairs(game, k, eps)[2]) for k in range(2, len(rows)))
    return (before + position) // STACK_PAIRS, len(rows)


def _coordination_game(rng, n):
    """Both players gain 100 on the diagonal, plus small generic noise: every
    nonempty set S of moves supports an equilibrium with I = J = S."""
    return np.eye(n) * 100 + rng.uniform(0, 10, (n, n)), np.eye(n) * 100 + rng.uniform(0, 10, (n, n))


@pytest.mark.parametrize("eps", [1e-9, 0.0])
def test_phase_two_keeps_the_survivors_of_every_stack(monkeypatch, eps):
    game = _coordination_game(np.random.default_rng(1), 8)
    expected = pairwise_support_enumeration(game, eps)
    found = {_two_phase_chunk(game, eps, p) for p in expected if p.kind == "mixed"}
    # equilibria in several two-phase chunks, of more than one support size in one chunk
    chunks = [chunk for chunk, _ in found]
    assert None not in found and len(set(chunks)) > 1 and len(chunks) > len(set(chunks))
    default = support_enumeration(game, eps)
    _assert_same_profiles(default, expected)
    # survivors of many chunks in one phase-2 stack, or of one chunk in several
    for size in (1, 7, 64):
        monkeypatch.setattr(nash, "STACK_PAIRS", size)
        assert [profile_fields(p) for p in support_enumeration(game, eps)] == [profile_fields(p) for p in default]


def _golden_8x8_integer():
    with open(os.path.join(os.path.dirname(__file__), "data", "nash_8x8_integer.json"), encoding="utf-8") as handle:
        doc = parse_spec(handle.read())
    return nash.game_matrices(induce_game(doc.state, doc.payoffs, doc.moves_proposer, doc.moves_responder))


@pytest.mark.parametrize("kind, chunk", [("golden", STACK_PAIRS), ("seeded", STACK_PAIRS), ("seeded", 64)])
def test_phase_two_solves_the_survivors_of_every_chunk_together(monkeypatch, kind, chunk):
    # 0..3 integer 8x8 games whose pairs survive the proposer's systems in
    # several chunks; phase 2 takes them all, in stacks of up to STACK_PAIRS
    game = _golden_8x8_integer() if kind == "golden" else _random_game(np.random.default_rng(1), (8, 8), integer=True)
    phase_two, survivors = [], []  # the widths of phase 2's solves, and each chunk's survivors
    solve, candidates = nash._solve_stacked, nash._candidates

    def solving(ab, sizes=None):
        if not chunking.inside:
            phase_two.append(ab.shape[-1])
        return solve(ab, sizes)

    def chunking(*args):
        chunking.inside = True
        found = candidates(*args)
        chunking.inside = False
        survivors.append(len(found[0]))
        return found

    chunking.inside = False
    monkeypatch.setattr(nash, "STACK_PAIRS", chunk)
    monkeypatch.setattr(nash, "_solve_stacked", solving)
    monkeypatch.setattr(nash, "_candidates", chunking)
    support_enumeration(game)
    assert sum(map(bool, survivors)) >= (2 if kind == "golden" else 3)
    assert sum(phase_two) == sum(survivors) and max(phase_two) <= chunk
    assert len(phase_two) == math.ceil(sum(survivors) / chunk)
    if kind == "golden":  # 3 chunks, two with survivors, which phase 2 solves in one call
        assert len(survivors) == 3 and phase_two == [106]


@pytest.mark.parametrize("eps", [1e-9, 0.0, 1e-300])
@pytest.mark.parametrize("kind", ["0..3 7x7", "0/1 6x6", "coordination 8x8"])
def test_chunk_boundaries_leave_the_bits_unchanged(monkeypatch, kind, eps):
    # chunks of 1, 7 and 64 pairs cross level boundaries and move exact
    # re-checks and near duplicates into later chunks
    rng = np.random.default_rng([50, len(kind)])
    if kind == "0..3 7x7":
        game = _random_game(rng, (7, 7), integer=True)
    elif kind == "0/1 6x6":
        game = tuple(rng.integers(0, 2, (2, 6, 6)).astype(float))
    else:
        game = _coordination_game(rng, 8)
    expected = pairwise_support_enumeration(game, eps)
    default = support_enumeration(game, eps)
    _assert_same_profiles(default, expected)
    for size in (1, 7, 64):
        monkeypatch.setattr(nash, "STACK_PAIRS", size)
        found = support_enumeration(game, eps)
        assert [profile_fields(p) for p in found] == [profile_fields(p) for p in default]
        _assert_same_profiles(found, expected)


def _step_ulps(value, ulps):
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.copysign(np.inf, ulps))
    return value


def _near_tie_game(rng, shape, eps, scale=1.0):
    """A 0..3-integer game, times scale, in which a row of the proposer beats
    another, and a column of the responder another, on k of the opponent's
    moves by eps + 2 k slack or by eps, give or take two ulps."""
    a, b = (v * scale for v in _random_game(rng, shape, integer=True))
    ties = []
    for payoff in (a, b.T):  # b.T is a view, so the second tie is between columns of b
        beater, beaten = rng.choice(payoff.shape[0], 2, replace=False)
        support = rng.choice(payoff.shape[1], int(rng.integers(2, min(shape) + 1)), replace=False)
        ties.append((payoff, beater, beaten, support, bool(rng.integers(2)), int(rng.integers(-2, 3))))
    for _ in range(3):  # a tied entry may be the largest payoff, which slack depends on
        slack = _slack(a, b)
        for payoff, beater, beaten, support, at_margin, ulps in ties:
            payoff[beaten, support] = 0.0
            payoff[beater, support] = _step_ulps(eps + 2 * len(support) * slack if at_margin else eps, ulps)
    return a, b


def _conditionally_dominated(a, b, rows, cols, threshold):
    """Reference: some support move is beaten by more than threshold on every
    move of the opponent's support by another move of the same player."""
    rows, cols = list(rows), list(cols)
    beaten_row = any((a[r, cols] - a[i, cols] > threshold).all() for i in rows for r in range(a.shape[0]))
    beaten_col = any((b[rows, c] - b[rows, j] > threshold).all() for j in cols for c in range(a.shape[1]))
    return beaten_row or beaten_col


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(SHAPES + [(7, 7)]),
    kind=st.sampled_from(["uniform", "0..3", "0..1", "near tie"]),
    eps=st.sampled_from([0.0, 1e-9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_prefilter_drops_only_pairs_the_pairwise_loop_rejects(shape, kind, eps, seed):
    rng = np.random.default_rng(seed)
    if kind == "near tie":
        a, b = _near_tie_game(rng, shape, eps)
    elif kind == "0..1":
        a, b = rng.integers(0, 2, shape).astype(float), rng.integers(0, 2, shape).astype(float)
    else:
        a, b = _random_game(rng, shape, integer=kind == "0..3")
    for k in range(2, min(shape) + 1):
        row_sets, col_sets, kept = _kept_pairs((a, b), k, eps)
        threshold = eps + 2 * k * _slack(a, b)
        dropped = [_conditionally_dominated(a, b, rows, cols, threshold) for rows in row_sets for cols in col_sets]
        assert kept.tolist() == [index for index, drop in enumerate(dropped) if not drop]
        for index in np.flatnonzero(dropped):
            rows, cols = row_sets[index // len(col_sets)], col_sets[index % len(col_sets)]
            assert pairwise_support(a, b, tuple(rows), tuple(cols), eps) is None


@pytest.mark.parametrize("shape", [(4, 4), (3, 5), (6, 2)], ids="{0[0]}x{0[1]}".format)
def test_a_stack_of_games_drops_each_games_own_pairs(shape):
    # near ties at each game's own margin, with slacks 2**10 apart
    rng = np.random.default_rng([52, *shape])
    games = [_near_tie_game(rng, shape, eps, 2.0 ** (10 * (g % 4))) for g, eps in enumerate([1e-9, 0.0] * 4)]
    a, b = (np.stack(v, axis=-1) for v in zip(*games))
    stacked = _levels(_support_pairs(a, b, 1e-9, np.array([_slack(*game) for game in games])), shape, len(games))
    for k, kept in enumerate(stacked, 2):
        expected = [(pair, g) for pair in range(len(_subsets(shape[0], k)[0]) * len(_subsets(shape[1], k)[0])) for g, game in enumerate(games) if pair in _kept_pairs(game, k, 1e-9)[2]]
        assert kept.tolist() == [pair * len(games) + g for pair, g in expected]


def test_nondegenerate_games_have_an_odd_number_of_equilibria():
    # Shapley (1974): a nondegenerate bimatrix game has an odd number of equilibria
    rng = np.random.default_rng(26)
    for _ in range(150):
        m, n = rng.integers(2, 6, size=2)
        profiles = support_enumeration((rng.uniform(0, 100, (m, n)), rng.uniform(0, 100, (m, n))))
        assert len(profiles) % 2 == 1
        assert not any(p.degenerate for p in profiles)


def test_verify_keeps_the_single_profile_arithmetic_bit_for_bit():
    # the products verify_equilibrium took before it shared the stacked kernel
    rng = np.random.default_rng(13)
    for trial in range(600):
        m, n = (2, 2) if trial % 3 == 0 else tuple(int(v) for v in rng.integers(1, 13, 2))
        a = rng.uniform(-100.0, 100.0, (m, n))
        b = rng.normal(size=(m, n)) * 10.0 ** int(rng.integers(-3, 4))
        if trial % 5 == 0:
            a = np.round(a)
        x, y = rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))
        eps = (1e-9, 1e-300, 5.0)[trial % 3]
        profile = verify_equilibrium((a, b), (x, y), eps)
        pay_p, pay_r = float(x @ a @ y), float(x @ b @ y)
        regret_p = max(0.0, float((a @ y).max()) - pay_p)
        regret_r = max(0.0, float((x @ b).max()) - pay_r)
        assert profile.payoffs == (pay_p, pay_r)
        assert profile.regret == (regret_p, regret_r)
        assert profile.certified == (regret_p <= eps and regret_r <= eps)


def _stacked_games(rng, shape, count):
    """count games of each kind, (m, n, B) per player: uniform, 0..3-integer,
    0/1 ties (equal entries, duplicate profiles, singular blocks) and NaN entries."""
    uniform = rng.uniform(-10.0, 10.0, (count, 2, *shape))
    integer = rng.integers(0, 4, (count, 2, *shape)).astype(float)
    ties = rng.integers(0, 2, (count, 2, *shape)).astype(float)
    nan = np.where(rng.random((count, 2, *shape)) < 0.2, np.nan, rng.uniform(-10.0, 10.0, (count, 2, *shape)))
    return np.ascontiguousarray(np.concatenate([uniform, integer, ties, nan]).transpose(1, 2, 3, 0))


@pytest.mark.parametrize("eps", (1e-9, 0.0, 1e-300, 5.0))
def test_stacked_enumeration_matches_support_enumeration(monkeypatch, eps):
    # Each game of a stack gets the profiles that support_enumeration gives it
    # alone and that the pairwise loop gives it
    exact_found = {}  # per sum tolerance, whether each exact re-check found a profile
    exact_profile = nash._exact_profile

    def recording(*args):
        profile = exact_profile(*args)
        exact_found.setdefault(nash.SIMPLEX_SUM_TOL, []).append(profile is not None)
        return profile

    monkeypatch.setattr(nash, "_exact_profile", recording)
    rng = np.random.default_rng(17)
    default = nash.SIMPLEX_SUM_TOL
    # with no tolerance on the weights' sum, many candidates miss the sum test
    # and go to the exact re-check instead of certifying in floats
    for shape, sum_tol in itertools.product([(2, 2), (2, 3), (3, 3), (4, 2), (8, 2)], [default, 0.0]):
        monkeypatch.setattr(nash, "SIMPLEX_SUM_TOL", sum_tol)
        a, b = _stacked_games(rng, shape, 30)
        games, x, y, payoffs, regrets, degenerate = _enumerate(a, b, eps)
        assert np.all(np.diff(games) >= 0)
        for g in range(a.shape[-1]):
            game = (a[..., g], b[..., g])
            expected = support_enumeration(game, eps)
            _assert_same_profiles(expected, pairwise_support_enumeration(game, eps))
            mine = games == g
            fields = [x[mine].tolist(), y[mine].tolist(), payoffs[mine].tolist(), regrets[mine].tolist()]
            assert [profile_fields(p)[:4] + (p.degenerate,) for p in expected] == [
                (p, q, tuple(pay), tuple(reg), d) for p, q, pay, reg, d in zip(*fields, degenerate[mine].tolist())
            ]
    # at eps 0 and 1e-300 some valid mixes certify only in exact rationals,
    # and at a zero sum tolerance the sum misses find profiles at every eps
    assert any(exact_found.get(default, [])) == (eps in (0.0, 1e-300))
    assert any(exact_found[0.0])


def test_garbled_float_mixes_go_to_the_exact_re_check(monkeypatch):
    # payoffs 1e300 apart garble the float weights of some 2x2 supports (one
    # sums to 7e-85); those candidates are re-checked exactly, which finds
    # nothing, and the strict pure equilibrium at cell (2, 0) is returned
    a = [[-2e300, -6e8, 0], [5e200, 2e200, 0], [8e300, -1e300, 1e8]]
    b = [[-6, 8e200, -3e200], [1, -9e300, -8e100], [-8e8, -6e300, -2e200]]
    exact = []
    exact_profile = nash._exact_profile
    monkeypatch.setattr(nash, "_exact_profile", lambda *args: exact.append(args) or exact_profile(*args))
    found = support_enumeration((a, b))
    assert [profile_fields(p) for p in found] == [
        ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], (8e300, -8e8), (0.0, 0.0), "pure", True, False)
    ]
    assert exact
    _assert_same_profiles(found, pairwise_support_enumeration((a, b)))


PURE_EPS = (0.0, 1e-300, 1e-9, 0.5, 1.0, 3.0)


def _unit_vector(size, index):
    v = np.zeros(size)
    v[index] = 1.0
    return v


@pytest.mark.parametrize("kind", ["uniform", "0..3", "negative"])
def test_pure_cells_equal_verify_on_the_unit_profiles(kind):
    # at eps >= 1 a unit strategy has no weight above eps, so more than zero
    # best responses make a cell degenerate
    rng = np.random.default_rng([41, len(kind)])
    for m, n in [(m, n) for m in range(1, 8) for n in range(1, 8)]:
        if kind == "uniform":
            games = rng.uniform(0.0, 100.0, (5, 2, m, n))
        elif kind == "0..3":
            games = rng.integers(0, 4, (5, 2, m, n)).astype(float)
        else:  # negative entries and zeros of both signs
            games = rng.integers(-3, 2, (5, 2, m, n)) * rng.choice([1.0, -0.5, 1e-3], (5, 2, m, n))
        for eps in PURE_EPS:
            # one call on the stack, whose games run along the last axis
            stack = games.transpose(1, 2, 3, 0)
            (regret_p, regret_r), found, degenerate = _pure_cells(stack, np.isfinite(stack).all(axis=(0, 1, 2)), eps)
            for g, (a, b) in enumerate(games):
                expected = []
                for i in range(m):
                    for j in range(n):
                        unit = verify_equilibrium((a, b), (_unit_vector(m, i), _unit_vector(n, j)), eps)
                        assert unit.payoffs == (a[i, j], b[i, j])  # equal, bar the sign of a zero
                        assert unit.regret == (regret_p[i, j, g], regret_r[i, j, g])
                        assert (unit.kind, unit.degenerate) == ("pure", degenerate[i, j, g])
                        if found[i, j, g]:
                            expected.append(profile_fields(unit))
                        # the pure-cell test of the pairwise reference, on top of certification
                        assert found[i, j, g] == (unit.certified and pairwise_support(a, b, (i,), (j,), eps) is not None)
                assert [profile_fields(p) for p in pure_equilibria((a, b), eps)] == expected


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_pure_cells_of_a_non_finite_game_never_certify(value):
    rng = np.random.default_rng(42)
    for m, n in [(1, 1), (2, 2), (3, 5), (7, 7)]:
        for eps in PURE_EPS + (np.inf,):
            a, b = rng.uniform(0.0, 100.0, (2, m, n))
            (a, b)[rng.integers(2)][rng.integers(m), rng.integers(n)] = value
            with np.errstate(all="ignore"):  # as its callers run it
                assert not _pure_cells(np.array([a, b]), np.isfinite([a, b]).all(), eps)[1].any()  # no cell is found
            assert pure_equilibria((a, b), eps) == []


def test_a_pure_cell_above_eps_in_floats_is_above_it_exactly():
    # Rounding is monotone, so a float regret above eps is above it exactly and
    # support enumeration needs no exact re-check of a pure cell.  The eps just
    # below each float regret is the closest call.
    rng = np.random.default_rng(44)
    for trial in range(300):
        m, n = (int(v) for v in rng.integers(1, 5, 2))
        scale = 10.0 ** rng.integers(-20, 20, (2, m, n))
        a, b = rng.uniform(-1.0, 1.0, (2, m, n)) * scale
        regret = np.maximum(*_pure_cells(np.array([a, b]), True, 0.0)[0])
        for i, j in np.argwhere(regret > 0.0).tolist():
            for eps in (np.nextafter(regret[i, j], 0.0), regret[i, j] / 2, 1e-300):
                assert _exact_profile(a, b, [i], [j], eps) is None


@pytest.mark.parametrize("eps", (0.0, 1e-300, 1e-9))
def test_the_2x2_prefilter_drops_no_valid_mix(eps):
    rng = np.random.default_rng(45)
    for games in (rng.uniform(-10.0, 10.0, (2000, 2, 2, 2)), rng.integers(0, 4, (2000, 2, 2, 2)).astype(float)):
        a, b = games[:, 0].transpose(1, 2, 0), games[:, 1].transpose(1, 2, 0)  # the games on the last axis
        slack = np.array([_slack(*game) for game in games])
        [kept] = _levels(_support_pairs(a, b, eps, slack), (2, 2), len(games))  # one pair per game: the games kept
        # the stacked rule is support_enumeration's rule of one game
        assert kept.tolist() == [g for g, game in enumerate(games) if len(_kept_pairs(game, 2, eps)[2]) == 1]
        _, _, ok = _solve_blocks([np.concatenate([a, b.transpose(1, 0, 2)], axis=-1)])
        mixed = ok[: len(games)] & ok[len(games) :]
        dropped = np.setdiff1d(np.arange(len(games)), kept)
        assert len(dropped) and not mixed[dropped].any()


OUTCOMES = ((0, 0), (0, 1), (1, 0), (1, 1))


def test_enumeration_is_never_empty():
    # Every finite game has an equilibrium (Nash 1951).  At a tiny eps the float
    # regret of a true mix can exceed eps by rounding alone; the exact re-check
    # keeps it.  Induced 2x2 ultimatum games on 12 basis pairs x 3 tables x 181
    # thetas, then uniform games from 2x2 to 6x6.
    for table in ((99, 50, 1), (3, 2, 1), (5, 3, 1)):
        payoffs = ultimatum_2x2(*table)
        for basis_a, basis_b in ((p, q) for p in OUTCOMES for q in OUTCOMES if p != q):
            for theta in np.linspace(0.0, 2.0 * np.pi, 181):
                game = induce_game(bell_like(float(theta), basis_a, basis_b), payoffs, MOVES2, MOVES2)
                assert support_enumeration(game, 1e-300), (table, basis_a, basis_b, theta)
    rng = np.random.default_rng(31)
    for _ in range(1000):
        game = _random_game(rng, tuple(rng.integers(2, 7, 2)), integer=False)
        for eps in (0.0, 1e-300):
            assert support_enumeration(game, eps), (game, eps)


def test_eps_zero_finds_the_equilibria_of_eps_1e_9():
    # rounding alone used to drop true equilibria at eps 0
    rng = np.random.default_rng(32)
    for shape in [(8, 8)] * 3 + [tuple(rng.integers(2, 9, 2)) for _ in range(20)]:
        a, b = _random_game(rng, shape, integer=False)
        exact, loose = support_enumeration((a, b), 0.0), support_enumeration((a, b), 1e-9)
        assert len(exact) == len(loose)
        for p, q in zip(exact, loose):
            assert _same_profile(p.proposer_strategy, p.responder_strategy, q.proposer_strategy, q.responder_strategy)
            assert p.certified and p.regret == (0.0, 0.0)


TINY = 2.0**-45
NEAR_MISS_GAMES = [
    # the full-support mix's exact proposer weight is about -TINY/2: clamped to 0 in floats
    (np.array([[2, 1], [0, 1 - TINY]]), np.array([[0.0, 1], [1, 0]])),
    # the mix on rows 0 and 1 leaves row 2 better by 1e-13, within the prefilter's slack
    (np.array([[1, 0], [0, 1], [0.5 + 1e-13] * 2]), np.array([[0.0, 1], [1, 0], [0, 0]])),
]


@pytest.mark.parametrize("eps", [0.0, 1e-300])
@pytest.mark.parametrize("game", NEAR_MISS_GAMES, ids=["negative-weight", "beaten-off-support"])
def test_exact_recheck_keeps_no_false_equilibrium(game, eps):
    # each game's float candidate fails certification and is re-checked exactly
    found = support_enumeration(game, eps)
    assert len(found) == 1 and found[0].regret == (0.0, 0.0)
    _assert_same_profiles(found, pairwise_support_enumeration(game, eps))
