"""Best responses, certification, pure/support enumeration and the grid oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqgames import (
    DimensionMismatchError,
    InvalidProbabilityError,
    TooLargeError,
    bell_like,
    best_response_value,
    default_move_set,
    grid_oracle,
    induce_game,
    mixed_strategy,
    pure_equilibria,
    solve_pivoting,
    state_from_amplitudes,
    support_enumeration,
    ultimatum_2x2,
    verify_equilibrium,
)

from rqgames.nash import (
    DOMINANCE_SLACK,
    EPS_DEFAULT,
    STACK_PAIRS,
    TWO_PHASE_MIN_PAIRS,
    _solve_stacked,
    _same_profile,
    _support_pairs,
    equilibria_2x2,
)

from helpers import loop_solve_pivoting, pairwise_support, pairwise_support_enumeration, random_bimatrix

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


def test_best_response_examples():
    value = best_response_value(entangled_game(), "responder", [0.5, 0.5])
    assert abs(value - 12.75) <= 1e-12
    a = np.array([[3.0, 7.0], [5.0, 2.0]])
    b = np.zeros((2, 2))
    assert best_response_value((a, b), "proposer", [0.0, 1.0]) == 7.0
    single_row = (np.array([[1.0, 2.0, 3.0]]), np.zeros((1, 3)))
    value = best_response_value(single_row, "proposer", [1 / 3, 1 / 3, 1 / 3])
    assert abs(value - 2.0) <= 1e-12


def test_best_response_validation():
    with pytest.raises(DimensionMismatchError):
        best_response_value(entangled_game(), "proposer", [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        best_response_value(entangled_game(), "referee", [1.0, 0.0])


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


def test_support_enumeration_classical_game():
    profiles = support_enumeration(classical_game())
    assert len(profiles) == 1
    assert profiles[0].payoffs == (99.0, 1.0)
    assert profiles[0].kind == "pure"


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


def test_solve_pivoting_matches_reference_solver():
    rng = np.random.default_rng(22)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = rng.normal(size=(n, n))
        rhs = rng.normal(size=n)
        x = solve_pivoting(a, rhs)
        assert x is not None
        assert np.allclose(x, np.linalg.solve(a, rhs), atol=1e-9)


def test_solve_pivoting_reports_singular_systems():
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert solve_pivoting(singular, np.array([1.0, 2.0])) is None
    assert solve_pivoting(np.zeros((2, 2)), np.zeros(2)) is None


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


SHAPES = [(m, n) for m in range(2, 7) for n in range(2, 7)] + [(3, 7), (7, 3), (2, 7)]


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


def _kept_pairs(game, k, eps):
    """The row sets, column sets and kept flat pair indices of level k."""
    a, b = game
    return _support_pairs(a, b, k, eps, _slack(a, b))


# Some level of the 0..3-integer 7x7 and 12x4 games keeps more than 256
# support pairs and takes the two phases; every level of the others keeps
# fewer and takes one call.
TWO_PHASE_GAMES = {((7, 7), True), ((12, 4), True)}


@pytest.mark.parametrize("shape", [(6, 6), (5, 8), (7, 7), (12, 4), (4, 12)], ids="{0[0]}x{0[1]}".format)
@pytest.mark.parametrize("integer", [False, True])
@pytest.mark.parametrize("eps", [1e-9, 0.0])
def test_two_phase_levels_match_the_pairwise_loop(shape, integer, eps):
    game = _random_game(np.random.default_rng([*shape, integer]), shape, integer)
    two_phase = max(len(_kept_pairs(game, k, eps)[2]) for k in range(2, min(shape) + 1)) > TWO_PHASE_MIN_PAIRS
    assert two_phase == ((shape, integer) in TWO_PHASE_GAMES)
    _assert_same_profiles(support_enumeration(game, eps), pairwise_support_enumeration(game, eps))


def test_support_enumeration_splits_large_levels_into_stacks():
    rng = np.random.default_rng(25)
    game = _random_game(rng, (8, 8), integer=True)
    assert len(_kept_pairs(game, 4, EPS_DEFAULT)[2]) > STACK_PAIRS
    expected = pairwise_support_enumeration(game)
    assert len(expected) > 1
    _assert_same_profiles(support_enumeration(game), expected)


def _two_phase_stack(game, eps, profile):
    """(k, first kept pair) of the stack that solves a nondegenerate profile's
    support pair, or None when that stack takes the one-call path."""
    rows = tuple(np.flatnonzero(profile.proposer_strategy))
    cols = tuple(np.flatnonzero(profile.responder_strategy))
    row_sets, col_sets, kept = _kept_pairs(game, len(rows), eps)
    pair = row_sets.tolist().index(list(rows)) * len(col_sets) + col_sets.tolist().index(list(cols))
    position = int(np.searchsorted(kept, pair))
    assert kept[position] == pair
    start = position - position % STACK_PAIRS
    if min(STACK_PAIRS, len(kept) - start) <= TWO_PHASE_MIN_PAIRS:
        return None
    return len(rows), start


def _coordination_game(rng, n):
    """Both players gain 100 on the diagonal, plus small generic noise: every
    nonempty set S of moves supports an equilibrium with I = J = S."""
    return np.eye(n) * 100 + rng.uniform(0, 10, (n, n)), np.eye(n) * 100 + rng.uniform(0, 10, (n, n))


@pytest.mark.parametrize("eps", [1e-9, 0.0])
def test_phase_two_keeps_the_survivors_of_every_stack(eps):
    game = _coordination_game(np.random.default_rng(1), 8)
    expected = pairwise_support_enumeration(game, eps)
    stacks = {_two_phase_stack(game, eps, p) for p in expected} - {None}
    # equilibria in more than one two-phase stack of one level
    assert len(stacks) > len({k for k, _ in stacks})
    _assert_same_profiles(support_enumeration(game, eps), expected)


def _step_ulps(value, ulps):
    for _ in range(abs(ulps)):
        value = np.nextafter(value, np.copysign(np.inf, ulps))
    return value


def _near_tie_game(rng, shape, eps):
    """A 0..3-integer game in which a row of the proposer beats another, and a
    column of the responder another, on k of the opponent's moves by eps +
    2 k slack or by eps, give or take two ulps."""
    a, b = _random_game(rng, shape, integer=True)
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


def _random_2x2_games(rng, count):
    uniform = rng.uniform(-10.0, 10.0, (count, 2, 2, 2))
    integer = rng.integers(0, 3, (count, 2, 2, 2)).astype(float)
    states = [bell_like(float(t), (1, 1), (0, 0)) for t in rng.uniform(0.0, 2.0 * np.pi, count)]
    induced = [induce_game(s, ultimatum_2x2(99, 50, 1), MOVES2, MOVES2) for s in states]
    ultimatum = np.array([[g.proposer, g.responder] for g in induced])
    nan = np.where(rng.random((count, 2, 2, 2)) < 0.3, np.nan, uniform)
    return np.concatenate([uniform, integer, ultimatum, nan])


@pytest.mark.parametrize("eps", (1e-9, 0.0, 1e-300, 5.0))
def test_stacked_2x2_solve_matches_support_enumeration(eps):
    games = _random_2x2_games(np.random.default_rng(17), 300)
    x, y, pay_p, pay_r, found, unsettled = equilibria_2x2(games[:, 0], games[:, 1], eps)
    # at eps 0 and 1e-300 some valid mixes certify only in exact rationals
    assert unsettled.any() == (eps in (0.0, 1e-300))
    for g, (a, b) in enumerate(games):
        try:
            expected = support_enumeration((a, b), eps)
        except InvalidProbabilityError:
            assert unsettled[g]
            continue
        same = len(expected) == found[g].sum() and all(
            np.array_equal(profile.proposer_strategy, x[g, c])
            and np.array_equal(profile.responder_strategy, y[g, c])
            and profile.payoffs == (pay_p[g, c], pay_r[g, c])
            for profile, c in zip(expected, np.flatnonzero(found[g]))
        )
        # unflagged rows equal support_enumeration; flagged rows are the ones that differ
        assert same != unsettled[g]


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
