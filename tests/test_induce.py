"""Induced games, closed-form payoffs, swap symmetries and classification."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rqgames import (
    ALIGNED,
    OPPOSED,
    DimensionMismatchError,
    InvalidMoveSetError,
    InvalidProbabilityError,
    MoveSet,
    PayoffTable,
    UltimatumParams,
    WrongClassError,
    aligned_equilibrium,
    bell_like,
    classify_state,
    default_move_set,
    induce_game,
    probability_table,
    proposer_payoff,
    responder_payoff,
    state_from_amplitudes,
    swap_proposer_coeffs,
    swap_responder_coeffs,
    ultimatum_2x2,
    ultimatum_general,
)
from rqgames.induce import induce_stack, opposed

from helpers import (
    balanced_triple,
    enumerate_induced,
    loop_induce_game,
    random_product_state,
    random_state,
    ultimatum_entries_2x2,
)

STANDARD = (99.0, 50.0, 1.0)
MOVES2 = default_move_set(2)


def fair_superposition():
    return state_from_amplitudes([[0, 1], [0, 1]], normalize=True)


def entangled_diagonal():
    return bell_like(np.pi / 4, (1, 1), (0, 0))


def basis_state(k, l, dims=(2, 2)):
    amps = np.zeros(dims, dtype=complex)
    amps[k, l] = 1.0
    return state_from_amplitudes(amps)


def test_default_move_set_two_is_swap_then_identity():
    assert MOVES2.perms == ((1, 0), (0, 1))
    assert MOVES2.apply(1, 0) == 0
    for k in (0, 1):
        assert MOVES2.apply(0, MOVES2.apply(0, k)) == k


def test_default_move_set_larger_sizes():
    moves = default_move_set(3)
    assert len(moves) == 3
    assert moves.perms[-1] == (0, 1, 2)
    for p in moves.perms:
        assert sorted(p) == [0, 1, 2]
    assert len(set(moves.perms)) == 3


def test_default_move_sets_are_built_once_and_shared():
    # a MoveSet is frozen, so each size's is cached and handed to every caller
    expected = {2: ((1, 0), (0, 1)), 3: ((2, 0, 1), (1, 2, 0), (0, 1, 2))}
    for d, perms in expected.items():
        first = default_move_set(d)
        assert default_move_set(d) is first and first.perms == perms
    with pytest.raises(InvalidMoveSetError):
        default_move_set(1)


def test_move_set_validation():
    with pytest.raises(InvalidMoveSetError):
        MoveSet(())
    with pytest.raises(InvalidMoveSetError):
        MoveSet(((0, 0),))
    with pytest.raises(InvalidMoveSetError):
        MoveSet(((0, 1), (0, 1)))
    with pytest.raises(InvalidMoveSetError):
        MoveSet(((0, 1), (1, 0, 2)))
    # entries are whole numbers: 1.0 reads as 1, and 1.5 or True, once read as 1, is rejected
    assert MoveSet(((1.0, 0), (0, 1))).perms == ((1, 0), (0, 1))
    for entry in (1.5, True):
        with pytest.raises(InvalidMoveSetError, match=f"permutation entries must be integers, got {entry!r}"):
            MoveSet(((entry, 0), (0, 1)))


def test_induced_game_fair_superposition():
    game = induce_game(fair_superposition(), ultimatum_2x2(*STANDARD), MOVES2, MOVES2)
    assert np.allclose(game.proposer, [[74.5, 0], [74.5, 0]], atol=1e-12)
    assert np.allclose(game.responder, [[25.5, 0], [25.5, 0]], atol=1e-12)


def test_induced_game_entangled_diagonal():
    game = induce_game(entangled_diagonal(), ultimatum_2x2(*STANDARD), MOVES2, MOVES2)
    assert np.allclose(game.proposer, [[49.5, 25], [25, 49.5]], atol=1e-12)
    assert np.allclose(game.responder, [[0.5, 25], [25, 0.5]], atol=1e-12)


def test_induced_game_classical_corner():
    game = induce_game(basis_state(0, 0), ultimatum_2x2(*STANDARD), MOVES2, MOVES2)
    assert np.array_equal(game.proposer, [[0, 50], [0, 99]])
    assert np.array_equal(game.responder, [[0, 50], [0, 1]])
    # both players keeping their index reaches the greedy outcome
    assert game.proposer[1, 1] == 99 and game.responder[1, 1] == 1


def test_dimension_mismatch_rejected():
    state = random_state(np.random.default_rng(1), (3, 2))
    with pytest.raises(DimensionMismatchError):
        induce_game(state, ultimatum_2x2(*STANDARD), default_move_set(3), MOVES2)


def test_induced_entries_match_exhaustive_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(50):
        state = random_state(rng)
        a, b, c = balanced_triple(rng)
        table = ultimatum_2x2(a, b, c)
        game = induce_game(state, table, MOVES2, MOVES2)
        brute_p, brute_r = enumerate_induced(state, table, MOVES2, MOVES2)
        assert np.allclose(game.proposer, brute_p, atol=1e-12)
        assert np.allclose(game.responder, brute_r, atol=1e-12)
        entry_p, entry_r = ultimatum_entries_2x2(probability_table(state).probs, a, b, c)
        assert np.allclose(game.proposer, entry_p, atol=1e-12)
        assert np.allclose(game.responder, entry_r, atol=1e-12)


def test_induced_game_general_dimensions():
    rng = np.random.default_rng(3)
    table = ultimatum_general(UltimatumParams(100, (1, 25, 50)))
    moves_p = default_move_set(3)
    for _ in range(10):
        state = random_state(rng, (3, 2))
        game = induce_game(state, table, moves_p, MOVES2)
        brute_p, brute_r = enumerate_induced(state, table, moves_p, MOVES2)
        assert np.allclose(game.proposer, brute_p, atol=1e-12)
        assert np.allclose(game.responder, brute_r, atol=1e-12)


def test_explicit_move_lists_accepted():
    table = ultimatum_general(UltimatumParams(100, (1, 25, 50)))
    moves_p = MoveSet(tuple(itertools.permutations(range(3))))
    state = random_state(np.random.default_rng(4), (3, 2))
    game = induce_game(state, table, moves_p, MOVES2)
    assert game.dims == (6, 2)
    brute_p, brute_r = enumerate_induced(state, table, moves_p, MOVES2)
    assert np.allclose(game.proposer, brute_p, atol=1e-12)
    assert np.allclose(game.responder, brute_r, atol=1e-12)


def test_entries_stay_inside_the_payoff_range():
    rng = np.random.default_rng(8)
    for _ in range(50):
        dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        state = random_state(rng, dims)
        table = PayoffTable(rng.uniform(-50, 50, dims), rng.uniform(-50, 50, dims))
        game = induce_game(state, table, default_move_set(dims[0]), default_move_set(dims[1]))
        assert float(game.proposer.min()) >= float(table.proposer.min()) - 1e-9
        assert float(game.proposer.max()) <= float(table.proposer.max()) + 1e-9
        assert float(game.responder.min()) >= float(table.responder.min()) - 1e-9
        assert float(game.responder.max()) <= float(table.responder.max()) + 1e-9


def test_closed_forms_reproduce_known_values():
    s_fair = fair_superposition()
    s_diag = entangled_diagonal()
    s_00 = basis_state(0, 0)
    assert abs(proposer_payoff(s_fair, *STANDARD, 1, 1) - 74.5) <= 1e-9
    assert abs(responder_payoff(s_fair, *STANDARD, 1, 1) - 25.5) <= 1e-9
    assert abs(proposer_payoff(s_diag, *STANDARD, 0.5, 0.5) - 37.25) <= 1e-9
    assert abs(responder_payoff(s_diag, *STANDARD, 0.5, 0.5) - 12.75) <= 1e-9
    assert proposer_payoff(s_00, *STANDARD, 0, 0) == 99
    assert responder_payoff(s_00, *STANDARD, 0, 0) == 1


def test_closed_forms_reject_bad_probabilities():
    state = entangled_diagonal()
    for mu, nu in ((1.2, 0.5), (-0.1, 0.5), (0.5, 1.0000001), (0.5, -1e-6)):
        with pytest.raises(InvalidProbabilityError):
            proposer_payoff(state, *STANDARD, mu, nu)
        with pytest.raises(InvalidProbabilityError):
            responder_payoff(state, *STANDARD, mu, nu)


def test_closed_forms_require_2x2_state():
    state = random_state(np.random.default_rng(5), (3, 2))
    with pytest.raises(DimensionMismatchError):
        proposer_payoff(state, *STANDARD, 0.5, 0.5)
    with pytest.raises(DimensionMismatchError):
        responder_payoff(state, *STANDARD, 0.5, 0.5)


def test_closed_forms_equal_bilinear_contraction():
    rng = np.random.default_rng(6)
    for _ in range(200):
        state = random_state(rng)
        a, b, c = balanced_triple(rng)
        game = induce_game(state, ultimatum_2x2(a, b, c), MOVES2, MOVES2)
        mu, nu = rng.uniform(size=2)
        x = np.array([mu, 1 - mu])
        y = np.array([nu, 1 - nu])
        assert abs(proposer_payoff(state, a, b, c, mu, nu) - x @ game.proposer @ y) <= 1e-12
        assert abs(responder_payoff(state, a, b, c, mu, nu) - x @ game.responder @ y) <= 1e-12


def test_product_states_reduce_to_weighted_classical_game():
    rng = np.random.default_rng(9)
    table = ultimatum_2x2(*STANDARD)
    for _ in range(25):
        state = random_product_state(rng)
        probs = probability_table(state).probs
        marginal_p = probs.sum(axis=1)
        marginal_q = probs.sum(axis=0)
        game = induce_game(state, table, MOVES2, MOVES2)
        for i, sigma in enumerate(MOVES2.perms):
            for j, tau in enumerate(MOVES2.perms):
                expected = sum(
                    marginal_p[k] * marginal_q[l] * table.proposer[sigma[k], tau[l]]
                    for k in range(2)
                    for l in range(2)
                )
                assert abs(game.proposer[i, j] - expected) <= 1e-9


def test_basis_states_permute_the_payoff_table_exactly():
    table = ultimatum_2x2(*STANDARD)
    for k0 in (0, 1):
        for l0 in (0, 1):
            game = induce_game(basis_state(k0, l0), table, MOVES2, MOVES2)
            rows = [MOVES2.apply(i, k0) for i in range(2)]
            cols = [MOVES2.apply(j, l0) for j in range(2)]
            assert np.array_equal(game.proposer, table.proposer[np.ix_(rows, cols)])
            assert np.array_equal(game.responder, table.responder[np.ix_(rows, cols)])


def test_induced_game_ignores_amplitude_phases():
    rng = np.random.default_rng(10)
    table = ultimatum_2x2(*STANDARD)
    for _ in range(50):
        state = random_state(rng)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 2)))
        phased = state_from_amplitudes(state.amps * phases)
        plain = induce_game(state, table, MOVES2, MOVES2)
        rotated = induce_game(phased, table, MOVES2, MOVES2)
        assert float(np.max(np.abs(plain.proposer - rotated.proposer))) <= 1e-12
        assert float(np.max(np.abs(plain.responder - rotated.responder))) <= 1e-12


def test_swap_examples():
    swapped = swap_proposer_coeffs(entangled_diagonal())
    r = 1 / np.sqrt(2)
    assert np.allclose(swapped.amps, [[0, r], [r, 0]], atol=1e-15)
    assert np.array_equal(swap_responder_coeffs(basis_state(0, 1)).amps, basis_state(0, 0).amps)


def test_swaps_are_involutions():
    rng = np.random.default_rng(12)
    for _ in range(20):
        state = random_state(rng)
        assert np.array_equal(swap_proposer_coeffs(swap_proposer_coeffs(state)).amps, state.amps)
        assert np.array_equal(swap_responder_coeffs(swap_responder_coeffs(state)).amps, state.amps)


def test_swaps_require_2x2_state():
    state = random_state(np.random.default_rng(13), (3, 2))
    with pytest.raises(DimensionMismatchError):
        swap_proposer_coeffs(state)
    with pytest.raises(DimensionMismatchError):
        swap_responder_coeffs(state)


def test_swaps_permute_the_induced_game_exactly():
    rng = np.random.default_rng(14)
    for _ in range(100):
        state = random_state(rng)
        a, b, c = balanced_triple(rng)
        table = ultimatum_2x2(a, b, c)
        game = induce_game(state, table, MOVES2, MOVES2)
        row_swapped = induce_game(swap_proposer_coeffs(state), table, MOVES2, MOVES2)
        assert np.array_equal(row_swapped.proposer, game.proposer[::-1, :])
        assert np.array_equal(row_swapped.responder, game.responder[::-1, :])
        col_swapped = induce_game(swap_responder_coeffs(state), table, MOVES2, MOVES2)
        assert np.array_equal(col_swapped.proposer, game.proposer[:, ::-1])
        assert np.array_equal(col_swapped.responder, game.responder[:, ::-1])


def test_classification_examples():
    opposed = classify_state(entangled_diagonal())
    assert opposed.label == OPPOSED
    assert opposed.diffs == pytest.approx((0.5, -0.5), abs=1e-12)
    aligned = classify_state(fair_superposition())
    assert aligned.label == ALIGNED
    assert aligned.diffs == (0.0, 0.0)
    single = classify_state(basis_state(1, 1))
    assert single.label == ALIGNED
    assert single.diffs == (1.0, 0.0)


def test_zero_diff_boundary_is_aligned():
    state = state_from_amplitudes([[0.6, 0.0], [0.6, np.sqrt(0.28)]])
    got = classify_state(state)
    assert got.label == ALIGNED
    assert got.diffs[1] == pytest.approx(0.0, abs=1e-12)


def test_opposite_tiny_differences_are_opposed():
    # diffs (1e-7, -1e-7): a product rule called this state aligned, yet
    # aligned_equilibrium rejected both it and its swap image
    probs = np.array([[0.25 + 5e-8, 0.25 - 5e-8], [0.25 - 5e-8, 0.25 + 5e-8]])
    state = state_from_amplitudes(np.sqrt(probs), normalize=True)
    got = classify_state(state)
    assert got.diffs == pytest.approx((1e-7, -1e-7), rel=1e-6)
    assert got.label == OPPOSED
    assert opposed(np.array([got.diffs[0]]), np.array([got.diffs[1]])).tolist() == [True]
    for image in (state, swap_proposer_coeffs(state)):
        with pytest.raises(WrongClassError, match="opposed"):
            aligned_equilibrium(image, *STANDARD)


DIFFS = [0.0, 5e-13, 1e-12, 3e-12, 1e-9, 1e-7, 0.05, 0.3]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    q=st.floats(0.01, 0.49),
    d1=st.sampled_from(DIFFS + [-d for d in DIFFS]),
    d2=st.sampled_from(DIFFS + [-d for d in DIFFS]),
)
def test_aligned_states_or_their_swaps_pass_aligned_equilibrium(q, d1, d2):
    # probabilities with p11 - p01 near d1 and p10 - p00 near d2, many of
    # them within a few SIGN_TOL of zero
    r = 0.5 - q
    probs = np.array([[q, r], [q + d2, r + d1]])
    assume((probs >= 0.0).all())
    state = state_from_amplitudes(np.sqrt(probs), normalize=True)
    swapped = swap_proposer_coeffs(state)
    label = classify_state(state).label
    assert classify_state(swapped).label == label
    accepted = []
    for image in (state, swapped):
        try:
            accepted.append(bool(aligned_equilibrium(image, *STANDARD)))
        except WrongClassError:
            pass
    assert any(accepted) if label == ALIGNED else not accepted


def test_aligned_equilibrium_fair_superposition():
    profiles = aligned_equilibrium(fair_superposition(), *STANDARD)
    assert len(profiles) == 1
    profile = profiles[0]
    assert np.allclose(profile.proposer_strategy, [1, 0])
    assert np.allclose(profile.responder_strategy, [1, 0])
    assert profile.payoffs == pytest.approx((74.5, 25.5), abs=1e-9)
    assert profile.certified and max(profile.regret) <= 1e-9


def test_aligned_equilibrium_pure_corner():
    profiles = aligned_equilibrium(basis_state(1, 1), *STANDARD)
    assert len(profiles) == 1
    assert profiles[0].payoffs == (99.0, 1.0)
    assert profiles[0].kind == "pure"


def test_aligned_equilibrium_rejects_opposed_states():
    with pytest.raises(WrongClassError):
        aligned_equilibrium(entangled_diagonal(), *STANDARD)


def test_aligned_equilibrium_requires_orientation():
    state = state_from_amplitudes([[0, 0.8], [0, 0.6]])
    with pytest.raises(WrongClassError):
        aligned_equilibrium(state, *STANDARD)
    profiles = aligned_equilibrium(swap_proposer_coeffs(state), *STANDARD)
    assert profiles and all(p.certified for p in profiles)


def test_aligned_equilibrium_reports_indifference_pair():
    state = state_from_amplitudes([[0.5, 0.5], [0.5, 0.5]])
    profiles = aligned_equilibrium(state, *STANDARD)
    assert len(profiles) == 2
    assert sorted(float(p.responder_strategy[0]) for p in profiles) == [0.0, 1.0]
    assert all(p.certified for p in profiles)
    assert all(p.degenerate for p in profiles)


def test_proposer_move_zero_dominates_on_oriented_aligned_states():
    rng = np.random.default_rng(15)
    grid = np.arange(33) / 32
    checked = 0
    while checked < 40:
        state = random_state(rng)
        classification = classify_state(state)
        if classification.label != ALIGNED:
            continue
        if sum(classification.diffs) < 0:
            state = swap_proposer_coeffs(state)
        for nu in grid:
            top = proposer_payoff(state, *STANDARD, 1.0, nu)
            for mu in grid:
                assert top >= proposer_payoff(state, *STANDARD, mu, nu) - 1e-12
        checked += 1


def test_stacked_induce_matches_the_cell_loop_bit_for_bit():
    rng = np.random.default_rng(21)
    for _ in range(300):
        dp, dr = (int(d) for d in rng.integers(2, 13, 2))
        moves = []
        for d in (dp, dr):
            perms = {tuple(int(v) for v in rng.permutation(d)) for _ in range(int(rng.integers(1, 9)))}
            moves.append(MoveSet(tuple(perms)))
        payoffs = PayoffTable(rng.uniform(-50.0, 100.0, (dp, dr)), rng.normal(size=(dp, dr)) * 1e3)
        states = [random_state(rng, (dp, dr)) for _ in range(int(rng.integers(1, 7)))]
        proposer, responder = induce_stack(
            np.stack([probability_table(s).probs for s in states]), payoffs, *moves
        )
        for k, state in enumerate(states):
            expected = loop_induce_game(state, payoffs, *moves)
            assert np.array_equal(proposer[k], expected.proposer)
            assert np.array_equal(responder[k], expected.responder)
            game = induce_game(state, payoffs, *moves)
            assert np.array_equal(game.proposer, expected.proposer)
            assert np.array_equal(game.responder, expected.responder)


def test_class_labels_follow_classify_state():
    # the sweep's label column reads opposed on the stacked differences
    rng = np.random.default_rng(8)
    states = [random_state(rng) for _ in range(200)] + [bell_like(np.pi / 4, (0, 1), (1, 1))]
    probs = np.stack([probability_table(s).probs for s in states])
    flags = opposed(probs[:, 1, 1] - probs[:, 0, 1], probs[:, 1, 0] - probs[:, 0, 0])
    assert [(OPPOSED if flag else ALIGNED) for flag in flags.tolist()] == [classify_state(s).label for s in states]
    assert 0 < flags.sum() < len(states)
