"""End-to-end acceptance checks, one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report lines.
"""

import time
from contextlib import contextmanager

import numpy as np

from rqgames import (
    ALIGNED,
    bell_like,
    classify_state,
    default_move_set,
    grid_oracle,
    induce_game,
    probability_table,
    pure_equilibria,
    state_from_amplitudes,
    support_enumeration,
    ultimatum_2x2,
    verify_equilibrium,
)

from helpers import (
    aligned_equilibrium,
    balanced_triple,
    proposer_payoff,
    random_bimatrix,
    random_state,
    responder_payoff,
    swap_proposer_coeffs,
    swap_responder_coeffs,
)

STANDARD = (99.0, 50.0, 1.0)
MOVES2 = default_move_set(2)
TABLE = ultimatum_2x2(*STANDARD)


@contextmanager
def criterion(number, name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS [{time.perf_counter() - started:.2f}s]")


def standard_game(state):
    return induce_game(state, TABLE, MOVES2, MOVES2)


def test_criterion_1_fair_superposition_equilibrium():
    with criterion(1, "fair-superposition equilibrium pays 74.5 / 25.5"):
        started = time.perf_counter()
        state = state_from_amplitudes([[0, 1], [0, 1]], normalize=True)
        profiles = aligned_equilibrium(state, *STANDARD)
        assert len(profiles) == 1
        profile = profiles[0]
        assert np.allclose(profile.proposer_strategy, [1, 0], atol=1e-9)
        assert np.allclose(profile.responder_strategy, [1, 0], atol=1e-9)
        assert abs(profile.payoffs[0] - 74.5) <= 1e-9
        assert abs(profile.payoffs[1] - 25.5) <= 1e-9
        assert profile.certified
        assert time.perf_counter() - started < 1.0


def test_criterion_2_entangled_mixed_equilibrium():
    with criterion(2, "entangled-diagonal game has the unique mixed point 37.25 / 12.75"):
        started = time.perf_counter()
        game = standard_game(bell_like(np.pi / 4, (1, 1), (0, 0)))
        profiles = support_enumeration(game)
        assert len(profiles) == 1
        profile = profiles[0]
        assert abs(profile.proposer_strategy[0] - 0.5) <= 1e-9
        assert abs(profile.responder_strategy[0] - 0.5) <= 1e-9
        assert abs(profile.payoffs[0] - 37.25) <= 1e-9
        assert abs(profile.payoffs[1] - 12.75) <= 1e-9
        assert time.perf_counter() - started < 1.0


def test_criterion_3_classical_reduction():
    with criterion(3, "basis states reduce to the classical game"):
        state = state_from_amplitudes([[1, 0], [0, 0]])
        game = standard_game(state)
        pure = pure_equilibria(game)
        assert len(pure) == 1
        assert pure[0].payoffs == (99.0, 1.0)
        enumerated = support_enumeration(game)
        assert len(enumerated) == 1
        assert enumerated[0].payoffs == (99.0, 1.0)
        for k0 in (0, 1):
            for l0 in (0, 1):
                amps = np.zeros((2, 2), dtype=complex)
                amps[k0, l0] = 1.0
                basis_game = standard_game(state_from_amplitudes(amps))
                rows = [MOVES2.perms[i][k0] for i in range(2)]
                cols = [MOVES2.perms[j][l0] for j in range(2)]
                assert np.array_equal(basis_game.proposer, TABLE.proposer[np.ix_(rows, cols)])
                assert np.array_equal(basis_game.responder, TABLE.responder[np.ix_(rows, cols)])


def test_criterion_4_closed_forms_equal_bilinear_contraction():
    with criterion(4, "closed forms match the induced-game contraction to 1e-12"):
        started = time.perf_counter()
        rng = np.random.default_rng(101)
        for trial in range(1000):
            state = random_state(rng)
            a, b, c = STANDARD if trial % 2 else balanced_triple(rng)
            game = induce_game(state, ultimatum_2x2(a, b, c), MOVES2, MOVES2)
            mu, nu = rng.uniform(size=2)
            x = np.array([mu, 1 - mu])
            y = np.array([nu, 1 - nu])
            assert abs(proposer_payoff(state, a, b, c, mu, nu) - x @ game.proposer @ y) <= 1e-12
            assert abs(responder_payoff(state, a, b, c, mu, nu) - x @ game.responder @ y) <= 1e-12
        assert time.perf_counter() - started < 5.0


def _profiles_match(left, right, row_order=None, col_order=None):
    if len(left) != len(right):
        return False
    for p in left:
        x = p.proposer_strategy if row_order is None else p.proposer_strategy[row_order]
        y = p.responder_strategy if col_order is None else p.responder_strategy[col_order]
        hit = any(
            np.allclose(q.proposer_strategy, x, atol=1e-9)
            and np.allclose(q.responder_strategy, y, atol=1e-9)
            and abs(q.payoffs[0] - p.payoffs[0]) <= 1e-9
            and abs(q.payoffs[1] - p.payoffs[1]) <= 1e-9
            and abs(q.regret[0] - p.regret[0]) <= 1e-9
            and abs(q.regret[1] - p.regret[1]) <= 1e-9
            for q in right
        )
        if not hit:
            return False
    return True


def test_criterion_5_swap_symmetries():
    with criterion(5, "coefficient swaps permute games and equilibria exactly"):
        rng = np.random.default_rng(102)
        flip = [1, 0]
        for _ in range(200):
            state = random_state(rng)
            game = standard_game(state)
            row_swapped = standard_game(swap_proposer_coeffs(state))
            assert np.array_equal(row_swapped.proposer, game.proposer[::-1, :])
            assert np.array_equal(row_swapped.responder, game.responder[::-1, :])
            col_swapped = standard_game(swap_responder_coeffs(state))
            assert np.array_equal(col_swapped.proposer, game.proposer[:, ::-1])
            assert np.array_equal(col_swapped.responder, game.responder[:, ::-1])
            base = support_enumeration(game)
            assert _profiles_match(base, support_enumeration(row_swapped), row_order=flip)
            assert _profiles_match(base, support_enumeration(col_swapped), col_order=flip)


def _oriented_aligned_state(rng):
    while True:
        state = random_state(rng)
        classification = classify_state(state)
        if classification.label != ALIGNED:
            continue
        if sum(classification.diffs) < 0:
            state = swap_proposer_coeffs(state)
            classification = classify_state(state)
        if classification.diffs[0] >= -1e-12 and classification.diffs[1] >= -1e-12:
            return state


def test_criterion_6_dominant_move_and_sign_rule():
    with criterion(6, "move 0 dominates on oriented aligned states; sign rule matches the oracle"):
        rng = np.random.default_rng(103)
        grid = np.arange(65) / 64
        a, b, c = STANDARD
        for _ in range(200):
            state = _oriented_aligned_state(rng)
            for nu in grid:
                top = proposer_payoff(state, a, b, c, 1.0, nu)
                for mu in grid:
                    assert top >= proposer_payoff(state, a, b, c, mu, nu) - 1e-12
            profiles = aligned_equilibrium(state, a, b, c)
            game = standard_game(state)
            for profile in profiles:
                check = verify_equilibrium(
                    game, (profile.proposer_strategy, profile.responder_strategy)
                )
                assert check.certified and max(check.regret) <= 1e-9
            points = grid_oracle(game, 64)
            chosen = {float(p.responder_strategy[0]) for p in profiles}
            for nu_star in chosen:
                assert (1.0, nu_star) in points
            probs = probability_table(state).probs
            gap = c * (probs[1, 1] - probs[1, 0]) + b * (probs[0, 1] - probs[0, 0])
            if gap > 1e-6:
                assert (1.0, 0.0) not in points
            elif gap < -1e-6:
                assert (1.0, 1.0) not in points


def test_criterion_7_solver_soundness_existence_and_oracle_agreement():
    with criterion(7, "solver sound and complete on random games; oracle agrees on 2x2"):
        started = time.perf_counter()
        rng = np.random.default_rng(104)
        two_by_two = []
        for _ in range(500):
            a, b = random_bimatrix(rng)
            profiles = support_enumeration((a, b))
            assert profiles
            for p in profiles:
                check = verify_equilibrium((a, b), (p.proposer_strategy, p.responder_strategy))
                assert check.certified and max(check.regret) <= 1e-9
            if a.shape == (2, 2):
                two_by_two.append(((a, b), profiles))
        assert len(two_by_two) >= 30
        spacing = 1 / 64
        for (a, b), profiles in two_by_two:
            points = grid_oracle((a, b), 64)
            for p in profiles:
                mu = float(p.proposer_strategy[0])
                nu = float(p.responder_strategy[0])
                on_grid = (
                    abs(mu * 64 - round(mu * 64)) <= 1e-9
                    and abs(nu * 64 - round(nu * 64)) <= 1e-9
                )
                if on_grid:
                    assert any(abs(mu - gm) <= 1e-9 and abs(nu - gn) <= 1e-9 for gm, gn in points)
            for gm, gn in points:
                assert any(
                    abs(gm - float(p.proposer_strategy[0])) <= spacing + 1e-9
                    and abs(gn - float(p.responder_strategy[0])) <= spacing + 1e-9
                    for p in profiles
                )
        assert time.perf_counter() - started < 30.0


def test_criterion_8_phase_invariance_of_induced_games():
    with criterion(8, "amplitude phases never change the induced game"):
        rng = np.random.default_rng(105)
        for _ in range(200):
            state = random_state(rng)
            phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (2, 2)))
            phased = state_from_amplitudes(state.amps * phases)
            plain = standard_game(state)
            rotated = standard_game(phased)
            assert float(np.max(np.abs(plain.proposer - rotated.proposer))) <= 1e-12
            assert float(np.max(np.abs(plain.responder - rotated.responder))) <= 1e-12
