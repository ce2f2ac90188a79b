"""State construction, outcome probabilities and the entanglement test."""

import numpy as np
import pytest

from rqgames import (
    DegenerateSuperpositionError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidProbabilityError,
    NotNormalizedError,
    ProbabilityTable,
    QuantumState,
    ZeroStateError,
    bell_like,
    probability_table,
    schmidt_rank,
    state_from_amplitudes,
)
from rqgames import hilbert
from rqgames.hilbert import bell_like_probs

from helpers import random_product_state, random_state


def test_basis_state_passes_through():
    state = state_from_amplitudes([[0, 0], [0, 1]])
    assert np.array_equal(state.amps, np.array([[0, 0], [0, 1]], dtype=complex))
    assert state.dims == (2, 2)


def test_normalize_scales_to_unit_norm():
    state = state_from_amplitudes([[0, 1], [0, 1]], normalize=True)
    r = 1 / np.sqrt(2)
    assert np.allclose(state.amps, [[0, r], [0, r]], atol=1e-15)


def test_zero_matrix_rejected():
    with pytest.raises(ZeroStateError):
        state_from_amplitudes([[0, 0], [0, 0]])
    with pytest.raises(ZeroStateError):
        state_from_amplitudes([[0, 0], [0, 0]], normalize=True)


def test_unnormalized_input_rejected_without_flag():
    with pytest.raises(NotNormalizedError):
        state_from_amplitudes([[0, 1], [0, 1]])


def test_small_dimensions_rejected():
    with pytest.raises(DimensionMismatchError):
        state_from_amplitudes([[1.0]])
    with pytest.raises(DimensionMismatchError):
        state_from_amplitudes([[1.0, 0.0]])


def test_bell_like_quarter_angle():
    state = bell_like(np.pi / 4, (1, 1), (0, 0))
    r = 1 / np.sqrt(2)
    assert np.allclose(state.amps, [[r, 0], [0, r]], atol=1e-15)


def test_bell_like_zero_angle_keeps_first_term_only():
    state = bell_like(0.0, (1, 1), (0, 1))
    assert np.allclose(state.amps, [[0, 0], [0, 1]], atol=1e-15)


def test_bell_like_supports_larger_bases():
    state = bell_like(0.3, (2, 1), (0, 0), dims=(3, 2))
    assert state.dims == (3, 2)
    assert state.amps[2, 1] == np.cos(0.3)
    assert state.amps[0, 0] == np.sin(0.3)


def test_bell_like_rejects_equal_basis_pairs():
    with pytest.raises(DegenerateSuperpositionError):
        bell_like(np.pi / 4, (1, 1), (1, 1))


def test_bell_like_rejects_out_of_range_indices():
    with pytest.raises(IndexOutOfRangeError):
        bell_like(np.pi / 4, (2, 0), (0, 0))
    with pytest.raises(IndexOutOfRangeError):
        bell_like(np.pi / 4, (1, 1), (0, -1))


def test_probability_table_examples():
    probs = probability_table(bell_like(np.pi / 4, (1, 1), (0, 0))).probs
    assert np.allclose(probs, [[0.5, 0], [0, 0.5]], atol=1e-15)
    probs = probability_table(state_from_amplitudes([[0, 1], [0, 0]])).probs
    assert np.array_equal(probs, [[0, 1], [0, 0]])


def test_probabilities_discard_phases():
    alpha, beta = 0.37, -1.2
    amps = np.array([[0, np.exp(1j * alpha)], [0, np.exp(1j * beta)]]) / np.sqrt(2)
    probs = probability_table(state_from_amplitudes(amps)).probs
    assert np.allclose(probs, [[0, 0.5], [0, 0.5]], atol=1e-12)


def test_schmidt_rank_examples():
    assert schmidt_rank(state_from_amplitudes([[1, 0], [0, 0]])) == 1
    assert schmidt_rank(bell_like(np.pi / 4, (1, 1), (0, 0))) == 2
    r = 1 / np.sqrt(2)
    assert schmidt_rank(state_from_amplitudes([[0, r], [0, r]])) == 1


def test_constructed_states_are_normalized():
    rng = np.random.default_rng(11)
    for _ in range(200):
        state = random_state(rng)
        assert abs(float(np.sum(np.abs(state.amps) ** 2)) - 1.0) <= 1e-9
    for theta in rng.uniform(-np.pi, np.pi, 50):
        state = bell_like(theta, (1, 1), (0, 0))
        assert abs(float(np.sum(np.abs(state.amps) ** 2)) - 1.0) <= 1e-9


def test_phase_rotation_leaves_probabilities_unchanged():
    rng = np.random.default_rng(7)
    for _ in range(100):
        state = random_state(rng)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, state.dims))
        phased = state_from_amplitudes(state.amps * phases)
        gap = np.abs(probability_table(phased).probs - probability_table(state).probs)
        assert float(gap.max()) <= 1e-12


def test_rank_one_matches_probability_factorization():
    # random amplitudes stay clear of the measure-zero set where the
    # probabilities factorize without the amplitude matrix being rank one
    rng = np.random.default_rng(23)
    for i in range(100):
        dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        state = random_product_state(rng, dims) if i % 2 else random_state(rng, dims)
        probs = probability_table(state).probs
        marginal_p = probs.sum(axis=1)
        marginal_q = probs.sum(axis=0)
        residual = float(np.max(np.abs(probs - np.outer(marginal_p, marginal_q))))
        if schmidt_rank(state) == 1:
            assert residual <= 1e-9
        else:
            assert residual > 1e-9


def test_states_and_tables_are_immutable():
    state = bell_like(np.pi / 4, (1, 1), (0, 0))
    with pytest.raises(ValueError):
        state.amps[0, 0] = 1.0
    table = probability_table(state)
    with pytest.raises(ValueError):
        table.probs[0, 0] = 1.0


def test_stacked_bell_probabilities_match_single_states_bit_for_bit():
    rng = np.random.default_rng(31)
    thetas = np.concatenate([rng.uniform(-10.0, 10.0, 500), np.linspace(0.0, 2.0 * np.pi, 201)])
    for basis_a, basis_b, dims in (((1, 1), (0, 0), (2, 2)), ((0, 1), (1, 0), (2, 2)), ((2, 0), (0, 1), (3, 2))):
        probs, failed = bell_like_probs(thetas, basis_a, basis_b, dims)
        assert not failed.any()
        for theta, table in zip(thetas.tolist(), probs):
            assert np.array_equal(table, probability_table(bell_like(theta, basis_a, basis_b, dims)).probs)


def test_stacked_bell_probabilities_flag_the_rows_a_state_rejects(monkeypatch):
    monkeypatch.setattr(hilbert, "NORM_TOL", 0.0)
    thetas = np.linspace(0.0, 1.0, 101)
    _, failed = bell_like_probs(thetas, (1, 1), (0, 0))
    for theta, flag in zip(thetas.tolist(), failed):
        if flag:
            with pytest.raises(NotNormalizedError):
                bell_like(theta, (1, 1), (0, 0))
        else:
            bell_like(theta, (1, 1), (0, 0))
    assert 0 < failed.sum() < len(thetas)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_non_finite_states_and_tables_rejected():
    # a NaN or infinite total never lies within NORM_TOL of one
    for theta in (np.inf, -np.inf, np.nan):
        with pytest.raises(NotNormalizedError):
            bell_like(theta, (1, 1), (0, 0))
    with pytest.raises(NotNormalizedError):
        QuantumState([[np.inf, 0.0], [0.0, 0.0]])
    with pytest.raises(InvalidProbabilityError):
        ProbabilityTable([[np.nan, 0.0], [0.0, 1.0]])
    _, failed = bell_like_probs(np.array([0.5, np.inf, np.nan]), (1, 1), (0, 0))
    assert failed.tolist() == [False, True, True]
