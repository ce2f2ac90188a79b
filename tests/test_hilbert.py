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
    state_from_amplitudes,
)
from rqgames import hilbert
from rqgames.hilbert import bell_like_probs

from helpers import random_product_state, random_state, schmidt_rank, swap_proposer_coeffs, swap_responder_coeffs


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
    # indices are whole numbers: 1.0 reads as 1, and 1.5 or True, once read as 1, is rejected
    assert np.array_equal(bell_like(0.0, (1.0, 1), (0, 0)).amps, bell_like(0.0, (1, 1), (0, 0)).amps)
    for index in (1.5, True):
        with pytest.raises(IndexOutOfRangeError, match=f"basis indices must be integers, got {index!r}"):
            bell_like(np.pi / 4, (index, 1), (0, 0))


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


def test_normalizing_states_at_extreme_scales():
    # Where the squared norm would underflow or overflow, the parts are first
    # scaled by a power of two, which is exact; in range the state is the
    # plain quotient bit for bit.
    rng = np.random.default_rng(60)
    for _ in range(2000):
        shape = tuple(rng.integers(2, 5, 2))
        raw = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * 10.0 ** rng.integers(-150, 150)
        assert state_from_amplitudes(raw, normalize=True).amps.tobytes() == (raw / np.linalg.norm(raw)).tobytes()
    tiny = state_from_amplitudes([[3e-170, 0], [0, 4e-170]], normalize=True).amps
    assert np.allclose(tiny, [[0.6, 0], [0, 0.8]], rtol=0, atol=1e-15)
    huge = state_from_amplitudes([[1.7e308, 1.7e308], [1.7e308, -1.7e308j]], normalize=True).amps
    assert huge.tolist() == [[0.5, 0.5], [0.5, -0.5j]]


def test_an_overflowing_unnormalized_state_is_rejected_without_a_warning():
    with pytest.raises(NotNormalizedError, match="sum to inf"):
        state_from_amplitudes([[1e300, 0], [0, 0]])


COMPLEX = np.array([[0.3 + 0.4j, -0.1], [0.2j, 0.5 - 0.6j]])
KEPT_TABLES = {
    "bell_like": lambda: bell_like(np.pi / 4, (1, 1), (0, 0)),
    "bell_like-3x2": lambda: bell_like(0.3, (2, 1), (0, 0), dims=(3, 2)),
    "amplitudes": lambda: state_from_amplitudes([[0, 1], [0, 0]]),
    "amplitudes-normalized-given": lambda: state_from_amplitudes(COMPLEX / np.linalg.norm(COMPLEX)),
    "amplitudes-normalize": lambda: state_from_amplitudes(COMPLEX, normalize=True),
    "amplitudes-normalize-3e-170": lambda: state_from_amplitudes([[3e-170, 0], [0, 4e-170]], normalize=True),
    "amplitudes-normalize-1e300": lambda: state_from_amplitudes([[1e300, 0], [0, 1e300]], normalize=True),
    "swap_proposer_coeffs": lambda: swap_proposer_coeffs(state_from_amplitudes(COMPLEX, normalize=True)),
    "swap_responder_coeffs": lambda: swap_responder_coeffs(state_from_amplitudes(COMPLEX, normalize=True)),
}


@pytest.mark.parametrize("make", KEPT_TABLES.values(), ids=KEPT_TABLES.keys())
def test_a_state_keeps_the_probability_table_its_norm_check_built(make):
    state = make()
    table = probability_table(state)
    assert probability_table(state) is table
    assert table.probs.tobytes() == (np.abs(state.amps) ** 2).tobytes()
    assert not table.probs.flags.writeable
    with pytest.raises(ValueError):
        table.probs[0, 0] = 0.5


def test_an_unnormalized_state_still_raises_its_own_error():
    with pytest.raises(NotNormalizedError) as caught:
        state_from_amplitudes([[0, 1], [0, 1]])
    assert str(caught.value) == "squared amplitudes sum to 2.0, expected 1 within 1e-09"
    with pytest.raises(NotNormalizedError) as caught:
        QuantumState(np.array([[0.5, 0], [0, 0.5]]))
    assert str(caught.value) == "squared amplitudes sum to 0.5, expected 1 within 1e-09"
