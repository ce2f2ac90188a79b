"""Ultimatum payoff builders and their invariants."""

import sys
import warnings

import numpy as np
import pytest

from rqgames import (
    DimensionMismatchError,
    InvalidOffersError,
    InvalidPayoffsError,
    MismatchedTotalsWarning,
    PayoffTable,
    UltimatumParams,
    ultimatum_2x2,
    ultimatum_general,
)


def test_two_offer_table():
    table = ultimatum_2x2(99, 50, 1)
    assert np.array_equal(table.proposer, [[99, 0], [50, 0]])
    assert np.array_equal(table.responder, [[1, 0], [50, 0]])
    assert table.dims == (2, 2)


def test_balanced_parameters_are_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = ultimatum_2x2(3, 2, 1)
    assert np.array_equal(table.proposer, [[3, 0], [2, 0]])
    assert np.array_equal(table.responder, [[1, 0], [2, 0]])


def test_unbalanced_parameters_warn_but_build():
    with pytest.warns(MismatchedTotalsWarning):
        table = ultimatum_2x2(99, 49, 1)
    assert np.array_equal(table.proposer, [[99, 0], [49, 0]])


def test_ordering_enforced():
    for triple in ((1, 2, 3), (99, 50, 0), (50, 50, 1), (99, 1, 50)):
        with pytest.raises(InvalidPayoffsError):
            ultimatum_2x2(*triple)


def test_general_builder_reproduces_two_offer_table():
    table = ultimatum_general(UltimatumParams(100, (1, 50)))
    direct = ultimatum_2x2(99, 50, 1)
    assert np.array_equal(table.proposer, direct.proposer)
    assert np.array_equal(table.responder, direct.responder)


def test_three_offer_table():
    table = ultimatum_general(UltimatumParams(100, (1, 25, 50)))
    assert np.array_equal(table.proposer, [[99, 0], [75, 0], [50, 0]])
    assert np.array_equal(table.responder, [[1, 0], [25, 0], [50, 0]])


def test_offer_validation():
    with pytest.raises(InvalidOffersError):
        UltimatumParams(10, (10,))
    with pytest.raises(InvalidOffersError):
        UltimatumParams(10, ())
    with pytest.raises(InvalidOffersError):
        UltimatumParams(10, (3, 3))
    with pytest.raises(InvalidOffersError):
        UltimatumParams(10, (5, 2))
    with pytest.raises(InvalidOffersError):
        UltimatumParams(10, (0, 5))
    with pytest.raises(InvalidOffersError):
        UltimatumParams(-4, (1,))
    with pytest.raises(InvalidOffersError):
        UltimatumParams(10, (2.5,))
    for bad in (float("inf"), "a", None):  # checked before int() could raise
        with pytest.raises(InvalidOffersError, match="offers must be integers"):
            UltimatumParams(10, (bad,))
    # the total follows the offers' whole-number rule
    for bad in (10.5, float("inf"), float("nan"), True, "10"):
        with pytest.raises(InvalidOffersError, match="total must be a positive integer"):
            UltimatumParams(bad, (2,))
    # whole numbers beyond float range, which the table could not hold
    with pytest.raises(InvalidOffersError, match="total has 401 digits, beyond float range"):
        UltimatumParams(10**400, (1,))
    for bad in (10**400, -(10**400)):
        with pytest.raises(InvalidOffersError, match="an offer has 401 digits, beyond float range"):
            UltimatumParams(10, (bad,))
    big = int(sys.float_info.max)
    assert ultimatum_general(UltimatumParams(big, (big - 10**300,))).proposer[0, 0] == 1e300
    for total, offer in ((10.0, 2), (10, 2.0), (np.int64(10), np.float64(2.0))):
        params = UltimatumParams(total, (offer,))
        assert (params.total, params.offers) == (10, (2,))
        assert type(params.total) is int and type(params.offers[0]) is int


def test_acceptance_conserves_total_and_rejection_pays_zero():
    rng = np.random.default_rng(5)
    for _ in range(50):
        total = int(rng.integers(3, 500))
        n = int(rng.integers(1, min(total - 1, 6) + 1))
        offers = tuple(sorted(rng.choice(np.arange(1, total), size=n, replace=False).tolist()))
        table = ultimatum_general(UltimatumParams(total, offers))
        assert np.array_equal(table.proposer[:, 0] + table.responder[:, 0], np.full(n, float(total)))
        assert np.array_equal(table.proposer[:, 1], np.zeros(n))
        assert np.array_equal(table.responder[:, 1], np.zeros(n))


def test_payoff_table_validation():
    with pytest.raises(DimensionMismatchError):
        PayoffTable(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(InvalidPayoffsError):
        PayoffTable(np.array([[np.inf, 0], [0, 0]]), np.zeros((2, 2)))
