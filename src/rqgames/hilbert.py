"""Initial states on the tensor product of two finite move bases.

A bipartite state is stored as its complex amplitude matrix: ``amps[k, l]``
is the coefficient of the joint basis outcome ``|kl>`` (proposer index k,
responder index l).  Only the squared moduli drive the induced games, but
amplitudes stay complex so that phase invariance is a checkable property
rather than an assumption.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSuperpositionError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidProbabilityError,
    NotNormalizedError,
    ZeroStateError,
)

NORM_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _whole(value) -> bool:
    """Whether a value is an integer or a float equal to one; never a bool.

    A non-number, NaN or infinity fails here, before ``int(value)`` can raise.
    """
    if type(value) is int:  # most values, ahead of the slower abstract type tests
        return True
    if isinstance(value, bool):
        return False
    return isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and math.isfinite(value) and int(value) == value
    )


def _unit_sum(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sums over the last two axes, and where each misses 1 by more than NORM_TOL.

    The one normalization rule of ``QuantumState``, ``ProbabilityTable``
    and ``bell_like_probs``.  A NaN or infinite sum misses too.
    """
    total = np.add.reduce(weights, axis=(-2, -1))
    return total, ~(abs(total - 1.0) <= NORM_TOL)


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Normalized pure state over a dP x dR joint outcome basis; its norm check builds its ``ProbabilityTable``."""

    amps: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amps, dtype=complex)
        if amps.ndim != 2 or amps.shape[0] < 2 or amps.shape[1] < 2:
            raise DimensionMismatchError(f"amplitude matrix must be at least 2x2, got shape {amps.shape}")
        with np.errstate(over="ignore"):  # an overflow makes the sum infinite, which misses 1
            probs = np.abs(amps) ** 2
            try:
                table = ProbabilityTable(probs)
            except InvalidProbabilityError:  # squared moduli are never negative, so the sum missed
                total = float(_unit_sum(probs)[0])
                raise NotNormalizedError(f"squared amplitudes sum to {total}, expected 1 within {NORM_TOL}") from None
        object.__setattr__(self, "amps", _freeze(amps))
        object.__setattr__(self, "_table", table)

    @property
    def dims(self) -> tuple[int, int]:
        return self.amps.shape


@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Outcome probabilities: entries are nonnegative and sum to one."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 2:
            raise DimensionMismatchError("probability table must be a matrix")
        if np.fmin.reduce(probs, axis=None, initial=0.0) < 0.0:  # fmin passes over NaN, as a comparison does
            raise InvalidProbabilityError("negative probability entry")
        total, off = _unit_sum(probs)
        if off:
            raise InvalidProbabilityError(f"probabilities sum to {float(total)}, expected 1 within {NORM_TOL}")
        object.__setattr__(self, "probs", _freeze(probs))

    @property
    def dims(self) -> tuple[int, int]:
        return self.probs.shape


def state_from_amplitudes(raw, normalize: bool = False) -> QuantumState:
    """Build a state from a complex amplitude matrix.

    With ``normalize`` the matrix is scaled to unit Euclidean norm.  Without
    it the input must already be normalized within ``NORM_TOL``; library
    callers opt in explicitly so unnormalized data cannot slip through.
    """
    amps = np.array(raw, dtype=complex)
    if amps.ndim != 2 or amps.shape[0] < 2 or amps.shape[1] < 2:
        raise DimensionMismatchError(f"amplitude matrix must be at least 2x2, got shape {amps.shape}")
    if not np.count_nonzero(amps):
        raise ZeroStateError("amplitude matrix is identically zero")
    if normalize:
        flat = amps.ravel()  # np.linalg.norm's own arithmetic, without its dispatch
        with np.errstate(over="ignore"):
            norm = math.sqrt(flat.real.dot(flat.real) + flat.imag.dot(flat.imag))
        if not 2.0**-500 < norm < 2.0**500:  # the squares may have underflowed or overflowed
            # a power of two scales the real and imaginary parts exactly into (-1, 1)
            exponent = math.frexp(max(np.abs(amps.real).max(), np.abs(amps.imag).max()))[1]
            for part in (amps.real, amps.imag):
                np.ldexp(part, -exponent, out=part)
            norm = np.linalg.norm(amps)
        amps = amps / norm
    return QuantumState(amps)


def bell_like(
    theta: float,
    basis_a: tuple[int, int],
    basis_b: tuple[int, int],
    dims: tuple[int, int] = (2, 2),
) -> QuantumState:
    """Two-term superposition cos(theta)|basis_a> + sin(theta)|basis_b>; indices are whole numbers."""
    bad = [v for v in (*basis_a, *basis_b) if not _whole(v)]
    if bad:
        raise IndexOutOfRangeError(f"basis indices must be integers, got {bad[0]!r}")
    ka, la = (int(basis_a[0]), int(basis_a[1]))
    kb, lb = (int(basis_b[0]), int(basis_b[1]))
    dp, dr = dims
    for k, l in ((ka, la), (kb, lb)):
        if not (0 <= k < dp and 0 <= l < dr):
            raise IndexOutOfRangeError(
                f"basis outcome ({k}, {l}) outside dimensions {dp}x{dr}"
            )
    if (ka, la) == (kb, lb):
        raise DegenerateSuperpositionError(
            f"both terms address the same outcome ({ka}, {la})"
        )
    amps = np.zeros(dims, dtype=complex)
    amps[ka, la] = np.cos(theta)
    amps[kb, lb] = np.sin(theta)
    return QuantumState(amps)


def bell_like_probs(
    thetas: np.ndarray,
    basis_a: tuple[int, int],
    basis_b: tuple[int, int],
    dims: tuple[int, int] = (2, 2),
) -> tuple[np.ndarray, np.ndarray]:
    """``probability_table(bell_like(theta, ...)).probs`` for every theta at once.

    Returns the (B, dP, dR) probabilities and the (B,) mask of thetas whose
    state or table fails the ``QuantumState`` or ``ProbabilityTable`` check;
    ``probability_table(bell_like(...))`` on such a theta raises the error.
    Both checks are the ``_unit_sum`` rule on these same probabilities, and
    squared moduli are never negative.  The basis pairs must be valid for
    ``bell_like``.
    """
    amps = np.zeros((len(thetas),) + tuple(dims), dtype=complex)
    amps[:, basis_a[0], basis_a[1]] = np.cos(thetas)
    amps[:, basis_b[0], basis_b[1]] = np.sin(thetas)
    probs = np.abs(amps) ** 2
    return probs, _unit_sum(probs)[1]


def probability_table(state: QuantumState) -> ProbabilityTable:
    """Squared moduli of the amplitudes; phases drop out here.  The state built the table in its norm check."""
    return state._table

