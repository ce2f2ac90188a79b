"""Restricted quantum games.

A restricted quantum game starts from a (possibly entangled) initial state
over the players' joint move basis; the players act with classical
permutations of their own basis indices.  The package builds the induced
classical bimatrix game, provides the ultimatum payoff family, and finds
and certifies Nash equilibria, with a document-driven CLI on top.
"""

from .errors import (
    DegenerateSuperpositionError,
    DimensionMismatchError,
    GameError,
    IndexOutOfRangeError,
    InvalidMoveSetError,
    InvalidOffersError,
    InvalidPayoffsError,
    InvalidProbabilityError,
    NotNormalizedError,
    ParseError,
    TooLargeError,
    ValidationError,
    WrongClassError,
    ZeroStateError,
)
from .games import (
    Bimatrix,
    MismatchedTotalsWarning,
    PayoffTable,
    UltimatumParams,
    ultimatum_2x2,
    ultimatum_general,
)
from .hilbert import (
    ProbabilityTable,
    QuantumState,
    bell_like,
    probability_table,
    schmidt_rank,
    state_from_amplitudes,
)
from .induce import (
    ALIGNED,
    OPPOSED,
    InducedGame,
    MoveSet,
    StateClass,
    aligned_equilibrium,
    classify_state,
    default_move_set,
    induce_game,
    proposer_payoff,
    responder_payoff,
    swap_proposer_coeffs,
    swap_responder_coeffs,
)
from .nash import (
    EPS_DEFAULT,
    EquilibriumProfile,
    best_response_value,
    grid_oracle,
    mixed_strategy,
    pure_equilibria,
    solve_pivoting,
    support_enumeration,
    verify_equilibrium,
)

__version__ = "0.1.0"

__all__ = [
    "ALIGNED",
    "OPPOSED",
    "EPS_DEFAULT",
    "Bimatrix",
    "DegenerateSuperpositionError",
    "DimensionMismatchError",
    "EquilibriumProfile",
    "GameError",
    "IndexOutOfRangeError",
    "InducedGame",
    "InvalidMoveSetError",
    "InvalidOffersError",
    "InvalidPayoffsError",
    "InvalidProbabilityError",
    "MismatchedTotalsWarning",
    "MoveSet",
    "NotNormalizedError",
    "ParseError",
    "PayoffTable",
    "ProbabilityTable",
    "QuantumState",
    "StateClass",
    "TooLargeError",
    "UltimatumParams",
    "ValidationError",
    "WrongClassError",
    "ZeroStateError",
    "aligned_equilibrium",
    "bell_like",
    "best_response_value",
    "classify_state",
    "default_move_set",
    "grid_oracle",
    "induce_game",
    "mixed_strategy",
    "probability_table",
    "proposer_payoff",
    "pure_equilibria",
    "responder_payoff",
    "schmidt_rank",
    "solve_pivoting",
    "state_from_amplitudes",
    "support_enumeration",
    "swap_proposer_coeffs",
    "swap_responder_coeffs",
    "ultimatum_2x2",
    "ultimatum_general",
    "verify_equilibrium",
]
