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
    state_from_amplitudes,
)
from .induce import (
    ALIGNED,
    OPPOSED,
    InducedGame,
    MoveSet,
    StateClass,
    classify_state,
    default_move_set,
    induce_game,
)
from .nash import (
    EPS_DEFAULT,
    EquilibriumProfile,
    grid_oracle,
    mixed_strategy,
    pure_equilibria,
    support_enumeration,
    verify_equilibrium,
)

__version__ = "0.2.0"

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
    "ZeroStateError",
    "bell_like",
    "classify_state",
    "default_move_set",
    "grid_oracle",
    "induce_game",
    "mixed_strategy",
    "probability_table",
    "pure_equilibria",
    "state_from_amplitudes",
    "support_enumeration",
    "ultimatum_2x2",
    "ultimatum_general",
    "verify_equilibrium",
]
