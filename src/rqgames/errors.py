"""Exception types shared across the package."""


class GameError(ValueError):
    """Base class for domain validation and solver failures."""


class ZeroStateError(GameError):
    """Amplitude matrix is identically zero."""


class NotNormalizedError(GameError):
    """Squared amplitudes do not sum to one within tolerance."""


class DegenerateSuperpositionError(GameError):
    """Two-term superposition constructor given the same basis outcome twice."""


class IndexOutOfRangeError(GameError, IndexError):
    """Basis index outside the declared dimensions, or not a whole number."""


class DimensionMismatchError(GameError):
    """Shapes of states, payoff tables and move sets do not agree."""


class InvalidPayoffsError(GameError):
    """Ultimatum payoff parameters violate a > b > c > 0."""


class InvalidOffersError(GameError):
    """Offer list is empty, not strictly increasing, or outside (0, total)."""


class InvalidMoveSetError(GameError):
    """Move list is empty, contains duplicates, or a non-bijective map."""


class InvalidProbabilityError(GameError):
    """Probability or mixed-strategy vector outside the simplex."""


class WrongClassError(GameError):
    """State does not belong to the sign class the operation requires."""


class TooLargeError(GameError):
    """Game exceeds the size limit of the combinatorial solver."""


class ParseError(GameError):
    """Document text is not syntactically valid."""

    def __init__(self, message: str, location: tuple[int, int] | None = None):
        self.location = location
        if location is not None:
            message = f"line {location[0]}, column {location[1]}: {message}"
        super().__init__(message)


class ValidationError(GameError):
    """Document is well formed but violates a field-level constraint."""

    def __init__(self, field: str, reason: str):
        self.field = field
        self.reason = reason
        super().__init__(f"{field}: {reason}")
