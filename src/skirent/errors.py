"""Exception types shared across the package."""


class SkirentError(Exception):
    """Base class for all library errors."""


class InvalidParamsError(SkirentError):
    """Malformed or out-of-range input parameters."""


class EmptySupportError(InvalidParamsError):
    """A distribution has no day of positive mass (e.g. everything truncated away)."""


class DegenerateTailError(SkirentError):
    """An operation needed S(b) > 0 but the distribution has no mass at or beyond b."""


class InfeasibleError(SkirentError):
    """No stopping distribution satisfies the requested robustness level."""


class InvariantError(SkirentError):
    """A computation broke one of its own guarantees (numerical breakdown or a bug)."""


class ScaleExceededError(SkirentError):
    """An oracle routine or a baseline was asked for an instance beyond its intended size."""


class InvalidRError(SkirentError):
    """The robustness level R cannot be mapped to a valid branch parameter.

    ``raw_value`` carries the out-of-range parameter when one could be computed
    (``math.inf`` when the mapping diverges).
    """

    def __init__(self, message: str, raw_value: float):
        super().__init__(message)
        self.raw_value = raw_value
