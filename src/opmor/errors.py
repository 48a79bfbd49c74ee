"""Exception types shared across the package."""


class ReductionError(Exception):
    """Base class for errors raised by this package."""


class PoleProximityError(ReductionError):
    """An evaluation point is too close to a system pole.

    Carries the offending point and the nearest pole (with its mode index
    when the model provides one).
    """

    def __init__(self, s, pole, mode=None):
        self.s = s
        self.pole = pole
        self.mode = mode
        where = f" (mode {mode})" if mode is not None else ""
        super().__init__(
            f"evaluation point {s} is within tolerance of pole {pole}{where}"
        )


class SingularSolveError(ReductionError):
    """The reduced pencil s*E - A is singular or numerically unusable at s."""


class ConditioningError(ReductionError):
    """Assembled reduced matrices are too ill-conditioned to trust."""

    def __init__(self, message, cond_estimate=None):
        self.cond_estimate = cond_estimate
        super().__init__(message)


class SemiSimplicityError(ReductionError):
    """The reduced pencil has (numerically) defective eigenvalues."""

    def __init__(self, message, poles=None):
        self.poles = poles
        super().__init__(message)


class StabilityError(ReductionError):
    """An operation that requires all poles in the open left half-plane got an
    unstable system."""


class DatasetError(ReductionError):
    """A tangential dataset violates its structural invariants."""


class ParseError(ReductionError):
    """A JSON artifact is malformed or does not match the expected schema."""
