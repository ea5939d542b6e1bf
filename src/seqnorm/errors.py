"""Semantic exception hierarchy shared across the package."""


class SeqnormError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SeqnormError, ValueError):
    """An argument is outside its mathematical domain."""


class DegenerateSampleError(SeqnormError):
    """Sample variance is zero; the t-statistic is undefined."""


class InconsistentBoundaryError(SeqnormError):
    """A computed probability fell outside [0, 1] by more than its slack."""


class CalibrationError(SeqnormError):
    """No feasible risk tuning parameter found before hitting the floor."""

    def __init__(self, message, zeta=None, bound_alpha=None, bound_beta=None):
        super().__init__(message)
        self.zeta = zeta
        self.bound_alpha = bound_alpha
        self.bound_beta = bound_beta


class PlanCertificationError(SeqnormError):
    """An uncertified plan was used where certification is required."""


class StateError(SeqnormError):
    """A session operation is invalid in the session's current state."""


class SessionFormatError(SeqnormError):
    """A serialized plan or session does not match the expected schema."""


class IntegrityError(SeqnormError):
    """A loaded session fails the statistic/decision recompute check."""
