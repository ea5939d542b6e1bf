"""Semantic exception hierarchy, and the two argument checks every public
entry point converts its scalars through: it raises ``DomainError`` for a
value of the wrong type, as for one out of range.  A real is what
``float()`` reads without overflow, less bools and text; a count is what
``operator.index`` takes, less bool.  Each entry point then checks the
converted value's range with its own message.
"""

import math
import operator


class SeqnormError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SeqnormError, ValueError):
    """An argument is outside its mathematical domain."""


def real(name: str, value, finite: bool = True) -> float:
    """value as a float; DomainError for a bool, text, or what float() cannot
    read or overflows on, and with finite, for NaN and +-inf."""
    if type(value) is not float:  # a float, the common case, is taken as it is
        try:
            if isinstance(value, (bool, str, bytes, bytearray)):  # float() reads them
                raise TypeError
            value = float(value)
        except (TypeError, ValueError, OverflowError):
            raise DomainError(f"{name} must be a finite real, got {value!r}") from None
    if finite and not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value}")
    return value


def count(name: str, value) -> int:
    """operator.index(value); DomainError for a bool or what it refuses."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


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
