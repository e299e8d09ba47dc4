"""Exception hierarchy shared by the whole package, and the integer
check that every layer applies to its integer parameters.

The command line front end maps these onto exit codes: precondition
violations exit 2, numerical failures exit 3, and schema/IO problems
exit 4.
"""

from __future__ import annotations

from typing import Optional


class CalculusError(Exception):
    """Base class for every error raised by this package."""


class PreconditionError(CalculusError, ValueError):
    """An input violates a documented precondition of an operation."""


class AmbiguousModulusError(PreconditionError):
    """A point's modulus falls in the band where interior and circle
    classification cannot be told apart reliably.

    The band [1 - 1e-8, 1 - 1e-12) is reported rather than silently
    classified, because the regular/singular split is discontinuous
    there.
    """


class NumericalError(CalculusError, RuntimeError):
    """A numerical procedure failed to reach its contract (root counts,
    convergence, ambiguity guards)."""


class ContinuationError(NumericalError):
    """Homotopy continuation stalled: the step size underflowed.

    Attributes
    ----------
    last_good_t : float
        The largest parameter value at which Newton correction still
        converged.
    """

    def __init__(self, message: str, last_good_t: float):
        super().__init__(message)
        self.last_good_t = last_good_t


class SchemaError(CalculusError, ValueError):
    """Malformed JSON input, unknown config keys, or unreadable files."""


def _integer(value, name: str, least: int,
             message: Optional[str] = None) -> int:
    """``value`` as an ``int``, refusing with ``PreconditionError`` a
    value that is not an integer (a numpy integer counts, and so does a
    float when it is integral) or that is below ``least``.  ``message``,
    when given, replaces both refusals' messages."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise PreconditionError(
            message or f"{name} must be an integer, got {value!r}")
    if n < least:
        raise PreconditionError(message or f"{name} must be at least {least}")
    return n
