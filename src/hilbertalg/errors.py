"""Exception hierarchy shared by all modules."""


class HilbertError(Exception):
    """Base class for all toolkit errors."""


class RangeError(HilbertError):
    """A table entry, an element or a mask is outside the universe [0, n)."""


class InvalidAlgebraError(HilbertError):
    """A table failed axiom validation.

    Carries the ValidationReport as `report`.
    """

    def __init__(self, report):
        super().__init__("table is not a Hilbert algebra")
        self.report = report


class UnboundVariableError(HilbertError):
    """A term references a variable index beyond the assignment."""


class SizeLimitError(HilbertError):
    """An operation exceeded the configured universe-size cap."""


class NotAFilterError(HilbertError):
    """A subset passed where an implicative filter is required."""


class PreconditionError(HilbertError):
    """A documented precondition of an operation was violated."""


class InternalInvariantError(HilbertError):
    """A proof-backed claim failed at runtime; signals a bug, not bad input."""


class AlgebraFileError(HilbertError):
    """An algebra file failed to parse; the message says where and why."""
