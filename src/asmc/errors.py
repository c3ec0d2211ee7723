"""Exception hierarchy shared by all asmc modules.

Every public operation raises a subclass of :class:`AsmcError`; anything
else escaping the library is a bug.  Positions carried in messages are
1-based (row 1 on top, column 1 on the left).
"""


class AsmcError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(AsmcError):
    """Malformed text or JSON input (before any matrix law is checked)."""


class NotSquare(AsmcError):
    """The input grid is not a square matrix."""


class BadEntry(AsmcError):
    """An entry outside {-1, 0, 1} was found."""

    def __init__(self, row: int, col: int, value):
        self.row, self.col, self.value = row, col, value
        super().__init__(f"entry at ({row},{col}) is {value!r}, expected -1, 0 or 1")


class AlternationViolation(AsmcError):
    """A row or column breaks the alternating sign law."""

    def __init__(self, axis: str, index: int, reason: str):
        self.axis, self.index, self.reason = axis, index, reason
        super().__init__(f"{axis} {index}: {reason}")


class SumViolation(AsmcError):
    """A row or column does not sum to 1."""

    def __init__(self, axis: str, index: int, total: int):
        self.axis, self.index, self.total = axis, index, total
        super().__init__(f"{axis} {index} sums to {total}, expected 1")


class NotOneMinus(AsmcError):
    """Operation requires a matrix with exactly one -1."""

    def __init__(self, s: int):
        self.s = s
        super().__init__(f"matrix has {s} entries equal to -1, expected exactly 1")


class NegativeClass(AsmcError):
    """Operation is defined on non-negative matrices only; reflect first."""


class PreconditionFailed(AsmcError):
    """A displacement primitive was applied outside its domain."""


class InvalidTuple(AsmcError):
    """A discharge 4-tuple violates one of its membership conditions."""

    def __init__(self, condition: int, reason: str):
        self.condition = condition
        super().__init__(f"condition {condition}: {reason}")


class InvalidPair(AsmcError):
    """A (neutral matrix, charge) pair violates its invariants."""


class InvalidTable(AsmcError):
    """A generalized inversion table violates its characterization."""

    def __init__(self, condition: int, reason: str):
        self.condition = condition
        super().__init__(f"condition {condition}: {reason}")


class NotOneNStep(AsmcError):
    """Path-configuration operation requires exactly one rising step."""

    def __init__(self, count: int):
        self.count = count
        super().__init__(f"configuration has {count} N-steps, expected exactly 1")


class MalformedConfiguration(AsmcError):
    """A path configuration violates the grid or path structure.

    ``problems`` lists each problem found, in order: all that
    :func:`asmc.paths.validate_config` found, or the one a decoder names.
    """

    def __init__(self, *problems: str):
        self.problems = list(problems)
        super().__init__("; ".join(problems))


class BadArgument(AsmcError, ValueError):
    """An argument outside an operation's domain: an order below 1, an
    unknown statistic or property name, a malformed cap setting."""


class CapExceeded(AsmcError):
    """Requested enumeration order exceeds the configured cap."""

    def __init__(self, n: int, cap: int):
        self.n, self.cap = n, cap
        super().__init__(f"order {n} exceeds cap {cap} (raise the cap to allow this)")


class InternalInvariantViolation(AsmcError):
    """An internal consistency check failed; indicates a bug."""
