"""Exception types shared across the toolkit.

The CLI maps these onto its exit-code contract: usage errors exit 2,
capacity errors exit 3, overflow errors exit 4, invariant violations
exit 5.
"""


class UsageError(ValueError):
    """Invalid input: malformed group spec, mismatched carriers, bad table."""


class CapacityError(RuntimeError):
    """A fixed cap or the search budget would be exceeded."""


class IntegerOverflowError(ArithmeticError):
    """A checked integer operation left the fixed-width representation range."""


class InvariantViolation(AssertionError):
    """An internally verified mathematical invariant failed.

    Raised when a computation contradicts something the library is supposed
    to guarantee (for instance a cyclic multiplication that does not match
    its own scale factor). Any occurrence is a bug, never user error.
    """
