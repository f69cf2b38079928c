"""Exception types shared across the toolkit, and the work budget.

The CLI maps these onto its exit-code contract: usage errors exit 2,
capacity errors exit 3, overflow errors exit 4, invariant violations
exit 5.
"""

DEFAULT_BUDGET = 10**8


class UsageError(ValueError):
    """Invalid input: malformed group spec, mismatched carriers, bad table."""


class CapacityError(RuntimeError):
    """A fixed cap or the search budget would be exceeded."""


def charge(work: int, budget: int, what: str) -> None:
    """Refuse work up front when it exceeds the budget; ``what`` names its unit."""
    if work > budget:
        raise CapacityError(f"{work} {what}, over the budget of {budget}")


class IntegerOverflowError(ArithmeticError):
    """A checked integer operation left the fixed-width representation range."""


class InvariantViolation(AssertionError):
    """An internally verified mathematical invariant failed.

    Raised when a computation contradicts something the library is supposed
    to guarantee (for instance a cyclic multiplication that does not match
    its own scale factor). Any occurrence is a bug, never user error.
    """
