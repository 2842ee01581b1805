"""Exception types shared across the package."""


class NZFlowError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(NZFlowError):
    """A bounded search ran out of its work budget.

    Distinct from a negative answer: the search was cut off, nothing was
    decided.
    """


class InternalInconsistencyError(NZFlowError):
    """A condition that is mathematically impossible for valid input held.

    Raised instead of ``AssertionError`` so callers can distinguish a broken
    invariant (a bug, or corrupted input) from ordinary misuse.
    """
