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


class UnbalancedValuationError(NZFlowError, ValueError):
    """A valuation to be realized as a flow is not balanced.

    ``report`` is the balance checker's :class:`BalanceReport`, with the
    violating subset and its margin.
    """

    def __init__(self, report):
        super().__init__(
            f"valuation is not balanced: subset {report.violator} exceeds "
            f"its cut by {report.margin}"
        )
        self.report = report
