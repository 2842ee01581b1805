"""Exception types shared across the package, and the work budget whose
exhaustion raises :class:`BudgetExceededError`.

Every bounded search (the cyclic pair sweep, the oddness search, the
3-edge-colouring DP and the fallback flow solver) charges one
:class:`Budget`, and every public ``max_work`` parameter, like the CLI's
``--max-work``, defaults to :data:`DEFAULT_MAX_WORK`.
"""

DEFAULT_MAX_WORK = 2_000_000


class NZFlowError(Exception):
    """Base class for errors raised by this package."""


class BudgetExceededError(NZFlowError):
    """A bounded search ran out of its work budget.

    Distinct from a negative answer: the search was cut off, nothing was
    decided.
    """


class Budget:
    """The work units one search has ``used`` out of ``limit`` (None: no
    limit).  Spending past the limit raises :class:`BudgetExceededError`
    with the message "<search> search exceeded <limit> <unit>"."""

    __slots__ = ("limit", "used", "search", "unit")

    def __init__(
        self, limit: int | None, search: str = "bounded", unit: str = "work units"
    ):
        self.limit = limit
        self.used = 0
        self.search = search
        self.unit = unit

    def spend(self, units: int = 1) -> int:
        """Charge ``units`` and return the units used so far."""
        self.used += units
        if self.limit is not None and self.used > self.limit:
            raise BudgetExceededError(
                f"{self.search} search exceeded {self.limit} {self.unit}"
            )
        return self.used


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
