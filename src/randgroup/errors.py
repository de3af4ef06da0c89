"""Exception types shared across the package.

Each error corresponds to a contract violation or a resource limit that
callers are expected to handle; plain bugs raise the usual built-ins.
Every resource limit raises BudgetExceededError, and every error pickles.
"""

from __future__ import annotations


class EmptyWordError(ValueError):
    """A word-level predicate or constructor received an empty word."""


class NotCyclicallyReducedError(ValueError):
    """A relator failed the cyclic-reduction requirement."""


class DomainError(ValueError):
    """A numeric parameter fell outside its documented domain."""


class CountExceedsUniverseError(ValueError):
    """A requested relator count exceeds the size of the sampling universe."""


class LengthMismatchError(ValueError):
    """A relator's length disagrees with the presentation's word length."""


class BudgetExceededError(RuntimeError):
    """A search or an allocation would exceed its budget: ``check`` names
    the public entry point that gave up and ``limit`` the budget."""

    def __init__(self, check: str, limit: int, detail: str = ""):
        self.check = check
        self.limit = limit
        self.detail = detail
        super().__init__(f"budget exceeded in {check} (limit {limit})"
                         + (f": {detail}" if detail else ""))

    def __reduce__(self):
        return type(self), (self.check, self.limit, self.detail)


class NoCrossingError(ValueError):
    """A threshold estimate was requested but the statistic never crosses the level."""


class NonMonotoneTrendError(ValueError):
    """A threshold estimate was requested on a non-monotone statistic."""


class PresentationFormatError(ValueError):
    """A presentation file failed to parse; carries the offending line number."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        self.message = message
        super().__init__(f"line {lineno}: {message}")

    def __reduce__(self):
        return type(self), (self.lineno, self.message)
