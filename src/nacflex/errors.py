"""Shared exception types and the default search budget."""

# Default node budget of every bounded search, in the library and the CLI.
DEFAULT_NODE_BUDGET = 500_000


class BudgetExceeded(RuntimeError):
    """A search ran out of its exploration budget before reaching a verdict.

    Distinct from a definitive "none": callers that tally experiment outcomes
    must record this separately, never fold it into a negative answer.
    """


class PreconditionError(ValueError):
    """An operation was called on inputs violating its stated preconditions."""


class CycleSpaceTooLarge(ValueError):
    """The literal cycle-enumeration oracle refused an instance whose cycle
    space exceeds the configured budget."""
