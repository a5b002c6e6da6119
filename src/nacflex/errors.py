"""Shared exception types, the default search budget and its check."""

# Default node budget of every bounded search, in the library and the CLI.
DEFAULT_NODE_BUDGET = 500_000


def check_node_budget(node_budget: int) -> None:
    """Refuse a budget below 1: a search that counts no node would answer
    some graphs before its first node and give up on the rest."""
    if node_budget < 1:
        raise PreconditionError("node_budget must be >= 1")


class BudgetExceeded(RuntimeError):
    """A search ran out of its exploration budget before reaching a verdict.

    Distinct from a definitive "none": callers that tally experiment outcomes
    must record this separately, never fold it into a negative answer.
    """


class PreconditionError(ValueError):
    """An operation was called on inputs violating its stated preconditions."""


class CycleSpaceTooLarge(ValueError):
    """The literal cycle-enumeration oracle refused an instance whose cycle
    space dimension exceeds `nac.MAX_CYCLE_SPACE_DIM`."""
