"""Exception types shared across the library.

Exit-code mapping used by the CLI: DomainError -> 1, ParseError -> 2,
BudgetError -> 3, InternalError -> 4.
"""


class DomainError(ValueError):
    """A mathematical precondition was violated (zero input, wrong place, ...)."""


class ParseError(ValueError):
    """Malformed textual input (polynomial syntax, JSON schema, ...)."""


class BudgetError(RuntimeError):
    """A Las Vegas procedure ran out of its precision/prime budget.

    This is an explicit "undecided" outcome, never a guessed verdict.
    """


class InternalError(RuntimeError):
    """A self-check failed (certificate, reciprocity, round-trip): a bug,
    reported instead of a verdict.  Unlike `assert`, it survives `python -O`."""
