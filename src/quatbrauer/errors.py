"""Exception types shared across the library, and its search budgets.

Exit-code mapping used by the CLI: DomainError -> 1, ParseError -> 2,
BudgetError -> 3 (naming the budget that ran out), InternalError -> 4.
"""

from contextvars import ContextVar
from typing import NamedTuple


class Budgets(NamedTuple):
    """The bounds past which a Las Vegas search raises BudgetError."""

    lift_exponent: int = 1024   # the square test's lift stops at p^lift_exponent
    witness_prime: int = 10**5  # and its nonsquare witnesses at this prime
    # Subsets of lifted factors tried in Zassenhaus recombination.  Swinnerton-Dyer
    # polynomials, factors of degree 2 or less mod every p, are the worst case: degree 16
    # takes 162, degree 32 all 39202 up to size 8 (0.37 s), and degree 64 runs out among its
    # 5-subsets (0.74 s; Xeon, Python 3.11).  Most are dismissed by degree or constant term.
    subsets: int = 2**16
    # Pollard-Brent steps per cofactor, restarts included; 16x the most an 18-20 digit
    # benchmark entry needed.  Rho takes about sqrt(q) for the least prime q: q of 11 digits.
    pollard_steps: int = 2**20


BUDGETS = ContextVar("BUDGETS", default=Budgets())  # scoped by its set and reset


class DomainError(ValueError):
    """A mathematical precondition was violated (zero input, wrong place, ...)."""


class ParseError(ValueError):
    """Malformed textual input (polynomial syntax, JSON schema, ...)."""


class BudgetError(RuntimeError):
    """A Las Vegas procedure ran out of one of its `Budgets`.

    This is an explicit "undecided" outcome, never a guessed verdict.
    """


class InternalError(RuntimeError):
    """A self-check failed (certificate, reciprocity, round-trip): a bug,
    reported instead of a verdict.  Unlike `assert`, it survives `python -O`."""
