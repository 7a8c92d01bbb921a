"""Shared test set-up."""

import pytest

from quatbrauer.errors import BUDGETS
from quatbrauer.exact_arith import _mod_p_splits, irreducible_factors_fp, irreducible_factors_q


@pytest.fixture(autouse=True)
def _clear_split_memos():
    """Start every test with empty split memos, so that a test counting
    factorizations does not depend on the splits of the tests run before it."""
    irreducible_factors_fp.cache_clear()
    irreducible_factors_q.cache_clear()
    _mod_p_splits.cache_clear()


@pytest.fixture
def budgets():
    """Narrow fields of this test's budgets, as in `budgets(witness_prime=50)`;
    each call returns the budgets it set, and all of them end with the test."""
    tokens = []

    def narrow(**fields):
        tokens.append(BUDGETS.set(BUDGETS.get()._replace(**fields)))
        return BUDGETS.get()

    yield narrow
    for token in reversed(tokens):
        BUDGETS.reset(token)


@pytest.fixture
def flipped_real_symbol(monkeypatch):
    """brauer_q's Hilbert symbol with its sign at the real place flipped: a
    fault that breaks reciprocity for every pair of entries."""
    from quatbrauer import brauer_q

    hilbert = brauer_q.hilbert
    monkeypatch.setattr(brauer_q, "hilbert",
                        lambda a, b, v: -hilbert(a, b, v) if v.is_real else hilbert(a, b, v))
