import pytest

from adem_reference import binom_mod2
from deltacalc.errors import INDEX_LIMIT, Budget, DomainError, RangeError


def test_budget_tally_spans_the_outermost_open():
    budget = Budget("units", 10)
    with budget:
        budget.charge(3)
        with budget:  # a nested open shares the count
            budget.charge(4)
            assert budget.spent == 7
        assert budget.spent == 7
        budget.charge(3)
    assert budget.spent == 10  # still readable once closed
    with budget:  # the next outermost open restarts it
        assert budget.spent == 0
        budget.charge(10)
    # charge refuses with check's exact message, and the refusal closes the block
    with pytest.raises(DomainError) as checked:
        budget.check(11)
    with pytest.raises(DomainError) as charged:
        with budget:
            budget.charge(6)
            with budget:
                budget.charge(5)
    assert str(charged.value) == str(checked.value) == "units reached 11, over the budget of 10"
    with budget:
        assert budget.spent == 0


def test_binom_mod2_range_guard():
    with pytest.raises(RangeError):
        binom_mod2(INDEX_LIMIT, 1)
    with pytest.raises(DomainError):
        binom_mod2(-1, 0)
