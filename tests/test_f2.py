import pytest
from hypothesis import given, strategies as st

from deltacalc.errors import DomainError, RangeError
from deltacalc.f2 import INDEX_LIMIT, GradedDims, binom_mod2


def pascal_parity(n_max):
    """Independent oracle: Pascal's recurrence carried out mod 2."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([1] + [(prev[k - 1] + prev[k]) % 2 for k in range(1, n)] + [1])
    return rows


def test_spot_values():
    assert binom_mod2(1, 1) == 1
    assert binom_mod2(4, 2) == 0  # C(4,2) = 6
    for n in (0, 1, 5, 1000):
        assert binom_mod2(n, 0) == 1


def test_k_above_n_gives_zero():
    assert binom_mod2(3, 5) == 0
    assert binom_mod2(0, 1) == 0


def test_against_pascal_recurrence():
    rows = pascal_parity(64)
    for n in range(65):
        for k in range(n + 1):
            assert binom_mod2(n, k) == rows[n][k], (n, k)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_symmetry(n, k):
    if k <= n:
        assert binom_mod2(n, k) == binom_mod2(n, n - k)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_bit_subset_criterion(n, k):
    assert binom_mod2(n, k) == (1 if k & ~n == 0 else 0)


def test_range_guard():
    with pytest.raises(RangeError):
        binom_mod2(INDEX_LIMIT, 1)
    with pytest.raises(DomainError):
        binom_mod2(-1, 0)


def test_json_round_trip():
    table = GradedDims({0: 1, 2: 1})
    assert table.to_json() == {"0": 1, "2": 1}
    assert GradedDims.from_json({"0": 1, "2": 1}) == table
    assert GradedDims.from_json({}) == GradedDims()


def test_rejects_negatives():
    with pytest.raises(DomainError):
        GradedDims({-1: 1})
    with pytest.raises(DomainError):
        GradedDims({1: -1})
