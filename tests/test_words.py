import functools

import pytest
from hypothesis import given, settings, strategies as st

from adem_reference import ORDERS, adem_by_direct_sum
from adem_reference import reduce as reference_reduce
from deltacalc import words as wd
from deltacalc.errors import DomainError, RangeError

raw_words = st.lists(st.integers(2, 32), min_size=0, max_size=5).map(tuple)
nonempty_words = st.lists(st.integers(2, 32), min_size=1, max_size=5).map(tuple)


@st.composite
def admissible_words(draw, max_len=4, max_low=12):
    length = draw(st.integers(0, max_len))
    word = []
    for _ in range(length):
        lo = 2 * word[0] if word else 2
        word.insert(0, draw(st.integers(lo, lo + max_low)))
    return tuple(word)


def test_statistics():
    assert wd.excess((4, 2)) == 2 and wd.degree((4, 2)) == 6 and wd.length((4, 2)) == 2
    assert wd.excess((8, 4, 2)) == 2 and wd.degree((8, 4, 2)) == 14 and wd.length((8, 4, 2)) == 3
    assert wd.excess((2,)) == 2 and wd.degree((2,)) == 2 and wd.length((2,)) == 1
    assert wd.excess(()) == 0 and wd.degree(()) == 0 and wd.length(()) == 0


def test_admissibility():
    assert wd.is_admissible((4, 2))
    assert not wd.is_admissible((5, 4))
    assert wd.is_admissible(())


def test_adem_pair_examples():
    assert wd.adem_pair(4, 3) == frozenset()
    assert wd.adem_pair(5, 4) == frozenset({(6, 3)})
    assert wd.adem_pair(7, 6) == frozenset({(9, 4)})


def test_adem_pair_rejections():
    with pytest.raises(DomainError):
        wd.adem_pair(8, 4)  # already admissible
    with pytest.raises(DomainError):
        wd.adem_pair(1, 4)


@given(st.integers(2, 64), st.integers(2, 64))
def test_adem_pair_matches_direct_sum_and_is_admissible(i, j):
    if i >= 2 * j:
        return
    result = wd.adem_pair(i, j)
    assert result == adem_by_direct_sum(i, j)
    for word in result:
        assert wd.is_admissible(word)
        assert wd.degree(word) == i + j


def test_reduce_examples():
    assert wd.reduce([(4, 2)]) == frozenset({(4, 2)})
    assert wd.reduce([(3, 4, 2)]) == wd.ZERO
    assert wd.reduce([(4, 4)]) == wd.ZERO
    assert wd.reduce([wd.IDENTITY]) == frozenset({wd.IDENTITY})


def test_reduce_mod2_cancellation():
    assert wd.reduce([(4, 2), (4, 2)]) == frozenset()


def test_reduce_range_guard():
    with pytest.raises(RangeError):
        wd.reduce([(2**33, 2)])
    with pytest.raises(DomainError):
        wd.reduce([(1, 4)])


@given(raw_words)
@settings(max_examples=300)
def test_reduce_output_admissible_and_degree_preserving(word):
    result = wd.reduce([word])
    for out in result:
        assert wd.is_admissible(out)
        assert wd.degree(out) == wd.degree(word)


@given(raw_words)
@settings(max_examples=300)
def test_reduce_idempotent(word):
    once = wd.reduce([word])
    assert wd.reduce(once) == once


@given(raw_words)
@settings(max_examples=300)
def test_strategy_independence(word):
    result = wd.reduce([word])
    for order in ORDERS:
        assert reference_reduce([word], order) == result, order


# The sizes of the benchmark's adem words: length 6 up to index 32, and
# length 5 up to index 40.
workload_words = st.one_of(
    st.lists(st.integers(2, 32), min_size=6, max_size=6).map(tuple),
    st.lists(st.integers(2, 40), min_size=5, max_size=5).map(tuple),
)


@given(workload_words)
@settings(max_examples=200, deadline=None)
def test_reduce_matches_reference_at_workload_sizes(word):
    result = wd.reduce([word])
    for order in ORDERS:
        assert reference_reduce([word], order) == result, order


def test_left_mul_memo_is_bounded(monkeypatch):
    info = wd._left_mul.cache_info()
    assert info.maxsize == wd._LEFT_MUL_MEMO_SIZE and info.currsize <= info.maxsize
    # These words reduce to 13 and 12 terms through several hundred memo
    # entries each; a memo of 8 evicts as it goes and must give the same.
    small = functools.lru_cache(maxsize=8)(wd._left_mul.__wrapped__)
    monkeypatch.setattr(wd, "_left_mul", small)
    for word in [(25, 29, 12, 29, 29, 29), (25, 25, 25, 32, 29, 26)]:
        result = wd.reduce([word])
        assert len(result) >= 12
        for order in ORDERS:
            assert reference_reduce([word], order) == result, (word, order)
    info = small.cache_info()
    assert info.currsize == 8 and info.misses > 8


@given(nonempty_words)
@settings(max_examples=300)
def test_single_adem_step_decreases_moment(word):
    def moment(w):  # the rewriting's termination measure: sum of position * index
        return sum(t * i for t, i in enumerate(w, start=1))

    pairs = [t for t in range(len(word) - 1) if word[t] < 2 * word[t + 1]]
    for p in pairs:
        for pair in wd.adem_pair(word[p], word[p + 1]):
            replaced = word[:p] + pair + word[p + 2:]
            assert moment(replaced) < moment(word)


def test_compose_unit_and_examples():
    b = frozenset({(6, 3), (4, 2)})
    assert wd.compose(frozenset({()}), b) == b
    assert wd.compose(b, frozenset({()})) == b
    assert wd.compose(frozenset({(4,)}), frozenset({(3,)})) == frozenset()
    assert wd.compose(frozenset({(5,)}), frozenset({(4,)})) == frozenset({(6, 3)})


elements = st.lists(
    st.lists(st.integers(2, 16), max_size=3).map(tuple), max_size=2
).map(lambda ws: frozenset(wd.reduce(ws)))


@given(elements, elements, elements)
@settings(max_examples=150, deadline=None)
def test_compose_associative(a, b, c):
    assert wd.compose(a, wd.compose(b, c)) == wd.compose(wd.compose(a, b), c)


def test_theta():
    assert wd.theta(2, 0) == (4, 2)
    assert wd.theta(2, 1) == (8, 4)
    assert wd.theta(0, 3) == ()


def test_theta_admissible_and_fixed_by_reduce():
    for s in range(13):
        for t in range(13 - s):
            w = wd.theta(s, t)
            assert wd.is_admissible(w)
            assert wd.reduce([w]) == frozenset({w})


def test_theta_range_guard():
    with pytest.raises(RangeError):
        wd.theta(30, 10)


def test_annihilation_spot_values():
    assert wd.annihilation_order(3, 1) == 1
    assert wd.annihilation_order(5, 2) == 1
    assert wd.annihilation_order(7, 2) == 2


def test_annihilation_precondition():
    with pytest.raises(DomainError):
        wd.annihilation_order(4, 2)  # j <= 2^t
    with pytest.raises(DomainError):
        wd.annihilation_order(1, 0)


def test_annihilation_exhaustion_is_explicit():
    assert wd.annihilation_order(7, 2, s_max=1) is None
    with pytest.raises(DomainError):
        wd.annihilation_order(7, 2, s_max=-1)


def test_annihilation_reduces_length_17_words():
    # theta(16, 1) delta_j has length 17; the search reaches it in both cases.
    assert wd.annihilation_order(65537, 1) == 16
    assert wd.annihilation_order(131073, 1) is None


def test_annihilation_existence_desk_scale():
    for t in range(4):
        for j in range(2**t + 1, 2**t + 13):
            assert wd.annihilation_order(j, t, s_max=8) is not None


def test_alpha_word_validation():
    with pytest.raises(DomainError):
        wd.AlphaWord((1,), 2)  # alpha_1 needs degree >= 3
    with pytest.raises(DomainError):
        wd.AlphaWord((), 1)
    err = None
    try:
        wd.AlphaWord((5, 0), 3)  # second stage has degree 6, alpha_5 needs >= 7
    except DomainError as e:
        err = str(e)
    assert err is not None and "alpha_5" in err and "degree 6" in err


def test_alpha_to_delta_examples():
    for n in range(2, 8):
        assert wd.alpha_to_delta(wd.AlphaWord((0,), n)) == (n,)
    # the Andre operation on degree m is delta_{m-1}
    for m in range(3, 8):
        assert wd.alpha_to_delta(wd.AlphaWord((1,), m)) == (m - 1,)
    # iterating alpha_{n-2} produces the doubling composite
    for n in range(2, 11):
        for s in range(7):
            assert wd.alpha_to_delta(wd.AlphaWord((n - 2,) * s, n)) == wd.theta(s, 0)


def test_alpha_adem_check_explicit_case():
    for n in range(5, 9):
        assert wd.alpha_adem_check(3, 1, n)


def test_alpha_adem_check_rejects_bad_order():
    with pytest.raises(DomainError):
        wd.alpha_adem_check(1, 3, 6)


def test_alpha_adem_check_grid():
    for n in range(2, 10):
        for j in range(0, n - 1):
            for i in range(j + 1, 2 * n - j - 1):
                if wd.alpha_stages_valid((i, j), n):
                    assert wd.alpha_adem_check(i, j, n), (i, j, n)
