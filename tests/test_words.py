import functools
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from adem_reference import ORDERS, adem_by_direct_sum, adem_pair, binom_mod2
from adem_reference import reduce as reference_reduce
from deltacalc import words as wd
from deltacalc.errors import INDEX_LIMIT, DomainError, RangeError

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
    assert adem_pair(4, 3) == frozenset()
    assert adem_pair(5, 4) == frozenset({(6, 3)})
    assert adem_pair(7, 6) == frozenset({(9, 4)})


def test_adem_pair_rejections():
    with pytest.raises(DomainError):
        adem_pair(8, 4)  # already admissible
    with pytest.raises(DomainError):
        adem_pair(1, 4)


def test_adem_pair_matches_direct_sum_and_is_admissible():
    for i in range(2, 200):
        for j in range(-(-(i + 1) // 2), 200):  # every j with i < 2j
            result = adem_pair(i, j)
            assert result == adem_by_direct_sum(i, j), (i, j)
            # the pair table keeps each term as its s; _times adds admissible
            # products without a parity test, which needs the terms listed by
            # strictly ascending s, so by strictly descending first index
            seconds = wd._adem(i, j)
            assert all(x < y for x, y in zip(seconds, seconds[1:])), (i, j)
            assert frozenset((i + j - s, s) for s in seconds) == result, (i, j)
            for word in result:
                assert wd.is_admissible(word)
                assert wd.degree(word) == i + j


def _adem_by_coefficient_loop(i, j):
    """The Adem sum with one range-checked binomial parity per s.

    Both indices are range-checked first, and every term's index after the
    loop; the terms come by ascending s, so the largest index is checked first.
    """
    for k in (i, j):
        if k >= INDEX_LIMIT:
            raise RangeError(f"delta index {k} exceeds 2^32")
    terms = [(i + j - s, s) for s in range(-(-(i + 1) // 2), (i + j) // 3 + 1)
             if binom_mod2(j - i + s - 1, j - s)]
    for a, _ in terms:
        if a >= INDEX_LIMIT:
            raise RangeError(f"delta index {a} exceeds 2^32")
    return frozenset(terms)


def test_adem_pair_range_contract_matches_the_coefficient_loop():
    # Rewriting can produce indices at or past 2^32, so j runs across it.  For
    # small i a binomial argument passes 2^32 within a few dozen s; for i near
    # 2j the range is short and every argument stays small, but the terms'
    # indices a = i + j - s pass 2^32 once j is past 2^31.
    def outcome(adem, i, j):
        try:
            return adem(i, j)
        except RangeError as err:
            return str(err)

    for j in range(INDEX_LIMIT - 30, INDEX_LIMIT + 10):
        for i in [*range(2, 40), *range(2 * j - 60, 2 * j)]:
            expected = outcome(_adem_by_coefficient_loop, i, j)
            assert outcome(adem_pair, i, j) == expected, (i, j)
    assert outcome(adem_pair, 4, INDEX_LIMIT - 1) == (
        f"binomial argument {INDEX_LIMIT} exceeds 2^32")
    # the one term of d(2^32 - 1) d(2^31 + 1) is d(2^32) d(2^31)
    assert outcome(adem_pair, INDEX_LIMIT - 1, INDEX_LIMIT // 2 + 1) == (
        f"delta index {INDEX_LIMIT} exceeds 2^32")


def pascal_parity(n_max):
    """Independent oracle: Pascal's recurrence carried out mod 2."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([1] + [(prev[k - 1] + prev[k]) % 2 for k in range(1, n)] + [1])
    return rows


def test_binom_mod2_spot_values():
    assert binom_mod2(1, 1) == 1
    assert binom_mod2(4, 2) == 0  # C(4,2) = 6
    for n in (0, 1, 5, 1000):
        assert binom_mod2(n, 0) == 1


def test_binom_mod2_k_above_n_gives_zero():
    assert binom_mod2(3, 5) == 0
    assert binom_mod2(0, 1) == 0


def test_binom_mod2_against_pascal_recurrence():
    rows = pascal_parity(64)
    for n in range(65):
        for k in range(n + 1):
            assert binom_mod2(n, k) == rows[n][k], (n, k)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_binom_mod2_symmetry(n, k):
    if k <= n:
        assert binom_mod2(n, k) == binom_mod2(n, n - k)


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_binom_mod2_bit_subset_criterion(n, k):
    assert binom_mod2(n, k) == (1 if k & ~n == 0 else 0)


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


def test_words_marked_zero_reduce_to_zero_under_the_reference():
    # every word of length 2-4 with indices 2-12: three in four are marked zero
    marked = 0
    for length in (2, 3, 4):
        for word in itertools.product(range(2, 13), repeat=length):
            if wd._is_zero(word):
                marked += 1
                assert not reference_reduce([word], "leftmost"), word
    assert marked == 12083


@given(st.one_of(st.lists(st.integers(2, 40), min_size=5, max_size=5),
                 st.lists(st.integers(2, 32), min_size=6, max_size=6)).map(tuple))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_long_words_marked_zero_reduce_to_zero_under_the_reference(word):
    if wd._is_zero(word):
        assert not reference_reduce([word], "leftmost"), word


def test_window_bound_is_the_least_admissible_degree():
    # (8, 4, 2) is the admissible word of length 3 of least degree, 14 = 2^4 - 2
    assert not wd._is_zero((8, 4, 2)) and wd._is_zero((7, 4, 2))
    assert wd._is_zero((100, 2, 2, 100))
    # every run of 37 indices below 2^32 sums below 2^38 - 2; 36 of them may not
    assert wd._is_zero((INDEX_LIMIT - 1,) * 37)
    with pytest.raises(DomainError, match="^Adem terms scanned"):  # its pair is looked up
        wd._is_zero((INDEX_LIMIT - 1,) * 36)


def test_a_word_marked_zero_forms_no_product(monkeypatch):
    wd._adem.cache_clear()
    wd._left_mul.cache_clear()
    monkeypatch.setattr(wd, "_left_mul", None)
    monkeypatch.setattr(wd, "_times", None)
    # the window bound: the run (2, 2) is below 2^3 - 2; no pair is looked up, so
    # the indices near 2^32, which would be refused when rewritten, are never reached
    monkeypatch.setattr(wd, "_adem", None)
    assert wd.reduce([(2, 2, INDEX_LIMIT - 1, INDEX_LIMIT - 2)]) == wd.ZERO
    assert wd.reduce([(3, 2) * 20]) == wd.ZERO
    assert wd.ADEM_BUDGET.spent == 0
    monkeypatch.undo()
    # a zero pair: (6, 19) scans 5 values of s, all even, after its pair to the
    # right, (19, 12), scans 1; with the pair table warm the word costs nothing
    wd._adem.cache_clear()
    monkeypatch.setattr(wd, "_left_mul", None)
    monkeypatch.setattr(wd, "_times", None)
    assert wd.reduce([(6, 19, 12)]) == wd.ZERO
    assert wd.ADEM_BUDGET.spent == 6
    assert wd.reduce([(6, 19, 12)]) == wd.ZERO
    assert wd.ADEM_BUDGET.spent == 0
    # the scans are charged to the budget like any other lookup
    wd._adem.cache_clear()
    monkeypatch.setattr(wd.ADEM_BUDGET, "limit", 5)
    with pytest.raises(DomainError, match="^Adem terms scanned .* reached 6, "):
        wd.reduce([(6, 19, 12)])


def test_left_mul_memo_is_bounded(monkeypatch):
    for memo, size in ((wd._left_mul, wd._PRODUCT_MEMO_SIZE), (wd._adem, wd._PAIR_MEMO_SIZE)):
        info = memo.cache_info()
        assert info.maxsize == size and info.currsize <= info.maxsize
    # These words reduce to 13 and 12 terms through a few hundred entries of
    # each memo; memos of 8 evict as they go and must give the same.
    small = functools.lru_cache(maxsize=8)(wd._left_mul.__wrapped__)
    small_pairs = functools.lru_cache(maxsize=8)(wd._adem.__wrapped__)
    monkeypatch.setattr(wd, "_left_mul", small)
    monkeypatch.setattr(wd, "_adem", small_pairs)
    for word in [(25, 29, 12, 29, 29, 29), (25, 25, 25, 32, 29, 26)]:
        result = wd.reduce([word])
        assert len(result) >= 12
        for order in ORDERS:
            assert reference_reduce([word], order) == result, (word, order)
    for memo in (small, small_pairs):
        info = memo.cache_info()
        assert info.currsize == 8 and info.misses > 8


def _fill_product_memo(rng):
    """Reduce random words of length 6 until the product memo holds as many
    products as the declared capacity; a smaller memo could never get there."""
    maxsize = wd._left_mul.cache_info().maxsize
    assert maxsize is None or maxsize >= wd._PRODUCT_MEMO_SIZE, maxsize
    while wd._left_mul.cache_info().currsize < wd._PRODUCT_MEMO_SIZE:
        wd.reduce([tuple(rng.randint(2, 32) for _ in range(6))])


def test_memo_footprint_and_product_values(monkeypatch):
    # A product is memoised as a tuple of its distinct words: about 260 traced
    # bytes per entry of the two memos, against about 410 as a frozenset.
    wd._left_mul.cache_clear()
    wd._adem.cache_clear()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _fill_product_memo(random.Random(4096))
        traced = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    entries = wd._left_mul.cache_info().currsize + wd._adem.cache_info().currsize
    assert traced < 330 * entries, (traced, entries)
    # the same fill through a memo that records what it stores
    stored, inner = {}, wd._left_mul.__wrapped__

    def recording(i, word):
        stored[i, word] = product = inner(i, word)
        return product

    monkeypatch.setattr(wd, "_left_mul", functools.lru_cache(maxsize=None)(recording))
    _fill_product_memo(random.Random(4096))
    for (i, word), product in stored.items():
        assert type(product) is tuple and len(set(product)) == len(product), (i, word)
        for w in product:
            assert wd.is_admissible(w) and wd.degree(w) == i + wd.degree(word), (i, word, w)


def test_a_heavy_reduce_stays_small(monkeypatch):
    # 120 words of length 6 with indices up to 64 form about 31,000 distinct
    # products; most are never read again, so the product memo keeps only its
    # capacity.  Traced peak: about 9.5 MB when it kept every product, 1.9 MB now.
    rng = random.Random(6)
    batch = [tuple(rng.randint(2, 64) for _ in range(6)) for _ in range(120)]
    wd._left_mul.cache_clear()
    wd._adem.cache_clear()
    tracemalloc.start()
    try:
        result = wd.reduce(batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert wd._left_mul.cache_info().currsize == wd._PRODUCT_MEMO_SIZE
    assert peak < 4 << 20, peak
    monkeypatch.setattr(wd, "_left_mul", functools.lru_cache(maxsize=None)(wd._left_mul.__wrapped__))
    assert wd.reduce(batch) == result


@given(nonempty_words)
@settings(max_examples=300)
def test_single_adem_step_decreases_moment(word):
    def moment(w):  # the rewriting's termination measure: sum of position * index
        return sum(t * i for t, i in enumerate(w, start=1))

    pairs = [t for t in range(len(word) - 1) if word[t] < 2 * word[t + 1]]
    for p in pairs:
        for pair in adem_pair(word[p], word[p + 1]):
            replaced = word[:p] + pair + word[p + 2:]
            assert moment(replaced) < moment(word)


def test_compose_unit_and_examples():
    b = frozenset({(6, 3), (4, 2)})
    assert wd.compose(frozenset({()}), b) == b
    assert wd.compose(b, frozenset({()})) == b
    assert wd.compose(frozenset({(4,)}), frozenset({(3,)})) == frozenset()
    assert wd.compose(frozenset({(5,)}), frozenset({(4,)})) == frozenset({(6, 3)})


def test_compose_counts_its_word_pairs_first(monkeypatch):
    # 2 x 3 pairs: at the limit the product is formed, one below it nothing is reduced
    a, b = frozenset({(5,), (8,)}), frozenset({(4,), (3,), (2,)})
    monkeypatch.setattr(wd.PRODUCT_BUDGET, "limit", 6)
    assert wd.compose(a, b) == wd.reduce([u + v for u in a for v in b])
    monkeypatch.setattr(wd.PRODUCT_BUDGET, "limit", 5)
    monkeypatch.setattr(wd, "_normal_sum", None)
    with pytest.raises(DomainError, match=r"^word pairs \|a\| x \|b\| reached 6, "
                       "over the budget of 5$"):
        wd.compose(a, b)


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


def test_annihilation_order_matches_reduce_of_the_whole_word():
    # the search multiplies one index per step; reduce rewrites each word afresh
    for t in range(5):
        for j in range(2**t + 1, 2**t + 200):
            expected = next((s for s in range(1, 9)
                             if not wd.reduce([wd.theta(s, t) + (j,)])), None)
            assert wd.annihilation_order(j, t, s_max=8) == expected, (j, t)
    for j in range(5, 40):
        expected = wd.annihilation_order(j, 2)
        assert wd.annihilation_order(j, 2, s_max=expected - 1) is None, j


# Proof that order(2^t + m, t) <= popcount(m) for m >= 1.
#
# Adem step.  theta(s, t) = theta(s - 1, t + 1) delta_(2^(t+1)).  With j = 2^t + m, the
# Adem terms of delta_(2^(t+1)) delta_j are delta_a delta_s for s = 2^t + u, 1 <= u <= m // 3
# (the range of _adem).  Write v = m - u.  By Lucas's theorem a term is odd exactly when
# v & (2u - 1) = 0, since j - s = v and 2s - 2^(t+1) - 1 = 2u - 1, so t drops out.  Its
# first index is a = 2^(t+1) + v, and v >= 2m/3 > 0.
#
# Lemma: if v & (2u - 1) = 0, then popcount(v + u) > popcount(v).  Let b be the lowest set
# bit of u.  Since 2u - 1 = 2(u - 2^b) + (2^(b+1) - 1), v has 0 at bits 0..b and at bit
# c + 1 for every set bit c > b of u.  Add u to v one maximal run p..q of 1 bits of u at a
# time:
# - a run above b: bits p+1..q+1 of v are 0.  If bit p of v is 0, the run gains q - p + 1
#   bits with no carry; if it is 1, the carry clears bit p, runs through the zeros p+1..q
#   and sets bit q + 1, a gain of 0;
# - the run that starts at b: bit b of v is 0 and becomes 1, and bits b+2..q+1 are 0, so
#   bits b+1..q either all gain or carry into bit q + 1 at no net cost: a gain of at least 1;
# - every carry stops at bit q + 1, where v is 0, below the next run, which starts at
#   q + 2 or above; so no carry passes from one run to the next, and the gains add.
#
# Induction on popcount(m), for every t at once.  When popcount(m) = 1, v + u = m would need
# popcount(v) = 0, but v > 0: there are no terms, delta_(2^(t+1)) delta_j = 0 and the order
# is 1.  Otherwise every term has popcount(v) < popcount(m), so by induction
# theta(popcount(m) - 1, t + 1) kills delta_(2^(t+1) + v), and so theta(popcount(m), t)
# kills delta_j.  The lower bound, order >= popcount(m), is observed below, not proved.


def test_annihilation_order_is_the_popcount_of_the_offset():
    # theta(s, t) kills delta_(2^t + o) first at s = the number of 1 bits of o: at most
    # that by the proof above, and exactly that on every offset checked
    for t in range(8):
        for o in range(1, 513):
            assert wd.annihilation_order(2**t + o, t) == o.bit_count(), (t, o)


def test_annihilation_adem_step_terms_lower_the_popcount():
    # the Adem step of the proof above: delta_(2^(t+1)) delta_(2^t + m) has exactly the
    # terms s = 2^t + u, 1 <= u <= m // 3, with (m - u) & (2u - 1) = 0, and the lemma
    # gives popcount(m - u) < popcount(m) for each
    with wd.ADEM_BUDGET:
        for t in range(3):
            for m in range(1, 2**10):
                terms = [s - 2**t for s in wd._adem(2 ** (t + 1), 2**t + m)]
                odd = [u for u in range(1, m // 3 + 1) if not (m - u) & (2 * u - 1)]
                assert terms == odd, (t, m)
                assert all((m - u).bit_count() < m.bit_count() for u in terms), (t, m)


def _assert_popcount_order(t, o):
    assert o.bit_count() + t < 32  # so the search stays below 2^32 and no draw is skipped
    assert wd.annihilation_order(2**t + o, t) == o.bit_count(), (t, o)


@given(st.integers(8, 20), st.integers(1, 511))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_annihilation_order_is_the_popcount_at_larger_t(t, o):
    _assert_popcount_order(t, o)


# an offset above 511 costs up to a second cold, so only a few are drawn
@given(st.integers(8, 19), st.integers(512, 4095))
@settings(max_examples=4, deadline=None, derandomize=True)
def test_annihilation_order_is_the_popcount_at_larger_offsets(t, o):
    _assert_popcount_order(t, o)


def test_annihilation_existence_desk_scale():
    for t in range(4):
        for j in range(2**t + 1, 2**t + 13):
            assert wd.annihilation_order(j, t, s_max=8) is not None


def alpha_stages_valid(indices, source_degree):
    """Whether every stage of the alpha word is defined on the degree."""
    try:
        wd.alpha_to_delta(indices, source_degree)
    except DomainError:
        return False
    return True


def unstable_part(element, n):
    """Restrict to words that act nontrivially on a degree-n class (excess <= n)."""
    return frozenset(w for w in element if wd.excess(w) <= n)


def alpha_adem_check(i, j, n):
    """Check the alpha-form Adem relation on a class of degree n.

    For j < i the relation rewrites alpha_i alpha_j as the sum over s in
    [ceil((i+2j)/3), floor((i+j-1)/2)] of C(i-s-1, s-j) alpha_{i+2j-2s}
    alpha_s.  Both sides are converted to delta words, reduced, and
    compared as operations on degree n (words of excess > n act as zero);
    right-hand terms whose stage constraints fail are dropped.
    """
    if j >= i:
        raise DomainError(f"alpha Adem relation needs j < i, got ({i}, {j})")
    lhs = unstable_part(wd.reduce([wd.alpha_to_delta((i, j), n)]), n)
    rhs: set = set()
    lo = -(-(i + 2 * j) // 3)
    hi = (i + j - 1) // 2
    for s in range(lo, hi + 1):
        if not binom_mod2(i - s - 1, s - j):
            continue
        term = (i + 2 * j - 2 * s, s)
        if not alpha_stages_valid(term, n):
            continue
        rhs ^= unstable_part(wd.reduce([wd.alpha_to_delta(term, n)]), n)
    return lhs == frozenset(rhs)


def test_alpha_word_validation():
    with pytest.raises(DomainError):
        wd.alpha_to_delta((1,), 2)  # alpha_1 needs degree >= 3
    with pytest.raises(DomainError):
        wd.alpha_to_delta((), 1)
    err = None
    try:
        wd.alpha_to_delta((5, 0), 3)  # second stage has degree 6, alpha_5 needs >= 7
    except DomainError as e:
        err = str(e)
    assert err is not None and "alpha_5" in err and "degree 6" in err
    assert not alpha_stages_valid((5, 0), 3) and alpha_stages_valid((4, 0), 3)


def test_alpha_to_delta_examples():
    for n in range(2, 8):
        assert wd.alpha_to_delta((0,), n) == (n,)
    # the Andre operation on degree m is delta_{m-1}
    for m in range(3, 8):
        assert wd.alpha_to_delta((1,), m) == (m - 1,)
    # iterating alpha_{n-2} produces the doubling composite
    for n in range(2, 11):
        for s in range(7):
            assert wd.alpha_to_delta((n - 2,) * s, n) == wd.theta(s, 0)


def test_alpha_adem_check_explicit_case():
    for n in range(5, 9):
        assert alpha_adem_check(3, 1, n)


def test_alpha_adem_check_rejects_bad_order():
    with pytest.raises(DomainError):
        alpha_adem_check(1, 3, 6)


def test_alpha_adem_check_grid():
    for n in range(2, 10):
        for j in range(0, n - 1):
            for i in range(j + 1, 2 * n - j - 1):
                if alpha_stages_valid((i, j), n):
                    assert alpha_adem_check(i, j, n), (i, j, n)
