import json
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from deltacalc import artin, gamma
from deltacalc import words as wd
from deltacalc.errors import DomainError

DATA = Path(__file__).parent / "data"


def x(n, idx=1, word=()):
    return gamma.FreeGenerator(n, idx, word)


def elem(*gens):
    out = frozenset()
    for g in gens:
        out ^= gamma.generator_element(g)
    return out


# --- independent oracles -------------------------------------------------

def generators_bruteforce(n, max_degree):
    """All admissible words with excess < n and bounded degree, by raw search."""
    budget = max_degree - n
    found = {()}
    frontier = [()]
    while frontier:
        word = frontier.pop()
        lo = 2 * word[0] if word else 2
        for i in range(lo, budget - sum(word) + 1):
            w2 = (i,) + word
            if wd.excess(w2) < n:
                found.add(w2)
                frontier.append(w2)
    return found


def dims_bruteforce(gen_degrees, max_degree):
    """Monomial counts by plain powerset enumeration over all gamma factors."""
    factors = []
    for tag, n in enumerate(gen_degrees):
        for word in generators_bruteforce(n, max_degree):
            deg = n + sum(word)
            e = 0
            while (2**e) * deg <= max_degree:
                factors.append(((tag, word), (2**e) * deg))
                e += 1
    dims = [0] * (max_degree + 1)
    for r in range(len(factors) + 1):
        for sub in combinations(factors, r):
            total = sum(d for _, d in sub)
            if total <= max_degree:
                dims[total] += 1
    return dims


# --- generators -----------------------------------------------------------

def test_generator_validation():
    with pytest.raises(DomainError):
        x(3, 1, (5, 4))  # inadmissible
    with pytest.raises(DomainError):
        x(3, 1, (4,))  # excess 4 >= 3
    with pytest.raises(DomainError):
        x(0)
    with pytest.raises(DomainError):
        x(3, 0)
    g = x(3, 1, (4, 2))
    assert g.degree == 9 and g.weight == 4


def test_generators_are_values():
    # equal fields: equal and hashing alike; another type, a tuple included: never equal
    assert gamma.FreeGenerator(3) == x(3, 1, []) and hash(gamma.FreeGenerator(3)) == hash(x(3))
    assert len({x(3), x(3, 1, ()), x(3, 2), x(3, 1, (2,))}) == 3
    assert gamma.FreeGenerator(3) != (3, 1, ())


def test_s_generators_examples():
    assert [g.word for g in gamma.s_generators(1, 20)] == [()]
    assert [g.word for g in gamma.s_generators(2, 20)] == [()]
    gens3 = gamma.s_generators(3, 20)
    assert [g.degree for g in gens3] == [3, 5, 9, 17]
    assert [g.word for g in gens3] == [(), (2,), (4, 2), (8, 4, 2)]


@pytest.mark.parametrize("n,max_degree", [(1, 16), (2, 18), (3, 20), (4, 20), (5, 24)])
def test_s_generators_against_bruteforce(n, max_degree):
    expected = generators_bruteforce(n, max_degree)
    got = {g.word for g in gamma.s_generators(n, max_degree)}
    assert got == expected


def test_s_generators_refuse_over_budget(monkeypatch):
    # x3 through degree 20 has 4 generators: exactly at the limit is listed
    monkeypatch.setattr(gamma, "GENERATOR_LIMIT", 4)
    assert len(gamma.s_generators(3, 20)) == 4
    monkeypatch.setattr(gamma, "GENERATOR_LIMIT", 3)
    with pytest.raises(DomainError, match="more than 3 generators.*budget"):
        gamma.s_generators(3, 20)
    # the word search itself and the counting stay unbudgeted by it
    assert len(list(gamma._generator_words(3, 20))) == 4
    assert gamma.basis_counts([(3, 1)], 9)[(2, 5)] == 1


# --- basis enumeration ----------------------------------------------------

def test_basis_dims_on_one_degree3_generator_golden():
    golden = json.loads((DATA / "free_algebra_on_x3_dims.json").read_text())
    oracle = dims_bruteforce([3], 10)
    assert oracle == golden["dims"], "oracle disagrees with the frozen table"
    basis = gamma.s_basis([(3, 1)], 10)
    assert [basis.by_degree[d] for d in range(11)] == golden["dims"]


def test_basis_dims_degree1_and_degree2():
    b1 = gamma.s_basis([(1, 1)], 12)
    assert [b1.by_degree[d] for d in range(13)] == [1] * 13
    for m in b1.monomials:
        assert gamma.weight(m) == gamma.degree(m)
    b2 = gamma.s_basis([(2, 1)], 12)
    for d in range(13):
        assert b2.by_degree[d] == (1 if d % 2 == 0 else 0)


def test_basis_dims_multi_generator_against_bruteforce():
    oracle = dims_bruteforce([2, 3], 12)
    basis = gamma.s_basis([(2, 1), (3, 1)], 12)
    assert [basis.by_degree[d] for d in range(13)] == oracle


def test_basis_multiplicity_uses_distinct_indices():
    basis = gamma.s_basis([(1, 2)], 4)
    # two degree-1 generators: dims of a divided power algebra on two classes
    assert [basis.by_degree[d] for d in range(5)] == [1, 2, 3, 4, 5]


def test_basis_empty_below_degree_zero():
    basis = gamma.s_basis([(2, 1)], -5)
    assert basis.monomials == [] and not basis.by_degree and basis.by_weight == {}
    assert [gamma.degree(m) for m in gamma.s_basis([(2, 1)], 0).monomials] == [0]


@given(st.dictionaries(st.integers(1, 5), st.integers(1, 3), max_size=5), st.integers(-3, 18))
@settings(max_examples=150, deadline=None)
def test_basis_counts_match_enumeration(dims, cut):
    gens = sorted(dims.items())
    counts = gamma.basis_counts(gens, cut)
    assume(sum(counts.values()) <= 3000)  # keeps the enumeration oracle at desk scale
    assert counts == Counter((gamma.weight(m), gamma.degree(m))
                             for m in gamma.s_basis(gens, cut).monomials)


def test_basis_counts_refuse_over_budget():
    # each is refused before the knapsack runs; (50, 1) through degree 1000
    # alone has 43 million generators
    for gens, cut in (([(2, 10**9)], 6), ([(3, 1)], 10**7), ([(50, 1)], 1000)):
        with pytest.raises(DomainError, match="budget"):
            gamma.basis_counts(gens, cut)
    with pytest.raises(DomainError, match="generator degrees"):
        gamma.basis_counts([(0, 1)], 6)
    # nothing to fold: no table is allocated for the cut
    assert gamma.basis_counts([], 10**12) == {(0, 0): 1}
    assert gamma.basis_counts([(10**12 + 1, 1)], 10**12) == {(0, 0): 1}


def test_weight_slices_sum_to_totals():
    for n in range(1, 5):
        basis = gamma.s_basis([(n, 1)], 20)
        for d in range(21):
            total = sum(t[d] for t in basis.by_weight.values())
            assert total == basis.by_degree[d]


# --- the action -----------------------------------------------------------

def test_delta_act_examples():
    x3 = elem(x(3))
    assert gamma.delta_act(3, x3) == frozenset({frozenset({(x(3), 1)})})
    assert gamma.delta_act(4, x3) == gamma.ZERO
    gamma2_x3 = gamma.delta_act(3, x3)
    assert gamma.delta_act(2, gamma2_x3) == gamma.ZERO
    assert gamma.delta_act(2, x3) == elem(x(3, 1, (2,)))


def test_delta_act_rejects_small_index():
    with pytest.raises(DomainError):
        gamma.delta_act(1, elem(x(3)))


def test_delta_act_on_degree1_gamma_powers():
    x1 = elem(x(1))
    assert gamma.delta_act(2, x1) == gamma.ZERO
    g2 = gamma.gamma_power(x1, 2)
    assert gamma.delta_act(2, g2) == gamma.gamma_power(x1, 4)
    assert gamma.delta_act(3, gamma.gamma_power(x1, 4)) == gamma.ZERO


def test_cartan_kills_products():
    m = gamma.multiply(elem(x(3)), elem(x(3, 1, (2,))))
    assert m != gamma.ZERO
    for i in range(2, 10):
        assert gamma.delta_act(i, m) == gamma.ZERO
    assert gamma.delta_act(2, gamma.ONE) == gamma.ZERO


@st.composite
def admissible_word(draw, max_len=4, max_low=8):
    length = draw(st.integers(1, max_len))
    word = []
    for _ in range(length):
        lo = 2 * word[0] if word else 2
        word.insert(0, draw(st.integers(lo, lo + max_low)))
    return tuple(word)


@given(admissible_word(), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_instability(word, n):
    if wd.degree(word) > 24:
        return
    result = gamma.apply_word(word, elem(x(n)))
    if wd.excess(word) > n:
        assert result == gamma.ZERO
    else:
        assert result != gamma.ZERO


@given(st.integers(2, 6), st.integers(2, 14))
@settings(max_examples=200)
def test_weight_doubling(n, i):
    for mono in gamma.delta_act(i, elem(x(n))):
        assert gamma.weight(mono) == 2


def peel_oracle(word, n):
    """Test-local split of an admissible word into (gamma2 count, generator word)."""
    m, e, gen_word = n, 0, []
    for idx in reversed(word):
        if e == 0 and idx < m:
            gen_word.insert(0, idx)
            m += idx
        elif idx == m:
            e += 1
            m *= 2
        else:
            return None
    return e, tuple(gen_word)


def stage_valid(word, n):
    m = n
    for idx in reversed(word):
        if idx > m:
            return False
        m += idx
    return True


@given(st.lists(st.integers(2, 20), min_size=1, max_size=4).map(tuple), st.integers(1, 6))
@settings(max_examples=500, deadline=None)
def test_stepwise_application_matches_reduce_then_peel(word, n):
    # The Adem identities are operation identities only where every stage
    # exists.  On stage-valid words the index-by-index action must agree
    # with reducing the whole word and reading the admissible terms off as
    # basis elements; a word with an out-of-range stage acts as zero.
    stepwise = gamma.apply_word(word, elem(x(n)))
    if not stage_valid(word, n):
        assert stepwise == gamma.ZERO
        return
    expected = frozenset()
    for j_word in wd.reduce([word]):
        peeled = peel_oracle(j_word, n)
        if peeled is None:
            continue
        e, gen_word = peeled
        expected ^= {frozenset({(x(n, 1, gen_word), e)})}
    assert stepwise == expected


def test_freeness_on_generator_words():
    # applying a generator word factor by factor lands on that basis generator
    for n in range(2, 6):
        seen = {}
        for g in gamma.s_generators(n, 24):
            result = gamma.q_project(gamma.apply_word(g.word, elem(x(n))))
            assert result == elem(g)
            assert result not in seen.values() or g.word in seen
            seen[g.word] = result


def test_q_project_examples():
    x3 = elem(x(3))
    d2x3 = elem(x(3, 1, (2,)))
    mixed = x3 ^ gamma.multiply(x3, d2x3)
    assert gamma.q_project(mixed) == x3
    assert gamma.q_project(gamma.gamma_power(x3, 2)) == gamma.ZERO
    assert gamma.q_project(d2x3) == d2x3


# --- divided power arithmetic ---------------------------------------------

def test_square_of_divided_square_vanishes():
    g2 = gamma.gamma_power(elem(x(3)), 2)
    assert gamma.multiply(g2, g2) == gamma.ZERO  # C(4,2) is even


def test_gamma3_is_a_product():
    x3 = elem(x(3))
    expected = gamma.multiply(gamma.gamma_power(x3, 2), x3)
    assert gamma.gamma_power(x3, 3) == expected


def test_gamma2_of_sum():
    a, b = elem(x(2)), elem(x(3))
    expected = gamma.gamma_power(a, 2) ^ gamma.multiply(a, b) ^ gamma.gamma_power(b, 2)
    assert gamma.gamma_power(a ^ b, 2) == expected


def test_gamma_power_refuses_over_budget(monkeypatch):
    # the engine's count: k, then one per product over GF(2), so gamma_k of one
    # monomial costs k + (k - 1) heads + k fold products = 3k - 1
    x3, both = elem(x(3)), elem(x(3), x(2))
    for e, k in ((x3, 10**10), (gamma.ZERO, 10**10)):  # k alone, before any list is built
        with pytest.raises(DomainError, match="budget"):
            gamma.gamma_power(e, k)
    monkeypatch.setattr(artin, "EXPANSION_WORK_LIMIT", 11)
    assert gamma.gamma_power(x3, 4) == frozenset({frozenset({(x(3), 2)})})  # 11
    assert len(gamma.gamma_power(both, 2)) == 3  # 9
    assert gamma.gamma_power(gamma.ZERO, 11) == gamma.ZERO  # 11
    for e, k in ((x3, 5), (both, 3), (gamma.ZERO, 12)):  # 14, 16 and 12
        with pytest.raises(DomainError, match="budget"):
            gamma.gamma_power(e, k)


def test_gamma_of_unit_rejected():
    with pytest.raises(DomainError):
        gamma.gamma_power(gamma.ONE, 2)


def test_axiom_suite_clean():
    report = gamma.gamma_axiom_suite(trials=200, seed=7)
    assert report.ok
    assert all(report.checked[a] == 200 for a in artin.AXIOM_NAMES)
    with pytest.raises(DomainError):
        gamma.gamma_axiom_suite(trials=-3)


# --- nilpotency probes ------------------------------------------------------

def test_probe_gamma2_dies_in_indecomposables():
    result = gamma.nilpotency_probe("gamma2", x(4), 5)
    assert result.status == "nilpotent" and result.order == 1


def test_probe_andre_on_x3():
    result = gamma.nilpotency_probe("andre", x(3), 4)
    assert result.status == "nonvanishing"
    assert result.trajectory[1] == elem(x(3, 1, (2,)))
    assert result.trajectory[2] == elem(x(3, 1, (4, 2)))
    assert result.trajectory[3] == elem(x(3, 1, (8, 4, 2)))


def test_probe_alpha_iterates_are_doubling_words():
    for n in range(3, 7):
        result = gamma.nilpotency_probe(f"alpha:{n - 2}", x(n), 6)
        assert result.status == "nonvanishing"
        for s, step in enumerate(result.trajectory):
            assert step == elem(x(n, 1, wd.theta(s, 0)))


def test_probe_domain_boundary():
    with pytest.raises(DomainError):
        gamma.nilpotency_probe("andre", x(2), 3)
    with pytest.raises(DomainError):
        gamma.nilpotency_probe("alpha:3", x(4), 3)
    with pytest.raises(DomainError, match="K >= 0"):  # delta_5 on degree 4 would act as zero
        gamma.nilpotency_probe("alpha:-1", x(4), 3)
    with pytest.raises(DomainError):
        gamma.nilpotency_probe("frobenius", x(4), 3)
    with pytest.raises(DomainError):
        gamma.nilpotency_probe("gamma2", x(3), -2)
