import itertools
import json
import random
from collections import Counter, defaultdict
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from deltacalc import artin, exprs, gamma
from deltacalc.errors import DomainError, RangeError
from deltacalc.exprs import parse_ring_element

T3 = artin.ArtinRing(("t",), ((3,),))
T4 = artin.ArtinRing(("t",), ((4,),))
UV = artin.ArtinRing(("u", "v"), ((2, 0), (0, 2)))
UV_SQ = artin.ArtinRing(("u", "v"), ((2, 0), (0, 2), (1, 1)))


def test_ring_validation():
    with pytest.raises(DomainError):
        artin.ArtinRing(("u", "v"), ((2, 0),))  # v has no pure power
    with pytest.raises(DomainError):
        artin.ArtinRing(("t",), ((0,),))  # unit relation
    with pytest.raises(DomainError):
        artin.ArtinRing(("t", "t"), ((2, 0), (0, 2)))


def test_exponent_box_budget():
    # the box stays refused for listing; m_index searches only the corners
    huge = artin.ArtinRing(("t",), ((10**8,),))
    wide = artin.ArtinRing(("u", "v"), ((1001, 0), (0, 1000)))
    for ring in (huge, wide):
        with pytest.raises(DomainError, match="budget"):
            ring.normal_monomials()
    assert artin.m_index(huge) == 10**8
    assert artin.m_index(wide) == 2000
    six = artin.ArtinRing(tuple("abcdef"), tuple(
        tuple(40 if j == k else 0 for j in range(6)) for k in range(6)))
    assert artin.m_index(six) == 6 * 39 + 1


# 7 variables, relations (k,)*7 for k = 2..8 and pure powers 9: 8^7 corners
OVER_GRID = artin.ArtinRing(tuple("abcdefg"), tuple(
    [(k,) * 7 for k in range(2, 9)] + [tuple(9 if j == k else 0 for j in range(7))
                                       for k in range(7)]))


def test_corner_grid_budget(monkeypatch):
    def searched(*corners):
        raise AssertionError("the grid was searched before it was refused")

    monkeypatch.setattr(artin, "product", searched)
    # 2,097,152 corner candidates x 14 relations
    with pytest.raises(DomainError, match=r"^ring monomials tested x max\(1, relations\) reached "
                       "29,360,128, over the budget of 1,000,000$"):
        artin.m_index(OVER_GRID)


def test_relation_exponents_stay_below_2_32():
    assert artin.m_index(artin.ArtinRing(("t",), ((2**32 - 1,),))) == 2**32 - 1
    with pytest.raises(RangeError):
        artin.ArtinRing(("t",), ((2**32,),))


@st.composite
def small_rings(draw, max_vars=4):
    nvars = draw(st.integers(1, max_vars))
    pure = [tuple(draw(st.integers(1, 8)) if j == k else 0 for j in range(nvars))
            for k in range(nvars)]
    mixed = draw(st.lists(st.tuples(*[st.integers(0, 9)] * nvars).filter(any), max_size=5))
    return artin.ArtinRing(tuple("abcd"[:nvars]), tuple(pure + mixed))


@given(small_rings())
@settings(max_examples=400, deadline=None)
def test_m_index_matches_box_enumeration(ring):
    # oracle: list every normal monomial of the box and take the top degree
    assert artin.m_index(ring) == max(sum(m) for m in ring.normal_monomials()) + 1


@given(small_rings(), st.data())
@settings(max_examples=200, deadline=None)
def test_index_within_bound_on_random_rings(ring, data):
    # oracle for the bound: the m_index of the listed box
    monos = ring.normal_monomials()
    box_m_index = max(sum(m) for m in monos) + 1
    m_index, bound = artin.nilpotency_bound(ring)
    assert (m_index, bound) == (box_m_index, (box_m_index - 1).bit_length())
    ideal = [m for m in monos if any(m)]
    coefs = data.draw(st.lists(st.lists(st.sampled_from(ideal), min_size=1, max_size=3),
                               max_size=4) if ideal else st.just([]))
    w = artin.MixedElement(ring, tuple((ring.element(c), f"x{k}") for k, c in enumerate(coefs)))
    assert artin.gamma2_nilpotency_index(w) <= bound


def test_ring_json_round_trip():
    ring = exprs.parse_ring('{"vars": ["u", "v"], "relations": ["u^2", "v^3"]}')
    assert ring.variables == ("u", "v")
    assert set(ring.relations) == {(2, 0), (0, 3)}
    again = exprs.parse_ring(json.dumps(exprs.format_ring(ring)))
    assert again == ring and hash(again) == hash(ring) and again is not ring
    assert {ring: "uv"}[again] == "uv"  # rings are values, so they key dicts
    assert ring != UV and ring != (ring.variables, ring.relations)


def test_multiplication_examples():
    t = parse_ring_element("t", T3)
    t2 = artin.ring_multiply(T3, t, t)
    assert t2 == parse_ring_element("t^2", T3)
    assert artin.ring_multiply(T3, t2, t) == T3.zero()
    a = parse_ring_element("t + t^2", T3)
    assert artin.ring_multiply(T3, a, a) == parse_ring_element("t^2", T3)
    assert artin.ring_multiply(T3, a, T3.one()) == a


@given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4),
       st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4))
@settings(max_examples=200)
def test_normal_form_soundness(raw_a, raw_b):
    # oracle: expand naively over the polynomial ring, then reduce once
    ring = artin.ArtinRing(("u", "v"), ((3, 0), (0, 4), (2, 2)))
    a, b = ring.element(raw_a), ring.element(raw_b)
    naive = set()
    for ma in a:
        for mb in b:
            m = (ma[0] + mb[0], ma[1] + mb[1])
            naive ^= {m}
    assert artin.ring_multiply(ring, a, b) == ring.element(naive)


@given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4),
       st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4))
@settings(max_examples=200)
def test_frobenius_linearity(raw_a, raw_b):
    ring = artin.ArtinRing(("u", "v"), ((4, 0), (0, 4)))
    a, b = ring.element(raw_a), ring.element(raw_b)
    lhs = artin.ring_power(ring, a ^ b, 2)
    rhs = artin.ring_power(ring, a, 2) ^ artin.ring_power(ring, b, 2)
    assert lhs == rhs


def test_m_index_examples():
    assert artin.m_index(T3) == 3
    assert artin.m_index(UV) == 3
    assert artin.m_index(UV_SQ) == 2


def test_mixed_element_invariant():
    with pytest.raises(DomainError):
        artin.MixedElement(T3, ((parse_ring_element("1 + t", T3), "x1"),))
    w = artin.MixedElement(T3, ((parse_ring_element("t", T3), "x1"), (T3.zero(), "x2")))
    assert len(w.terms) == 1  # zero coefficients are dropped


def test_mixed_element_merges_repeated_generators():
    t = parse_ring_element("t", T3)
    w = artin.MixedElement(T3, ((t, "x1"), (t, "x1")))
    assert w.terms == ()


def squaring_nilpotency(ring, coef):
    """Oracle for coefficient_nilpotency: square until the power vanishes."""
    s = 0
    while coef:
        coef = artin.ring_multiply(ring, coef, coef)
        s += 1
    return s


@given(small_rings(max_vars=3), st.data())
@settings(max_examples=300, deadline=None)
def test_frobenius_index_matches_repeated_squaring(ring, data):
    ideal = [m for m in ring.normal_monomials() if any(m)]
    picks = data.draw(st.lists(st.sampled_from(ideal), max_size=8) if ideal else st.just([]))
    coef = ring.element(picks)
    assert artin.coefficient_nilpotency(ring, coef) == squaring_nilpotency(ring, coef)


def test_element_budget(monkeypatch):
    def normalized(*args):
        raise AssertionError("the element was normalized before it was refused")

    monkeypatch.setattr(artin.ArtinRing, "element", normalized)
    # 126 + 124 monomials against the 4,001 relations u^a v^(4000-a): 1,000,250 is over
    # the limit of RING_WORK_BUDGET
    staircase = artin.ArtinRing(("u", "v"), tuple((a, 4000 - a) for a in range(4001)))
    terms = [{"coef": " + ".join(f"u^{k}" for k in range(1, n + 1)), "gen": gen}
             for n, gen in ((126, "x"), (124, "y"))]
    with pytest.raises(DomainError, match=r"^ring monomials tested x max\(1, relations\) "
                       "reached 1,000,250, over the budget of 1,000,000$"):
        exprs.parse_mixed_element(json.dumps(terms), staircase)


def doubling_nilpotency(ring, coef):
    """Oracle for coefficient_nilpotency: double each monomial until a relation divides it."""
    index = 0
    for m in coef:
        s = 0
        while ring.is_normal(m):
            m = tuple(e << 1 for e in m)
            s += 1
        index = max(index, s)
    return index


# exponents up to 10^6, with the values at and next to powers of two, where the least s
# changes; repeated squaring of such coefficients would be too slow to be an oracle here
near_powers = st.integers(1, 19).flatmap(lambda k: st.sampled_from([2**k - 1, 2**k, 2**k + 1]))
big_exponents = st.one_of(st.integers(1, 10**6), near_powers)


@st.composite
def big_rings_and_coefficients(draw):
    nvars = draw(st.integers(1, 3))
    pure = [draw(big_exponents) for _ in range(nvars)]
    mixed = draw(st.lists(st.tuples(*[st.one_of(st.just(0), big_exponents)] * nvars).filter(any),
                          max_size=5))
    ring = artin.ArtinRing(tuple("abc"[:nvars]), tuple(
        [tuple(p if j == k else 0 for j in range(nvars)) for k, p in enumerate(pure)] + mixed))
    # each exponent below its variable's pure power, often at or next to a power of two
    below = [st.one_of(st.integers(0, p - 1), st.sampled_from(
        [0] + [e for k in range(20) for e in (2**k - 1, 2**k, 2**k + 1) if e < p]))
        for p in pure]
    monos = draw(st.lists(st.tuples(*below).filter(any), min_size=1, max_size=6))
    return ring, ring.element(monos)


@given(big_rings_and_coefficients())
@settings(max_examples=300, deadline=None)
def test_frobenius_index_matches_doubling_at_large_exponents(ring_and_coef):
    ring, coef = ring_and_coef
    assert artin.coefficient_nilpotency(ring, coef) == doubling_nilpotency(ring, coef)


def test_nilpotency_index_examples():
    assert artin.gamma2_nilpotency_index(
        artin.MixedElement(T3, ((parse_ring_element("t", T3), "x"),))) == 2
    assert artin.gamma2_nilpotency_index(
        artin.MixedElement(UV, ((parse_ring_element("u", UV), "x1"),
                                (parse_ring_element("v", UV), "x2")))) == 1
    assert artin.gamma2_nilpotency_index(artin.MixedElement(T3, ())) == 0
    with pytest.raises(DomainError, match="constant term"):
        artin.coefficient_nilpotency(T3, parse_ring_element("1 + t", T3))


def test_oracle_expansion_examples():
    w = artin.MixedElement(T3, ((parse_ring_element("t", T3), "x"),))
    expansion = artin.gamma2_oracle_expand(w, 1)
    assert expansion == {frozenset({("x", 1)}): parse_ring_element("t^2", T3)}
    assert artin.gamma2_oracle_expand(w, 2) == {}
    assert artin.gamma2_oracle_expand(artin.MixedElement(T3, ()), 2) == {}

    # squares survive in GF(2)[u,v]/(u^3, v^3): all three summands appear
    ring = artin.ArtinRing(("u", "v"), ((3, 0), (0, 3)))
    w2 = artin.MixedElement(ring, ((parse_ring_element("u", ring), "x1"),
                                   (parse_ring_element("v", ring), "x2")))
    expansion = artin.gamma2_oracle_expand(w2, 1)
    assert expansion == {
        frozenset({("x1", 1)}): parse_ring_element("u^2", ring),
        frozenset({("x2", 1)}): parse_ring_element("v^2", ring),
        frozenset({("x1", 0), ("x2", 0)}): parse_ring_element("u*v", ring),
    }


def test_oracle_feasibility_guard():
    w = artin.MixedElement(T3, ((parse_ring_element("t", T3), "x"),))
    with pytest.raises(DomainError):
        artin.gamma2_oracle_expand(w, 5)


FUZZ_RINGS = [
    T3,
    T4,
    UV,
    UV_SQ,
    artin.ArtinRing(("u", "v"), ((3, 0), (0, 2), (2, 1))),
    artin.ArtinRing(("a", "b", "c"), ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
]


def random_witness(rng, ring, max_terms=3):
    monos = [m for m in ring.normal_monomials() if any(m)]
    terms = []
    for k in range(rng.randint(0, max_terms)):
        picks = rng.sample(monos, k=rng.randint(1, min(2, len(monos))))
        terms.append((ring.element(picks), f"x{k + 1}"))
    return artin.MixedElement(ring, tuple(terms))


def test_closed_form_agrees_with_oracle_projection():
    rng = random.Random(2024)
    for ring in FUZZ_RINGS:
        for _ in range(25):
            w = random_witness(rng, ring)
            index = artin.gamma2_nilpotency_index(w)
            assert index <= 4
            for s in range(5):
                projection = artin.indecomposable_part(artin.gamma2_oracle_expand(w, s))
                expected = {}
                for coef, gen in w.terms:
                    power = artin.ring_power(ring, coef, 2**s)
                    if power:
                        expected[(gen, s)] = power
                assert projection == expected, (ring, exprs.format_mixed_element(w), s)
                assert (not any(projection.values())) == (s >= index)


def test_monotonicity_bound():
    rng = random.Random(99)
    for ring in FUZZ_RINGS:
        bound = (artin.m_index(ring) - 1).bit_length()
        for _ in range(25):
            w = random_witness(rng, ring)
            assert artin.gamma2_nilpotency_index(w) <= bound


def test_nilpotency_bound_example():
    w = artin.MixedElement(T3, ((parse_ring_element("t", T3), "x"),))
    assert artin.nilpotency_bound(T3) == (3, 2)
    assert artin.gamma2_nilpotency_index(w) == 2
    assert artin.nilpotency_bound(artin.F2) == (1, 0)


def test_andre_report_small_square_zero_ring():
    rng = random.Random(5)
    for _ in range(10):
        w = random_witness(rng, UV_SQ)
        assert artin.gamma2_nilpotency_index(w) <= 1


def test_axiom_suite_over_ring_clean():
    report = artin.gamma_axiom_suite_over_ring(T4, trials=150, seed=11)
    assert report.ok
    assert all(report.checked[a] == 150 for a in report.checked)


# --- independent oracle: gamma_k(x) = x^k / k! over the rationals ------------
#
# An engine element lifts to Q[generators, ring variables]: the factor
# gamma_{2^e}(g) becomes g^(2^e) / (2^e)!, a ring coefficient the same
# monomials, and monomials in the ring's relations are dropped (the ideal is
# monomial, so this commutes with reduction mod 2).  x^k / k! is computed
# there exactly and mapped back by g^N = N! gamma_N(g), reduced mod 2, with
# gamma_N(g) = prod over the bits b of N of gamma_{2^b}(g).

def q_lift(elem):
    out = defaultdict(Fraction)
    for mono, coef in elem.items():
        gexp = Counter()
        for g, e in mono:
            gexp[g] += 2**e
        scale = Fraction(1, prod(factorial(2**e) for _, e in mono))
        for t in coef:
            out[(frozenset(gexp.items()), t)] += scale
    return out


def q_multiply(ring, a, b):
    out = defaultdict(Fraction)
    for (ga, ta), qa in a.items():
        for (gb, tb), qb in b.items():
            t = tuple(x + y for x, y in zip(ta, tb))
            if ring.is_normal(t):
                out[(frozenset((Counter(dict(ga)) + Counter(dict(gb))).items()), t)] += qa * qb
    return out


def q_lower(poly):
    out = defaultdict(set)
    for (gexp, t), q in poly.items():
        c = q * prod(factorial(n) for _, n in gexp)
        assert c.denominator == 1, "divided powers must have integral coefficients"
        if c.numerator % 2:
            mono = frozenset((g, b) for g, n in gexp for b in range(n.bit_length()) if n >> b & 1)
            out[mono] ^= {t}
    return {mono: frozenset(coef) for mono, coef in out.items() if coef}


def q_gamma(ring, elem, k):
    x = q_lift(elem)
    power = {(frozenset(), (0,) * len(ring.variables)): Fraction(1)}
    for _ in range(k):
        power = q_multiply(ring, power, x)
    return q_lower({key: q / factorial(k) for key, q in power.items()})


ORACLE_RINGS = [
    artin.F2,
    T4,
    artin.ArtinRing(("u", "v"), ((3, 0), (0, 2), (2, 1))),
]


def random_gamma_element(rng, ring, gens, terms=(1, 3)):
    monos = ring.normal_monomials()
    out = {}
    for _ in range(rng.randint(*terms)):
        mono = frozenset((rng.choice(gens), rng.randint(0, 2))
                         for _ in range(rng.randint(1, 2)))
        coef = ring.element(rng.sample(monos, k=rng.randint(1, min(3, len(monos)))))
        artin.add_term(out, mono, coef)
    return out


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: "*".join(r.variables) or "F2")
def test_engine_matches_rational_oracle(ring):
    # FreeGenerator labels have no order; the engine must not need one
    gens = ["a", "b", gamma.FreeGenerator(3), gamma.FreeGenerator(2, 1, ())]
    rng = random.Random(4321)
    for _ in range(120):
        x = random_gamma_element(rng, ring, gens)
        y = random_gamma_element(rng, ring, gens)
        k = rng.randint(0, 5)
        table = artin.gr_gammas(ring, x, k)
        assert table == [q_gamma(ring, x, j) for j in range(k + 1)], (x, k)
        assert artin.gr_gamma(ring, x, k) == table[k]
        assert artin.gr_multiply(ring, x, y) == q_lower(
            q_multiply(ring, q_lift(x), q_lift(y))), (x, y)


def test_gamma_table_when_the_coefficient_squares_to_zero():
    # t^2 over t^4: the heads of each term stop at r = 1, yet gamma_j of the
    # sum is not zero for j >= 2
    t2 = T4.element([(2,)])
    x = {frozenset({("a", 0)}): t2, frozenset({("b", 1)}): t2 ^ T4.element([(1,)]),
         frozenset({("a", 1), ("c", 0)}): t2}
    for elem in ({frozenset({("a", 0)}): t2}, x):
        table = artin.gr_gammas(T4, elem, 4)
        assert table == [q_gamma(T4, elem, j) for j in range(5)], elem
    assert table[2]


@pytest.mark.parametrize("ring", ORACLE_RINGS[:2], ids=lambda r: "*".join(r.variables) or "F2")
def test_engine_matches_rational_oracle_on_longer_sums(ring):
    # the fold over terms, on sums of 4-6 terms
    rng = random.Random(2468)
    for _ in range(40):
        x = random_gamma_element(rng, ring, ["a", "b", "c", "d"], (4, 6))
        k = rng.randint(2, 4)
        assert artin.gr_gamma(ring, x, k) == q_gamma(ring, x, k), (x, k)


def dense_gammas(ring, elem, k):
    """The dense fold, every j from k down and every r <= j: the reference for the sparse one."""
    powers = [{frozenset(): ring.one()}] + [{} for _ in range(k)]
    for mono, coef in elem.items():
        heads = [None, {mono: coef}]
        if k >= 2 and len(mono) == 1:
            ((g, e),) = mono
            power = coef
            for r in range(2, k + 1):
                power = artin.ring_multiply(ring, power, coef)
                if not power:
                    break
                factors = frozenset((g, b + e) for b in range(r.bit_length()) if r >> b & 1)
                heads.append({factors: power})
        for j in range(k, 0, -1):
            for r in range(1, min(j, len(heads) - 1) + 1):
                if powers[j - r]:
                    artin.gr_multiply(ring, heads[r], powers[j - r], powers[j])
    return powers


@st.composite
def gamma_sums(draw, ring):
    monos = ring.normal_monomials()
    out = {}
    for _ in range(draw(st.integers(1, 5))):
        mono = frozenset(draw(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 2)),
                                       min_size=1, max_size=2)))
        artin.add_term(out, mono, ring.element(draw(st.lists(st.sampled_from(monos),
                                                             min_size=1, max_size=3))))
    return out


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: "*".join(r.variables) or "F2")
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_fold_matches_dense_reference(ring, data):
    x = data.draw(gamma_sums(ring))
    k = data.draw(st.integers(0, 8))
    assert artin.gr_gammas(ring, x, k) == dense_gammas(ring, x, k)


@st.composite
def short_sums(draw, ring, k):
    # 0-3 terms, each coefficient nonzero; a degree-0 term only below k = 2,
    # where gamma_k is defined on one
    monos = ring.normal_monomials()
    out = {}
    for _ in range(draw(st.integers(0, 3))):
        mono = frozenset(draw(st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 2)),
                                       min_size=0 if k < 2 else 1, max_size=2)))
        artin.add_term(out, mono, ring.element(draw(st.lists(st.sampled_from(monos),
                                                             min_size=1, max_size=3))))
    return out


@pytest.mark.parametrize("ring", ORACLE_RINGS, ids=lambda r: "*".join(r.variables) or "F2")
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_last_only_gamma_matches_the_table_and_the_oracle(ring, data):
    k = data.draw(st.integers(0, 8))
    x = data.draw(short_sums(ring, k))
    assert artin.gr_gamma(ring, x, k) == artin.gr_gammas(ring, x, k)[k] == q_gamma(ring, x, k)


def test_last_only_gamma_edge_cases():
    t, t2 = T4.element([(1,)]), T4.element([(2,)])
    a, b = frozenset({("a", 0)}), frozenset({("b", 1)})
    cases = [(ring, {}, k) for ring in ORACLE_RINGS for k in range(9)]
    # degree-0 terms, defined at k < 2, first, last and alone
    cases += [(ring, x, k) for ring in ORACLE_RINGS for k in (0, 1) for x in (
        {frozenset(): ring.one()}, {frozenset(): ring.one(), a: ring.one()},
        {a: ring.one(), frozenset(): ring.one()})]
    cases += [(T4, {frozenset(): t2 ^ t, a: t}, k) for k in (0, 1)]
    # t^2 over t^4: the heads of the first (or last) term stop at r = 1
    for x in ({a: t2}, {a: t2, b: t}, {b: t, a: t2}, {a: t2, b: t2 ^ t}):
        cases += [(T4, x, k) for k in range(9)]
    for ring, x, k in cases:
        assert artin.gr_gamma(ring, x, k) == artin.gr_gammas(ring, x, k)[k] == q_gamma(ring, x, k), (
            ring, x, k)


# a box of 6, which memoises every product, and a box of 16 with 15 normal monomials,
# which memoises none
U3V2 = artin.ArtinRing(("u", "v"), ((3, 0), (0, 2)))
MEMO_RING = artin.ArtinRing(("u", "v"), ((4, 0), (0, 4), (3, 3)))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_memoised_products_match_the_product_loop(data):
    for ring in (U3V2, MEMO_RING):
        monos = ring.normal_monomials()
        a, b = (frozenset(data.draw(st.lists(st.sampled_from(monos), max_size=8, unique=True)))
                for _ in range(2))
        want = artin._multiply(ring.relations, a, b)
        assert want == ring.element(tuple(map(sum, zip(ma, mb))) for ma in a for mb in b)
        for _ in range(2):  # a miss, then a hit where the ring keeps a memo
            assert artin.ring_multiply(ring, a, b) == want
        assert ring._products is None if ring is MEMO_RING else (a, b) in ring._products


def test_product_memo_is_bounded():
    # a box of 6 has 2^6 normal elements, so its memo holds at most 64 x 64 products,
    # each computed by the product loop; every one of them is kept
    monos = U3V2.normal_monomials()
    assert artin.PRODUCT_MEMO_BOX == len(monos) == 6
    elements = [frozenset(c) for n in range(7) for c in itertools.combinations(monos, n)]
    assert len(elements) == 64
    for a in elements:
        for b in elements:
            artin.ring_multiply(U3V2, a, b)
    assert len(U3V2._products) == 4096
    for (a, b), product in U3V2._products.items():
        assert product == artin._multiply(U3V2.relations, a, b)
    # a box of 7 keeps no memo
    wide = artin.ArtinRing(("t",), ((7,),))
    assert wide._products is None
    a, b = frozenset(wide.normal_monomials()[:2]), frozenset(wide.normal_monomials()[3:5])
    assert artin.ring_multiply(wide, a, b) == artin._multiply(wide.relations, a, b)
    assert wide._products is None
    # GF(2), the ring with no relations, multiplies 0 and 1 without the loop or the memo
    for a in (artin.F2.zero(), artin.F2.one()):
        for b in (artin.F2.zero(), artin.F2.one()):
            assert artin.ring_multiply(artin.F2, a, b) == artin._multiply((), a, b)
    assert not artin.F2._products


def test_engine_counts_its_own_work(monkeypatch):
    # k alone is counted first, so a huge k is refused before any list is built
    with pytest.raises(DomainError, match="budget"):
        artin.gr_gammas(artin.F2, {}, 10**12)
    a, b, ab = frozenset({("a", 0)}), frozenset({("b", 0)}), frozenset({("a", 0), ("b", 0)})
    t = parse_ring_element("t", T4)
    # over t^4 at k = 2: 2, then the heads t * t of t a and t b.  The first term's
    # fold forms no products, and gamma_j(t) at r = j is added with none, as
    # gamma_0 is the unit; the one fold product is t b * t a, since t ab shares
    # a factor with both
    x = {a: t, b: t, ab: t}
    t2 = parse_ring_element("t^2", T4)
    monkeypatch.setattr(artin.EXPANSION_BUDGET, "limit", 5)
    assert artin.gr_gammas(T4, x, 2)[2] == artin.gr_gamma(T4, x, 2) == {
        frozenset({("a", 1)}): t2, frozenset({("b", 1)}): t2, ab: t2}
    monkeypatch.setattr(artin.EXPANSION_BUDGET, "limit", 4)
    for engine in (artin.gr_gammas, artin.gr_gamma):
        with pytest.raises(DomainError, match="reached 5, over the budget of 4$"):
            engine(T4, x, 2)
    # the last term of gr_gamma updates only j = k: at k = 3 on t a + t b it
    # skips the table's product at j = 2, and costs 9 where the table costs 10
    monkeypatch.setattr(artin.EXPANSION_BUDGET, "limit", 9)
    assert len(artin.gr_gamma(T4, {a: t, b: t}, 3)) == 4
    with pytest.raises(DomainError, match="reached 10, over the budget of 9$"):
        artin.gr_gammas(T4, {a: t, b: t}, 3)
    # each product weighs max(1, relations): k = 2 plus the head u * u against two
    # relations, which vanishes
    monkeypatch.setattr(artin.EXPANSION_BUDGET, "limit", 4)
    u = parse_ring_element("u", UV)
    assert artin.gr_gamma(UV, {a: u}, 2) == {}
    monkeypatch.setattr(artin.EXPANSION_BUDGET, "limit", 3)
    with pytest.raises(DomainError, match="reached 4, over the budget of 3$"):
        artin.gr_gamma(UV, {a: u}, 2)


def test_oracle_counts_its_squarings_on_one_tally(monkeypatch):
    # over (u^8, v^8) each of the three squarings of (u + v) x costs 2 + 2 * 2 * 2
    # for its head, the one product it forms; the third head vanishes
    ring = exprs.parse_ring('{"vars":["u","v"],"relations":["u^8","v^8"]}')
    w = artin.MixedElement(ring, ((parse_ring_element("u + v", ring), "x"),))
    monkeypatch.setattr(artin.EXPANSION_BUDGET, "limit", 30)
    assert artin.gamma2_oracle_expand(w, 3) == {}
    monkeypatch.setattr(artin.EXPANSION_BUDGET, "limit", 29)
    with pytest.raises(DomainError, match="reached 30, over the budget of 29$"):
        artin.gamma2_oracle_expand(w, 3)


def test_axiom_suites_catch_a_wrong_gamma_3(monkeypatch):
    # the suites read every divided power of x and y from one gr_gammas table
    # per element, so a wrong entry of that table must still fail them
    engine = artin.gr_gammas

    def wrong(ring, elem, k):
        table = engine(ring, elem, k)
        if k >= 3:
            table[3] = {}
        return table

    monkeypatch.setattr(artin, "gr_gammas", wrong)
    assert gamma.gamma_axiom_suite(trials=100, seed=7).ok is False
    assert artin.gamma_axiom_suite_over_ring(T4, trials=100, seed=11).ok is False


def test_axiom_suites_catch_a_wrong_last_only_gamma_3(monkeypatch):
    # the sum, scalar and square rules take gamma_k from gr_gamma, which does not
    # read gr_gammas's table, so a wrong gamma_3 there alone must fail them too
    engine = artin.gr_gamma

    def wrong(ring, elem, k):
        return {} if k == 3 else engine(ring, elem, k)

    monkeypatch.setattr(artin, "gr_gamma", wrong)
    for report in (gamma.gamma_axiom_suite(trials=100, seed=7),
                   artin.gamma_axiom_suite_over_ring(T4, trials=100, seed=11)):
        assert report.ok is False
        assert all(report.failures[a] for a in ("sum_rule", "scalar_rule", "square_composition"))
        assert not any(report.failures[a] for a in (
            "gamma0_gamma1", "same_argument_product", "product_vanishing"))


def test_gamma_folds_long_sums_without_recursion():
    # 3,000 terms; a recursion with one frame per term overflowed the stack here
    elem = {frozenset({(f"x{i}", 0)}): artin.F2.one() for i in range(3000)}
    assert artin.gr_gamma(artin.F2, elem, 1) == elem


def test_gf2_entry_points_match_rational_oracle():
    pool = [m for m in gamma.s_basis([(1, 1), (2, 1), (3, 1)], 9).monomials if m]
    rng = random.Random(8765)
    for _ in range(150):
        x = frozenset(rng.sample(pool, k=rng.randint(1, 3)))
        k = rng.randint(0, 5)
        expected = q_gamma(artin.F2, dict.fromkeys(x, artin.F2.one()), k)
        assert gamma.gamma_power(x, k) == frozenset(expected)
