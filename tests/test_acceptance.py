"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single pass line once its assertions hold; a failed
assertion leaves the line unprinted and the test red.
"""

import json
import random
from itertools import combinations
from pathlib import Path

import adem_reference
from deltacalc import artin, gamma
from deltacalc import words as wd
from deltacalc.e1 import e1_page
from deltacalc.f2 import GradedDims

DATA = Path(__file__).parent / "data"
SEED = 987654321


def passed(k, text):
    print(f"criterion {k:>2} PASS: {text}")


def test_criterion_01_adem_vanishing_family():
    for t in (1, 2, 3, 4):
        assert wd.reduce([(2 ** (t + 1), 2**t + 1)]) == frozenset()
        assert wd.reduce([(2 ** (t + 1), 2**t + 2)]) == frozenset()
    passed(1, "delta_{2^(t+1)} kills delta_{2^t+1} and delta_{2^t+2} for t in 1..4")


def test_criterion_02_annihilation_orders():
    for t in range(4):
        for j in range(2**t + 1, 2**t + 13):
            s = wd.annihilation_order(j, t, s_max=8)
            assert s is not None and s <= 8, (j, t)
    assert wd.annihilation_order(3, 1) == 1
    assert wd.annihilation_order(5, 2) == 1
    assert wd.annihilation_order(7, 2) == 2
    passed(2, "finite annihilation order s <= 8 for t <= 3, 2^t < j <= 2^t + 12")


def test_criterion_03_alpha_theta_identity():
    for n in range(2, 11):
        for s in range(7):
            converted = wd.alpha_to_delta(wd.AlphaWord((n - 2,) * s, n))
            assert converted == wd.theta(s, 0), (n, s)
    passed(3, "iterated alpha_{n-2} on degree n converts to theta(s,0), n <= 10, s <= 6")


def test_criterion_04_rewriting_soundness():
    rng = random.Random(SEED)
    words = [tuple(rng.randint(2, 32) for _ in range(rng.randint(0, 5)))
             for _ in range(10_000)]
    for w in words:
        nf = wd.reduce([w])
        for order in adem_reference.ORDERS:
            assert adem_reference.reduce([w], order) == nf, (w, order)
        assert wd.reduce(nf) == nf, w
        for out in nf:
            assert wd.degree(out) == wd.degree(w), (w, out)
    for k in range(0, len(words) - 2, 3):
        a, b, c = (frozenset({words[k + i]}) for i in range(3))
        assert wd.compose(a, wd.compose(b, c)) == wd.compose(wd.compose(a, b), c)
    passed(4, "idempotent, degree-preserving, equal to leftmost and rightmost "
              "pairwise rewriting, associative on 10^4 fuzzed words")


def test_criterion_05_dold_basis():
    gens = gamma.s_generators(3, 20)
    assert [g.degree for g in gens] == [3, 5, 9, 17]

    golden = json.loads((DATA / "free_algebra_on_x3_dims.json").read_text())["dims"]

    # independent oracle: powerset enumeration over brute-force generator words
    def oracle_dims(n, max_degree):
        found = {()}
        frontier = [()]
        budget = max_degree - n
        while frontier:
            word = frontier.pop()
            lo = 2 * word[0] if word else 2
            for i in range(lo, budget - sum(word) + 1):
                w2 = (i,) + word
                if wd.excess(w2) < n:
                    found.add(w2)
                    frontier.append(w2)
        factors = []
        for word in found:
            deg = n + sum(word)
            e = 0
            while (2**e) * deg <= max_degree:
                factors.append((word, (2**e) * deg, e))
                e += 1
        dims = [0] * (max_degree + 1)
        for r in range(len(factors) + 1):
            for sub in combinations(factors, r):
                total = sum(d for _, d, _ in sub)
                if total <= max_degree:
                    dims[total] += 1
        return dims

    assert oracle_dims(3, 10) == golden
    basis = gamma.s_basis([(3, 1)], 10)
    assert [basis.by_degree[d] for d in range(11)] == golden

    for n in range(1, 5):
        b = gamma.s_basis([(n, 1)], 20)
        for d in range(21):
            assert sum(t[d] for t in b.by_weight.values()) == b.by_degree[d]
    passed(5, "generator degrees {3,5,9,17}; dims match the exhaustive oracle and "
              "the golden table; weight slices total correctly for n <= 4")


def test_criterion_06_unstable_vanishing_and_cartan():
    rng = random.Random(SEED + 6)
    checked_unstable = 0
    while checked_unstable < 400:
        word = []
        for _ in range(rng.randint(1, 4)):
            lo = 2 * word[0] if word else 2
            word.insert(0, rng.randint(lo, lo + 8))
        word = tuple(word)
        if wd.degree(word) > 24:
            continue
        n = rng.randint(1, 8)
        start = gamma.generator_element(gamma.FreeGenerator(n))
        if wd.excess(word) > n:
            assert gamma.apply_word(word, start) == gamma.ZERO, (word, n)
            checked_unstable += 1

    pool = gamma.s_basis([(2, 1), (3, 1)], 14).monomials
    positive = [m for m in pool if m]
    checked_cartan = 0
    while checked_cartan < 400:
        a, b = rng.choice(positive), rng.choice(positive)
        prod = gamma.multiply(frozenset({a}), frozenset({b}))
        if not prod:
            continue
        i = rng.randint(2, 20)
        assert gamma.delta_act(i, prod) == gamma.ZERO, (a, b, i)
        checked_cartan += 1
    passed(6, "excess above the degree acts as zero (400 cases); delta_i kills "
              "two-factor monomials (400 cases)")


def test_criterion_07_non_nilpotence_witness():
    # n = 2 is excluded: there alpha_{n-2} is the divided square, whose image
    # is a divided power and so dies in the indecomposables after one step.
    for n in range(3, 9):
        result = gamma.nilpotency_probe(f"alpha:{n - 2}", gamma.FreeGenerator(n), 10)
        assert result.status == "nonvanishing", n
        for s, step in enumerate(result.trajectory):
            expected = gamma.generator_element(gamma.FreeGenerator(n, 1, wd.theta(s, 0)))
            assert step == expected, (n, s)
    passed(7, "alpha_{n-2} survives 10 iterations on x_n with iterate s equal to "
              "theta(s,0) x_n, for 3 <= n <= 8")


def test_criterion_08_axiom_suites():
    f2_report = gamma.gamma_axiom_suite(trials=1000, seed=SEED)
    assert f2_report.ok and all(v == 1000 for v in f2_report.checked.values())
    ring = artin.ArtinRing(("t",), ((4,),))
    ring_report = artin.gamma_axiom_suite_over_ring(ring, trials=1000, seed=SEED)
    assert ring_report.ok and all(v == 1000 for v in ring_report.checked.values())
    passed(8, "divided power axioms hold on 1000 fuzzed instances over GF(2) "
              "and 1000 over GF(2)[t]/(t^4)")


def test_criterion_09_artin_nilpotency():
    rings = [
        artin.ArtinRing(("t",), ((3,),)),
        artin.ArtinRing(("t",), ((5,),)),
        artin.ArtinRing(("u", "v"), ((2, 0), (0, 2))),
        artin.ArtinRing(("u", "v"), ((3, 0), (0, 2), (2, 1))),
        artin.ArtinRing(("a", "b", "c"), ((2, 0, 0), (0, 2, 0), (0, 0, 2))),
    ]
    rng = random.Random(SEED + 9)
    for ring in rings:
        monos = [m for m in ring.normal_monomials() if any(m)]
        bound = (artin.m_index(ring) - 1).bit_length()
        for _ in range(20):
            terms = []
            for k in range(rng.randint(0, 3)):
                picks = rng.sample(monos, k=rng.randint(1, min(2, len(monos))))
                terms.append((ring.element(picks), f"x{k + 1}"))
            w = artin.MixedElement(ring, tuple(terms))
            index = artin.gamma2_nilpotency_index(w)
            assert index <= bound <= 4
            for s in range(min(4, bound + 1) + 1):
                projection = artin.indecomposable_part(artin.gamma2_oracle_expand(w, s))
                assert (not any(projection.values())) == (s >= index), (ring, s)

    t3 = rings[0]
    w = artin.MixedElement(t3, ((t3.parse("t"), "x"),))
    assert artin.gamma2_nilpotency_index(w) == 2
    assert (artin.m_index(t3) - 1).bit_length() == 2
    passed(9, "closed-form index equals the oracle projection on 5 rings x 20 "
              "witnesses; GF(2)[t]/(t^3) with t*x gives index 2 within bound 2")


def test_criterion_10_e1_page():
    table1 = e1_page(GradedDims({1: 1}), 20)
    assert table1.entries == {(k, k): 1 for k in range(21)}
    table2 = e1_page(GradedDims({2: 1}), 20)
    assert table2.entries == {(k, 2 * k): 1 for k in range(11)}
    for table in (table1, table2, e1_page(GradedDims({1: 2, 2: 1, 3: 1}), 20)):
        for (s, t), dim in table.entries.items():
            assert s <= t or dim == 0
    passed(10, "first page is the diagonal for a degree-1 class, the (k,2k) line "
               "for a degree-2 class, and vanishes above the diagonal")
