"""Artin local GF(2)-algebras presented by monomial ideals, and the
divided-square nilpotency computation over them.

A ring is GF(2)[x1, ..., xk] modulo an ideal generated by monomials, with
the requirement that every variable occurs in a pure-power relation; that
makes the quotient finite dimensional, so the maximal ideal m generated by
the variables is nilpotent.  Elements are GF(2) sums of normal-form
monomials (exponent vectors not divisible by any relation), so arithmetic
is divisibility bookkeeping and no Groebner machinery is needed.

A mixed element is a sum of terms (coefficient in m) * (abstract chain
generator of positive degree).  Iterating the divided square on such a sum
leaves, modulo decomposables, only the terms ``t_i^(2^s) * gamma2^s(x_i)``,
so its nilpotency index is the least s at which every coefficient's
2^s-th power vanishes.  The closed form is validated against a brute-force
expansion of the divided power axioms in the free divided power algebra
over the ring.

That free divided power algebra over a ring is the one divided-power
engine of the package: GF(2) is the ring ``F2`` with no variables, and
``gamma`` runs its GF(2) arithmetic and axiom suite through it, so this
module sits below ``gamma``.  It holds no text: ``exprs`` reads rings,
ring elements and mixed elements, and prints them.
"""

from __future__ import annotations

from itertools import product
from math import inf, prod
from operator import add, ge

from .errors import Budget, DomainError, check_index

RingElement = frozenset  # frozenset[tuple[int, ...]] of normal-form exponent vectors

# The ring work that each of five searches and readers counts with
# check_ring_work before it starts: the ring monomials it tests, each against
# every relation, so weighed by max(1, relations).  normal_monomials counts
# its box below the pure powers, m_index its staircase corners, exprs's ring
# element and mixed element readers their monomials before they cancel, and
# the CLI's ring-mul the monomial pairs of its product.  A mixed element needs
# no budget of its own, as coefficient_nilpotency tests each monomial once
# against each relation.  ring_multiply itself is unbudgeted, as the
# divided-power engine and the axiom suites call it for every product they
# form.  At the limit, end to end on one core of a 2-vCPU machine, the
# costliest, ring-mul on 707 x 707 monomials over two variables, all products
# distinct, takes 1.5-2.5 s and 127 MB, about half of it printing the product;
# reading a factor of 249 monomials against 4,001 relations takes 0.2-0.4 s,
# the 9,801 corners of a 100-relation staircase 0.2-0.3 s, and nilpotency
# --element with 10,000 coefficient monomials over that staircase 0.8-1.2 s.
# Listing the box of t^1000000 takes 0.4 s in process.
RING_WORK_BUDGET = Budget("ring monomials tested x max(1, relations)", 1_000_000)

# Largest divided-power expansion, the work gr_gammas and gr_gamma charge as
# they go, over the outermost call that opens the tally: k for the k + 1
# powers, plus |a| * |b| * max(1, relations) for each ring product a * b
# formed.  gamma_k of one monomial over GF(2) costs 2k - 1, of a sum of two
# 4k - 3.  At the limit, end to end on one core of a 2-vCPU machine,
# gamma_150000(x3) takes 0.1 s and 26 MB, and the costliest shape, one atom
# of two to four terms, up to about 1 s and 230 MB: gamma_75000 of the two
# terms of d3 d7 x7 takes 1.0 s and 208 MB.  The oracle's squarings share one
# tally.
EXPANSION_BUDGET = Budget(
    "divided-power work: k + |a| x |b| x max(1, relations) per ring product", 300_000)

# Most trials of one axiom suite.  A trial of the two suites the CLI runs
# takes about 0.25 ms on one core of a 2-vCPU machine, so the limit is about
# 2-3 s end to end.
AXIOM_TRIAL_BUDGET = Budget("axiom trials", 10_000)


# ring_multiply memoises every product in a ring whose box below the pure
# powers holds at most PRODUCT_MEMO_BOX monomials, and none in any other ring.
# Such a ring has at most 2^6 normal elements, so its memo holds at most 4,096
# products of at most 6 monomials each, by construction.  The rings that keep
# one include the axiom suites' GF(2)[t]/(t^4), whose thousands of small
# products recur, and the benchmark's oracle rings GF(2)[t]/(t^3), (t^5),
# GF(2)[u,v]/(u^2,v^2) and (u^3,v^2,u^2 v).  GF(2) returns before the memo.
# The box-8 oracle ring GF(2)[a,b,c]/(a^2,b^2,c^2) loses it at no measured
# cost: in process on a 2-vCPU machine, 41 nilpotency --oracle commands took
# 92-113 ms against 94-99 ms with a memo in boxes up to 16, and the axioms
# compute of 120 commands 1.59-1.77 s against 1.60-1.81 s.
PRODUCT_MEMO_BOX = 6


def check_ring_work(ring: ArtinRing, monomials: int) -> None:
    """Refuse testing this many monomials against the ring's relations past RING_WORK_BUDGET."""
    RING_WORK_BUDGET.check(monomials * max(1, len(ring.relations)))


class ArtinRing:
    """GF(2)[variables] modulo monomial relations; a value, equal and hashing by its fields."""

    __slots__ = ("variables", "relations", "pure_powers", "unit", "_products")

    def __init__(self, variables: tuple[str, ...], relations: tuple[tuple[int, ...], ...]):
        self.variables = tuple(variables)
        self.relations = tuple(tuple(r) for r in relations)
        if len(set(self.variables)) != len(self.variables):
            raise DomainError("duplicate variable names")
        nvars = len(self.variables)
        for r in self.relations:
            if len(r) != nvars or any(e < 0 for e in r):
                raise DomainError(f"bad relation exponent vector {r}")
            for e in r:
                check_index(e, "relation exponent")
            if not any(r):
                raise DomainError("the unit monomial cannot be a relation")
        # the lowest pure power of each variable that is a relation
        self.pure_powers = tuple(min((r[k] for r in self.relations if r[k] == sum(r)), default=0)
                                 for k in range(nvars))
        if 0 in self.pure_powers:
            v = self.variables[self.pure_powers.index(0)]
            raise DomainError(f"variable {v!r} needs a pure-power relation to keep the ring Artin")
        self.unit = frozenset({(0,) * nvars})
        self._products = {} if prod(self.pure_powers) <= PRODUCT_MEMO_BOX else None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.variables, self.relations) == (other.variables, other.relations)

    def __hash__(self):
        return hash((self.variables, self.relations))

    def __repr__(self):
        return f"ArtinRing({self.variables!r}, {self.relations!r})"

    def one(self) -> RingElement:
        return self.unit

    def zero(self) -> RingElement:
        return frozenset()

    def is_normal(self, mono: tuple[int, ...]) -> bool:
        for rel in self.relations:
            if all(map(ge, mono, rel)):
                return False
        return True

    def element(self, monomials) -> RingElement:
        """Normalize a GF(2) sum of exponent vectors."""
        out: set = set()
        for m in monomials:
            m = tuple(int(e) for e in m)
            if len(m) != len(self.variables):
                raise DomainError(f"exponent vector {m} has the wrong arity")
            if self.is_normal(m):
                out ^= {m}
        return frozenset(out)

    def normal_monomials(self) -> list[tuple[int, ...]]:
        """Every normal-form monomial, the unit included, in exponent order.

        The search runs over the box below the pure-power relations, each
        monomial tested against every relation: the box is checked with
        check_ring_work before the search.
        """
        bounds = self.pure_powers
        check_ring_work(self, prod(bounds))
        return [m for m in product(*(range(b) for b in bounds)) if self.is_normal(m)]


def ring_multiply(ring: ArtinRing, a: RingElement, b: RingElement) -> RingElement:
    """The product of two normal elements, itself normal.

    GF(2) is the one ring with no relations, its elements 0 and 1, so there
    the product is ``a and b``.
    """
    relations = ring.relations
    if not relations:
        return a and b
    memo = ring._products
    if memo is None:
        return _multiply(relations, a, b)
    out = memo.get((a, b))
    if out is None:
        out = memo[a, b] = _multiply(relations, a, b)
    return out


def _multiply(relations, a: RingElement, b: RingElement) -> RingElement:
    """The product loop: each monomial pair's sum, kept unless a relation divides it."""
    out: set = set()
    for ma in a:
        for mb in b:
            m = tuple(map(add, ma, mb))
            for rel in relations:
                if all(map(ge, m, rel)):
                    break
            else:
                out ^= {m}
    return frozenset(out)


def ring_power(ring: ArtinRing, a: RingElement, k: int) -> RingElement:
    if k < 0:
        raise DomainError("negative ring power")
    out = ring.one()
    for _ in range(k):
        out = ring_multiply(ring, out, a)
    return out


def m_index(ring: ArtinRing) -> int:
    """Minimal s with every product of s variables reducing to zero.

    That is one more than the highest total degree of a normal monomial,
    found among the corners of the staircase instead of the whole box.
    The highest degree is reached at a maximal normal monomial m, one with
    m + e_i in the ideal for every variable i.  Some relation r divides
    m + e_i and not m, so r_i = m_i + 1: every coordinate of m is r_i - 1
    for a relation r with r_i > 0, and it lies below the pure power of its
    variable.  The grid of those candidates is searched with is_normal,
    which tests a candidate against every relation; the candidates are
    checked with check_ring_work before the search.
    """
    corners = [{r[k] - 1 for r in ring.relations if 0 < r[k] <= bound}
               for k, bound in enumerate(ring.pure_powers)]
    check_ring_work(ring, prod(len(c) for c in corners))
    return max(sum(m) for m in product(*corners) if ring.is_normal(m)) + 1


def in_maximal_ideal(ring: ArtinRing, elem: RingElement) -> bool:
    return (0,) * len(ring.variables) not in elem


class MixedElement:
    """Sum of (coefficient in the maximal ideal) * (positive-degree chain generator)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: ArtinRing, terms):
        self.ring = ring
        merged: dict[str, RingElement] = {}
        nvars = len(ring.variables)
        for coef, gen in terms:
            coef = frozenset(coef)
            if any(len(m) != nvars for m in coef):
                raise DomainError(f"coefficient of {gen} does not live in the given ring")
            merged[gen] = merged.get(gen, frozenset()) ^ coef
        clean = []
        for gen in sorted(merged):
            coef = merged[gen]
            if not coef:
                continue
            if not in_maximal_ideal(ring, coef):
                raise DomainError(
                    f"coefficient of {gen} has a constant term; it must lie in the maximal ideal"
                )
            clean.append((coef, gen))
        self.terms = tuple(clean)  # (coefficient, generator) pairs, one per generator


def coefficient_nilpotency(ring: ArtinRing, coef: RingElement) -> int:
    """Minimal s with coef^(2^s) = 0, for a coefficient in the maximal ideal.

    Squaring is additive in characteristic 2, and distinct monomials stay
    distinct under doubling, so coef^(2^s) vanishes exactly when a relation
    divides 2^s * m for every monomial m of coef.  A relation r divides
    2^s * m exactly when m_k > 0 and 2^s * m_k >= r_k for every k with
    r_k > 0: the least such s is the max over those k of
    ((r_k - 1) // m_k).bit_length(), and there is none if one such m_k = 0.
    The min of that over the relations is finite, as the pure power of a
    variable of m qualifies, and the index is its max over m: one test of
    each monomial against each relation, the work RING_WORK_BUDGET counts.
    0 for the zero coefficient; a constant term raises DomainError.
    """
    if not in_maximal_ideal(ring, coef):
        raise DomainError("a coefficient with a constant term is not nilpotent")
    worst = 0
    for m in coef:
        best = inf
        for rel in ring.relations:
            s = 0
            for e, r in zip(m, rel):
                if r:
                    if not e:
                        break
                    t = ((r - 1) // e).bit_length()
                    if t > s:
                        s = t
            else:
                if s < best:
                    best = s
        if best > worst:
            worst = best
    return worst


def gamma2_nilpotency_index(w: MixedElement) -> int:
    """Least s at which the s-fold divided square of w becomes decomposable.

    Closed form: modulo decomposables the iterate is the sum of
    ``coef^(2^s) * gamma2^s(gen)``, so the index is the worst coefficient's
    Frobenius vanishing order.  Zero for the zero element.
    """
    return max((coefficient_nilpotency(w.ring, c) for c, _ in w.terms), default=0)


def nilpotency_bound(ring: ArtinRing) -> tuple[int, int]:
    """The ring's m_index and the bound ceil(log2(m_index)) on every nilpotency index.

    Iterated divided squares of a coefficient-weighted sum reduce, modulo
    decomposables, to Frobenius powers of the coefficients (see
    gamma2_nilpotency_index).  Every coefficient lies in the maximal ideal,
    whose m_index-fold products vanish, so coef^(2^s) = 0 once 2^s reaches
    m_index.  Through the boundary rule for the reindexed operations,
    divided-square nilpotency of boundaries yields nilpotency of the
    degree-doubling operation on the indecomposables of the torsion
    algebra; this bound is the constructive content of that step.
    """
    mi = m_index(ring)
    return mi, (mi - 1).bit_length()


# --- the free divided power algebra over a ring ---
#
# Elements are dicts mapping a monomial (frozenset of (generator, e) pairs,
# each factor gamma_{2^e}(generator)) to its nonzero ring coefficient.
# Generators are any hashable labels; no order on them is needed.

GammaOverR = dict

F2 = ArtinRing((), ())  # GF(2): the ring with no variables


def add_term(out: GammaOverR, mono: frozenset, coef: RingElement) -> None:
    """Add coef * mono to out in place, dropping a coefficient that cancels."""
    if mono in out:
        coef = out.pop(mono) ^ coef
    if coef:
        out[mono] = coef


def gr_multiply(ring: ArtinRing, a: GammaOverR, b: GammaOverR, out=None) -> GammaOverR:
    """The product a * b, added in place to ``out`` when one is given.

    Monomials sharing a factor multiply to zero: a repeated gamma factor
    squares to C(2^(e+1), 2^e) = 0 mod 2 times the next one.
    """
    out = {} if out is None else out
    for ma, ca in a.items():
        for mb, cb in b.items():
            if ma.isdisjoint(mb):
                add_term(out, ma | mb, ring_multiply(ring, ca, cb))
    return out


def gr_gammas(ring: ArtinRing, elem: GammaOverR, k: int) -> list[GammaOverR]:
    """The divided powers [gamma_0, ..., gamma_k] over the ring, expanded through the axioms.

    gamma_j of a sum x + t is the sum over r of gamma_r(t) times
    gamma_(j-r)(x).  The terms are folded in one at a time, powers[j]
    holding gamma_j of those folded so far, up to the top nonzero j.  Each
    new term updates j from the new top down to 1, so powers[j - r] still
    holds its old value, as in the knapsack of gamma.basis_counts; r starts
    where j - r meets the old top, r = 0 is the value in place, and r = j
    adds gamma_j(t) itself, with no product, as gamma_0 is the unit.  The
    first term therefore forms no fold products at all.  The heads
    gamma_r(t) of t = c * m are t at r = 1; on a single factor
    m = gamma_(2^e)(g), c^r = c^(r-1) * c times the factors of g at the bits
    of r << e, up to the first zero power; on two or more factors, zero for
    r >= 2.

    Every coefficient of elem must be a nonzero normal RingElement, as
    add_term and ArtinRing.element leave them: a head is used as is, never
    multiplied by the unit to normalize it.  The work counted is k plus
    |a| * |b| * max(1, relations) for each ring product a * b formed, on
    EXPANSION_BUDGET's tally, which this call opens; gamma_k of one
    monomial over GF(2) costs 2k - 1 here and in gr_gamma.  DomainError for
    a degree-0 term when k >= 2, and before a product that takes the tally
    past its limit.
    """
    return _divided_powers(ring, elem, k, False)


def gr_gamma(ring: ArtinRing, elem: GammaOverR, k: int) -> GammaOverR:
    """The divided power gamma_k over the ring: gr_gammas(ring, elem, k)[k].

    The fold is gr_gammas's up to the last term t, which updates j = k
    alone, gamma_k = sum over r of gamma_r(t) * gamma_(k-r)(rest), and
    builds the factors of only the heads that sum reads.  For a sum of two
    one-factor terms that is k - 1 fold products, where the table forms
    about k^2/2.
    """
    return _divided_powers(ring, elem, k, True)


def _divided_powers(ring: ArtinRing, elem: GammaOverR, k: int, last_only: bool):
    """gr_gammas's table, or with last_only gr_gamma's entry k alone."""
    if k < 0:
        raise DomainError(f"negative divided power {k}")
    with EXPANSION_BUDGET:
        charge, weight = EXPANSION_BUDGET.charge, max(1, len(ring.relations))
        charge(k)
        powers = [{frozenset(): ring.unit}]
        if not k:  # gamma_0 = 1, whatever elem is
            return powers[0] if last_only else powers

        def update(out: GammaOverR, j: int, top: int, heads: list) -> GammaOverR:
            # add gamma_r(t) * powers[j - r] for r = 1..j to out, which holds r = 0
            hmax = len(heads) - 1
            if j <= hmax:  # r = j: gamma_0 is the unit
                add_term(out, *heads[j])
            for r in range(max(1, j - top), min(j - 1, hmax) + 1):
                mh, ch = heads[r]
                cost = len(ch) * weight
                for mp, cp in powers[j - r].items():
                    if mh.isdisjoint(mp):
                        charge(cost * len(cp))
                        add_term(out, mh | mp, ring_multiply(ring, ch, cp))
            return out

        last = len(elem) if last_only else 0
        for n, (mono, coef) in enumerate(elem.items(), 1):
            if k >= 2 and not mono:
                raise DomainError("divided powers are undefined on degree-0 terms")
            top = len(powers) - 1
            # the last term of gr_gamma reads only the heads with r >= k - top
            low = k - top if n == last else 1
            heads = [None, (mono, coef)]  # gamma_r(coef * mono) is one monomial term
            if k >= 2 and len(mono) == 1:
                ((g, e),) = mono
                bits = [(g, b + e) for b in range(k.bit_length())]  # shared by the heads
                power = coef
                for r in range(2, k + 1):
                    charge(len(power) * len(coef) * weight)
                    power = ring_multiply(ring, power, coef)
                    if not power:
                        break
                    factors = (frozenset([f for b, f in enumerate(bits) if r >> b & 1])
                               if r >= low else None)
                    heads.append((factors, power))
            if n == last:
                return update(powers[k] if k <= top else {}, k, top, heads)
            if not top:  # the first term: its own divided powers, with no products
                powers += [{mh: ch} for mh, ch in heads[1:]]
                continue
            new_top = min(k, top + len(heads) - 1)
            powers += [{} for _ in range(new_top - top)]
            for j in range(new_top, 0, -1):
                update(powers[j], j, top, heads)
            while not powers[-1]:
                powers.pop()
        powers += [{} for _ in range(k + 1 - len(powers))]
        return powers[k] if last_only else powers


def gamma2_oracle_expand(w: MixedElement, s: int) -> GammaOverR:
    """Fully expand the s-fold divided square of w through the algebra axioms.

    No shortcut modulo decomposables is taken; this is the independent
    check for the closed-form index.  Bounded to 0 <= s <= 4 and at most
    6 terms to keep the expansion at desk scale; the squarings are counted
    on one tally of gr_gammas's EXPANSION_BUDGET, which this call opens and
    which raises DomainError.
    """
    if not 0 <= s <= 4 or len(w.terms) > 6:
        raise DomainError("oracle expansion is limited to 0 <= s <= 4 and <= 6 terms")
    elem = {frozenset({(gen, 0)}): coef for coef, gen in w.terms}
    with EXPANSION_BUDGET:
        for _ in range(s):
            elem = gr_gamma(w.ring, elem, 2)
    return elem


def indecomposable_part(expansion: GammaOverR) -> dict:
    """Single-factor terms of an expansion, keyed (generator, e)."""
    out = {}
    for mono, coef in expansion.items():
        if len(mono) == 1:
            ((g, e),) = mono
            out[(g, e)] = coef
    return out


# --- axiom fuzzing ---


class AxiomReport:
    """Pass/fail tallies for the divided power algebra axioms."""

    __slots__ = ("trials", "checked", "failures")

    def __init__(self, trials: int, checked: dict[str, int], failures: dict[str, int]):
        self.trials = trials
        self.checked = checked
        self.failures = failures

    @property
    def ok(self) -> bool:
        return not any(self.failures.values())


AXIOM_NAMES = ("gamma0_gamma1", "same_argument_product", "sum_rule", "product_vanishing",
               "scalar_rule", "square_composition")


def axiom_suite(ring: ArtinRing, sample, scalars, max_k: int, trials: int,
                seed: int) -> AxiomReport:
    """Fuzz the divided power axioms over the ring.

    Each trial draws x = sample(rng), y = sample(rng) (positive-degree
    elements), then h and k in [0, max_k], then the degree-0 coefficients
    scalars(rng) for the scalar rule gamma_k(c*x) = c^k gamma_k(x).  The
    divided powers of x and y come from one gr_gammas table each per trial.
    """
    if trials < 0:
        raise DomainError(f"trial count must be >= 0, got {trials}")
    AXIOM_TRIAL_BUDGET.check(trials)
    import random  # here, not at start-up: only the axiom suites draw samples
    rng = random.Random(seed)
    checked = {a: 0 for a in AXIOM_NAMES}
    failures = {a: 0 for a in AXIOM_NAMES}

    def tally(axiom: str, passed: bool):
        checked[axiom] += 1
        if not passed:
            failures[axiom] += 1

    def scalar(c: RingElement) -> GammaOverR:
        return {frozenset(): c} if c else {}

    for _ in range(trials):
        x = sample(rng)
        y = sample(rng)
        h = rng.randint(0, max_k)
        k = rng.randint(0, max_k)
        gx = gr_gammas(ring, x, max(h + k, 2 * k, 2))
        gy = gr_gammas(ring, y, k)

        tally("gamma0_gamma1", gx[0] == {frozenset(): ring.unit} and gx[1] == x)

        lhs = gr_multiply(ring, gx[h], gx[k])
        rhs = gx[h + k] if not h & k else {}  # C(h + k, h) is odd iff h, k share no bit
        tally("same_argument_product", lhs == rhs)

        expansion: GammaOverR = {}
        for r in range(k + 1):
            gr_multiply(ring, gx[r], gy[k - r], expansion)
        x_plus_y = dict(x)
        for mono, coef in y.items():
            add_term(x_plus_y, mono, coef)
        tally("sum_rule", gr_gamma(ring, x_plus_y, k) == expansion)

        tally("product_vanishing",
              not any(gr_gammas(ring, gr_multiply(ring, x, y), max_k)[2:]))

        kk = max(k, 1)
        tally("scalar_rule", all(
            gr_gamma(ring, gr_multiply(ring, scalar(c), x), kk)
            == gr_multiply(ring, scalar(ring_power(ring, c, kk)), gx[kk])
            for c in scalars(rng)))

        tally("square_composition", gr_gamma(ring, gx[2], k) == gx[2 * k])

    return AxiomReport(trials, checked, failures)


def _sample_ring_element(rng, monos) -> RingElement:
    # distinct normal monomials are already a normal element
    return frozenset(rng.sample(monos, k=rng.randint(0, min(3, len(monos)))))


def gamma_axiom_suite_over_ring(ring: ArtinRing, trials: int, seed: int = 0) -> AxiomReport:
    """Fuzz the divided power axioms with coefficients in the given ring, up to gamma_3.

    Elements are sums of up to three terms over the generators a, b, c.
    The scalar rule gamma_k(c*y) = c^k gamma_k(y) is the one axiom that
    only has content with nontrivial degree-0 coefficients, which is why
    the suite runs over an Artin ring and not just GF(2).
    """
    monos = ring.normal_monomials()

    def sample(rng) -> GammaOverR:
        out: GammaOverR = {}
        for _ in range(rng.randint(1, 3)):
            nfac = rng.randint(1, 2)
            mono = frozenset((rng.choice("abc"), rng.randint(0, 2)) for _ in range(nfac))
            add_term(out, mono, _sample_ring_element(rng, monos))
        return out

    return axiom_suite(ring, sample, lambda rng: (_sample_ring_element(rng, monos),),
                       3, trials, seed)
