"""Free divided power algebras on higher-divided-square generators.

The homotopy of a free commutative algebra on a graded vector space W is
the free divided power algebra on generators ``delta_I(x_n)``, one for
each polynomial generator ``x_n`` of W and each admissible word I with
``e(I) < n``.  Such a generator has degree ``n + d(I)`` and weight
``2^length(I)``.  In characteristic 2 every divided power is generated by
the divided square, so a basis monomial is a product of factors
``gamma_{2^e}(g)`` over *distinct* pairs (g, e): a repeated factor squares
to zero.  Dimension tables are therefore counted by a 0/1 knapsack over
the factors (``basis_counts``); ``s_basis`` lists the monomials themselves
for callers that need them, and is the counting's test oracle.  A table is
a ``GradedDims``, which ``graded_tables`` builds from counts keyed (weight,
degree); ``e1`` and ``exprs`` use the same type.

A monomial is the frozenset of its factors, pairs ``(FreeGenerator, e)``
standing for ``gamma_{2^e}(g)``; the unit is the empty frozenset.
``degree``, ``weight``, ``sorted_factors`` and ``sort_key`` read one.
Elements are frozensets of monomials with GF(2) coefficients by
membership.  Products, divided powers and the axiom suite run in
``artin``'s divided power algebra over a ring, with GF(2) as the ring
``artin.F2`` that has no variables; a monomial is that engine's key as it
stands, so it passes through unchanged.

The action of delta_i is computed through the word calculus: a factor
``gamma_{2^e}(delta_I x_n)`` is the admissible word made of e doubling
steps (each index equal to the degree it acts on, i.e. e divided squares)
followed by I.  Applying delta_i prepends an index, the result reduces by
the Adem rules, and each surviving admissible word J is peeled back into
a basis factor: words of excess > n act as zero, words of excess n carry
gamma-power prefixes, and words of excess < n are plain generators.
"""

from __future__ import annotations

from itertools import islice

from . import artin
from . import words as wd
from .errors import Budget, DomainError

Monomial = frozenset  # frozenset[tuple[FreeGenerator, int]]
Element = frozenset  # frozenset[Monomial]

ZERO: Element = frozenset()


class FreeGenerator:
    """A divided-power-algebra generator ``delta_word(x_{base_degree:index})``.

    A value, equal and hashing by its fields; never equal to a tuple.
    """

    __slots__ = ("base_degree", "index", "word")

    def __init__(self, base_degree: int, index: int = 1, word: wd.Word = ()):
        word = wd.check_word(word)
        if base_degree < 1:
            raise DomainError(f"generator degree must be >= 1, got {base_degree}")
        if index < 1:
            raise DomainError(f"generator index must be >= 1, got {index}")
        if not wd.is_admissible(word):
            raise DomainError(f"generator word {word} is not admissible")
        if word and wd.excess(word) >= base_degree:
            raise DomainError(
                f"word of excess {wd.excess(word)} does not generate on degree {base_degree}"
            )
        self.base_degree = base_degree
        self.index = index
        self.word = word

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.base_degree, self.index, self.word) == (
            other.base_degree, other.index, other.word)

    def __hash__(self):
        return hash((self.base_degree, self.index, self.word))

    def __repr__(self):
        return f"FreeGenerator({self.base_degree}, {self.index}, {self.word})"

    @property
    def degree(self) -> int:
        return self.base_degree + sum(self.word)

    @property
    def weight(self) -> int:
        return 2 ** len(self.word)

    @property
    def sort_key(self):
        return (self.degree, self.base_degree, self.index, self.word)


def degree(mon: Monomial) -> int:
    return sum((1 << e) * g.degree for g, e in mon)


def weight(mon: Monomial) -> int:
    return sum((1 << e) * g.weight for g, e in mon)


def sorted_factors(mon: Monomial) -> list[tuple[FreeGenerator, int]]:
    return sorted(mon, key=lambda fe: (fe[0].sort_key, fe[1]))


def sort_key(mon: Monomial):
    return (degree(mon), [(g.sort_key, e) for g, e in sorted_factors(mon)])


UNIT_MONOMIAL: Monomial = frozenset()
ONE: Element = frozenset({UNIT_MONOMIAL})


def generator_element(g: FreeGenerator) -> Element:
    return frozenset({frozenset({(g, 0)})})


def element_degree(elem: Element) -> int | None:
    """Common degree of a homogeneous element; None for the zero element."""
    degs = {degree(m) for m in elem}
    if not degs:
        return None
    if len(degs) > 1:
        raise DomainError(f"element is not homogeneous, degrees {sorted(degs)}")
    return degs.pop()


_F2_ONE = artin.F2.one()


# Factors of the monomial pairs that products form, each pair counted as
# |ma| + |mb|, charged before a product's first pair is formed, over the
# outermost call that opens the tally.  Pairs alone would not bound it: a
# monomial may have thousands of factors.  Memory sets the limit.  Just past
# it (1,082,830), atoms of 1,085 and 499 one-factor terms take 2.7 s and
# 373 MB end to end on one core of a 2-vCPU machine.  A product of 15
# two-term atoms counts 917,504, of which its last factor's product is 491,520.
PRODUCT_BUDGET = Budget("factors of the monomial pairs |a| x |b|", 1_000_000)


def multiply(a: Element, b: Element) -> Element:
    """Bilinear product; monomials sharing a factor multiply to zero."""
    with PRODUCT_BUDGET:
        PRODUCT_BUDGET.charge(len(b) * sum(map(len, a)) + len(a) * sum(map(len, b)))
        return frozenset(artin.gr_multiply(artin.F2, dict.fromkeys(a, _F2_ONE),
                                           dict.fromkeys(b, _F2_ONE)))


def gamma_power(elem: Element, k: int) -> Element:
    """The divided power gamma_k, expanded through the algebra axioms.

    General k splits along the binary expansion on single factors and
    distributes over sums; gamma_k of a product of two positive-degree
    elements vanishes for k >= 2.  The expansion is artin.gr_gamma's, which
    counts its work against artin.EXPANSION_BUDGET.
    """
    return frozenset(artin.gr_gamma(artin.F2, dict.fromkeys(elem, _F2_ONE), k))


def _gamma_prefix_word(g: FreeGenerator, e: int) -> wd.Word:
    m0 = g.degree
    return tuple(m0 << k for k in range(e - 1, -1, -1)) + g.word


def _peel(word: wd.Word, n: int) -> tuple[int, wd.Word] | None:
    """Split an admissible word acting on x_n into (gamma2 count, generator word).

    Scanning right to left, indices below the running degree extend the
    generator word, an index equal to the degree is a divided square, and
    a larger index (excess above n) kills the class.
    """
    m = n
    e = 0
    gen_word: list[int] = []
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


def delta_act(i: int, elem: Element) -> Element:
    """Apply delta_i termwise.

    On a product of two or more positive-degree factors the Cartan formula
    gives zero; on a single factor the action runs through the word
    calculus described in the module docstring.  An index above the degree
    of the term acts as zero, and the index equal to the degree is the
    divided square.  Every term's Adem rewriting is charged to one
    ADEM_BUDGET tally.
    """
    wd.check_delta(i)
    out: set = set()
    with wd.ADEM_BUDGET:
        for mon in elem:
            out ^= _delta_act_monomial(i, mon)
    return frozenset(out)


def _delta_act_monomial(i: int, mon: Monomial) -> Element:
    if len(mon) != 1:
        return ZERO  # the unit in degree 0, or a Cartan-killed product
    ((g, e),) = mon
    m = g.degree << e
    if i > m:
        return ZERO
    if g.base_degree == 1:
        # gamma powers of a degree-1 generator sit below the word calculus:
        # only the top operation (the divided square) survives, by weight.
        if i == m:
            return frozenset({frozenset({(g, e + 1)})})
        return ZERO
    full = (i,) + _gamma_prefix_word(g, e)
    out: set = set()
    for J in wd.reduce([full]):
        peeled = _peel(J, g.base_degree)
        if peeled is None:
            continue
        e2, word2 = peeled
        g2 = FreeGenerator(g.base_degree, g.index, word2)
        out ^= {frozenset({(g2, e2)})}
    return frozenset(out)


def apply_word(word, elem: Element) -> Element:
    """Apply a composite of delta operations, rightmost index first.

    Each stage whose index exceeds the degree it meets acts as zero.  For
    words all of whose stages are in range this agrees with rewriting the
    whole word first; outside that range the rewritten form is not an
    identity of operations and only the stagewise value is meaningful.
    """
    for i in reversed(tuple(word)):
        elem = delta_act(i, elem)
    return elem


def q_project(elem: Element) -> Element:
    """Project to indecomposables: keep bare generators only.

    Monomials with two or more factors are products, and gamma powers with
    e >= 1 are decomposable as divided powers; both are dropped.
    """
    kept = set()
    for mon in elem:
        if len(mon) == 1:
            ((_, e),) = mon
            if e == 0:
                kept.add(mon)
    return frozenset(kept)


def _generator_words(n: int, max_degree: int):
    """Yield every admissible word I with e(I) < n and n + d(I) <= max_degree.

    Yields lazily, so a caller can stop once it has seen enough.
    """
    budget = max_degree - n

    def extend(word: wd.Word, total: int):
        yield word
        lo = 2 * word[0] if word else 2
        # prepending i gives excess i - total, so i < total + n keeps it below n;
        # indices double along a word, so the check ends the recursion by depth 32
        for i in range(lo, min(total + n - 1, budget - total) + 1):
            yield from extend((wd.check_delta(i),) + word, total + i)

    if budget >= 0:
        yield from extend((), 0)


# Most generators that s_generators lists.  Near the limit (x30 through
# degree 320, 193,459 generators) `sgens` takes about 3 s and 140 MB end to
# end on one core of a 2-vCPU machine; x50 through degree 1000 would have
# 43 million.
GENERATOR_BUDGET = Budget("generators listed", 200_000)


def s_generators(n: int, max_degree: int) -> list[FreeGenerator]:
    """All generators delta_I(x_n) with e(I) < n and degree <= max_degree.

    Includes x_n itself (the empty word); sorted by degree, then word.  The
    words are counted against GENERATOR_BUDGET, up to one past its limit,
    before any generator is built.
    """
    if n < 1:
        raise DomainError(f"generator degree must be >= 1, got {n}")
    words = list(islice(_generator_words(n, max_degree), GENERATOR_BUDGET.limit + 1))
    GENERATOR_BUDGET.check(len(words))
    gens = [FreeGenerator(n, 1, w) for w in words]
    gens.sort(key=lambda g: g.sort_key)
    return gens


class SBasis:
    """Monomial basis of the free divided power algebra on W, through a degree cut."""

    __slots__ = ("monomials", "by_degree", "by_weight")

    def __init__(self, monomials: list[Monomial], by_degree: GradedDims,
                 by_weight: dict[int, GradedDims]):
        self.monomials = monomials
        self.by_degree = by_degree
        self.by_weight = by_weight


def _factors(gens, max_degree: int):
    """Yield (n, word, e, mult) for each factor gamma_{2^e}(delta_word x_n) of degree <= max_degree.

    ``gens`` lists pairs (degree n, multiplicity mult); every yielded factor
    stands for mult copies, one per multiplicity index.  All degrees are
    checked before the first factor is yielded.
    """
    gens = list(gens)
    for n, _ in gens:
        if n < 1:
            raise DomainError(f"generator degrees must be >= 1, got {n}")
    for n, mult in gens:
        for word in _generator_words(n, max_degree):
            e = 0
            while (n + sum(word)) << e <= max_degree:
                yield n, word, e, mult
                e += 1


def s_basis(gens, max_degree: int) -> SBasis:
    """Enumerate all basis monomials of degree <= max_degree.

    ``gens`` lists pairs (degree, multiplicity) describing W; a degree-n
    entry of multiplicity d contributes generators labelled x_{n:1}..x_{n:d}.
    The weight-m slice of the result realizes the weight-m summand.
    """
    factor_pool = [
        (FreeGenerator(n, idx, word), e)
        for n, word, e, mult in _factors(gens, max_degree)
        for idx in range(1, int(mult) + 1)
    ]
    factor_pool.sort(key=lambda fe: ((1 << fe[1]) * fe[0].degree, fe[0].sort_key, fe[1]))

    monomials: list[Monomial] = []

    def grow(start: int, chosen: tuple, total: int):
        monomials.append(frozenset(chosen))
        for k in range(start, len(factor_pool)):
            g, e = factor_pool[k]
            d = (1 << e) * g.degree
            if total + d > max_degree:
                continue
            grow(k + 1, chosen + ((g, e),), total + d)

    if max_degree >= 0:
        grow(0, (), 0)
    monomials.sort(key=sort_key)

    counts: dict[tuple[int, int], int] = {}
    for m in monomials:
        key = weight(m), degree(m)
        counts[key] = counts.get(key, 0) + 1
    return SBasis(monomials, *graded_tables(counts))


class GradedDims:
    """Finitely supported table mapping an int degree to an int dimension.

    The JSON form, written by to_json and read by exprs.parse_graded_dims,
    is an object keyed by decimal-string degrees, e.g. ``{"0": 1, "2": 1}``;
    absent degrees are zero.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        table = {}
        for deg, dim in dict(entries or {}).items():
            if deg < 0:
                raise DomainError(f"negative degree {deg}")
            if dim < 0:
                raise DomainError(f"negative dimension {dim} in degree {deg}")
            if dim:
                table[deg] = dim
        self._entries = table

    def __getitem__(self, degree: int) -> int:
        return self._entries.get(degree, 0)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedDims) and self._entries == other._entries

    def __repr__(self) -> str:
        return f"GradedDims({dict(self.items())!r})"

    def items(self) -> list[tuple[int, int]]:
        return sorted(self._entries.items())

    @property
    def min_degree(self) -> int | None:
        return min(self._entries) if self._entries else None

    @property
    def max_degree(self) -> int | None:
        return max(self._entries) if self._entries else None

    def to_json(self) -> dict[str, int]:
        return {str(deg): dim for deg, dim in self.items()}


def graded_tables(counts) -> tuple[GradedDims, dict[int, GradedDims]]:
    """Split a table keyed (weight, degree) into by-degree totals and weight slices."""
    by_degree: dict[int, int] = {}
    by_weight: dict[int, dict[int, int]] = {}
    for (w, d), c in counts.items():
        by_degree[d] = by_degree.get(d, 0) + c
        slice_ = by_weight.setdefault(w, {})
        slice_[d] = slice_.get(d, 0) + c
    return GradedDims(by_degree), {w: GradedDims(t) for w, t in sorted(by_weight.items())}


# Work budget of basis_counts: factors in the pool times (weight, degree)
# cells of the table, whose degrees stop at the cut or at the sum of all
# factor degrees, whichever is lower.  The largest accepted requests take
# about 4 s on one core of a 2-vCPU machine, e.g. {"1":2,"2":2,"3":2,"4":2}
# through degree 519.
COUNT_BUDGET = Budget("gamma factors x table cells", 50_000_000)


def basis_counts(gens, max_degree: int) -> dict[tuple[int, int], int]:
    """Basis dimensions keyed (weight, degree), counted without listing monomials.

    ``gens`` is as for ``s_basis``, whose tally this equals.  A monomial uses
    each factor gamma_{2^e}(g) at most once, so the table is the coefficient
    table of prod (1 + w^weight q^degree) over the factor pool, folded in one
    factor at a time as a 0/1 knapsack over degree.  The pool size times the
    table cells is checked against COUNT_BUDGET as the pool grows, before the
    knapsack runs.
    """
    pool: list[tuple[int, int, int]] = []  # (weight, degree, copies)
    size = reach = top = 0  # factors, sum of their degrees, highest degree in the table
    for n, word, e, mult in _factors(gens, max_degree):
        weight, degree = (1 << len(word)) << e, (n + sum(word)) << e
        pool.append((weight, degree, mult))
        size += mult
        reach += degree * mult
        top = min(max_degree, reach)
        COUNT_BUDGET.check(size * ((top + 1) * (top + 2) // 2))  # cells: weight <= degree
    if max_degree < 0:
        return {}

    rows: list[dict[int, int]] = [{} for _ in range(top + 1)]  # degree -> weight -> count
    rows[0][0] = 1
    for fw, fd, copies in pool:
        for _ in range(copies):
            # descending degree, so each copy enters a monomial at most once
            for d in range(top - fd, -1, -1):
                dst = rows[d + fd]
                for w, c in rows[d].items():
                    dst[w + fw] = dst.get(w + fw, 0) + c
    return {(w, d): c for d, row in enumerate(rows) for w, c in row.items()}


class ProbeResult:
    """Outcome of iterating an operation on the indecomposables."""

    __slots__ = ("status", "order", "trajectory")

    def __init__(self, status: str, order: int | None, trajectory: list[Element]):
        self.status = status  # "nilpotent" or "nonvanishing"
        self.order = order
        self.trajectory = trajectory


def nilpotency_probe(offset: int, start: FreeGenerator, max_iter: int) -> ProbeResult:
    """Iterate alpha_a = delta_(deg - a) through delta_act and q_project (gamma2 is a = 0).

    Reports the first step at which the iterate vanishes in the
    indecomposables, or that it survived max_iter steps.  A stage whose
    delta index would fall below 2 is a domain boundary.  The Adem rewriting
    of every step is charged to one ADEM_BUDGET tally.
    """
    if offset < 0:  # alpha_a = delta_(m-a), defined for 0 <= a <= m - 2
        raise DomainError(f"alpha:{offset} is undefined; probes take alpha:K with K >= 0")
    if start.degree < 2:
        raise DomainError("probes need a starting generator of degree >= 2")
    if max_iter < 0:
        raise DomainError(f"probe iteration count must be >= 0, got {max_iter}")
    current = generator_element(start)
    trajectory = [current]
    with wd.ADEM_BUDGET:
        for step in range(1, max_iter + 1):
            deg = element_degree(current)
            i = deg - offset
            if i < 2:
                raise DomainError(f"alpha:{offset} on degree {deg} would need delta_{i}; "
                                  "operations stop at delta_2")
            current = q_project(delta_act(i, current))
            trajectory.append(current)
            if not current:
                return ProbeResult("nilpotent", step, trajectory)
    return ProbeResult("nonvanishing", None, trajectory)


def gamma_axiom_suite(trials: int, seed: int = 0) -> artin.AxiomReport:
    """Fuzz the divided power axioms on random elements over GF(2), up to gamma_4.

    Samples are sums of up to three positive-degree basis monomials on one
    generator each of degrees 1, 2, 3, through degree 9.  The scalar rule
    is checked for both scalars, 0 and 1.
    """
    pool = [m for m in s_basis([(1, 1), (2, 1), (3, 1)], 9).monomials if m]

    def sample(rng) -> artin.GammaOverR:
        out: artin.GammaOverR = {}
        for _ in range(rng.randint(1, 3)):
            artin.add_term(out, rng.choice(pool), _F2_ONE)
        return out

    return artin.axiom_suite(artin.F2, sample, lambda rng: (artin.F2.zero(), _F2_ONE),
                             4, trials, seed)
