"""Words and GF(2) sums in the algebra of higher divided squares.

A composite operation is a word ``(i1, ..., is)`` of integer indices, each
at least 2, standing for the composition delta_{i1} o ... o delta_{is}
(rightmost factor applied first; the empty word is the identity).  A word
is *admissible* when ``i_t >= 2*i_{t+1}`` for every adjacent pair, and the
admissible words form a GF(2) basis of the operation algebra.  A strictly
inadmissible adjacent pair (``i < 2j``) rewrites by the Adem rule

    delta_i delta_j = sum over s in [ceil((i+1)/2), floor((i+j)/3)] of
                      C(j-i+s-1, j-s) * delta_{i+j-s} delta_s

where an empty summation range means zero; every emitted pair is
admissible since ``s <= (i+j)/3``.  Elements are frozensets of words:
membership is a mod-2 coefficient and addition is symmetric difference.
Every delta index, whether read, passed in, or formed by rewriting, theta
or alpha conversion, goes through ``check_delta``: at least 2, below 2^32.

Before any rewriting, a word is dropped when either of two tests shows it
is zero.  Each Adem relation keeps length 2 and degree i + j, so the
algebra is graded by length and degree, and the admissible words of one
length and degree are a basis of that piece.  An admissible word of length
p has indices at least 2, 4, ..., 2^p from the right, so degree at least
2^(p+1) - 2: a run of p adjacent indices whose sum is below that is zero,
and so is every word that contains it (the window bound).  Likewise a
strictly inadmissible adjacent pair with no Adem terms is zero (the zero
pair).  Indices stay below 2^32, so every run of 37 indices sums below
2^38 - 2, and every word of length 37 or more is zero.

A word reduces right to left, multiplying a sum of admissible words on
the left by one index at a time.  delta_i times an admissible ``(j, *t)``
is ``(i, j, *t)`` when ``i >= 2j``; otherwise it is the sum, over the Adem
terms delta_a delta_b of delta_i delta_j, of delta_a times each word of
delta_b times ``t``.  The admissible words are a PBW basis of a Koszul
algebra (Priddy, *Koszul resolutions*, Trans. AMS 152, 1970), so every
order of Adem rewriting reaches this one normal form; the recursion ends
because each product is on a shorter tail or a word of lower moment
(the sum of position times index, positions counted from 1).
Two bounded memos hold the work: a pair table of the Adem terms of each
(i, j), each kept as its s by ascending s, so by descending a, and each
coefficient tested by Lucas's theorem (C(n, k) is odd iff k and n-k share
no bit), and a smaller memo of the products of one index and one
admissible word that need rewriting, each a tuple of its distinct words,
sized by how seldom a product is read again.  One step, ``_times``,
adds delta_i times each word of a set to a set: admissible products
directly, since that order keeps them new to it, and the rest from the
product memo by symmetric difference.  The work that memo misses do is
charged to ``ADEM_BUDGET``, whose tally ``reduce``, ``compose`` and
``annihilation_order`` open: each call that is not inside another that
opened it counts from zero.  The zero pair's lookups count like any other,
and the window bound costs nothing.

The statistics of a word ``I = (i1, ..., is)`` are its degree
``d(I) = i1 + ... + is``, its length ``s``, and its excess
``e(I) = i1 - i2 - ... - is`` (0 for the empty word).  Excess controls
instability: on a class of degree n, an admissible word acts as zero
exactly when its excess exceeds n.

The alpha form reindexes operations by the degree acted on: alpha_a on a
degree-m class is delta_{m-a} and lands in degree 2m-a.  An alpha word
therefore converts to a delta word only on an explicit source degree,
factor by factor, rightmost first, updating the running degree.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from itertools import accumulate

from .errors import INDEX_LIMIT, Budget, DomainError, RangeError, check_index

Word = tuple[int, ...]
Element = frozenset  # frozenset[Word], GF(2) coefficients by membership

ZERO: Element = frozenset()
IDENTITY: Word = ()

# Entries of the pair table.  A cold command of the adem benchmark stream
# keeps a few thousand pairs; a cap of 4,096 changed none of its misses over
# 320 such commands, so the table keeps this room for heavier inputs.
_PAIR_MEMO_SIZE = 1 << 16

# Entries of the product memo, set by how often a product is read again.
# Over 120 cold reduces of the adem benchmark stream, a lookup hits for 82%
# of words of one index, 44% of two, 19% of three and 13% of four.  Over 260
# cold reduce and compose commands of that stream, 2,048 entries miss 8.4%
# more often than 65,536 (which never evict there) and charge 2.1% more Adem
# work, while the traced peak of a command falls from 1.85 to 1.00 MB
# (median).  Heavy sums miss more: a reduce of 30 words of length 7 with
# indices up to 128 charges 2.50 million instead of 1.82 million, and peaks
# at 22 MB instead of 68 MB in about the same time (2.8 s against 2.7 s).
_PRODUCT_MEMO_SIZE = 1 << 11

# Work budget of the outermost call that opens its tally: the values of s
# that pair-table misses scan plus the products that product-memo misses
# form.  Memo hits cost nothing, so only a cold call spends the full amount.
# Near the limit, end to end on one core of a 2-vCPU machine, a reduce of
# random words of length 5-7 takes up to about 6 s and 40 MB, and an act,
# which counts reading its --on atoms and acting on one tally, 6-11 s.
# Cold, reduce "d2 d3000000" spends 1,002,127, annihilation_order(131073, 1)
# 677,219, and a 260-word sum of words of length 3-6 about 27,000.
ADEM_BUDGET = Budget("Adem terms scanned + new products formed", 4_000_000)

# Word pairs that compose concatenates, checked before the first is formed:
# admissible products cost nothing against ADEM_BUDGET.  A pair costs more
# as its words grow, up to 31 admissible indices below 2^32.  At the limit,
# 283 x 283 words of 16 and 14 indices take 3.7 s and 83 MB end to end on
# one core of a 2-vCPU machine; one-index words take 0.4 s.
PRODUCT_BUDGET = Budget("word pairs |a| x |b|", 80_000)


def check_delta(i: int) -> int:
    """The one rule for a delta index, parsed or formed: at least 2, below 2^32."""
    if i < 2:
        raise DomainError(f"delta index {i} below 2")
    return check_index(i, "delta index")


def check_word(word: Iterable[int]) -> Word:
    """Validate and normalize a word: integer indices, each a delta index."""
    return tuple(check_delta(int(i)) for i in word)


def is_admissible(word: Word) -> bool:
    return all(word[t] >= 2 * word[t + 1] for t in range(len(word) - 1))


def excess(word: Word) -> int:
    return word[0] - sum(word[1:]) if word else 0


def degree(word: Word) -> int:
    return sum(word)


def length(word: Word) -> int:
    return len(word)


@lru_cache(maxsize=_PAIR_MEMO_SIZE)
def _adem(i: int, j: int) -> tuple[int, ...]:
    """The Adem terms of delta_i delta_j for i < 2j, each stored as its s; empty when zero.

    The term of s is delta_a delta_s with a = i + j - s, so ascending s is
    descending a.  By Lucas's theorem C(j-i+s-1, j-s) is odd iff its parts
    j-s and 2s-i-1 share no bit.  The binomial arguments must stay below
    2^32.  Since 2s-i-1 >= 0 on the range, j-s never exceeds j-i+s-1, which
    rises by one with s: it is checked at the low end, and if it passes the
    limit by the high end, it first does so at exactly 2^32.  The first term
    has the largest index a, so it alone is checked as a delta index.
    """
    lo = -(-(i + 1) // 2)
    hi = (i + j) // 3
    if lo > hi:
        return ()
    check_index(j - i + lo - 1, "binomial argument")
    check_index(min(j - i + hi - 1, INDEX_LIMIT), "binomial argument")
    ADEM_BUDGET.charge(hi - lo + 1)
    terms = tuple(s for s in range(lo, hi + 1) if not (j - s) & (2 * s - i - 1))
    if terms:
        check_delta(i + j - terms[0])
    return terms


@lru_cache(maxsize=_PRODUCT_MEMO_SIZE)
def _left_mul(i: int, word: Word) -> tuple[Word, ...]:
    """delta_i times an admissible ``(j, *t)`` with a nonzero Adem sum for (i, j).

    The distinct words of the product: for each Adem term delta_a delta_s,
    delta_a times each word of delta_s times ``t``.  When ``(s, *t)`` is
    admissible so is ``(a, s, *t)``, since a >= 2s, and it is added as it
    is.  ``_times`` forms admissible and zero products without looking them
    up, so the memo holds only products that need rewriting.
    """
    j, t = word[0], word[1:]
    out: set = set()
    formed = 0
    for s in _adem(i, j):
        if not t or s >= 2 * t[0]:
            out.add((i + j - s, s) + t)
            formed += 1
        elif _adem(s, t[0]):
            tails = _left_mul(s, t)
            formed += len(tails)
            _times(i + j - s, tails, out)
    ADEM_BUDGET.charge(formed)
    return tuple(out)


def _times(i: int, words: Iterable[Word], out: set) -> set:
    """Add delta_i times each admissible word of ``words`` to ``out``; return it.

    Admissible products are added, products whose pair has no Adem terms
    skipped, and the rest folded in from ``_left_mul`` by symmetric
    difference.  Plain ``add`` is right because the words are distinct and
    ``(i, *w)`` is new to ``out``: a rewritten product delta_i (j, *t) starts
    above i (its Adem terms have a = i + j - s > i), a step starts from an
    empty set, and ``_left_mul`` adds its terms by descending a, as ``_adem``
    lists them (by ascending s).
    """
    for w in words:
        if not w or i >= 2 * w[0]:
            out.add((i,) + w)
        elif _adem(i, w[0]):
            out.symmetric_difference_update(_left_mul(i, w))
    return out


def _is_zero(word: Word) -> bool:
    """Whether a checked word is zero by its window bound or by one of its pairs.

    Each run of p adjacent indices is compared with 2^(p+1) - 2 first, then
    each strictly inadmissible adjacent pair is looked up in the pair table
    (see the module docstring), rightmost first: rewriting, which runs right
    to left, looks that pair up first too.
    """
    sums = (0, *accumulate(word))
    for p in range(2, len(word) + 1):
        bound = (2 << p) - 2
        if any(sums[k + p] - sums[k] < bound for k in range(len(word) - p + 1)):
            return True
    return any(word[k] < 2 * word[k + 1] and not _adem(word[k], word[k + 1])
               for k in reversed(range(len(word) - 1)))


def _normal_sum(words: Iterable[Iterable[int]]) -> Element:
    """The normal form of a sum of words, each checked, tested for zero, stepped right to left."""
    out: set = set()
    with ADEM_BUDGET:
        for w in words:
            w = check_word(w)
            if _is_zero(w):
                continue
            acc = {IDENTITY}
            for i in reversed(w):
                acc = _times(i, acc, set())
            out.symmetric_difference_update(acc)
    return frozenset(out)


def reduce(words: Iterable[Iterable[int]]) -> Element:
    """Admissible normal form of a GF(2) sum of arbitrary words.

    Each word is reduced right to left by left multiplication onto
    admissible tails (see the module docstring); duplicates cancel mod 2.
    """
    return _normal_sum(words)


def compose(a: Element, b: Element) -> Element:
    """Concatenate every pair of words and reduce; bilinear over GF(2)."""
    PRODUCT_BUDGET.check(len(a) * len(b))
    return _normal_sum(tuple(u) + tuple(v) for u in a for v in b)


def theta(s: int, t: int) -> Word:
    """The length-s composite (2^(s+t), 2^(s+t-1), ..., 2^(t+1))."""
    if s < 0 or t < 0:
        raise DomainError("theta takes nonnegative arguments")
    if s and s + t >= 32:  # compared first, so that no power above 2^32 is formed
        top = INDEX_LIMIT if s + t == 32 else f"2^{s + t}"
        raise RangeError(f"theta index {top} exceeds 2^32")
    return tuple(2 ** (s + t - k) for k in range(s))


def annihilation_order(j: int, t: int, s_max: int = 16) -> int | None:
    """Least s <= s_max with reduce(theta(s, t) * delta_j) = 0, else None.

    Requires j > 2^t; existence of a finite order is guaranteed under that
    hypothesis, so None signals that s_max was too small.
    """
    check_delta(j)
    if (j - 1).bit_length() <= t:  # j <= 2^t, without forming 2^t
        raise DomainError(f"annihilation search needs j > 2^t, got j={j}, t={t}")
    if s_max < 0:
        raise DomainError(f"annihilation search bound must be >= 0, got {s_max}")
    # theta(s, t) = (2^(s+t),) + theta(s-1, t): each step multiplies the last on the left
    # by theta's first index, which theta has checked (t >= 0, index below 2^32)
    acc = {(j,)}
    with ADEM_BUDGET:
        for s in range(1, s_max + 1):
            acc = _times(theta(s, t)[0], acc, set())
            if not acc:
                return s
    return None


def alpha_to_delta(indices: Iterable[int], source_degree: int) -> Word:
    """The delta word an alpha word denotes on the source degree; no reduction applied.

    ``indices[k]`` is applied (k+1)-th from the right; at each stage the
    factor alpha_a requires 0 <= a <= m-2 where m is the running degree,
    becomes delta_{m-a}, a checked delta index, and the degree updates to
    2m - a.
    """
    if source_degree < 2:
        raise DomainError(f"alpha words act on degrees >= 2, got {source_degree}")
    m = source_degree
    out = []
    for pos, a in enumerate(reversed(tuple(indices)), start=1):
        if not 0 <= a <= m - 2:
            raise DomainError(
                f"alpha_{a} (factor {pos} from the right) is undefined on degree {m}"
            )
        out.append(check_delta(m - a))
        m = 2 * m - a
    return tuple(reversed(out))
