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

A word reduces right to left, multiplying a sum of admissible words on
the left by one index at a time.  delta_i times an admissible ``(j, *t)``
is ``(i, j, *t)`` when ``i >= 2j``; otherwise it is the sum, over the Adem
terms delta_a delta_b of delta_i delta_j, of delta_a times each word of
delta_b times ``t``.  The admissible words are a PBW basis of a Koszul
algebra (Priddy, *Koszul resolutions*, Trans. AMS 152, 1970), so every
order of Adem rewriting reaches this one normal form; the recursion ends
because each product is on a shorter tail or a word of lower moment
(the sum of position times index, positions counted from 1).
Products of one index and one admissible word share a memo of fixed size.

The statistics of a word ``I = (i1, ..., is)`` are its degree
``d(I) = i1 + ... + is``, its length ``s``, and its excess
``e(I) = i1 - i2 - ... - is`` (0 for the empty word).  Excess controls
instability: on a class of degree n, an admissible word acts as zero
exactly when its excess exceeds n.

The alpha form reindexes operations by the degree acted on: alpha_a on a
degree-m class is delta_{m-a} and lands in degree 2m-a.  An alpha word
therefore carries an explicit source degree and converts to a delta word
factor by factor, rightmost first, updating the running degree.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .errors import DomainError
from .f2 import binom_mod2, check_index

Word = tuple[int, ...]
Element = frozenset  # frozenset[Word], GF(2) coefficients by membership

ZERO: Element = frozenset()
IDENTITY: Word = ()

# Entries of the left-multiplication memo, about 35 MB when full.  Words of
# length 6 need about 27 each with indices up to 32, and 370 up to 64.
_LEFT_MUL_MEMO_SIZE = 1 << 16


def check_word(word: Iterable[int]) -> Word:
    """Validate and normalize a word: integer indices, each >= 2, below 2^32."""
    w = tuple(int(i) for i in word)
    for i in w:
        if i < 2:
            raise DomainError(f"delta index {i} below 2 in word {w}")
        check_index(i, "delta index")
    return w


def is_admissible(word: Word) -> bool:
    return all(word[t] >= 2 * word[t + 1] for t in range(len(word) - 1))


def excess(word: Word) -> int:
    return word[0] - sum(word[1:]) if word else 0


def degree(word: Word) -> int:
    return sum(word)


def length(word: Word) -> int:
    return len(word)


def adem_pair(i: int, j: int) -> Element:
    """Rewrite the strictly inadmissible pair delta_i delta_j (i < 2j).

    Returns the GF(2) sum of admissible pairs; the empty element is zero.
    """
    if i < 2 or j < 2:
        raise DomainError(f"delta indices must be >= 2, got ({i}, {j})")
    if i >= 2 * j:
        raise DomainError(f"pair ({i}, {j}) is already admissible")
    return _adem(i, j)


def _adem(i: int, j: int) -> Element:
    lo = -(-(i + 1) // 2)
    hi = (i + j) // 3
    out = set()
    for s in range(lo, hi + 1):
        if binom_mod2(j - i + s - 1, j - s):
            out.add((i + j - s, s))
    return frozenset(out)


@lru_cache(maxsize=_LEFT_MUL_MEMO_SIZE)
def _left_mul(i: int, word: Word) -> Element:
    """delta_i times an admissible word, as a sum of admissible words."""
    if not word or i >= 2 * word[0]:
        return frozenset({(i,) + word})
    out: set = set()
    for a, b in _adem(i, word[0]):
        for y in _left_mul(b, word[1:]):
            out ^= _left_mul(a, y)
    return frozenset(out)


def _normal_form(word: Word) -> Element:
    acc: Element = frozenset({IDENTITY})
    for i in reversed(word):
        out: set = set()
        for w in acc:
            out ^= _left_mul(i, w)
        acc = frozenset(out)
    return acc


def reduce(words: Iterable[Iterable[int]]) -> Element:
    """Admissible normal form of a GF(2) sum of arbitrary words.

    Each word is reduced right to left by left multiplication onto
    admissible tails (see the module docstring); duplicates cancel mod 2.
    """
    out: set = set()
    for w in words:
        out ^= _normal_form(check_word(w))
    return frozenset(out)


def compose(a: Element, b: Element) -> Element:
    """Concatenate every pair of words and reduce; bilinear over GF(2)."""
    out: set = set()
    for u in a:
        for v in b:
            out ^= _normal_form(check_word(tuple(u) + tuple(v)))
    return frozenset(out)


def theta(s: int, t: int) -> Word:
    """The length-s composite (2^(s+t), 2^(s+t-1), ..., 2^(t+1))."""
    if s < 0 or t < 0:
        raise DomainError("theta takes nonnegative arguments")
    if s:
        check_index(2 ** (s + t), "theta index")
    return tuple(2 ** (s + t - k) for k in range(s))


def annihilation_order(j: int, t: int, s_max: int = 16) -> int | None:
    """Least s <= s_max with reduce(theta(s, t) * delta_j) = 0, else None.

    Requires j > 2^t; existence of a finite order is guaranteed under that
    hypothesis, so None signals that s_max was too small.
    """
    if j < 2:
        raise DomainError(f"delta index {j} below 2")
    if j <= 2**t:
        raise DomainError(f"annihilation search needs j > 2^t, got j={j}, t={t}")
    if s_max < 0:
        raise DomainError(f"annihilation search bound must be >= 0, got {s_max}")
    for s in range(1, s_max + 1):
        if not _normal_form(theta(s, t) + (j,)):
            return s
    return None


class AlphaWord:
    """A composite of alpha operations together with the degree it acts on.

    ``indices[k]`` is applied (k+1)-th from the right; at each stage the
    factor alpha_a requires 0 <= a <= m-2 where m is the running degree,
    and the degree updates to 2m - a.
    """

    __slots__ = ("indices", "source_degree")

    def __init__(self, indices: Iterable[int], source_degree: int):
        self.indices = tuple(int(a) for a in indices)
        self.source_degree = source_degree
        if source_degree < 2:
            raise DomainError(f"alpha words act on degrees >= 2, got {source_degree}")
        m = source_degree
        for pos, a in enumerate(reversed(self.indices), start=1):
            if not 0 <= a <= m - 2:
                raise DomainError(
                    f"alpha_{a} (factor {pos} from the right) is undefined on degree {m}"
                )
            m = 2 * m - a


def alpha_stages_valid(indices: Iterable[int], source_degree: int) -> bool:
    """Whether the alpha word passes AlphaWord's stage check on the degree."""
    try:
        AlphaWord(tuple(indices), source_degree)
    except DomainError:
        return False
    return True


def alpha_to_delta(word: AlphaWord) -> Word:
    """Convert an alpha word to the delta word it denotes; no reduction applied."""
    m = word.source_degree
    out = []
    for a in reversed(word.indices):
        out.append(m - a)
        m = 2 * m - a
    return tuple(reversed(out))


def unstable_part(element: Element, n: int) -> Element:
    """Restrict to words that act nontrivially on a degree-n class (excess <= n)."""
    return frozenset(w for w in element if excess(w) <= n)


def alpha_adem_check(i: int, j: int, n: int) -> bool:
    """Check the alpha-form Adem relation on a class of degree n.

    For j < i the relation rewrites alpha_i alpha_j as the sum over s in
    [ceil((i+2j)/3), floor((i+j-1)/2)] of C(i-s-1, s-j) alpha_{i+2j-2s}
    alpha_s.  Both sides are converted to delta words, reduced, and
    compared as operations on degree n (words of excess > n act as zero);
    right-hand terms whose stage constraints fail are dropped.
    """
    if j >= i:
        raise DomainError(f"alpha Adem relation needs j < i, got ({i}, {j})")
    lhs = unstable_part(reduce([alpha_to_delta(AlphaWord((i, j), n))]), n)
    rhs: set = set()
    lo = -(-(i + 2 * j) // 3)
    hi = (i + j - 1) // 2
    for s in range(lo, hi + 1):
        if not binom_mod2(i - s - 1, s - j):
            continue
        term = (i + 2 * j - 2 * s, s)
        if not alpha_stages_valid(term, n):
            continue
        rhs ^= unstable_part(reduce([alpha_to_delta(AlphaWord(term, n))]), n)
    return lhs == frozenset(rhs)
