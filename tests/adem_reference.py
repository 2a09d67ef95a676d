"""Pairwise Adem rewriting: the reference that ``words.reduce`` is tested against.

A word reduces by rewriting one strictly inadmissible adjacent pair
(``i < 2j``) at a time, either always the leftmost such pair or always the
rightmost, until the word is admissible; duplicates cancel mod 2.  The
Adem coefficients are integer binomials taken mod 2, so nothing in the
reference shares code with ``deltacalc.words``.  Two helpers of the tests
live here too: ``binom_mod2``, the range-checked parity oracle, and
``adem_pair``, which reads one pair from the pair table under test.
"""

from functools import cache
from math import comb

from deltacalc import words as wd
from deltacalc.errors import DomainError, check_index

ORDERS = ("leftmost", "rightmost")

# One memo of finished normal forms per rewriting order.
_MEMO: dict[str, dict] = {order: {} for order in ORDERS}


@cache
def adem_by_direct_sum(i, j):
    """Evaluate the Adem summation for delta_i delta_j with integer binomials."""
    out = set()
    lo = -(-(i + 1) // 2)
    hi = (i + j) // 3
    for s in range(lo, hi + 1):
        if comb(j - i + s - 1, j - s) % 2:
            out ^= {(i + j - s, s)}
    return frozenset(out)


def _find_pair(word, order):
    rng = range(len(word) - 1)
    if order == "rightmost":
        rng = reversed(rng)
    for t in rng:
        if word[t] < 2 * word[t + 1]:
            return t
    return None


def normal_form(word, order):
    """Admissible normal form of one word by pairwise rewriting in the given order."""
    memo = _MEMO[order]
    stack = [tuple(word)]
    while stack:
        w = stack[-1]
        if w in memo:
            stack.pop()
            continue
        p = _find_pair(w, order)
        if p is None:
            memo[w] = frozenset({w})
            stack.pop()
            continue
        reps = [w[:p] + pair + w[p + 2:] for pair in sorted(adem_by_direct_sum(w[p], w[p + 1]))]
        pending = [r for r in reps if r not in memo]
        if pending:
            stack.extend(pending)
            continue
        acc: set = set()
        for r in reps:
            acc ^= memo[r]
        memo[w] = frozenset(acc)
        stack.pop()
    return memo[tuple(word)]


def reduce(words, order):
    """Normal form of a GF(2) sum of words; ``order`` is one of ORDERS."""
    out: set = set()
    for w in words:
        out ^= normal_form(w, order)
    return frozenset(out)


def binom_mod2(n, k):
    """Parity of C(n, k): odd exactly when every bit of k is also set in n.

    k > n is allowed and gives 0; both arguments must lie in [0, 2^32).
    """
    if n < 0 or k < 0:
        raise DomainError("binom_mod2 takes nonnegative arguments")
    check_index(n, "binomial argument")
    check_index(k, "binomial argument")
    return 1 if k & ~n == 0 else 0


def adem_pair(i, j):
    """The Adem sum of the strictly inadmissible pair delta_i delta_j (i < 2j), read
    from ``words``' pair table on one Adem tally; the empty element is zero."""
    wd.check_delta(i)
    wd.check_delta(j)
    if i >= 2 * j:
        raise DomainError(f"pair ({i}, {j}) is already admissible")
    with wd.ADEM_BUDGET:
        return frozenset((i + j - s, s) for s in wd._adem(i, j))
