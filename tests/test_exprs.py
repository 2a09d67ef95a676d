import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from deltacalc import exprs, gamma
from deltacalc.artin import ArtinRing


def test_parse_delta_examples():
    assert exprs.parse_delta("d4 d2 + d6 d3") == frozenset({(4, 2), (6, 3)})
    assert exprs.parse_delta("e") == frozenset({()})
    assert exprs.parse_delta("0") == frozenset()
    assert exprs.parse_delta("d4 d2 + d4 d2") == frozenset()


def test_parse_word():
    assert exprs.parse_word("d4 d2") == (4, 2)
    assert exprs.parse_word("e") == ()
    with pytest.raises(exprs.ParseError):
        exprs.parse_word("d4 +")


def test_parse_s_element_examples():
    applied = exprs.parse_s_element("d4 d2 x3")
    assert applied == gamma.generator_element(gamma.FreeGenerator(3, 1, (4, 2)))
    # words are evaluated, not just recorded: an unstable application is zero
    assert exprs.parse_s_element("d4 x2") == gamma.ZERO
    assert exprs.parse_s_element("g2(x3)") == gamma.gamma_power(
        gamma.generator_element(gamma.FreeGenerator(3)), 2)
    assert exprs.parse_s_element("x3 + x3") == gamma.ZERO
    assert exprs.parse_s_element("0") == gamma.ZERO
    assert exprs.parse_s_element("1") == gamma.ONE


def test_delta_index_below_2_is_a_positioned_error():
    with pytest.raises(exprs.ParseError) as err:
        exprs.parse_s_element("d1 x3")
    assert err.value.line == 1 and err.value.column == 1


def test_print_examples():
    assert exprs.format_word((4, 2)) == "d4 d2"
    assert exprs.format_word(()) == "e"
    assert exprs.format_delta(frozenset()) == "0"
    g = gamma.FreeGenerator(3, 1, (2,))
    assert exprs.format_factor(g, 1) == "g2(d2 x3)"
    assert exprs.format_generator(gamma.FreeGenerator(3, 2)) == "x3:2"


def test_printing_sorts_words_descending():
    element = frozenset({(4, 2), (6, 3)})
    assert exprs.format_delta(element) == "d6 d3 + d4 d2"


def test_ring_element_parsing():
    ring = ArtinRing(("u", "v"), ((3, 0), (0, 3)))
    assert exprs.parse_ring_element("u*v + u^2", ring) == frozenset({(1, 1), (2, 0)})
    assert exprs.parse_ring_element("1", ring) == ring.one()
    assert exprs.parse_ring_element("0", ring) == ring.zero()
    assert exprs.parse_ring_element("u + u", ring) == ring.zero()
    with pytest.raises(exprs.ParseError) as err:
        exprs.parse_ring_element("u + w", ring)
    assert "w" in str(err.value)


def test_alpha_words_and_probe_kinds():
    assert exprs.parse_alpha_word("1, 0") == (1, 0)
    assert exprs.parse_alpha_word(" ") == ()
    assert exprs.parse_alpha_word("-1,0") == (-1, 0)  # the sign is the domain's to refuse
    assert [exprs.parse_probe_kind(k) for k in ("gamma2", "andre", "alpha:3", "alpha:-1")] == [
        0, 1, 3, -1]
    for parse, text in ((exprs.parse_alpha_word, "1,"), (exprs.parse_alpha_word, "+1"),
                        (exprs.parse_alpha_word, "1_0"), (exprs.parse_probe_kind, "alpha:"),
                        (exprs.parse_probe_kind, " gamma2"), (exprs.parse_probe_kind, "alpha:+1")):
        with pytest.raises(exprs.ParseError):
            parse(text)


def test_error_positions_inside_text():
    cases = [
        (exprs.parse_delta, "d4 ! d2"),
        (exprs.parse_delta, "d4 + + d2"),
        (exprs.parse_s_element, "g2(x3"),
        (exprs.parse_s_element, "x3 * * x2"),
        (exprs.parse_word, "d4 d2 x"),
    ]
    for parse, text in cases:
        with pytest.raises(exprs.ParseError) as err:
            parse(text)
        assert 0 <= err.value.pos <= len(text)
        assert 1 <= err.value.column <= len(text) + 1


# --- bulk round-trip fuzzing -------------------------------------------------

def random_word(rng, max_len=4):
    return tuple(rng.randint(2, 40) for _ in range(rng.randint(0, max_len)))


def test_round_trip_delta_elements():
    rng = random.Random(101)
    for _ in range(4000):
        element = frozenset()
        for _ in range(rng.randint(0, 4)):
            element ^= {random_word(rng)}
        text = exprs.format_delta(element)
        assert exprs.parse_delta(text) == element


def test_round_trip_s_elements():
    rng = random.Random(202)
    pool = gamma.s_basis([(1, 1), (2, 1), (3, 2)], 10).monomials
    for _ in range(4000):
        element = frozenset()
        for _ in range(rng.randint(0, 3)):
            element ^= {rng.choice(pool)}
        text = exprs.format_s_element(element)
        assert exprs.parse_s_element(text) == element


def test_round_trip_ring_elements():
    rng = random.Random(303)
    ring = ArtinRing(("u", "v", "w"), ((4, 0, 0), (0, 3, 0), (0, 0, 2), (2, 2, 0)))
    monos = ring.normal_monomials()
    for _ in range(3000):
        element = ring.element(rng.sample(monos, k=rng.randint(0, 4)))
        text = exprs.format_ring_element(element, ring)
        assert exprs.parse_ring_element(text, ring) == element


# --- the scanner against a per-character reference ---------------------------

class ReferenceTokens:
    """The scanner as a loop: whitespace skipped one character at a time and one
    ``pattern.match`` per token, the oracle of exprs._Tokens's single finditer pass."""

    def __init__(self, text, spec):
        pattern = re.compile("|".join(f"(?P<{k}>{p})" for k, p in spec))
        self.items = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = pattern.match(text, pos)
            if not m:
                raise exprs.ParseError(f"unexpected character {text[pos]!r}", text, pos)
            self.items.append((m.lastgroup, m.group(), pos))
            pos = m.end()


def scan(tokens, text, spec):
    """The token list, or the error's text, line, column and position."""
    try:
        return tokens(text, spec).items
    except exprs.ParseError as err:
        return str(err), err.line, err.column, err.pos


# whitespace of several kinds, Unicode's included
SPACES = st.text(" \t\n\r\x0b\x0c\x1c\x85\u00a0\u2003\u2028\u3000", max_size=3)
# tokens of each grammar, close misses and characters no grammar accepts
PIECES = ["d4", "d12", "e", "0", "1", "+", "*", "^", "(", ")", ",", ":", "-", "-7", "x3",
          "x3:2", "g2", "u", "v_1", "Z", "_", "9", "\u0663", "!", "\u00e9", "d", "x", "g", "#"]
texts = st.one_of(st.lists(SPACES | st.sampled_from(PIECES), max_size=24).map("".join),
                  st.text(max_size=20))
SPECS = {"delta": exprs._DELTA_SPEC, "s element": exprs._S_SPEC, "ring": exprs._RING_SPEC,
         "alpha": exprs._ALPHA_SPEC}


@given(st.sampled_from(sorted(SPECS)), texts)
@settings(max_examples=1000, deadline=None)
def test_scanner_matches_the_per_character_reference(spec, text):
    # texts that scan give the same token list; all others the same ParseError
    assert scan(exprs._Tokens, text, SPECS[spec]) == scan(ReferenceTokens, text, SPECS[spec])


@pytest.mark.parametrize("spec", sorted(SPECS))
def test_scanner_is_linear_in_long_whitespace_runs(spec):
    # a run reaching the end of the text is where \s* would backtrack: 100,000
    # spaces take milliseconds in one pass and minutes when scanned quadratically
    run = " " * 100_000
    for text in (run, " \t\x85" * 33_334, "1" + run, "d1" + run, "u" + run + "2" + run,
                 run + "!" + run):
        assert scan(exprs._Tokens, text, SPECS[spec]) == scan(ReferenceTokens, text, SPECS[spec])
