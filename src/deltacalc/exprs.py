"""Parsers and canonical printers for the expression surface syntax.

One small grammar per kind, all ASCII ('d' for delta, 'g' for gamma):

  delta word      word    := 'e' | ('d' INT)+
  delta element   element := '0' | word ('+' word)*
  s element       element := '0' | monomial ('+' monomial)*
                  monomial := '1' | factor ('*' factor)*
                  factor  := 'g' INT '(' atom ')' | atom
                  atom    := ('d' INT)* 'x' INT (':' INT)?
  ring element    element := '0' | term ('+' term)*
                  term    := '1' | varpow ('*' varpow)*
                  varpow  := VAR ('^' INT)?

Canonical printing is deterministic: delta words sort descending, basis
monomials sort by degree then factor order, ring monomials sort by total
degree then exponents, all descending, with single spaces and '*'-joined
factors.  Parsing an s element evaluates it, so arbitrary delta words
are accepted and land in basis form.
"""

from __future__ import annotations

import re

from . import gamma
from . import words as wd
from .errors import DomainError, RangeError


class ParseError(ValueError):
    """A positioned syntax error."""

    def __init__(self, message: str, text: str, pos: int, expected: tuple = ()):
        self.line = text.count("\n", 0, pos) + 1
        self.column = pos - text.rfind("\n", 0, pos)
        self.pos = pos
        self.expected = tuple(expected)
        detail = f"line {self.line}, column {self.column}: {message}"
        if self.expected:
            detail += f" (expected {', '.join(self.expected)})"
        super().__init__(detail)


class _Tokens:
    def __init__(self, text: str, spec: list[tuple[str, str]]):
        self.text = text
        pattern = re.compile("|".join(f"(?P<{k}>{p})" for k, p in spec))
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = pattern.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
            self.items.append((m.lastgroup, m.group(), pos))
            pos = m.end()
        self.k = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.k] if self.k < len(self.items) else None

    def next(self, kind: str | None = None, expected: tuple = ()) -> tuple[str, str, int]:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.text, len(self.text), expected)
        if kind is not None and tok[0] != kind:
            raise ParseError(f"unexpected token {tok[1]!r}", self.text, tok[2], expected)
        self.k += 1
        return tok

    def done(self):
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", self.text, tok[2])


_DELTA_SPEC = [("DELTA", r"d\d+"), ("IDENT", r"e"), ("PLUS", r"\+"), ("ZERO", r"0")]

_S_SPEC = [
    ("DELTA", r"d\d+"),
    ("GEN", r"x\d+(?::\d+)?"),
    ("GAMMA", r"g\d+"),
    ("LPAREN", r"\("),
    ("RPAREN", r"\)"),
    ("PLUS", r"\+"),
    ("STAR", r"\*"),
    ("ONE", r"1"),
    ("ZERO", r"0"),
]

_RING_SPEC = [
    ("VAR", r"[A-Za-z_][A-Za-z_0-9]*"),
    ("CARET", r"\^"),
    ("INT", r"\d+"),
    ("PLUS", r"\+"),
    ("STAR", r"\*"),
]


def parse_int(digits: str, what: str, text: str, pos: int) -> int:
    """A decimal token; one too long to convert is a syntax error that names it."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{what} {digits[:12]}... has {len(digits)} digits, too many to read",
                         text, pos) from None


def _delta_index(tok, text: str) -> int:
    digits = tok[1][1:].lstrip("0") or "0"
    if len(digits) > 10:  # at least 10^10 > 2^32; named without converting it
        raise RangeError(f"delta index {digits[:12]}{'...' if len(digits) > 12 else ''} "
                         f"of {len(digits)} digits exceeds 2^32")
    try:
        return wd.check_delta(int(digits))
    except DomainError as err:  # below 2: a syntax error at the token
        raise ParseError(str(err), text, tok[2]) from None


def _read_word(toks: _Tokens, text: str, required: bool = True) -> wd.Word:
    """The delta word at the cursor: 'e', or the run of 'd<int>' tokens there.

    A cursor at neither is a syntax error when the word is ``required``, and
    the empty run otherwise.
    """
    tok = toks.peek()
    if tok and tok[0] == "IDENT":
        toks.next()
        return ()
    word = []
    while tok and tok[0] == "DELTA":
        word.append(_delta_index(toks.next(), text))
        tok = toks.peek()
    if required and not word:
        toks.next("DELTA", ("d<int>", "e"))  # raises: the cursor holds no word
    return tuple(word)


def parse_word(text: str) -> wd.Word:
    """A single delta word: 'e' or 'd4 d2'."""
    toks = _Tokens(text, _DELTA_SPEC)
    word = _read_word(toks, text)
    toks.done()
    return word


def parse_delta(text: str) -> wd.Element:
    """A GF(2) sum of delta words."""
    toks = _Tokens(text, _DELTA_SPEC)
    tok = toks.peek()
    if tok and tok[0] == "ZERO":
        toks.next()
        toks.done()
        return frozenset()
    out = {_read_word(toks, text)}
    while toks.peek() is not None:
        toks.next("PLUS", ("+",))
        out ^= {_read_word(toks, text)}
    return frozenset(out)


def _parse_atom(toks: _Tokens, text: str) -> tuple[wd.Word, int, int]:
    word = _read_word(toks, text, required=False)
    tok = toks.next("GEN", ("x<int>",))
    n, _, idx = tok[1][1:].partition(":")
    n = parse_int(n, "generator degree", text, tok[2])
    idx = parse_int(idx or "1", "generator index", text, tok[2])
    if n < 1:
        raise ParseError(f"generator degree {n} below 1", text, tok[2])
    if idx < 1:
        raise ParseError(f"generator index {idx} below 1", text, tok[2])
    return word, n, idx


def _eval_atom(word: wd.Word, n: int, idx: int) -> gamma.Element:
    return gamma.apply_word(word, gamma.generator_element(gamma.FreeGenerator(n, idx)))


def parse_generator(text: str) -> gamma.FreeGenerator:
    """A single basis generator: an admissible word of excess < n on x_n."""
    toks = _Tokens(text, _S_SPEC)
    word, n, idx = _parse_atom(toks, text)
    toks.done()
    try:
        return gamma.FreeGenerator(n, idx, word)
    except DomainError as err:
        raise ParseError(str(err), text, 0) from err


def parse_s_element(text: str) -> gamma.Element:
    """Evaluate an s-element expression to basis form."""
    toks = _Tokens(text, _S_SPEC)
    tok = toks.peek()
    if tok and tok[0] == "ZERO":
        toks.next()
        toks.done()
        return gamma.ZERO

    def factor() -> gamma.Element:
        tok = toks.peek()
        if tok is None:
            raise ParseError("expected a factor", text, len(text), ("g<int>(", "x<int>", "d<int>"))
        if tok[0] == "GAMMA":
            toks.next()
            k = parse_int(tok[1][1:], "divided power", text, tok[2])
            toks.next("LPAREN", ("(",))
            word, n, idx = _parse_atom(toks, text)
            toks.next("RPAREN", (")",))
            return gamma.gamma_power(_eval_atom(word, n, idx), k)
        if tok[0] == "ONE":
            toks.next()
            return gamma.ONE
        word, n, idx = _parse_atom(toks, text)
        return _eval_atom(word, n, idx)

    def monomial() -> gamma.Element:
        out = factor()
        while toks.peek() and toks.peek()[0] == "STAR":
            toks.next()
            out = gamma.multiply(out, factor())
        return out

    out = monomial()
    while toks.peek() is not None:
        toks.next("PLUS", ("+",))
        out = frozenset(out ^ monomial())
    return frozenset(out)


def parse_ring_element(text: str, variables: tuple[str, ...]) -> list[tuple[int, ...]]:
    """Raw exponent vectors of a ring expression; GF(2) cancellation is the caller's."""
    nvars = len(variables)
    toks = _Tokens(text, _RING_SPEC)
    tok = toks.peek()
    if tok and tok[0] == "INT" and tok[1] == "0":
        toks.next()
        toks.done()
        return []

    def varpow() -> tuple[int, int]:
        tok = toks.peek()
        if tok is None:
            raise ParseError("expected a variable", text, len(text), variables)
        if tok[0] == "INT" and tok[1] == "1":
            toks.next()
            return -1, 0
        tok = toks.next("VAR", variables or ("<variable>",))
        if tok[1] not in variables:
            raise ParseError(f"unknown variable {tok[1]!r}", text, tok[2], variables)
        k = variables.index(tok[1])
        exp = 1
        if toks.peek() and toks.peek()[0] == "CARET":
            toks.next()
            etok = toks.next("INT", ("<int>",))
            exp = parse_int(etok[1], "exponent", text, etok[2])
            if exp < 1:
                raise ParseError("exponents must be >= 1", text, etok[2])
        return k, exp

    def term() -> tuple[int, ...]:
        exps = [0] * nvars
        k, e = varpow()
        if k >= 0:
            exps[k] += e
        while toks.peek() and toks.peek()[0] == "STAR":
            toks.next()
            k, e = varpow()
            if k >= 0:
                exps[k] += e
        return tuple(exps)

    monos = [term()]
    while toks.peek() is not None:
        toks.next("PLUS", ("+",))
        monos.append(term())
    return monos


def parse_ring_monomial(text: str, variables: tuple[str, ...]) -> tuple[int, ...]:
    monos = parse_ring_element(text, variables)
    if len(monos) != 1:
        raise ParseError("expected a single monomial", text, 0)
    return monos[0]


# --- printers ---


def format_word(word: wd.Word) -> str:
    return " ".join(f"d{i}" for i in word) if word else "e"


def format_delta(element: wd.Element) -> str:
    if not element:
        return "0"
    return " + ".join(format_word(w) for w in sorted(element, reverse=True))


def format_generator(g: gamma.FreeGenerator) -> str:
    name = f"x{g.base_degree}" + (f":{g.index}" if g.index != 1 else "")
    if g.word:
        return " ".join(f"d{i}" for i in g.word) + " " + name
    return name


def format_factor(g: gamma.FreeGenerator, e: int) -> str:
    if e == 0:
        return format_generator(g)
    return f"g{1 << e}({format_generator(g)})"


def format_monomial(mon: gamma.Monomial) -> str:
    if not mon:
        return "1"
    return "*".join(format_factor(g, e) for g, e in gamma.sorted_factors(mon))


def format_s_element(elem: gamma.Element) -> str:
    if not elem:
        return "0"
    return " + ".join(format_monomial(m) for m in sorted(elem, key=gamma.sort_key))


def format_ring_monomial(mono: tuple[int, ...], variables: tuple[str, ...]) -> str:
    parts = []
    for v, e in zip(variables, mono):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


def format_ring_element(elem, variables: tuple[str, ...]) -> str:
    if not elem:
        return "0"
    ordered = sorted(elem, key=lambda m: (sum(m), m), reverse=True)
    return " + ".join(format_ring_monomial(m, variables) for m in ordered)
