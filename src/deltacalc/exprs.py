"""Readers and canonical printers: every input's text is read here, and only here.

A reader checks the syntax or JSON shape of its text and builds the value
through its constructor.  One small grammar per kind, all ASCII ('d' for
delta, 'g' for gamma):

  delta word      word    := 'e' | ('d' INT)+
  delta element   element := '0' | word ('+' word)*
  s element       element := '0' | monomial ('+' monomial)*
                  monomial := '1' | factor ('*' factor)*
                  factor  := 'g' INT '(' atom ')' | atom
                  atom    := ('d' INT)* 'x' INT (':' INT)?
  ring element    element := '0' | term ('+' term)*
                  term    := '1' | varpow ('*' varpow)*
                  varpow  := VAR ('^' INT)?
  alpha word      word    := '' | SINT (',' SINT)*      SINT := -?[0-9]+
  probe kind      kind    := 'gamma2' | 'andre' | 'alpha:' SINT

Dimension tables, rings and mixed elements are JSON, in the shapes of
their schemas in docs/.  Text that breaks a grammar or a shape is a
ParseError; a value of the right shape outside its domain is the
constructor's DomainError.

Canonical printing is deterministic: delta words sort descending, basis
monomials sort by degree then factor order, ring monomials sort by total
degree then exponents, all descending, with single spaces and '*'-joined
factors.  Parsing an s element evaluates it, so arbitrary delta words
are accepted and land in basis form.
"""

from __future__ import annotations

import json
import re
from functools import reduce

from . import artin, gamma
from . import words as wd
from .errors import DomainError, RangeError
from .gamma import GradedDims


class ParseError(ValueError):
    """A positioned syntax error."""

    def __init__(self, message: str, text: str, pos: int, expected: tuple = ()):
        self.line = text.count("\n", 0, pos) + 1
        self.column = pos - text.rfind("\n", 0, pos)
        self.pos = pos
        detail = f"line {self.line}, column {self.column}: {message}"
        if expected:
            detail += f" (expected {', '.join(expected)})"
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

_ALPHA_SPEC = [("INT", r"-?[0-9]+"), ("COMMA", ",")]

_SEPARATORS = {"PLUS": "+", "STAR": "*", "COMMA": ","}


def parse_int(digits: str, what: str, text: str, pos: int) -> int:
    """A decimal token; one too long to convert is a syntax error that names it."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"{what} {digits[:12]}... has {len(digits)} digits, too many to read",
                         text, pos) from None


def _read_list(toks: _Tokens, item, sep: str, to_end: bool = True) -> list:
    """``item (sep item)*``, each item read by ``item()``: through the end of input,
    or while a ``sep`` follows when not ``to_end``."""
    items = [item()]
    while toks.peek() is not None and (to_end or toks.peek()[0] == sep):
        toks.next(sep, (_SEPARATORS[sep],))
        items.append(item())
    return items


def _read_sum(toks: _Tokens, item) -> list:
    """A sum: a lone '0' as the empty list, or ``item ('+' item)*`` through the end of input."""
    tok = toks.peek()
    if tok and tok[1] == "0":
        toks.next()
        toks.done()
        return []
    return _read_list(toks, item, "PLUS")


def _gf2_sum(sets) -> frozenset:
    out: set = set()
    for it in sets:
        out ^= it
    return frozenset(out)


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
    return _gf2_sum({w} for w in _read_sum(toks, lambda: _read_word(toks, text)))


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
    """Evaluate an s-element expression to basis form, one tally for each budget."""
    toks = _Tokens(text, _S_SPEC)

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
        return reduce(gamma.multiply, _read_list(toks, factor, "STAR", to_end=False))

    with wd.ADEM_BUDGET, artin.EXPANSION_BUDGET, gamma.PRODUCT_BUDGET:
        return _gf2_sum(_read_sum(toks, monomial))


def _ring_monomials(text: str, variables: tuple[str, ...]) -> list[tuple[int, ...]]:
    """Raw exponent vectors of a ring expression; GF(2) cancellation is the caller's."""
    nvars = len(variables)
    toks = _Tokens(text, _RING_SPEC)

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
        for k, e in _read_list(toks, varpow, "STAR", to_end=False):
            if k >= 0:
                exps[k] += e
        return tuple(exps)

    return _read_sum(toks, term)


def parse_ring_element(text: str, ring: artin.ArtinRing) -> artin.RingElement:
    """A ring element in normal form: its monomials summed over GF(2), relations dropped.

    The monomials, counted before they cancel, are checked with
    artin.check_ring_work before any is tested against the relations."""
    monomials = _ring_monomials(text, ring.variables)
    artin.check_ring_work(ring, len(monomials))
    return ring.element(monomials)


def _load_json(text: str, what: str):
    def unique_keys(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen: set = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))  # the first repeat
            raise ParseError(f"invalid {what} JSON: duplicate key {json.dumps(key)}", text, 0)
        return obj

    try:
        return json.loads(text, object_pairs_hook=unique_keys)
    except ParseError:  # unique_keys's refusal, a ValueError like the last clause's
        raise
    except json.JSONDecodeError as err:
        raise ParseError(f"invalid {what} JSON: {err.msg}", text, err.pos) from err
    except RecursionError:
        raise ParseError(f"invalid {what} JSON: nested too deeply to read", text, 0) from None
    except ValueError:  # an integer literal too long to convert
        raise ParseError(f"invalid {what} JSON: a number has too many digits to read",
                         text, 0) from None


_DEGREE = re.compile(r"0|[1-9][0-9]*")  # propertyNames in docs/graded-dims.schema.json


def parse_graded_dims(text: str) -> GradedDims:
    """A dimension table, docs/graded-dims.schema.json: decimal degrees to dimensions >= 0."""
    table = _load_json(text, "dimension table")
    if not isinstance(table, dict):
        raise ParseError("a dimension table is a JSON object", text, 0)
    dims = {}
    for deg, dim in table.items():
        # bool is an int subclass, and JSON true is not an integer
        if not _DEGREE.fullmatch(deg) or type(dim) is not int or dim < 0:
            raise ParseError("a dimension table maps decimal degrees to integers >= 0, not "
                             f"{json.dumps(deg)}: {json.dumps(dim)}", text, 0)
        dims[parse_int(deg, "degree", text, 0)] = dim
    return GradedDims(dims)


_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")  # vars pattern in docs/ring.schema.json


def parse_ring(text: str) -> artin.ArtinRing:
    """A ring, docs/ring.schema.json; each relation is one monomial in the element syntax."""
    ring = _load_json(text, "ring")
    # duplicate variable names stay a DomainError of ArtinRing
    if not (isinstance(ring, dict) and set(ring) == {"vars", "relations"}
            and all(isinstance(v, list) and all(isinstance(s, str) for s in v)
                    for v in ring.values()) and all(_NAME.fullmatch(v) for v in ring["vars"])):
        raise ParseError('a ring is {"vars": [variable names], "relations": [monomials]}', text, 0)
    variables = tuple(ring["vars"])
    relations = []
    for rel in ring["relations"]:
        monos = _ring_monomials(rel, variables)
        if len(monos) != 1:
            raise ParseError("expected a single monomial", rel, 0)
        relations.append(monos[0])
    return artin.ArtinRing(variables, tuple(relations))


def parse_mixed_element(text: str, ring: artin.ArtinRing) -> artin.MixedElement:
    """A mixed element over the ring, docs/mixed-element.schema.json; its coefficients'
    monomials, counted before they cancel, are checked with artin.check_ring_work first."""
    terms = _load_json(text, "mixed element")
    if not (isinstance(terms, list) and all(
            isinstance(t, dict) and set(t) == {"coef", "gen"}
            and isinstance(t["coef"], str) and isinstance(t["gen"], str) for t in terms)):
        raise ParseError('a mixed element is a list of {"coef": ring element, "gen": name}',
                         text, 0)
    parsed = [(_ring_monomials(t["coef"], ring.variables), t["gen"]) for t in terms]  # uncancelled
    artin.check_ring_work(ring, sum(len(monos) for monos, _ in parsed))
    return artin.MixedElement(ring, tuple((ring.element(monos), gen) for monos, gen in parsed))


def parse_alpha_word(text: str) -> tuple[int, ...]:
    """Comma-separated alpha indices, the empty word for blank text; signs are the domain's."""
    toks = _Tokens(text, _ALPHA_SPEC)

    def index() -> int:
        tok = toks.next("INT", ("<int>",))
        return parse_int(tok[1], "alpha index", text, tok[2])

    return tuple(_read_list(toks, index, "COMMA")) if toks.peek() else ()


_PROBE_KIND = re.compile(r"gamma2|andre|alpha:(-?[0-9]+)")


def parse_probe_kind(text: str) -> int:
    """The K of alpha:K, the probe applying delta_(deg - K); gamma2 is alpha:0, andre alpha:1."""
    m = _PROBE_KIND.fullmatch(text)
    if m is None:
        raise ParseError("unknown probe kind", text, 0, ("gamma2", "andre", "alpha:<int>"))
    if m[1] is None:
        return 0 if text == "gamma2" else 1
    return parse_int(m[1], "alpha index", text, m.start(1))


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


def format_ring_element(elem: artin.RingElement, ring: artin.ArtinRing) -> str:
    if not elem:
        return "0"
    ordered = sorted(elem, key=lambda m: (sum(m), m), reverse=True)
    return " + ".join(format_ring_monomial(m, ring.variables) for m in ordered)


def format_ring(ring: artin.ArtinRing) -> dict:
    """The JSON form of docs/ring.schema.json, which parse_ring reads back."""
    return {"vars": list(ring.variables),
            "relations": [format_ring_monomial(r, ring.variables) for r in ring.relations]}


def format_mixed_element(w: artin.MixedElement) -> str:
    if not w.terms:
        return "0"
    return " + ".join(f"({format_ring_element(c, w.ring)}) {g}" for c, g in w.terms)
