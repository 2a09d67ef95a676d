"""Seeded command streams for the deltacalc CLI benchmark, with output checks.

A workload is an endless, deterministic stream of commands.  Command ``i``
of workload ``w`` at seed ``s`` is drawn from its own ``random.Random``
seeded with ``"w:s:i"``, so any prefix of the stream is reproducible and
independent of how many commands a run gets through.  The kind of command
at position ``i`` follows a fixed cycle, so every run sees the same mix of
kinds; the seed only picks the inputs.

Each command carries an expected exit code and an invariant that its
stdout must satisfy.  The invariants are computed here, independently of
the program: admissibility and degree of Adem normal forms, a generating
function for basis and first-page tables, exponent-vector arithmetic for
ring products, and closed forms for theta, alpha words, word statistics
and the m-index of pure-power rings.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Callable

# A check takes (stdout, fmt) and returns a description of what is wrong, or None.
Check = Callable[[str, str], "str | None"]


@dataclass
class Command:
    kind: str
    args: list[str]  # subcommand and its arguments, without the format flag
    fmt: str  # "text" or "json"
    expect: int = 0
    check: Check | None = None

    @property
    def argv(self) -> list[str]:
        """Arguments after ``python -m deltacalc``."""
        return (["--format", "json"] if self.fmt == "json" else []) + self.args


# --- output parsing ---------------------------------------------------------


def _payload(out: str, fmt: str):
    """The JSON payload, or the text lines, of one command's stdout."""
    if fmt == "json":
        return json.loads(out)
    return out.rstrip("\n").split("\n")


def _element_text(out: str, fmt: str) -> str:
    return json.loads(out)["element"] if fmt == "json" else out.rstrip("\n")


def _parse_words(text: str) -> list[tuple[int, ...]]:
    if text == "0":
        return []
    terms = []
    for term in text.split(" + "):
        terms.append(() if term == "e" else tuple(int(tok[1:]) for tok in term.split()))
    return terms


def _word_text(word) -> str:
    return " ".join(f"d{i}" for i in word) if word else "e"


def _admissible(word) -> bool:
    return all(word[k] >= 2 * word[k + 1] for k in range(len(word) - 1))


# --- independent oracles ----------------------------------------------------


def generator_shapes(n: int, max_degree: int) -> list[tuple[int, int]]:
    """(degree, weight) of every generator delta_I(x_n) of degree <= max_degree.

    I runs over admissible words with indices >= 2 and excess below n; a
    word of length k has weight 2^k.
    """
    shapes: list[tuple[int, int]] = []

    def extend(first: int, total: int, length: int):
        shapes.append((n + total, 1 << length))
        lo = 2 * first if length else 2
        for i in range(lo, min(total + n - 1, max_degree - n - total) + 1):
            extend(i, total + i, length + 1)

    if 1 <= n <= max_degree:
        extend(0, 0, 0)
    return sorted(shapes)


def basis_table(hq: dict[int, int], max_degree: int) -> dict[tuple[int, int], int]:
    """Dimensions of the free divided power algebra, keyed (weight, degree).

    Each factor gamma_{2^e}(g) occurs at most once in a monomial, so the
    table is the coefficient table of prod (1 + q^deg w^weight) over the
    factor pool, truncated at max_degree.
    """
    table = {(0, 0): 1}
    for n, mult in sorted(hq.items()):
        for deg, wt in generator_shapes(n, max_degree) * mult:
            while deg <= max_degree:
                grown = dict(table)
                for (w, d), c in table.items():
                    if d + deg <= max_degree:
                        grown[(w + wt, d + deg)] = grown.get((w + wt, d + deg), 0) + c
                table = grown
                deg, wt = 2 * deg, 2 * wt
    return table


def pure_powers(exps) -> list[tuple[int, ...]]:
    """The relations v_k^e_k as exponent vectors."""
    return [tuple(e if j == k else 0 for j in range(len(exps))) for k, e in enumerate(exps)]


def is_normal(mono, relations) -> bool:
    return not any(all(x >= r for x, r in zip(mono, rel)) for rel in relations)


def normal_monomials(exps: list[int], relations: list[tuple[int, ...]]):
    """Exponent vectors in the box below the pure powers that no relation divides."""
    return [m for m in product(*(range(b) for b in exps)) if is_normal(m, relations)]


def _mono_text(mono, variables) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, mono) if e]
    return "*".join(parts) if parts else "1"


def _mono_parse(text: str, variables) -> tuple[int, ...]:
    exps = [0] * len(variables)
    if text != "1":
        for part in text.split("*"):
            name, _, power = part.partition("^")
            exps[variables.index(name)] += int(power or 1)
    return tuple(exps)


# --- invariants ---------------------------------------------------------------


def check_adem(input_degrees: set[int]) -> Check:
    """Normal-form terms are admissible and keep the degree of some input word."""
    def check(out, fmt):
        terms = _parse_words(_element_text(out, fmt))
        if len(set(terms)) != len(terms):
            return "repeated term in a GF(2) sum"
        for w in terms:
            if not _admissible(w):
                return f"term {_word_text(w)} is not admissible"
            if sum(w) not in input_degrees:
                return f"term {_word_text(w)} has degree {sum(w)}, not an input degree"
        return None
    return check


def check_equals(text: str) -> Check:
    """The element or word printed equals a value computed here."""
    def check(out, fmt):
        got = _payload(out, fmt)
        got = got.get("element", got.get("word")) if fmt == "json" else "\n".join(got)
        return None if got == text else f"expected {text!r}, got {got!r}"
    return check


def check_stats(word) -> Check:
    want = {"word": _word_text(word), "excess": word[0] - sum(word[1:]),
            "degree": sum(word), "length": len(word), "admissible": _admissible(word)}

    def check(out, fmt):
        got = _payload(out, fmt)
        if fmt == "text":
            got = dict(line.split(": ", 1) for line in got)
            want_text = {k: str(v) for k, v in want.items()}
            return None if got == want_text else f"expected {want_text}, got {got}"
        return None if got == want else f"expected {want}, got {got}"
    return check


def check_table(hq: dict[int, int], max_degree: int, kind: str, by_weight: bool = False) -> Check:
    """sbasis and e1 outputs against the generating function."""
    table = basis_table(hq, max_degree)
    by_degree: dict[int, int] = {}
    weights: dict[int, dict[int, int]] = {}
    for (w, d), c in sorted(table.items()):
        by_degree[d] = by_degree.get(d, 0) + c
        weights.setdefault(w, {})[d] = c
    by_degree = dict(sorted(by_degree.items()))

    def check_sbasis(out, fmt):
        got = _payload(out, fmt)
        if fmt == "json":
            want = {"by_degree": {str(d): c for d, c in by_degree.items()}}
            if by_weight:
                want["by_weight"] = {str(w): {str(d): c for d, c in t.items()}
                                     for w, t in weights.items()}
            return None if got == want else "basis dimensions differ from the generating function"
        want_lines = [f"{d}: {c}" for d, c in by_degree.items()]
        if by_weight:
            want_lines += [f"weight {w}: " + "  ".join(f"{d}:{c}" for d, c in t.items())
                           for w, t in weights.items()]
        return None if got == want_lines else "basis dimensions differ from the generating function"

    def check_e1(out, fmt):
        got = _payload(out, fmt)
        if fmt == "json":
            entries = {(e["s"], e["t"]): e["dim"] for e in got["entries"]}
        else:
            entries = {}
            cols = got[0].split()[1:]
            for row in got[1:-1]:
                t, *cells = row.split()
                for s, cell in zip(cols, cells):
                    if cell != ".":
                        entries[(int(s), int(t))] = int(cell)
        above = [k for k in entries if k[0] > k[1]]
        if above:
            return f"nonzero entry above the diagonal at (s, t) = {above[0]}"
        return None if entries == table else "first-page entries differ from the generating function"

    return check_sbasis if kind == "sbasis" else check_e1


def check_sgens(n: int, max_degree: int) -> Check:
    want = generator_shapes(n, max_degree)

    def check(out, fmt):
        got = _payload(out, fmt)
        if fmt == "json":
            shapes = sorted((g["degree"], g["weight"]) for g in got["generators"])
        else:
            shapes = []
            for line in got:
                tail = line.rsplit("(degree ", 1)[1].rstrip(")")
                deg, wt = tail.split(", weight ")
                shapes.append((int(deg), int(wt)))
            shapes.sort()
        return None if shapes == want else f"generator shapes {shapes} differ from {want}"
    return check


def check_axioms(out, fmt):
    ok = _payload(out, fmt)["ok"] if fmt == "json" else out.rstrip("\n").endswith("all axioms pass")
    return None if ok else "axiom failures reported"


def check_nilpotency(oracle: bool) -> Check:
    def check(out, fmt):
        got = _payload(out, fmt)
        if fmt == "json":
            within = got["within_bound"]
            matches = got["oracle"]["matches_closed_form"] if oracle else True
        else:
            vals = {k: v for k, _, v in (line.partition(" = ") for line in got[:3])}
            within = int(vals["index"]) <= int(vals["bound"])
            matches = got[-1].endswith(", consistent") if oracle else True
        if not within:
            return "index above the m-index bound"
        return None if matches else "oracle disagrees with the closed form"
    return check


def check_m_index(expected: int) -> Check:
    def check(out, fmt):
        got = _payload(out, fmt)
        value = got["m_index"] if fmt == "json" else int(got[0].split(" = ")[1])
        return None if value == expected else f"m_index {value}, expected {expected}"
    return check


def check_ring_product(expected: set, variables) -> Check:
    def check(out, fmt):
        text = _element_text(out, fmt)
        got = set() if text == "0" else {_mono_parse(t, variables) for t in text.split(" + ")}
        return None if got == expected else f"product {text!r} is wrong"
    return check


# --- generators -------------------------------------------------------------


def _words_sum(rng, lengths, hi=64):
    """Random words; an entry of `lengths` is a length or a (length, top index) pair."""
    shapes = [n if isinstance(n, tuple) else (n, hi) for n in lengths]
    return [tuple(rng.randint(2, top) for _ in range(n)) for n, top in shapes]


def _sum_text(words) -> str:
    return " + ".join(_word_text(w) for w in words)


def _fmt(rng) -> str:
    return rng.choice(("text", "json"))


def reduce_cmd(rng, lengths, hi=64) -> Command:
    ws = _words_sum(rng, lengths, hi=hi)
    return Command("reduce", ["reduce", _sum_text(ws)], _fmt(rng),
                   check=check_adem({sum(w) for w in ws}))


def compose_cmd(rng, left_lengths, right_lengths, hi=64) -> Command:
    left = _words_sum(rng, left_lengths, hi=hi)
    right = _words_sum(rng, right_lengths, hi=hi)
    degrees = {sum(u) + sum(v) for u in left for v in right}
    return Command("compose", ["compose", _sum_text(left), _sum_text(right)], _fmt(rng),
                   check=check_adem(degrees))


def annihilate_cmd(rng, max_t, span) -> Command:
    t = rng.randint(1, max_t)
    j = (1 << t) + rng.randint(1, span)
    return Command("annihilate", ["annihilate", "--j", str(j), "--t", str(t)], _fmt(rng))


def _atom(rng, n, max_len):
    """A word applied to x_n; any word parses, the result lands in basis form."""
    word = sorted((rng.randint(2, 2 * n) for _ in range(rng.randint(0, max_len))), reverse=True)
    return " ".join([f"d{i}" for i in word] + [f"x{n}"]), n + sum(word)


def act_cmd(rng, max_n, max_len) -> Command:
    terms, degree = [], 2
    for _ in range(rng.randint(1, 2)):
        atom, deg = _atom(rng, rng.randint(2, max_n), max_len)
        k = rng.choice((1, 2, 4))
        terms.append(atom if k == 1 else f"g{k}({atom})")
        degree = max(degree, k * deg)
    i = rng.randint(2, degree)
    return Command("act", ["act", "--i", str(i), "--on", " + ".join(terms)], _fmt(rng))


def probe_cmd(rng, max_n, max_iter) -> Command:
    n = rng.randint(3, max_n)
    i = rng.randint(2, n - 1) if rng.random() < 0.5 else 0
    gen = f"d{i} x{n}" if i else f"x{n}"
    degree = n + i
    kind = rng.choice(("gamma2", "andre", f"alpha:{rng.randint(0, degree - 2)}"))
    return Command("probe", ["probe", "--kind", kind, "--gen", gen,
                             "--max-iter", str(rng.randint(2, max_iter))], _fmt(rng))


def _hq_text(hq) -> str:
    return json.dumps({str(n): m for n, m in sorted(hq.items())}, separators=(",", ":"))


def _sized_table(rng, lo, hi, cuts):
    """A dimension table and degree cut whose basis has between lo and hi monomials."""
    while True:
        degrees = rng.sample((1, 2, 3, 4), rng.randint(1, 3))
        hq = {n: rng.randint(1, 4) for n in degrees}
        cut = rng.randint(*cuts)
        if lo <= sum(basis_table(hq, cut).values()) <= hi:
            return hq, cut


def sbasis_cmd(rng, size, cuts, by_weight) -> Command:
    hq, cut = _sized_table(rng, *size, cuts)
    args = ["sbasis", "--hq", _hq_text(hq), "--max-degree", str(cut)]
    if by_weight:
        args.append("--by-weight")
    return Command("sbasis", args, _fmt(rng), check=check_table(hq, cut, "sbasis", by_weight))


def e1_cmd(rng, size, cuts) -> Command:
    hq, cut = _sized_table(rng, *size, cuts)
    return Command("e1", ["e1", "--hq", _hq_text(hq), "--max-t", str(cut)], _fmt(rng),
                   check=check_table(hq, cut, "e1"))


def sgens_cmd(rng, max_n, cuts) -> Command:
    n, cut = rng.randint(1, max_n), rng.randint(*cuts)
    return Command("sgens", ["sgens", "--n", str(n), "--max-degree", str(cut)], _fmt(rng),
                   check=check_sgens(n, cut))


def axioms_cmd(rng, trials) -> Command:
    n = rng.randint(*trials)
    return Command("axioms", ["axioms", "--trials", str(n), "--seed", str(rng.randint(0, 10**6))],
                   _fmt(rng), check=check_axioms)


# The five rings of scripts/artin_nilpotency_sweep.py: (variables, pure powers, other relations).
SWEEP_RINGS = [
    (("t",), (3,), ()),
    (("t",), (5,), ()),
    (("u", "v"), (2, 2), ()),
    (("u", "v"), (3, 2), ((2, 1),)),
    (("a", "b", "c"), (2, 2, 2), ()),
]


def _ring_json(variables, relations) -> str:
    rels = [_mono_text(r, variables) for r in relations]
    return json.dumps({"vars": list(variables), "relations": rels}, separators=(",", ":"))


def _ring_sum(rng, monos, variables, max_terms) -> tuple[set, str]:
    picks = rng.sample(monos, rng.randint(1, min(max_terms, len(monos))))
    return set(picks), " + ".join(_mono_text(m, variables) for m in picks)


def nilpotency_cmd(rng, oracle_s, terms=(1, 3)) -> Command:
    variables, exps, others = rng.choice(SWEEP_RINGS)
    relations = pure_powers(exps) + list(others)
    monos = [m for m in normal_monomials(list(exps), relations) if any(m)]
    terms = [{"coef": _ring_sum(rng, monos, variables, 2)[1], "gen": f"x{k + 1}"}
             for k in range(rng.randint(*terms))]
    args = ["nilpotency", "--ring", _ring_json(variables, relations),
            "--element", json.dumps(terms, separators=(",", ":"))]
    if oracle_s is not None:
        args += ["--oracle", "--s", str(rng.randint(*oracle_s))]
    return Command("nilpotency", args, _fmt(rng), check=check_nilpotency(oracle_s is not None))


def m_index_cmd(rng, nvars, exps, work=(1, 10**7)) -> Command:
    """m-index of a pure-power ring whose work lies within `work`.

    The program enumerates the monomial box and tests each monomial against
    every relation, so the work is taken as box size times variables, which
    tracks its cost for 2 to 4 variables within about 10%.  The last power
    is drawn from the range that puts the work within `work`.
    """
    k = rng.randint(*nvars)
    while True:
        powers = [rng.randint(*exps) for _ in range(k - 1)]
        rest = prod(powers) * k
        lo, hi = max(exps[0], -(-work[0] // rest)), min(exps[1], work[1] // rest)
        if lo <= hi:
            powers.append(rng.randint(lo, hi))
            break
    variables = "uvwz"[:k]
    return Command("m-index", ["m-index", "--ring", _ring_json(variables, pure_powers(powers))],
                   _fmt(rng),
                   check=check_m_index(sum(b - 1 for b in powers) + 1))


def ring_mul_cmd(rng, nvars, exps, max_terms) -> Command:
    k = rng.randint(*nvars)
    variables = "uvwz"[:k]
    powers = [rng.randint(*exps) for _ in range(k)]
    others = []
    if k >= 2 and rng.random() < 0.5:
        a, b = rng.sample(range(k), 2)
        mixed = [0] * k
        mixed[a], mixed[b] = rng.randint(1, powers[a] - 1), rng.randint(1, powers[b] - 1)
        others.append(tuple(mixed))
    relations = pure_powers(powers) + others
    monos = normal_monomials(powers, relations)
    left, left_text = _ring_sum(rng, monos, variables, max_terms)
    right, right_text = _ring_sum(rng, monos, variables, max_terms)
    expected: set = set()
    for a in left:
        for b in right:
            m = tuple(x + y for x, y in zip(a, b))
            if is_normal(m, relations):
                expected ^= {m}
    return Command("ring-mul", ["ring-mul", "--ring", _ring_json(variables, relations),
                                left_text, right_text], _fmt(rng),
                   check=check_ring_product(expected, variables))


def theta_cmd(rng) -> Command:
    s, t = rng.randint(0, 4), rng.randint(0, 3)
    word = tuple(2 ** (s + t - k) for k in range(s))
    return Command("theta", ["theta", "--s", str(s), "--t", str(t)], _fmt(rng),
                   check=check_equals(_word_text(word)))


def alpha2delta_cmd(rng) -> Command:
    source = m = rng.randint(2, 9)
    indices, deltas = [], []
    for _ in range(rng.randint(1, 3)):  # alpha_a on degree m is delta_{m-a}, rightmost first
        a = rng.randint(0, m - 2)
        indices.insert(0, a)
        deltas.insert(0, m - a)
        m = 2 * m - a
    return Command("alpha2delta", ["alpha2delta", "--word", ",".join(map(str, indices)),
                                   "--degree", str(source)], _fmt(rng),
                   check=check_equals(_word_text(tuple(deltas))))


def stats_cmd(rng) -> Command:
    word = _words_sum(rng, [rng.randint(1, 4)], hi=24)[0]
    return Command("stats", ["stats", _word_text(word)], _fmt(rng), check=check_stats(word))


def malformed_cmd(rng) -> Command:
    """Inputs with settled diagnostics: a bad token (exit 3), delta_1 (exit 4)."""
    if rng.random() < 0.5:
        word = _word_text(_words_sum(rng, [2], hi=16)[0])
        return Command("malformed", ["reduce", f"{word} q{rng.randint(2, 9)}"], _fmt(rng), expect=3)
    return Command("malformed", ["act", "--i", "1", "--on", f"x{rng.randint(2, 9)}"], _fmt(rng),
                   expect=4)


# --- workloads --------------------------------------------------------------
#
# Each workload is a cycle of command makers; position i of the stream uses
# maker i mod len(cycle).

# Words of one adem sum: (length, top index).  Cold cost per word grows
# steeply with length and index, and so does its spread: one in a few
# hundred length-6 words with indices up to 64 takes seconds and 10^5 memo
# entries, which left a run's throughput and peak RSS to a handful of draws.
# Words of length 5 stop at index 40 and words of length 6 at index 32.
ADEM_SUM = [(6, 32)] * 80 + [(5, 40)] * 100 + [(4, 64)] * 60 + [(3, 64)] * 20

TABLE_BAND = (7000, 9000)  # basis monomials per sbasis or e1 command
# Under 100 trials axioms runs on one thread on any machine (cli.py starts
# one pool thread per 50 trials), so its time does not depend on the CPU count.
AXIOM_TRIALS = (75, 85)
M_INDEX_WORK = (320_000, 340_000)  # about 0.6 s a command, twice an axioms run

WORKLOADS: dict[str, list[Callable[[random.Random], Command]]] = {
    # Cold Adem rewriting: sums of words of length 3-6 (see ADEM_SUM).
    "adem": [
        lambda r: reduce_cmd(r, ADEM_SUM),
        lambda r: compose_cmd(r, [2] * 10, [2, 1] * 6),
        lambda r: reduce_cmd(r, ADEM_SUM),
        lambda r: reduce_cmd(r, ADEM_SUM),
        lambda r: annihilate_cmd(r, 4, 64),
        lambda r: reduce_cmd(r, ADEM_SUM),
        lambda r: reduce_cmd(r, ADEM_SUM),
        lambda r: reduce_cmd(r, ADEM_SUM),
        lambda r: act_cmd(r, 9, 2),
        lambda r: reduce_cmd(r, ADEM_SUM),
        lambda r: reduce_cmd(r, ADEM_SUM),
        lambda r: reduce_cmd(r, ADEM_SUM),
        lambda r: probe_cmd(r, 9, 8),
        lambda r: reduce_cmd(r, ADEM_SUM),
        lambda r: reduce_cmd(r, ADEM_SUM),
        lambda r: reduce_cmd(r, ADEM_SUM),
    ],
    # Basis enumeration and first-page tallies; no Adem rewriting.  Sizes sit
    # in one band, so that the median and tail fall inside one cluster.
    "tables": [
        lambda r: sbasis_cmd(r, TABLE_BAND, (20, 40), False),
        lambda r: e1_cmd(r, TABLE_BAND, (20, 40)),
        lambda r: sgens_cmd(r, 4, (20, 40)),
        lambda r: sbasis_cmd(r, TABLE_BAND, (20, 40), True),
        lambda r: e1_cmd(r, TABLE_BAND, (20, 40)),
        lambda r: sbasis_cmd(r, TABLE_BAND, (20, 40), True),
        lambda r: e1_cmd(r, TABLE_BAND, (20, 40)),
        lambda r: sgens_cmd(r, 4, (20, 40)),
    ],
    # Divided-power expansion engines over GF(2) and Artin rings; no words.
    # Axiom runs are 3/5 of the stream and set its median.  m-index runs on
    # large boxes, 1/5 of it, form a cluster of similar latency above them
    # that holds the tail: with 80 or so commands a run, the 11th largest is
    # in the lower half of that cluster, where a few seconds of a slower
    # machine move it little.  The oracle is capped at s <= 4 and six terms,
    # and ring products at desk sizes take well under 0.1 s, so those two
    # are the light end of the stream.
    "verify": [
        lambda r: axioms_cmd(r, AXIOM_TRIALS),
        lambda r: m_index_cmd(r, (2, 4), (2, 600), M_INDEX_WORK),
        lambda r: axioms_cmd(r, AXIOM_TRIALS),
        lambda r: nilpotency_cmd(r, (2, 4), (3, 6)),
        lambda r: axioms_cmd(r, AXIOM_TRIALS),
        lambda r: axioms_cmd(r, AXIOM_TRIALS),
        lambda r: m_index_cmd(r, (2, 4), (2, 600), M_INDEX_WORK),
        lambda r: axioms_cmd(r, AXIOM_TRIALS),
        lambda r: ring_mul_cmd(r, (2, 4), (2, 8), 8),
        lambda r: axioms_cmd(r, AXIOM_TRIALS),
    ],
    # All 15 subcommands at sizes far below interpreter start-up, plus one
    # malformed input per cycle; three slots of somewhat larger axioms and e1
    # runs (a sixth of the stream) form the tail.
    "quick": [
        lambda r: reduce_cmd(r, [2, 3], hi=16),
        lambda r: compose_cmd(r, [1], [2], hi=16),
        lambda r: stats_cmd(r),
        lambda r: annihilate_cmd(r, 2, 8),
        lambda r: axioms_cmd(r, (8, 14)),
        lambda r: theta_cmd(r),
        lambda r: alpha2delta_cmd(r),
        lambda r: sgens_cmd(r, 4, (6, 14)),
        lambda r: sbasis_cmd(r, (1, 60), (4, 10), r.random() < 0.5),
        lambda r: e1_cmd(r, (500, 1000), (10, 20)),
        lambda r: act_cmd(r, 5, 1),
        lambda r: probe_cmd(r, 5, 3),
        lambda r: e1_cmd(r, (1, 60), (4, 10)),
        lambda r: ring_mul_cmd(r, (1, 2), (2, 4), 2),
        lambda r: m_index_cmd(r, (1, 3), (2, 4)),
        lambda r: nilpotency_cmd(r, (0, 2) if r.random() < 0.5 else None),
        lambda r: axioms_cmd(r, (8, 14)),
        malformed_cmd,
    ],
}


def command(workload: str, seed: int, i: int) -> Command:
    """Command i of a workload's stream at a seed."""
    cycle = WORKLOADS[workload]
    return cycle[i % len(cycle)](random.Random(f"{workload}:{seed}:{i}"))
