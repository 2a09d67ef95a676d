"""Batch command-line surface over the calculator modules."""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import artin, e1, exprs, gamma
from . import words as wd
from .errors import Budget, DomainError, RangeError

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_SYNTAX = 3
EXIT_DOMAIN = 4
EXIT_RANGE = 5
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a writer killed by it

# Longest JSON input file, in characters: the longest single argument Linux
# accepts (131,072 bytes with its closing NUL fail with "Argument list too
# long"), so a file holds no more than the same input given inline.  At most
# one character past the limit is read.
FILE_BUDGET = Budget("characters of an input file", 131_071)

# Every size budget, after the commands it bounds; --help states each one's
# measure and limit as its module declares them.
_BUDGETS = (
    ("reduce, compose, annihilate, act, probe", wd.ADEM_BUDGET),
    ("compose", wd.PRODUCT_BUDGET),
    ("sbasis, e1", gamma.COUNT_BUDGET),
    ("sgens", gamma.GENERATOR_BUDGET),
    ("e1 text output", e1.TEXT_ROW_BUDGET),
    ("ring-mul, m-index, nilpotency, axioms' ring sampler", artin.RING_WORK_BUDGET),
    ("act, nilpotency --oracle", artin.EXPANSION_BUDGET),
    ("act --on products", gamma.PRODUCT_BUDGET),
    ("axioms", artin.AXIOM_TRIAL_BUDGET),
    ("JSON input files", FILE_BUDGET),
)
_BUDGET_LINES = "".join(
    f"  {cmds:<20} {b.measure} <= {b.limit:,}\n" if len(cmds) <= 20
    else f"  {cmds}\n{'':23}{b.measure} <= {b.limit:,}\n" for cmds, b in _BUDGETS)

_EPILOG = f"""\
exit codes:
  0  success
  1  internal error (a fault in deltacalc, not in the input)
  2  unknown subcommand or bad usage
  3  syntax error in an expression, alpha word, probe kind or JSON input
  4  domain/precondition violation, or a request over its size budget
  5  integer range overflow: every delta index, parsed, passed as an option,
     or formed by rewriting, theta or alpha conversion, stays below 2^32
  141  stdout closed by its reader before all the output was written

size budgets (exit 4 above them):
{_BUDGET_LINES}
JSON outputs follow the schemas shipped in docs/.
"""


def _arg_text(value: str, what: str) -> str:
    """The argument itself when it is inline JSON, else the text of the file it names,
    refused past FILE_BUDGET after reading at most one character more."""
    if value.lstrip().startswith(("{", "[")):
        return value
    try:
        with open(value, "r", encoding="utf-8") as fh:
            text = fh.read(FILE_BUDGET.limit + 1)
    except (OSError, UnicodeDecodeError) as err:
        raise DomainError(f"cannot read {what} file {value!r}: {err}") from err
    FILE_BUDGET.check(len(text))
    return text


def _one_line(message: str) -> str:
    """An error line cut to 200 characters: values can be long."""
    return message if len(message) <= 200 else message[:197] + "..."


class _Parser(argparse.ArgumentParser):
    """argparse, with its error line cut as main cuts its own; subparsers are of this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, _one_line(f"{self.prog}: error: {message}") + "\n")


def _axiom_report_json(report: artin.AxiomReport) -> dict:
    return {"checked": report.checked, "failures": report.failures, "ok": report.ok}


# --- command handlers: each returns (payload, text); text may be a function
# that renders it, so JSON output skips a table only text output prints ---


def _cmd_reduce(args):
    element = wd.reduce(exprs.parse_delta(args.expr))
    text = exprs.format_delta(element)
    return {"element": text}, text


def _cmd_compose(args):
    element = wd.compose(exprs.parse_delta(args.left), exprs.parse_delta(args.right))
    text = exprs.format_delta(element)
    return {"element": text}, text


def _cmd_stats(args):
    word = exprs.parse_word(args.word)
    payload = {
        "word": exprs.format_word(word),
        "excess": wd.excess(word),
        "degree": wd.degree(word),
        "length": wd.length(word),
        "admissible": wd.is_admissible(word),
    }
    text = "\n".join(f"{k}: {v}" for k, v in payload.items())
    return payload, text


def _cmd_annihilate(args):
    s = wd.annihilation_order(args.j, args.t, args.max_s)
    if s is None:
        return (
            {"s": None, "searched_up_to": args.max_s},
            f"not annihilated within s <= {args.max_s}",
        )
    return {"s": s}, f"s = {s}"


def _cmd_theta(args):
    word = wd.theta(args.s, args.t)
    text = exprs.format_word(word)
    return {"word": text}, text


def _cmd_alpha2delta(args):
    word = wd.alpha_to_delta(exprs.parse_alpha_word(args.word), args.degree)
    text = exprs.format_word(word)
    return {"word": text}, text


def _cmd_sgens(args):
    gens = gamma.s_generators(args.n, args.max_degree)
    items = [
        {"text": exprs.format_generator(g), "degree": g.degree, "weight": g.weight}
        for g in gens
    ]
    text = "\n".join(f"{it['text']}  (degree {it['degree']}, weight {it['weight']})"
                     for it in items)
    return {"generators": items}, text


def _cmd_sbasis(args):
    hq = exprs.parse_graded_dims(_arg_text(args.hq, "dimension table"))
    counts = gamma.basis_counts(hq.items(), args.max_degree)
    by_degree, by_weight = gamma.graded_tables(counts)
    payload = {"by_degree": by_degree.to_json()}
    lines = [f"{deg}: {dim}" for deg, dim in by_degree.items()]
    if args.by_weight:
        payload["by_weight"] = {str(w): t.to_json() for w, t in by_weight.items()}
        for w, t in by_weight.items():
            lines.append(f"weight {w}: " + "  ".join(f"{d}:{k}" for d, k in t.items()))
    return payload, "\n".join(lines)


def _cmd_act(args):
    with wd.ADEM_BUDGET:  # one tally for the --on atoms and the action on them
        element = gamma.delta_act(args.i, exprs.parse_s_element(args.on))
    text = exprs.format_s_element(element)
    return {"element": text}, text


def _cmd_probe(args):
    start = exprs.parse_generator(args.gen)
    result = gamma.nilpotency_probe(exprs.parse_probe_kind(args.kind), start, args.max_iter)
    steps = [exprs.format_s_element(e) for e in result.trajectory]
    payload = {
        "kind": args.kind,
        "start": exprs.format_generator(start),
        "status": result.status,
        "order": result.order,
        "iterations": args.max_iter,
        "steps": steps,
    }
    if result.status == "nilpotent":
        head = f"nilpotent of order {result.order}"
    else:
        head = f"nonvanishing through {args.max_iter} iterations"
    text = "\n".join([head] + [f"  step {k}: {s}" for k, s in enumerate(steps)])
    return payload, text


def _cmd_e1(args):
    hq = exprs.parse_graded_dims(_arg_text(args.hq, "dimension table"))
    table = e1.e1_page(hq, args.max_t)
    return table.to_json(), table.render_text


def _cmd_ring_mul(args):
    ring = exprs.parse_ring(_arg_text(args.ring, "ring"))
    left = exprs.parse_ring_element(args.left, ring)
    right = exprs.parse_ring_element(args.right, ring)
    artin.check_ring_work(ring, len(left) * len(right))
    product = artin.ring_multiply(ring, left, right)
    text = exprs.format_ring_element(product, ring)
    return {"element": text}, text


def _cmd_m_index(args):
    value = artin.m_index(exprs.parse_ring(_arg_text(args.ring, "ring")))
    return {"m_index": value}, f"m_index = {value}"


def _cmd_nilpotency(args):
    ring = exprs.parse_ring(_arg_text(args.ring, "ring"))
    element = exprs.parse_mixed_element(_arg_text(args.element, "mixed element"), ring)
    mi, bound = artin.nilpotency_bound(ring)  # refuses a ring over budget before any index
    index = artin.gamma2_nilpotency_index(element)
    payload = {
        "element": exprs.format_mixed_element(element),
        "index": index,
        "m_index": mi,
        "index_bound": bound,
        "within_bound": index <= bound,
    }
    lines = [f"index = {index}", f"m_index = {mi}", f"bound = {bound}"]
    if args.oracle:
        expansion = artin.gamma2_oracle_expand(element, args.s)
        projection = artin.indecomposable_part(expansion)
        zero = not any(projection.values())
        payload["oracle"] = {
            "s": args.s,
            "projection_zero": zero,
            "matches_closed_form": zero == (args.s >= index),
        }
        lines.append(
            f"oracle at s={args.s}: projection {'zero' if zero else 'nonzero'}, "
            f"{'consistent' if payload['oracle']['matches_closed_form'] else 'INCONSISTENT'}"
        )
    return payload, "\n".join(lines)


_AXIOM_RING = artin.ArtinRing(("t",), ((4,),))


def _cmd_axioms(args):
    trials = args.trials
    f2_report = gamma.gamma_axiom_suite(trials, args.seed)
    ring_report = artin.gamma_axiom_suite_over_ring(_AXIOM_RING, trials, args.seed + 10_000)
    payload = {
        "trials": trials,
        "f2": _axiom_report_json(f2_report),
        "coefficient_ring": exprs.format_ring(_AXIOM_RING),
        "ring": _axiom_report_json(ring_report),
        "ok": f2_report.ok and ring_report.ok,
    }
    lines = [f"{trials} trials per coefficient setting"]
    for label, rep in (("GF(2)", f2_report), ("GF(2)[t]/(t^4)", ring_report)):
        for a in artin.AXIOM_NAMES:
            lines.append(f"{label:>14}  {a}: {rep.checked[a] - rep.failures[a]}/{rep.checked[a]} pass")
    lines.append("all axioms pass" if payload["ok"] else "FAILURES PRESENT")
    return payload, "\n".join(lines)


# Argument specs that several subcommands share, as add_argument's keyword arguments
_INT = {"type": int, "required": True}
_HQ = {"required": True, "help": "graded dims (inline JSON or a file)"}

# Every subcommand, in --help order: its handler, its help line and its arguments,
# each as {flag: add_argument kwargs}; argparse derives each dest from its flag
_COMMANDS = {
    "reduce": (_cmd_reduce, "rewrite a sum of delta words to admissible form", {"expr": {}}),
    "compose": (_cmd_compose, "concatenate two elements and reduce", {"left": {}, "right": {}}),
    "stats": (_cmd_stats, "excess/degree/length/admissibility of a word", {"word": {}}),
    "annihilate": (_cmd_annihilate, "least s with theta(s,t) * delta_j reducing to zero",
                   {"--j": _INT, "--t": _INT, "--max-s": {"type": int, "default": 16}}),
    "theta": (_cmd_theta, "the doubling composite theta(s,t)", {"--s": _INT, "--t": _INT}),
    "alpha2delta": (_cmd_alpha2delta, "convert an alpha word on a given degree", {
        "--word": {"required": True, "help": "alpha indices as comma-separated decimal "
                   "integers, e.g. 1,0, applied rightmost first"},
        "--degree": _INT}),
    "sgens": (_cmd_sgens, "free divided-power generators on x_n",
              {"--n": _INT, "--max-degree": _INT}),
    "sbasis": (_cmd_sbasis, "basis dimensions of the free algebra",
               {"--hq": _HQ, "--max-degree": _INT, "--by-weight": {"action": "store_true"}}),
    "act": (_cmd_act, "apply delta_i to an element", {"--i": _INT, "--on": {"required": True}}),
    "probe": (_cmd_probe, "iterate an operation on the indecomposables", {
        "--kind": {"required": True, "help": "gamma2 | andre | alpha:K (K an integer): "
                   "iterate delta_(deg-K); gamma2 is alpha:0, andre alpha:1"},
        "--gen": {"required": True}, "--max-iter": _INT}),
    "e1": (_cmd_e1, "first-page dimension table", {"--hq": _HQ, "--max-t": _INT}),
    "ring-mul": (_cmd_ring_mul, "normal-form product in a monomial quotient ring",
                 {"--ring": {"required": True}, "left": {}, "right": {}}),
    "m-index": (_cmd_m_index, "nilpotency exponent of the maximal ideal",
                {"--ring": {"required": True}}),
    "nilpotency": (_cmd_nilpotency, "divided-square nilpotency index of a mixed element", {
        "--ring": {"required": True},
        "--element": {"required": True, "help": "mixed element JSON"},
        "--oracle": {"action": "store_true"}, "--s": {"type": int, "default": 2}}),
    "axioms": (_cmd_axioms, "fuzz the divided power axioms",
               {"--trials": {"type": int, "default": 200}}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="deltacalc",
        description="Symbolic calculator for mod-2 higher divided squares: "
        "Adem rewriting, divided power bases, first-page tables, and "
        "Artin-ring nilpotency checks.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized verification commands")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (_, help_, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        for flag, kwargs in arguments.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        payload, text = _COMMANDS[args.command][0](args)
        if args.format == "text" and callable(text):
            text = text()
    except ValueError as err:  # ParseError, RangeError and DomainError among them
        print(_one_line(f"deltacalc: {err}"), file=sys.stderr)
        if isinstance(err, exprs.ParseError):
            return EXIT_SYNTAX
        return EXIT_RANGE if isinstance(err, RangeError) else EXIT_DOMAIN
    except Exception as err:  # inputs are checked above, so this is a fault in deltacalc
        print(_one_line(f"deltacalc: internal error: {type(err).__name__}: {err}"),
              file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)
    return EXIT_OK


def entry() -> int:
    """Run ``main()`` as a process: ``python -m deltacalc`` and the console script.

    Cyclic collection is off while the command runs: the Adem memos hold
    tuples of ints, which form no cycles, and a reduce of any size leaves
    the same few hundred cyclic objects, argparse's parser.  Finalization
    collects even with it off, and freezing the heap before returning
    spares that pass over every object the command made; flushing and
    atexit handlers still run.  If the reader closes stdout before the
    output is written, the command ends with exit code 141 and no traceback.
    """
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: send what is still buffered to devnull, so that
        # the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    finally:
        gc.freeze()
