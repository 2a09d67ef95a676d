"""Batch command-line surface over the calculator modules."""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import artin, e1, exprs, gamma
from . import words as wd
from .errors import DomainError, RangeError
from .f2 import GradedDims

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_SYNTAX = 3
EXIT_DOMAIN = 4
EXIT_RANGE = 5

_EPILOG = f"""\
exit codes:
  0  success
  1  internal error (a fault in deltacalc, not in the input)
  2  unknown subcommand or bad usage
  3  expression or JSON syntax error
  4  domain/precondition violation, or a request over its size budget
  5  integer range overflow (indices must stay below 2^32)

size budgets (exit 4 above them):
  sbasis, e1           gamma factors x table cells <= {gamma.COUNT_WORK_LIMIT:,}
  sgens                generators listed <= {gamma.GENERATOR_LIMIT:,}
  m-index, nilpotency  staircase corner candidates x relations <= {artin.NORMAL_BOX_LIMIT:,}
  nilpotency --element coefficient monomials x relations <= {artin.ELEMENT_WORK_LIMIT:,}
  act, --oracle        gamma_k: k + |a| x |b| x relations per ring product a*b <= {artin.EXPANSION_WORK_LIMIT:,}

JSON outputs follow the schemas shipped in docs/.
"""


def _load_json_arg(value: str, what: str):
    """Accept inline JSON or a path to a JSON file."""
    text = value
    if not value.lstrip().startswith(("{", "[")):
        try:
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise DomainError(f"cannot read {what} file {value!r}: {err}") from err
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise exprs.ParseError(f"invalid {what} JSON: {err.msg}", text, err.pos) from err
    except ValueError:  # an integer literal too long to convert
        raise exprs.ParseError(f"invalid {what} JSON: a number has too many digits to read",
                               text, 0) from None


_DEGREE_KEY = re.compile(r"0|[1-9][0-9]*")  # propertyNames in docs/graded-dims.schema.json


def _graded_dims(value: str) -> GradedDims:
    table = _load_json_arg(value, "dimension table")
    if isinstance(table, dict):
        for deg, dim in table.items():
            # bool is an int subclass, and JSON true is not an integer
            if not _DEGREE_KEY.fullmatch(deg) or type(dim) is not int:
                raise exprs.ParseError(
                    "a dimension table maps decimal degrees to integers, not "
                    f"{json.dumps(deg)}: {json.dumps(dim)}", value, 0)
            exprs.parse_int(deg, "degree", value, 0)
    return GradedDims.from_json(table)


_NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")  # vars pattern in docs/ring.schema.json


def _strings(items) -> bool:
    return isinstance(items, list) and all(isinstance(it, str) for it in items)


def _ring(value: str) -> artin.ArtinRing:
    ring = _load_json_arg(value, "ring")
    # docs/ring.schema.json; duplicate names stay a domain error of ArtinRing
    if not (isinstance(ring, dict) and set(ring) == {"vars", "relations"}
            and _strings(ring["vars"]) and all(_NAME.fullmatch(v) for v in ring["vars"])
            and _strings(ring["relations"])):
        raise exprs.ParseError(
            'a ring is {"vars": [variable names], "relations": [monomials]}', value, 0)
    return artin.ArtinRing.from_json(ring)


def _mixed_element(ring: artin.ArtinRing, value: str) -> artin.MixedElement:
    terms = _load_json_arg(value, "mixed element")
    # docs/mixed-element.schema.json
    if not (isinstance(terms, list) and all(
            isinstance(t, dict) and set(t) == {"coef", "gen"}
            and isinstance(t["coef"], str) and isinstance(t["gen"], str) for t in terms)):
        raise exprs.ParseError(
            'a mixed element is a list of {"coef": ring element, "gen": name}', value, 0)
    return artin.MixedElement.from_json(ring, terms)


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
    raw = args.word.strip()
    try:
        indices = tuple(int(a) for a in raw.split(",")) if raw else ()
    except ValueError as err:
        raise DomainError(f"alpha indices must be comma-separated integers: {raw!r}") from err
    word = wd.alpha_to_delta(wd.AlphaWord(indices, args.degree))
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
    counts = gamma.basis_counts(_graded_dims(args.hq).items(), args.max_degree)
    by_degree, by_weight = gamma.graded_tables(counts)
    payload = {"by_degree": by_degree.to_json()}
    lines = [f"{deg}: {dim}" for deg, dim in by_degree.items()]
    if args.by_weight:
        payload["by_weight"] = {str(w): t.to_json() for w, t in by_weight.items()}
        for w, t in by_weight.items():
            lines.append(f"weight {w}: " + "  ".join(f"{d}:{k}" for d, k in t.items()))
    return payload, "\n".join(lines)


def _cmd_act(args):
    element = gamma.delta_act(args.i, exprs.parse_s_element(args.on))
    text = exprs.format_s_element(element)
    return {"element": text}, text


def _cmd_probe(args):
    result = gamma.nilpotency_probe(args.kind, exprs.parse_generator(args.gen), args.max_iter)
    steps = [exprs.format_s_element(e) for e in result.trajectory]
    payload = {
        "kind": result.kind,
        "start": exprs.format_generator(result.start),
        "status": result.status,
        "order": result.order,
        "iterations": result.iterations,
        "steps": steps,
    }
    if result.status == "nilpotent":
        head = f"nilpotent of order {result.order}"
    else:
        head = f"nonvanishing through {result.iterations} iterations"
    text = "\n".join([head] + [f"  step {k}: {s}" for k, s in enumerate(steps)])
    return payload, text


def _cmd_e1(args):
    table = e1.e1_page(_graded_dims(args.hq), args.max_t)
    return table.to_json(), table.render_text


def _cmd_ring_mul(args):
    ring = _ring(args.ring)
    product = artin.ring_multiply(ring, ring.parse(args.left), ring.parse(args.right))
    text = ring.format(product)
    return {"element": text}, text


def _cmd_m_index(args):
    value = artin.m_index(_ring(args.ring))
    return {"m_index": value}, f"m_index = {value}"


def _cmd_nilpotency(args):
    ring = _ring(args.ring)
    element = _mixed_element(ring, args.element)
    index = artin.gamma2_nilpotency_index(element)
    mi, bound = artin.nilpotency_bound(ring)
    payload = {
        "element": element.format(),
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
        "coefficient_ring": _AXIOM_RING.to_json(),
        "ring": _axiom_report_json(ring_report),
        "ok": f2_report.ok and ring_report.ok,
    }
    lines = [f"{trials} trials per coefficient setting"]
    for label, rep in (("GF(2)", f2_report), ("GF(2)[t]/(t^4)", ring_report)):
        for a in artin.AXIOM_NAMES:
            lines.append(f"{label:>14}  {a}: {rep.checked[a] - rep.failures[a]}/{rep.checked[a]} pass")
    lines.append("all axioms pass" if payload["ok"] else "FAILURES PRESENT")
    return payload, "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    def cmd(name, handler, help_, configure):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS)
        configure(p)
        p.set_defaults(handler=handler)

    cmd("reduce", _cmd_reduce, "rewrite a sum of delta words to admissible form",
        lambda p: p.add_argument("expr"))
    cmd("compose", _cmd_compose, "concatenate two elements and reduce",
        lambda p: (p.add_argument("left"), p.add_argument("right")))
    cmd("stats", _cmd_stats, "excess/degree/length/admissibility of a word",
        lambda p: p.add_argument("word"))

    def conf_annihilate(p):
        p.add_argument("--j", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--max-s", type=int, default=16, dest="max_s")
    cmd("annihilate", _cmd_annihilate,
        "least s with theta(s,t) * delta_j reducing to zero", conf_annihilate)

    def conf_theta(p):
        p.add_argument("--s", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
    cmd("theta", _cmd_theta, "the doubling composite theta(s,t)", conf_theta)

    def conf_a2d(p):
        p.add_argument("--word", required=True,
                       help="comma-separated alpha indices, applied rightmost first")
        p.add_argument("--degree", type=int, required=True)
    cmd("alpha2delta", _cmd_alpha2delta, "convert an alpha word on a given degree",
        conf_a2d)

    def conf_sgens(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--max-degree", type=int, required=True, dest="max_degree")
    cmd("sgens", _cmd_sgens, "free divided-power generators on x_n", conf_sgens)

    def conf_sbasis(p):
        p.add_argument("--hq", required=True, help="graded dims (inline JSON or a file)")
        p.add_argument("--max-degree", type=int, required=True, dest="max_degree")
        p.add_argument("--by-weight", action="store_true", dest="by_weight")
    cmd("sbasis", _cmd_sbasis, "basis dimensions of the free algebra", conf_sbasis)

    def conf_act(p):
        p.add_argument("--i", type=int, required=True)
        p.add_argument("--on", required=True)
    cmd("act", _cmd_act, "apply delta_i to an element", conf_act)

    def conf_probe(p):
        p.add_argument("--kind", required=True, help="gamma2 | alpha:K | andre")
        p.add_argument("--gen", required=True)
        p.add_argument("--max-iter", type=int, required=True, dest="max_iter")
    cmd("probe", _cmd_probe, "iterate an operation on the indecomposables", conf_probe)

    def conf_e1(p):
        p.add_argument("--hq", required=True, help="graded dims (inline JSON or a file)")
        p.add_argument("--max-t", type=int, required=True, dest="max_t")
    cmd("e1", _cmd_e1, "first-page dimension table", conf_e1)

    def conf_ring_mul(p):
        p.add_argument("--ring", required=True)
        p.add_argument("left")
        p.add_argument("right")
    cmd("ring-mul", _cmd_ring_mul, "normal-form product in a monomial quotient ring",
        conf_ring_mul)
    cmd("m-index", _cmd_m_index, "nilpotency exponent of the maximal ideal",
        lambda p: p.add_argument("--ring", required=True))

    def conf_nilpotency(p):
        p.add_argument("--ring", required=True)
        p.add_argument("--element", required=True, help="mixed element JSON")
        p.add_argument("--oracle", action="store_true")
        p.add_argument("--s", type=int, default=2)
    cmd("nilpotency", _cmd_nilpotency,
        "divided-square nilpotency index of a mixed element", conf_nilpotency)
    cmd("axioms", _cmd_axioms, "fuzz the divided power axioms",
        lambda p: p.add_argument("--trials", type=int, default=200))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_help(sys.stderr)
        return EXIT_USAGE
    try:
        payload, text = args.handler(args)
        if args.format == "text" and callable(text):
            text = text()
    except exprs.ParseError as err:
        print(f"deltacalc: {err}", file=sys.stderr)
        return EXIT_SYNTAX
    except RangeError as err:
        print(f"deltacalc: {err}", file=sys.stderr)
        return EXIT_RANGE
    except DomainError as err:
        print(f"deltacalc: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as err:
        print(f"deltacalc: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except Exception as err:  # inputs are checked above, so this is a fault in deltacalc
        print(f"deltacalc: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)
    return EXIT_OK
