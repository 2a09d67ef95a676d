import argparse
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import random
import re
from math import comb
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings, strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from deltacalc import cli
from deltacalc.errors import Budget

DOCS = Path(__file__).parent.parent / "docs"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run_cli(["--format", "json", *argv])
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def validators():
    registry = Registry()
    schemas = {}
    for path in DOCS.glob("*.schema.json"):
        doc = json.loads(path.read_text())
        resource = Resource.from_contents(doc)
        registry = registry.with_resource(doc["$id"], resource)
        schemas[path.name] = doc
    results = schemas["cli-results.schema.json"]

    def for_command(defname):
        schema = {"$ref": f"deltacalc/cli-results.schema.json#/$defs/{defname}"}
        return Draft202012Validator(schema, registry=registry)

    return for_command


def test_reduce_example():
    code, out, err = run_cli(["reduce", "d5 d4"])
    assert code == 0 and out.strip() == "d6 d3"


def test_format_flag_accepted_after_subcommand():
    payload = json.loads(run_cli(["reduce", "--format", "json", "d5 d4"])[1])
    assert payload == {"element": "d6 d3"}


def test_text_and_json_agree():
    code, text_out, _ = run_cli(["reduce", "d5 d4"])
    payload = run_json(["reduce", "d5 d4"])
    assert payload["element"] == text_out.strip()


def test_annihilate_example():
    assert run_json(["annihilate", "--j", "7", "--t", "2"]) == {"s": 2}


def test_annihilate_exhaustion():
    payload = run_json(["annihilate", "--j", "7", "--t", "2", "--max-s", "1"])
    assert payload == {"s": None, "searched_up_to": 1}


def test_sbasis_empty_below_degree_zero():
    assert run_json(["sbasis", "--hq", '{"2":1}', "--max-degree", "-5"]) == {"by_degree": {}}
    code, out, _ = run_cli(["sbasis", "--hq", '{"2":1}', "--max-degree", "-5"])
    assert code == 0 and out == "\n"


def test_huge_cut_with_nothing_below_it():
    # the table stops at the highest degree the factors reach, not at the cut
    for hq in ('{}', '{"2000000000":1}'):
        code, out, err = run_cli(["sbasis", "--hq", hq, "--max-degree", "1000000000"])
        assert (code, out, err) == (0, "0: 1\n", ""), hq
        payload = run_json(["e1", "--hq", hq, "--max-t", "1000000000"])
        assert payload["entries"] == [{"s": 0, "t": 0, "dim": 1}], hq


def test_sbasis_counts_past_enumeration_sizes():
    # 635,376 monomials, which listing them one by one did not finish in 20 s.
    # Four degree-1 classes give C(d+3, 3) monomials in degree d.
    payload = run_json(["sbasis", "--hq", '{"1":4}', "--max-degree", "60"])
    assert payload["by_degree"] == {str(d): comb(d + 3, 3) for d in range(61)}
    assert sum(payload["by_degree"].values()) == 635_376


def test_e1_example():
    payload = run_json(["e1", "--hq", '{"2":1}', "--max-t", "8"])
    expected = [{"s": k, "t": 2 * k, "dim": 1} for k in range(5)]
    assert sorted(payload["entries"], key=lambda e: e["t"]) == expected


def test_internal_error_is_one_cut_line(monkeypatch):
    # a fault in deltacalc, not in the input, exits 1 with one line cut like every other
    def fault(words):
        raise RuntimeError("x" * 500)

    monkeypatch.setattr(cli.wd, "reduce", fault)
    code, out, err = run_cli(["reduce", "d5 d4"])
    assert (code, out) == (1, "") and err.count("\n") == 1 and len(err) <= 201, err
    assert err.startswith("deltacalc: internal error: RuntimeError: "), err


def test_exit_codes(monkeypatch):
    code, _, err = run_cli(["reduce", "d1 d4"])
    assert code == 3 and "delta index 1" in err
    code, _, err = run_cli(["annihilate", "--j", "4", "--t", "2"])
    assert code == 4
    code, _, err = run_cli(["theta", "--s", "40", "--t", "0"])
    assert code == 5
    code, _, _ = run_cli(["no-such-command"])
    assert code == 2
    code, _, _ = run_cli([])
    assert code == 2
    # argparse's own error line is cut to 200 characters, as main cuts its own; the
    # usage line stays.  At 5,000 digits int() refuses the value, argparse says so.
    for argv in (["--format", "x" * 300, "reduce", "d4"], ["reduce", "d4", "y" * 300],
                 ["z" * 300], ["annihilate", "--j", "9" * 5000, "--t", "1"]):
        code, out, err = run_cli(argv)
        assert code == 2 and out == "" and err.startswith("usage: "), (argv, err)
        last = err.splitlines()[-1]
        assert ": error: " in last and len(last) == 200 and last.endswith("..."), (argv, err)
    code, _, err = run_cli(["nilpotency", "--ring", '{"vars":["t"],"relations":["t^3"]}',
                            "--element", '[{"bad": "t"}]'])
    assert code == 3
    for argv in (["axioms", "--trials", "-3"],
                 ["annihilate", "--j", "5", "--t", "2", "--max-s", "-1"],
                 ["probe", "--kind", "gamma2", "--gen", "x3", "--max-iter", "-2"],
                 ["nilpotency", "--ring", _T3, "--element", '[{"coef":"t","gen":"x"}]',
                  "--oracle", "--s", "-1"]):
        code, out, err = run_cli(argv)
        assert code == 4 and out == "" and err.startswith("deltacalc: "), (argv, err)
        assert err.count("\n") == 1, (argv, err)
    # a negative t is refused by theta at the first step, as before the search was incremental
    for argv in (["annihilate", "--j", "3", "--t", "-1"], ["annihilate", "--j", "2", "--t", "-3"]):
        assert run_cli(argv) == (4, "", "deltacalc: theta takes nonnegative arguments\n"), argv
    # the box below t^100000000 is too large to list, but m_index needs only its corner
    huge = '{"vars":["t"],"relations":["t^100000000"]}'
    assert run_json(["m-index", "--ring", huge]) == {"m_index": 10**8}
    payload = run_json(["nilpotency", "--ring", huge, "--element", '[{"coef":"t","gen":"x"}]'])
    assert (payload["m_index"], payload["index"], payload["index_bound"]) == (10**8, 27, 27)
    # 501 monomials against 1 relation count 501 of the ring work budget, and cancel to one
    payload = run_json(["nilpotency", "--ring", huge, "--element",
                        json.dumps([{"coef": " + ".join(["t"] * 501), "gen": "x"}])])
    assert (payload["element"], payload["index"], payload["index_bound"]) == ("(t) x", 27, 27)
    # 7 variables, relations (k,)*7 for k = 2..8 and pure powers 9: 8^7 corner candidates,
    # refused before any is tested (a tested one would be exit 1 here)
    over_grid = json.dumps({"vars": list("abcdefg"), "relations": [
        "*".join(f"{v}^{k}" for v in "abcdefg") for k in range(2, 9)] + [
        f"{v}^9" for v in "abcdefg"]})
    # u^a v^(300-a): 90,000 candidates, but each is tested against 301 relations
    staircase = json.dumps({"vars": ["u", "v"], "relations": [
        "*".join(f"{v}^{e}" for v, e in (("u", a), ("v", 300 - a)) if e) for a in range(301)]})

    def searched(*corners):
        raise AssertionError("the corner grid was searched")

    def multiplied(*args):
        raise AssertionError("a ring product was formed")

    monkeypatch.setattr(cli.artin, "product", searched)
    monkeypatch.setattr(cli.artin, "ring_multiply", multiplied)
    for argv, want in (
            (["sbasis", "--hq", '{"0":1}', "--max-degree", "6"], "degrees must be >= 1"),
            (["e1", "--hq", '{"0":1}', "--max-t", "6"], "connected"),
            (["sbasis", "--hq", '{"2":1000000000}', "--max-degree", "6"], "budget"),
            (["e1", "--hq", '{"2":1000000000}', "--max-t", "6"], "budget"),
            (["sgens", "--n", "50", "--max-degree", "1000"], "budget"),
            (["m-index", "--ring", over_grid], "budget"),
            (["m-index", "--ring", staircase], "budget"),
            (["nilpotency", "--ring", over_grid, "--element", '[{"coef":"a","gen":"x"}]'],
             "budget"),
            # 3,323 monomials against 301 relations, counted before they cancel to one and
            # before the ring's 90,000 corner candidates
            (["nilpotency", "--ring", staircase, "--element",
              json.dumps([{"coef": " + ".join(["u"] * 3323), "gen": "x"}])],
             "ring monomials tested x max(1, relations) reached 1,000,223, over the budget of "
             "1,000,000"),
            # k alone is over the divided-power budget, counted before any product
            (["act", "--i", "2", "--on", "g300001(x3)"], "budget"),
            # Adem rewriting: the search's products pass the budget in about 0.6 s,
            # and the pair's 4,333,333 values of s are refused before any is scanned
            (["annihilate", "--j", "30000", "--t", "0"], "budget"),
            (["reduce", "d2 d13000000"], "budget"),
            # refused before the first trial, which would take about 11 hours at this count
            (["axioms", "--trials", "100000000"], "budget"),
            # a row for every t, with no generator in range to count
            (["e1", "--hq", "{}", "--max-t", "4294967295"], "budget"),
            # a count past Python's 4,300-digit limit on printing an integer is named by
            # a power of two
            (["sbasis", "--hq", f'{{"3":{"9" * 4299}}}', "--max-degree", "6"],
             "gamma factors x table cells reached at least 2^14,285, over the budget of "
             "50,000,000"),
            # two bilinear products, each refused before its first pair (act's is below)
            (["compose", " + ".join(f"d{k}" for k in range(10000, 12000)),
              " + ".join(f"d{k}" for k in range(2, 2002))],
             "word pairs |a| x |b| reached 4,000,000, over the budget of 80,000"),
            (["ring-mul", "--ring", _UV_RING, " + ".join(f"u^{k}" for k in range(1, 2001)),
              " + ".join(f"v^{k}" for k in range(1, 2001))],
             "ring monomials tested x max(1, relations) reached 8,000,000, over the budget of "
             "1,000,000"),
            # each factor is counted before its monomials are tested against the relations:
            # 4,000 monomials against the 4,001 relations u^a v^(4000-a) took 18.5 s
            (["ring-mul", "--ring", json.dumps({"vars": ["u", "v"], "relations": [
                "*".join(f"{v}^{e}" for v, e in (("u", a), ("v", 4000 - a)) if e)
                for a in range(4001)]}), " + ".join(f"u^{k}" for k in range(1, 4001)), "0"],
             "ring monomials tested x max(1, relations) reached 16,004,000, over the budget of "
             "1,000,000"),
            # alpha_a is defined for 0 <= a <= m - 2 only
            (["probe", "--kind", "alpha:-1", "--gen", "x4", "--max-iter", "3"], "K >= 0"),
            # a 4,000-digit index reads as an integer, and its message is cut to one short line
            (["alpha2delta", "--word", "9" * 4000, "--degree", "3"], "alpha_9999")):
        start = time.perf_counter()
        code, out, err = run_cli(argv)
        assert time.perf_counter() - start < 2, argv
        assert code == 4 and out == "" and err.startswith("deltacalc: "), (argv, err)
        assert err.count("\n") == 1 and want in err and len(err) <= 201, (argv, err)
    monkeypatch.undo()
    # the g20's of two four-term atoms, 1,771 monomials each, are formed with ring
    # products over GF(2); their product is refused before its first pair
    start = time.perf_counter()
    assert run_cli(["act", "--i", "2", "--on", "g20(d11 d3 d11 x13)*g20(d11 d3 d11 x13:2)"]) == (
        4, "", "deltacalc: factors of the monomial pairs |a| x |b| reached 38,111,920, "
        "over the budget of 1,000,000\n")
    assert time.perf_counter() - start < 2
    # one tally spans a whole expression or action: each product, divided power or
    # term fits its budget alone, and the sum is refused once their work adds up
    products = ["*".join(f"d7 d9 x9:{q}" for q in range(15 * p + 1, 15 * p + 16))
                for p in range(20)]
    factors = "factors of the monomial pairs |a| x |b| reached 1,007,616, over the budget of "
    was_enabled = gc.isenabled()
    gc.disable()  # as entry() runs a command: collection would double the divided powers' time
    try:
        for argv, want in (
                (["act", "--i", "2", "--on", " + ".join(products[:2])], factors + "1,000,000"),
                (["act", "--i", "2", "--on", " + ".join(products)], factors + "1,000,000"),
                # g<k>(x3) costs 2k - 1: 150,001 and then 150,000 of the second term
                (["act", "--i", "2", "--on", "g75001(x3) + g75001(x5)"],
                 "divided-power work: k + |a| x |b| x max(1, relations) per ring product reached "
                 "300,001, over the budget of 300,000"),
                (["act", "--i", "2", "--on", " + ".join(
                    f"d{b} x{b + 1}" for b in range(3_000_000, 3_000_010, 3))],
                 "Adem terms scanned + new products formed reached 4,007,100, over the budget of "
                 "4,000,000"),
                # each step's terms cost less than the budget, and their number grows: with a
                # tally per term, this ran past the address-space cap of the fuzz below
                (["probe", "--kind", "alpha:363467", "--gen", "d396949 x397266", "--max-iter", "3"],
                 "Adem terms scanned + new products formed reached 4,005,781, over the budget of "
                 "4,000,000")):
            cli.wd._adem.cache_clear()  # cold, as a command starts: memo hits cost nothing
            cli.wd._left_mul.cache_clear()
            start = time.perf_counter()
            assert run_cli(argv) == (4, "", f"deltacalc: {want}\n"), argv
            assert time.perf_counter() - start < 2, argv
    finally:
        if was_enabled:
            gc.enable()
    # JSON lists only the nonzero entries, so it has no row budget
    assert run_json(["e1", "--hq", "{}", "--max-t", "4294967295"])["entries"] == [
        {"s": 0, "t": 0, "dim": 1}]
    # one monomial costs 2k - 1 in the engine: g2000(x3) is answered, and so is a sum
    # at the limit, 149,999 + 150,001
    assert run_cli(["act", "--i", "2", "--on", "g2000(x3)"]) == (0, "0\n", "")
    assert run_cli(["act", "--i", "2", "--on", "g75000(x3) + g75001(x5)"]) == (0, "0\n", "")
    # the last term of a sum updates only gamma_k: in a child, g1000 of this
    # two-term atom is answered, where the whole table was refused after 1.5 s at 290 MB
    env = dict(os.environ, PYTHONPATH=str(DOCS.parent / "src"))
    result = subprocess.run([sys.executable, "-m", "deltacalc", "act", "--i", "2", "--on",
                             "g1000(d3 d7 x7)"], env=env, capture_output=True, text=True,
                            timeout=10, preexec_fn=_cap_address_space)
    assert (result.returncode, result.stdout, result.stderr) == (0, "0\n", "")
    # the oracle's iterates over (u^1000, v^1000, w^1000) grow past the divided-power
    # budget, whose one tally spans the squarings: 65 + 470 + 10,055 + 483,293 through
    # s = 4 for 1-monomial coefficients, 254 + 4,574 + 452,702 through s = 3 for 2-monomial
    uvw = '{"vars":["u","v","w"],"relations":["u^1000","v^1000","w^1000"]}'
    for coefs in (["u", "v", "w", "u*v", "v*w", "u*w"],
                  ["u+v", "v+w", "u+w", "u*v+w", "v*w+u", "u*w+v"]):
        element = json.dumps([{"coef": c, "gen": f"x{k}"} for k, c in enumerate(coefs)])
        code, out, err = run_cli(["nilpotency", "--ring", uvw, "--element", element,
                                  "--oracle", "--s", "4"])
        assert code == 4 and out == "" and err.startswith("deltacalc: "), (coefs, err)
        assert err.count("\n") == 1 and "budget" in err, (coefs, err)
    # integers too long to convert name the input, not the interpreter's digit limit
    long = "9" * 5000
    for argv, want_code in (
            (["reduce", f"d{long}"], 5),
            (["reduce", f"d4 d{long} d2"], 5),
            (["sbasis", "--hq", f'{{"3":{long}}}', "--max-degree", "6"], 3),
            (["e1", "--hq", f'{{"{long}":1}}', "--max-t", "6"], 3),
            (["m-index", "--ring", f'{{"vars":["t"],"relations":["t^{long}"]}}'], 3),
            (["ring-mul", "--ring", _T3, f"t^{long}", "t"], 3),
            (["alpha2delta", "--word", long, "--degree", "3"], 3),
            (["probe", "--kind", f"alpha:{long}", "--gen", "x4", "--max-iter", "3"], 3)):
        code, out, err = run_cli(argv)
        assert code == want_code and out == "" and err.startswith("deltacalc: "), (argv, err)
        assert err.count("\n") == 1 and ("5000 digits" in err or "too many digits" in err), err
        assert len(err) <= 201, (argv, err)
        assert "set_int_max_str_digits" not in err and "4300" not in err, (argv, err)
    # indices at 2^32 are refused where they arise, before any Adem term is tested:
    # d4 d(2^32 - 1) has about 1.4e9 values of s, and at s = 6 an argument reaches 2^32
    assert run_cli(["reduce", "d4 d4294967295"]) == (
        5, "", "deltacalc: binomial argument 4294967296 exceeds 2^32\n")
    assert run_cli(["annihilate", "--j", "2147483649", "--t", "31"]) == (
        5, "", "deltacalc: theta index 4294967296 exceeds 2^32\n")
    assert run_cli(["reduce", "d3221225472 d1073741824"]) == (
        0, "d3221225472 d1073741824\n", "")
    # a word that is zero by the window bound is never rewritten, so its indices near
    # 2^32 form nothing: the run d2 d2 is below 2^3 - 2, the least admissible degree
    assert run_cli(["reduce", "d2 d2 d4294967295 d4294967294"]) == (0, "0\n", "")
    assert run_cli(["reduce", "d3 d2 " * 20 + "d4294967295"]) == (0, "0\n", "")
    # delta indices are range-checked where they enter the search and the action
    assert run_cli(["annihilate", "--j", "5000000000", "--t", "1"]) == (
        5, "", "deltacalc: delta index 5000000000 exceeds 2^32\n")
    assert run_cli(["act", "--i", "4294967296", "--on", "x3"]) == (
        5, "", "deltacalc: delta index 4294967296 exceeds 2^32\n")
    assert run_cli(["act", "--i", "1", "--on", "x3"]) == (4, "", "deltacalc: delta index 1 below 2\n")
    # every delta index formed, by Adem rewriting, alpha conversion or theta, and every
    # 10-digit index read, is held to 2^32; theta compares s + t before forming 2^(s + t)
    zeros = ",".join(["0"] * 40)
    for argv, index in (
            (["reduce", "d4294967295 d2147483649"], "delta index 4294967296"),
            (["reduce", "d4294967293 d2147483650"], "delta index 4294967296"),
            (["compose", "d4294967295", "d2147483649"], "delta index 4294967296"),
            (["stats", "d5000000000"], "delta index 5000000000"),
            (["alpha2delta", "--word", "0", "--degree", "5000000000"], "delta index 5000000000"),
            (["alpha2delta", "--word", zeros, "--degree", "3"], "delta index 6442450944"),
            (["theta", "--s", "100000000", "--t", "0"], "theta index 2^100000000"),
            (["theta", "--s", "3", "--t", "1000000000000"], "theta index 2^1000000000003"),
            # the generator search checks each index it prepends, so it stops at depth 32
            (["sgens", "--n", "3", "--max-degree", "1" + "0" * 400], "delta index 4294967296")):
        start = time.perf_counter()
        assert run_cli(argv) == (5, "", f"deltacalc: {index} exceeds 2^32\n"), argv
        assert time.perf_counter() - start < 1, argv
    # and 2^t is compared by bit length, not formed
    assert run_cli(["annihilate", "--j", "5", "--t", "1000000000000"]) == (
        4, "", "deltacalc: annihilation search needs j > 2^t, got j=5, t=1000000000000\n")
    for argv in (["m-index", "--ring", '["t"]'],
                 ["m-index", "--ring", '{"vars":["t"],"relations":["t^3"],"x":1}'],
                 ["m-index", "--ring", '{"vars":[3],"relations":["t^3"]}'],
                 ["nilpotency", "--ring", _T3, "--element", '["x"]'],
                 ["nilpotency", "--ring", _T3, "--element", '[{"coef":1,"gen":"x"}]'],
                 # alpha indices are -?[0-9]+ items joined by commas; a probe kind is
                 # gamma2, andre or alpha:<int>
                 ["alpha2delta", "--word", "1,,2", "--degree", "30"],
                 ["alpha2delta", "--word", "2,", "--degree", "30"],
                 ["alpha2delta", "--word", "x", "--degree", "3"],
                 ["alpha2delta", "--word", "1_0", "--degree", "30"],
                 ["alpha2delta", "--word", "+1", "--degree", "3"],
                 ["probe", "--kind", "frobenius", "--gen", "x4", "--max-iter", "3"],
                 ["probe", "--kind", "alpha:1_0", "--gen", "x40", "--max-iter", "3"],
                 ["probe", "--kind", "x" * 5000, "--gen", "x4", "--max-iter", "3"],
                 # a long token is named, cut to fit the line
                 ["act", "--i", "2", "--on", "x3 x" + "1" * 5000],
                 ["ring-mul", "--ring", _T3, "t + " + "a" * 5000, "t"]):
        code, out, err = run_cli(argv)
        assert code == 3 and out == "" and err.startswith("deltacalc: "), (argv, err)
        assert err.count("\n") == 1 and "indices" not in err, (argv, err)
        assert len(err) <= 201, (argv, err)
    # a blank alpha word is the empty word; a negative index is the domain's to refuse
    assert run_cli(["alpha2delta", "--word", " ", "--degree", "3"]) == (0, "e\n", "")
    assert run_cli(["alpha2delta", "--word=-1", "--degree", "3"]) == (
        4, "", "deltacalc: alpha_-1 (factor 1 from the right) is undefined on degree 3\n")
    # a dimension table is an object of dimensions >= 0, checked as its schema says
    for hq in ('{"3":1.5}', '{"3":true}', '{"3":"x"}', '{"x":1}', '[]', '[{"3":1}]',
               '{"3":-1}', '{"2":1,"3":-1}', f'{{"{"x" * 5000}":1}}'):
        for argv in (["sbasis", "--hq", hq, "--max-degree", "6"],
                     ["e1", "--hq", hq, "--max-t", "6"]):
            code, _, err = run_cli(argv)
            assert code == 3 and err.startswith("deltacalc: "), (argv, err)
            assert err.count("\n") == 1 and len(err) <= 201, (argv, err)


def declared_budgets() -> dict[str, Budget]:
    """Every Budget a module of the package declares, by its qualified name."""
    budgets = {}
    for path in sorted((DOCS.parent / "src" / "deltacalc").glob("*.py")):
        module = importlib.import_module(f"deltacalc.{path.stem}")
        budgets.update((f"{path.stem}.{name}", value) for name, value in vars(module).items()
                       if isinstance(value, Budget))
    return budgets


def test_every_budget_is_stated_in_help():
    # each declared budget ends one line of --help, in its own measure's words
    budgets = declared_budgets()
    assert len(budgets) == 10, sorted(budgets)
    lines = cli.build_parser().format_help().splitlines()
    for name, budget in budgets.items():
        stated = f"{budget.measure} <= {budget.limit:,}"
        assert sum(line.endswith(stated) for line in lines) == 1, (name, stated)


# sha256 (first 16 hex digits) of the stdout of `deltacalc [command] --help` at
# COLUMNS=80, recorded on Python 3.11.7: argparse's layout differs between versions
HELP_DIGESTS = {
    "": "23bab42d887a583b", "reduce": "a2019aa5e9b26928", "compose": "29304d6ca94b7b0d",
    "stats": "f4f312f7aa6a71d4", "annihilate": "9e019d53f07e381b", "theta": "a69f63d55c1ea7b6",
    "alpha2delta": "bdd0f6530e502c5c", "sgens": "56947db35fb406d5", "sbasis": "4b8809988c4a9621",
    "act": "57535aa59e033196", "probe": "943de2086c85f278", "e1": "432256fb1ae07898",
    "ring-mul": "1cdf0a91dbc756b8", "m-index": "43657b11fd65e889",
    "nilpotency": "38bf782ffccb3701", "axioms": "a5219a2d413269cb",
}


def test_every_help_text_is_pinned():
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert sorted(HELP_DIGESTS) == sorted(["", *subparsers.choices])
    env = dict(os.environ, PYTHONPATH=str(DOCS.parent / "src"), COLUMNS="80")
    for command, digest in HELP_DIGESTS.items():
        argv = [sys.executable, "-m", "deltacalc", *filter(None, [command]), "--help"]
        result = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stderr) == (0, ""), command
        found = hashlib.sha256(result.stdout.encode()).hexdigest()[:16]
        assert found == digest, f"--help of {command or 'deltacalc'}: found digest {found!r}"


def test_every_budget_is_stated_in_readme():
    # one row of README's budget table per declared budget: commands, measure, limit, time;
    # the table has no other row, so a budget that is gone leaves no stale one
    lines = (DOCS.parent / "README.md").read_text().splitlines()
    rows = [line.replace("\\|", "|") for line in lines if line.startswith("| ")]
    budgets = declared_budgets()
    for name, budget in budgets.items():
        found = [row for row in rows if f"| `{budget.measure}` | {budget.limit:,} |" in row]
        assert len(found) == 1, (name, budget.measure)
    start = lines.index("| Commands | Measure | Limit | At the limit |") + 2  # past the rule
    table = list(itertools.takewhile(lambda line: line.startswith("| "), lines[start:]))
    assert len(table) == len(budgets), table


def test_readme_layout_names_every_module():
    # README's Layout block has one "  <module>.py" line per module of src/deltacalc/,
    # so a module that is gone leaves no stale line and a new one needs a line
    lines = (DOCS.parent / "README.md").read_text().splitlines()
    start = lines.index("## Layout") + 2
    block = list(itertools.takewhile(lambda line: line != "```", lines[start + 1:]))
    named = [m.group(1) for line in block if (m := re.match(r"  (\w+)\.py ", line))]
    modules = {p.stem for p in (DOCS.parent / "src" / "deltacalc").glob("*.py")}
    assert lines[start] == "```" and len(named) == len(set(named))
    assert set(named) == modules - {"__init__", "__main__"}, named


def test_readme_cli_block_names_every_command():
    # README's sh block under "## CLI" shows each subcommand of the table once, so a
    # command added to the table needs an example there
    lines = (DOCS.parent / "README.md").read_text().splitlines()
    start = lines.index("```sh", lines.index("## CLI"))
    block = itertools.takewhile(lambda line: line != "```", lines[start + 1:])
    named = [line.split()[1] for line in block if line.startswith("deltacalc ")]
    assert sorted(named) == sorted(cli._COMMANDS), named


def test_act_counts_its_atoms_and_its_action_on_one_tally(monkeypatch):
    # reading d2 d40 x50 rewrites d2 d40, which costs 16, and acting with d4 on its three
    # terms costs 36: act is answered within 52 and refused below it, though each part fits
    argv = ["act", "--i", "4", "--on", "d2 d40 x50"]
    for limit, want in ((52, (0, "d36 d8 d2 x50 + d40 d4 d2 x50\n", "")),
                        (51, (4, "", "deltacalc: Adem terms scanned + new products formed "
                              "reached 52, over the budget of 51\n"))):
        monkeypatch.setattr(cli.wd.ADEM_BUDGET, "limit", limit)
        cli.wd._adem.cache_clear()  # cold, as a command starts: memo hits cost nothing
        cli.wd._left_mul.cache_clear()
        assert run_cli(argv) == want, limit


def test_input_files_are_capped_at_the_longest_argument(tmp_path):
    # a JSON option names a file unless it is inline JSON; a file at the limit is read,
    # and a longer one is refused after at most one character past the limit is read
    limit = cli.FILE_BUDGET.limit
    refused = (4, "", "deltacalc: characters of an input file reached 131,072, over the "
               "budget of 131,071\n")
    t3 = tmp_path / "t3.json"
    t3.write_text(_T3)
    for opt, text, argv in (
            ("--hq", '{"2":1}', ["sbasis", "--max-degree", "8"]),
            ("--ring", _T3, ["m-index"]),
            ("--element", '[{"coef":"t","gen":"x"}]', ["nilpotency", "--ring", str(t3)])):
        path = tmp_path / "input.json"
        path.write_text(text.ljust(limit))
        assert run_cli([*argv, opt, str(path)]) == run_cli([*argv, opt, text]), opt
        assert run_cli([*argv, opt, str(path)])[0] == 0, opt
        path.write_text(text.ljust(limit + 1))
        assert run_cli([*argv, opt, str(path)]) == refused, opt
        code, out, err = run_cli([*argv, opt, str(tmp_path / "missing.json")])
        assert code == 4 and out == "" and err.startswith("deltacalc: cannot read "), (opt, err)
        assert err.count("\n") == 1, (opt, err)
        path.write_bytes(b"\xff" + text.encode())  # not UTF-8: the line names the file
        code, out, err = run_cli([*argv, opt, str(path)])
        assert code == 4 and out == "" and err.startswith("deltacalc: cannot read "), (opt, err)
        assert f" file {str(path)!r}: 'utf-8' codec can't decode byte 0xff" in err, (opt, err)
    # 16 MB of ring element: reading it whole took 13.7 s and 1.07 GB, and raised
    # MemoryError under the fuzz's address-space cap
    big = tmp_path / "big.json"
    big.write_text(json.dumps([{"coef": " + ".join(["t"] * 4_000_000), "gen": "x"}]))
    argv = ["nilpotency", "--ring", _T3, "--element", str(big)]
    start = time.perf_counter()
    assert run_cli(argv) == refused
    assert time.perf_counter() - start < 1
    env = dict(os.environ, PYTHONPATH=str(DOCS.parent / "src"))
    result = subprocess.run([sys.executable, "-m", "deltacalc", *argv], env=env,
                            capture_output=True, text=True, timeout=10,
                            preexec_fn=_cap_address_space)
    assert (result.returncode, result.stdout, result.stderr) == refused


def test_nested_and_duplicate_key_json_exit_3(tmp_path):
    # the decoder's recursion stops at about 1,000 levels of nesting; text past it is a
    # syntax error, as it is for any text that is not one JSON value, and no internal error
    t3 = tmp_path / "t3.json"
    t3.write_text(_T3)
    nested = tmp_path / "nested.json"
    for depth in (1_000, 100_000):
        nested.write_text("[" * depth)
        for opt, argv in (("--hq", ["sbasis", "--max-degree", "8"]),
                          ("--hq", ["e1", "--max-t", "8"]),
                          ("--ring", ["m-index"]),
                          ("--ring", ["ring-mul", "t", "t"]),
                          ("--element", ["nilpotency", "--ring", str(t3)])):
            for value in ("[" * depth, str(nested)):
                code, out, err = run_cli([*argv, opt, value])
                assert (code, out) == (3, ""), (argv, depth, err)
                assert err.startswith("deltacalc: line 1, column 1: invalid ")
                assert err.endswith(" JSON: nested too deeply to read\n"), (argv, depth, err)
    # a repeated key is refused, not answered for its last value
    for argv, what, key in (
            (["sbasis", "--hq", '{"1": 1, "1": 2}', "--max-degree", "6"], "dimension table", "1"),
            (["e1", "--hq", '{"2": 1, "3": 1, "2": 1}', "--max-t", "6"], "dimension table", "2"),
            (["m-index", "--ring", '{"vars": ["t"], "relations": ["t^3"], "relations": ["t^2"]}'],
             "ring", "relations"),
            (["nilpotency", "--ring", _T3, "--element",
              '[{"coef": "t", "gen": "x"}, {"coef": "t", "gen": "y", "gen": "z"}]'],
             "mixed element", "gen")):
        assert run_cli(argv) == (3, "", f"deltacalc: line 1, column 1: invalid {what} JSON: "
                                 f'duplicate key "{key}"\n'), argv


def test_stats_and_theta_payloads(validators):
    payload = run_json(["stats", "d4 d2"])
    validators("stats").validate(payload)
    assert payload == {"word": "d4 d2", "excess": 2, "degree": 6, "length": 2,
                       "admissible": True}
    payload = run_json(["theta", "--s", "2", "--t", "1"])
    validators("word").validate(payload)
    assert payload == {"word": "d8 d4"}
    payload = run_json(["alpha2delta", "--word", "1,1", "--degree", "3"])
    validators("word").validate(payload)
    assert payload == {"word": "d4 d2"}


def test_json_payloads_validate_against_schemas(validators):
    ring = '{"vars":["t"],"relations":["t^3"]}'
    cases = [
        ("element", ["reduce", "d5 d4"]),
        ("element", ["compose", "d5", "d4"]),
        ("element", ["act", "--i", "2", "--on", "x3"]),
        ("element", ["ring-mul", "--ring", ring, "t + t^2", "t"]),
        ("annihilate", ["annihilate", "--j", "7", "--t", "2"]),
        ("sgens", ["sgens", "--n", "3", "--max-degree", "20"]),
        ("sbasis", ["sbasis", "--hq", '{"3":1}', "--max-degree", "10", "--by-weight"]),
        ("probe", ["probe", "--kind", "andre", "--gen", "x3", "--max-iter", "3"]),
        ("e1", ["e1", "--hq", '{"1":1}', "--max-t", "6"]),
        ("m_index", ["m-index", "--ring", ring]),
        ("nilpotency", ["nilpotency", "--ring", ring,
                        "--element", '[{"coef":"t","gen":"x1"}]', "--oracle", "--s", "2"]),
        ("axioms", ["axioms", "--trials", "20"]),
    ]
    for defname, argv in cases:
        payload = run_json(argv)
        validators(defname).validate(payload)


def test_nilpotency_oracle_consistency():
    ring = '{"vars":["t"],"relations":["t^3"]}'
    payload = run_json(["nilpotency", "--ring", ring,
                        "--element", '[{"coef":"t","gen":"x1"}]', "--oracle", "--s", "1"])
    assert payload["index"] == 2
    assert payload["index_bound"] == 2 and payload["within_bound"]
    assert payload["oracle"] == {"s": 1, "projection_zero": False,
                                 "matches_closed_form": True}


def test_axioms_deterministic_for_fixed_seed():
    a = run_cli(["--format", "json", "--seed", "5", "axioms", "--trials", "40"])
    b = run_cli(["--format", "json", "--seed", "5", "axioms", "--trials", "40"])
    assert a == b
    payload = json.loads(a[1])
    assert payload["ok"] is True


def test_probe_steps_render():
    payload = run_json(["probe", "--kind", "andre", "--gen", "x3", "--max-iter", "3"])
    assert payload["status"] == "nonvanishing"
    assert payload["steps"] == ["x3", "d2 x3", "d4 d2 x3", "d8 d4 d2 x3"]


def test_module_entry_point(monkeypatch):
    # a 1,000-word sum with 300 terms in its normal form, and one input per error code
    big = " + ".join(f"d{a} d{b} d7" for a in range(10, 50) for b in range(3, 28))
    cases = [["reduce", big], ["--format", "json", "reduce", big],
             ["--format", "json", "reduce", "d5 d4"],
             ["reduce", "d5 dx"], ["annihilate", "--j", "4", "--t", "2"],
             ["reduce", "d4 d4294967295"]]
    codes = []
    for argv in cases:
        result = subprocess.run([sys.executable, "-m", "deltacalc", *argv],
                                capture_output=True, text=True)
        got = (result.returncode, result.stdout, result.stderr)
        assert got == run_cli(argv), argv
        codes.append(result.returncode)
    assert codes == [0, 0, 0, 3, 4, 5]
    assert run_json(["reduce", "d5 d4"]) == {"element": "d6 d3"}
    assert run_cli(["reduce", big])[1].count(" + ") == 299
    # both entry points freeze the heap on the way out; main itself does not
    probe = ("import atexit, gc, runpy, sys; "
             "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, "
             "'collecting', gc.isenabled())); "
             "sys.argv = ['deltacalc', 'reduce', 'd5 d4']; "
             "runpy.run_module('deltacalc', run_name='__main__')")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (
        0, "d6 d3\nfrozen True collecting False\n"), result.stderr
    assert 'deltacalc = "deltacalc.cli:entry"' in (DOCS.parent / "pyproject.toml").read_text()
    calls = []
    monkeypatch.setattr(cli.gc, "disable", lambda: calls.append("disable"))
    monkeypatch.setattr(cli.gc, "freeze", lambda: calls.append("freeze"))
    run_cli(["reduce", "d5 d4"])
    assert calls == []
    monkeypatch.setattr(sys, "argv", ["deltacalc", "reduce", "d5 d4"])
    with redirect_stdout(io.StringIO()) as out:
        assert cli.entry() == 0
    assert out.getvalue() == "d6 d3\n" and calls == ["disable", "freeze"]


def test_closed_stdout_exits_141_without_traceback():
    # 177 KB of generators, more than the pipe holds: the writer meets the closed end
    env = dict(os.environ, PYTHONPATH=str(DOCS.parent / "src"))
    with subprocess.Popen(
            [sys.executable, "-m", "deltacalc", "sgens", "--n", "20", "--max-degree", "120"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"x20")
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""


def test_cyclic_garbage_does_not_grow_with_the_input():
    # entry() runs a command with cyclic collection off.  What one command leaves
    # for the collector is argparse's parser, whatever the size of the sum.
    rng = random.Random(260)
    big = " + ".join(" ".join(f"d{rng.randint(2, 32)}" for _ in range(rng.randint(3, 6)))
                     for _ in range(260))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        left = []
        for argv in (["reduce", "d5"], ["reduce", big], ["reduce", "d5"]):
            code, out, _ = run_cli(argv)
            assert code == 0 and out, argv
            left.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert left[1] <= left[0] == left[2], left


def test_axioms_output_independent_of_thread_setting(monkeypatch):
    # axioms draws one seeded stream per suite; DELTA_CALC_THREADS used to
    # split it across threads, and 120 trials is where that split began.
    outputs = []
    for threads in (None, "1", "8"):
        if threads is None:
            monkeypatch.delenv("DELTA_CALC_THREADS", raising=False)
        else:
            monkeypatch.setenv("DELTA_CALC_THREADS", threads)
        outputs.append([run_cli([*fmt, "--seed", "5", "axioms", "--trials", "120"])
                        for fmt in ([], ["--format", "json"])])
    assert outputs[0] == outputs[1] == outputs[2]
    (code, text, _), (_, payload, _) = outputs[0]
    assert code == 0 and text.endswith("all axioms pass\n")
    assert json.loads(payload)["ok"] is True


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=8)
_ring_json = st.one_of(_json, st.fixed_dictionaries(
    {"vars": st.lists(st.sampled_from(["t", "u", "1t", ""]) | _json, max_size=3),
     "relations": st.lists(st.sampled_from(["t^3", "u^2", "t*u", "t^0", "1", "0"]) | _json,
                           max_size=3)},
    optional={"x": _json}))
_element_json = st.one_of(_json, st.lists(st.fixed_dictionaries(
    {"coef": st.sampled_from(["t", "t^2 + t", "1", "0", "u", "t +"]) | _json,
     "gen": st.sampled_from(["x1", ""]) | _json},
    optional={"x": _json}), max_size=3))
_hq_json = st.one_of(_json, st.dictionaries(
    st.sampled_from(["0", "1", "2", "3", "01", "-1", "x"]) | st.text(max_size=3),
    st.integers(-3, 10**12) | _json, max_size=3))
_T3 = '{"vars":["t"],"relations":["t^3"]}'


# "--opt=value" keeps argparse from reading a value that starts with "-" as an option
@given(st.one_of(
    _ring_json.map(lambda v: ["m-index", f"--ring={json.dumps(v)}"]),
    _ring_json.map(lambda v: ["nilpotency", f"--ring={json.dumps(v)}",
                              "--element", '[{"coef":"t","gen":"x"}]']),
    _element_json.map(lambda v: ["nilpotency", "--ring", _T3, f"--element={json.dumps(v)}"]),
    _hq_json.map(lambda v: ["sbasis", f"--hq={json.dumps(v)}", "--max-degree", "10"]),
    _hq_json.map(lambda v: ["e1", f"--hq={json.dumps(v)}", "--max-t", "10"])))
@settings(max_examples=300, deadline=None)
def test_json_arguments_fail_cleanly(argv):
    code, _, err = run_cli(argv)
    assert code in (0, 3, 4, 5), (argv, code, err)
    assert "Traceback" not in err and err.count("\n") <= 1, (argv, err)
    assert len(err) <= 201, (argv, err)  # one line of at most 200 characters


# Extreme values for every integer option and every index in an expression, and edge
# words: Adem pairs near 2^31 and 2^32 (d(2^32 - 1) d(2^31 + 1) rewrites to
# d(2^32) d(2^31)), and alpha words whose stages double the degree.  Hypothesis draws
# the first value of each first, so the first case of each subcommand is at 2^32.
_EXTREME = st.sampled_from((str(2**32), "0", "-1", "2", str(2**31), str(2**32 - 1),
                            str(2**32 + 1), str(10**12), "9" * 5000))
_INDICES = st.lists(_EXTREME, min_size=1, max_size=3).map(lambda xs: " ".join(f"d{x}" for x in xs))
_WORD = st.sampled_from(("d4294967295 d2147483649", "d4294967293 d2147483650",
                         "d3221225472 d1073741824", "d2147483647 d1073741825",
                         "d2147483649 d2147483648", "d4 d4294967295")) | _INDICES
_ALPHA_WORD = st.sampled_from(("0", ",".join(["0"] * 40))) | st.lists(
    _EXTREME, min_size=1, max_size=3).map(",".join)


def _t_ring(e):
    return json.dumps({"vars": ["t"], "relations": [f"t^{e}"]})


# Long inputs, each past its product budget: sums of 2,000 or more terms for compose
# and ring-mul, and for act products of 20 or more two-term atoms or sums of products
# of 15, whose budget spans the whole sum.  Formed, these products run for tens of
# seconds or past the address-space cap.  The first example of each of these
# subcommands is long.
_LONG = st.sampled_from((True, False, False))
_TERMS = st.integers(2000, 3000)
_UV_RING = json.dumps({"vars": ["u", "v"], "relations": ["u^2147483648", "v^2147483648"]})


def _compose_argv(draw):
    if draw(_LONG):
        n = draw(_TERMS)
        return [" + ".join(f"d{k}" for k in range(10000, 10000 + n)),
                " + ".join(f"d{k}" for k in range(2, 2 + n))]
    return [draw(_WORD), draw(_WORD)]


def _act_argv(draw):
    if draw(_LONG):
        if draw(st.booleans()):
            on = "*".join(f"d7 d9 x9:{q}" for q in range(1, draw(st.integers(20, 30)) + 1))
        else:  # a sum of 2-30 products of 15 atoms, the largest drawn first
            on = " + ".join("*".join(f"d7 d9 x9:{q}" for q in range(15 * p + 1, 15 * p + 16))
                            for p in range(draw(st.sampled_from(range(30, 1, -1)))))
    else:
        on = f"{draw(_WORD)} x{draw(_EXTREME)}"
    return [f"--i={draw(_EXTREME)}", "--on", on]


def _ring_mul_argv(draw):
    if draw(_LONG):
        n = draw(_TERMS)
        return ["--ring", _UV_RING, " + ".join(f"u^{k}" for k in range(1, n + 1)),
                " + ".join(f"v^{k}" for k in range(1, n + 1))]
    return ["--ring", _t_ring(draw(_EXTREME)), f"t^{draw(_EXTREME)}", f"t^{draw(_EXTREME)}"]


# The arguments of each subcommand, built from draws.  "--opt=value" keeps argparse
# from reading "-1" as an option.
_EXTREME_ARGV = {
    "reduce": lambda draw: [draw(_WORD)],
    "compose": _compose_argv,
    "stats": lambda draw: [draw(_INDICES)],  # read, not rewritten
    "annihilate": lambda draw: [f"--{opt}={draw(_EXTREME)}" for opt in ("j", "t", "max-s")],
    "theta": lambda draw: [f"--{opt}={draw(_EXTREME)}" for opt in ("s", "t")],
    "alpha2delta": lambda draw: [f"--word={draw(_ALPHA_WORD)}", f"--degree={draw(_EXTREME)}"],
    "sgens": lambda draw: [f"--{opt}={draw(_EXTREME)}" for opt in ("n", "max-degree")],
    "sbasis": lambda draw: ["--hq", f'{{"{draw(_EXTREME)}":{draw(_EXTREME)}}}',
                            f"--max-degree={draw(_EXTREME)}"],
    "e1": lambda draw: ["--hq", f'{{"{draw(_EXTREME)}":{draw(_EXTREME)}}}',
                        f"--max-t={draw(_EXTREME)}"],
    "act": _act_argv,
    "probe": lambda draw: ["--kind", f"alpha:{draw(_EXTREME)}", "--gen", f"x{draw(_EXTREME)}",
                           f"--max-iter={draw(_EXTREME)}"],
    "ring-mul": _ring_mul_argv,
    "m-index": lambda draw: ["--ring", _t_ring(draw(_EXTREME))],
    "nilpotency": lambda draw: ["--ring", _t_ring(draw(_EXTREME)), "--element",
                                '[{"coef":"t","gen":"x3"}]', "--oracle", f"--s={draw(_EXTREME)}"],
    "axioms": lambda draw: [f"--{opt}={draw(_EXTREME)}" for opt in ("trials", "seed")],
}


def _cap_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


# Each case runs in its own process, under a 512 MB address-space cap and a wall-clock
# timeout, so that a case which runs away fails alone.  Shrinking would rerun failing
# cases up to their timeout many times over, so a failure reports the case as drawn.
@pytest.mark.parametrize("command", sorted(_EXTREME_ARGV))
@given(data=st.data())
@settings(max_examples=4, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.generate))
def test_extreme_values_get_an_answer_or_a_clean_exit(command, data):
    argv = [command, *_EXTREME_ARGV[command](data.draw)]
    env = dict(os.environ, PYTHONPATH=str(DOCS.parent / "src"))
    try:
        result = subprocess.run([sys.executable, "-m", "deltacalc", *argv], env=env,
                                capture_output=True, text=True, timeout=10,
                                preexec_fn=_cap_address_space)
    except subprocess.TimeoutExpired:
        raise AssertionError(f"no exit within 10 s: {argv}") from None
    code, out, err = result.returncode, result.stdout, result.stderr
    assert code in (0, 2, 3, 4, 5), (argv, code, err)
    assert all(len(line) <= 200 for line in err.splitlines()), (argv, err)
    assert "Traceback" not in err and "MemoryError" not in err, (argv, err)
    if code == 2:  # argparse prints its usage, which may wrap, then one error line
        assert err.startswith("usage: ") and ": error: " in err.splitlines()[-1], (argv, err)
    elif code:
        assert err.startswith("deltacalc: ") and err.count("\n") == 1, (argv, err)
    else:
        assert err == "", (argv, err)
    if code == 0:
        assert all(int(i) < 2**32 for i in re.findall(r"d(\d+)", out)), (argv, out)
