import io
import json
import re
from collections import Counter
from math import comb
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from deltacalc import cli

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
    # the box below t^100000000 is too large to list, but m_index needs only its corner
    huge = '{"vars":["t"],"relations":["t^100000000"]}'
    assert run_json(["m-index", "--ring", huge]) == {"m_index": 10**8}
    payload = run_json(["nilpotency", "--ring", huge, "--element", '[{"coef":"t","gen":"x"}]'])
    assert (payload["m_index"], payload["index"], payload["index_bound"]) == (10**8, 27, 27)
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
            # 501 monomials against 1 relation, counted before they cancel to one
            (["nilpotency", "--ring", huge, "--element",
              json.dumps([{"coef": " + ".join(["t"] * 501), "gen": "x"}])], "budget"),
            # k alone is over the divided-power budget, counted before any product
            (["act", "--i", "2", "--on", "g300001(x3)"], "budget"),
            # alpha_a is defined for 0 <= a <= m - 2 only
            (["probe", "--kind", "alpha:-1", "--gen", "x4", "--max-iter", "3"], "K >= 0")):
        code, out, err = run_cli(argv)
        assert code == 4 and out == "" and err.startswith("deltacalc: "), (argv, err)
        assert err.count("\n") == 1 and want in err, (argv, err)
    monkeypatch.undo()
    # one monomial costs 3k - 1 in the engine: g2000(x3) is answered
    assert run_cli(["act", "--i", "2", "--on", "g2000(x3)"]) == (0, "0\n", "")
    # the oracle's iterates over (u^1000, v^1000, w^1000) grow past the divided-power
    # budget: 487,172 at s = 4 for 1-monomial coefficients, 455,780 at s = 3 for 2-monomial
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
            (["ring-mul", "--ring", _T3, f"t^{long}", "t"], 3)):
        code, out, err = run_cli(argv)
        assert code == want_code and out == "" and err.startswith("deltacalc: "), (argv, err)
        assert err.count("\n") == 1 and ("5000 digits" in err or "too many digits" in err), err
        assert "set_int_max_str_digits" not in err and "4300" not in err, (argv, err)
    for argv in (["m-index", "--ring", '["t"]'],
                 ["m-index", "--ring", '{"vars":["t"],"relations":["t^3"],"x":1}'],
                 ["m-index", "--ring", '{"vars":[3],"relations":["t^3"]}'],
                 ["nilpotency", "--ring", _T3, "--element", '["x"]'],
                 ["nilpotency", "--ring", _T3, "--element", '[{"coef":1,"gen":"x"}]']):
        code, out, err = run_cli(argv)
        assert code == 3 and out == "" and err.startswith("deltacalc: "), (argv, err)
        assert err.count("\n") == 1 and "indices" not in err, (argv, err)
    for hq in ('{"3":1.5}', '{"3":true}', '{"3":"x"}', '{"x":1}'):
        for argv in (["sbasis", "--hq", hq, "--max-degree", "6"],
                     ["e1", "--hq", hq, "--max-t", "6"]):
            code, _, err = run_cli(argv)
            assert code == 3 and err.startswith("deltacalc: "), (argv, err)
            assert err.count("\n") == 1, (argv, err)


def test_every_budget_is_stated_in_help():
    # each *_LIMIT constant of artin and gamma ends its own "<= value" line
    limits = [getattr(mod, name) for mod in (cli.artin, cli.gamma)
              for name in vars(mod) if name.endswith("_LIMIT")]
    assert len(limits) >= 5
    stated = Counter(re.findall(r"<= ([0-9,]+)$", cli._EPILOG, re.M))
    needed = Counter(f"{limit:,}" for limit in limits)
    assert all(stated[value] >= count for value, count in needed.items()), (needed, stated)


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


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "deltacalc", "--format", "json", "reduce", "d5 d4"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout) == {"element": "d6 d3"}


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
