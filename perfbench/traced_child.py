"""Run one deltacalc command in-process with spans around each layer's public functions.

    PYTHONPATH=src python3 perfbench/traced_child.py SPANS_FILE -- ARGV...

Imports ``deltacalc.cli`` (timed), replaces the cross-module public
functions listed in ``LAYERS`` by wrappers that record a span for every
call, runs ``cli.main(ARGV)`` inside a ``cli.main`` span, writes the spans
to SPANS_FILE as JSON and exits with main's exit code.  Nothing under
``src/`` is edited: the wrappers are installed by assigning module
attributes, so calls made through those attributes from any module,
including the defining one, are traced.  Calls to ``f2.binom_mod2`` are not
wrapped; their cost shows in the self time of their callers.

A span is ``[name, start_ns, end_ns, parent, info]`` where ``parent`` is
the index of the enclosing span (-1 for none) and ``info`` is a count of
work done or null.  Spans opened on worker threads take as parent the span
open on the main thread when they start.  Layers whose functions are not
found are listed under ``missing`` in SPANS_FILE, so that run.py fails the
run instead of reporting zeros for them.
"""

import sys
import time

_t0 = time.perf_counter_ns()
from deltacalc import artin, cli, e1, exprs, gamma, words  # noqa: E402
_import_ns = time.perf_counter_ns() - _t0

import json  # noqa: E402
import threading  # noqa: E402


def _len_of(attr=None):
    return lambda args, result: len(getattr(result, attr) if attr else result)


# (span name, owner objects, attribute, info from (args, result) or None).
# gamma.s_basis is also bound by name inside e1.
LAYERS = [
    ("words.reduce", [words], "reduce", lambda a, r: [len(a[0]), len(r)]),
    ("words.compose", [words], "compose", None),
    ("words.annihilation_order", [words], "annihilation_order", None),
    ("gamma.delta_act", [gamma], "delta_act", None),
    ("gamma.nilpotency_probe", [gamma], "nilpotency_probe", None),
    ("gamma.s_basis", [gamma, e1], "s_basis", _len_of("monomials")),
    ("gamma.s_generators", [gamma], "s_generators", None),
    ("gamma.gamma_axiom_suite", [gamma], "gamma_axiom_suite", lambda a, r: r.trials),
    ("e1.e1_page", [e1], "e1_page", _len_of("entries")),
    ("artin.gamma_axiom_suite_over_ring", [artin], "gamma_axiom_suite_over_ring",
     lambda a, r: r.trials),
    ("artin.m_index", [artin], "m_index", None),
    ("artin.normal_monomials", [artin.ArtinRing], "normal_monomials", _len_of()),
    ("artin.gamma2_oracle_expand", [artin], "gamma2_oracle_expand", None),
    ("artin.gr_gamma", [artin], "gr_gamma", _len_of()),
    ("artin.ring_multiply", [artin], "ring_multiply", None),
] + [
    (f"exprs.{name.split('_', 1)[0]}", [exprs], name, None)
    for name in sorted(vars(exprs))
    if name.startswith(("parse_", "format_")) and callable(getattr(exprs, name))
]

spans: list = []
_main = threading.main_thread()
_main_stack: list = []
_local = threading.local()


def _open(name):
    if threading.current_thread() is _main:
        stack = _main_stack
    else:
        stack = _local.__dict__.setdefault("stack", [])
    parent = stack[-1] if stack else (_main_stack[-1] if _main_stack else None)
    span = [name, time.perf_counter_ns(), 0, parent, None]
    spans.append(span)
    stack.append(span)
    return span, stack


def _close(span, stack):
    span[2] = time.perf_counter_ns()
    stack.pop()


def _wrap(name, fn, info):
    def traced(*args, **kwargs):
        span, stack = _open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            _close(span, stack)
        if info is not None:
            span[4] = info(args, result)
        return result
    traced.__wrapped__ = fn
    return traced


def install() -> list[str]:
    """Wrap every layer function; return the span names with nothing to wrap."""
    missing = []
    for name, owners, attr, info in LAYERS:
        for owner in owners:
            fn = getattr(owner, attr, None)
            if fn is None:
                missing.append(f"{name} ({owner.__name__}.{attr})")
            else:
                setattr(owner, attr, _wrap(name, fn, info))
    names = {name for name, _, _, _ in LAYERS}
    return missing + [n for n in ("exprs.parse", "exprs.format") if n not in names]


def main() -> int:
    spans_file, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_child.py SPANS_FILE -- ARGV...")
    missing = install()
    span, stack = _open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        _close(span, stack)
        sys.stdout.flush()
        index = {id(s): k for k, s in enumerate(spans)}
        rows = [[s[0], s[1], s[2], index[id(s[3])] if s[3] is not None else -1, s[4]]
                for s in spans]
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"import_ns": _import_ns, "missing": missing, "spans": rows}, fh,
                      separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main())
