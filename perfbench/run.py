"""End-to-end and per-layer benchmark of the deltacalc command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it runs the program from ``src/``
(``PYTHONPATH=src``), since the package need not be installed.

``--trace 0`` is a closed loop with one client: command i of the seeded
workload stream (see ``workloads.py``) starts as ``python -m deltacalc ...``
only after command i-1 has exited, until S seconds have passed.  Every
command is timed from process start to exit, its peak RSS is read from
``os.wait4`` for that child alone, and its exit code and stdout are
checked: against invariants for any seed, and against the digests in
``digests.json`` at the default seed.  Set-up time is the median of
fresh interpreters that only import ``deltacalc.cli``, one per second of
the loop.

``--trace 1`` runs the first ``TRACE_COMMANDS`` commands of the stream
twice: untraced as above, then each in a fresh interpreter through
``traced_child.py``, which wraps each layer's public functions in spans.
Per-layer self times and work counts are summed over those commands; a
cold/warm probe of ``words.reduce`` runs once.  The spans, with their
command ids, go to ``.perfbench_out/``.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it gives the
details: environment, sample counts and the first failures.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import workloads
from record_digests import DEFAULT_SEED, DIGESTS, digest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

CMD_TIMEOUT_S = 60.0
# Commands replayed by a traced run: a fixed prefix, so that counts repeat
# exactly at a seed; about 10 s of untraced work on a 2-CPU machine.
TRACE_COMMANDS = {"adem": 24, "tables": 24, "verify": 24, "quick": 48}
# A traced run starts no new command after this many times --seconds.
TRACE_TIME_FACTOR = 3


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    rss_mb: float
    timed_out: bool


class Spawner:
    """A spawner.py process that starts, times and measures each command."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, text=True)

    def run(self, argv: list[str], timeout_s: float = CMD_TIMEOUT_S) -> Outcome:
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": timeout_s}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner exited with code {self.proc.wait()}")
        return Outcome(**json.loads(line))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CMD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def child_env() -> dict:
    """The caller's environment, with axioms at its default thread count and bytecode
    caching on, as for an installed package."""
    drop = ("DELTA_CALC_THREADS", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = str(SRC)
    return env


def judge(cmd: workloads.Command, out: Outcome, want_digest: str | None) -> str | None:
    """What is wrong with one command's outcome, or None."""
    if out.timed_out:
        return f"timed out after {CMD_TIMEOUT_S:.0f} s"
    if out.code != cmd.expect:
        first = out.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {out.code}, expected {cmd.expect}: {first[0][:200]}"
    if want_digest is not None and digest(out.stdout) != want_digest:
        return "stdout differs from the digest recorded for the default seed"
    if cmd.expect != 0:
        lines = out.stderr.strip().splitlines()
        if out.stdout or len(lines) != 1 or not lines[0].startswith("deltacalc: "):
            return "a rejected input must print one diagnostic line and no output"
        return None
    if cmd.check is None:
        return None if out.stdout.strip() else "empty output"
    try:
        return cmd.check(out.stdout, cmd.fmt)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as err:
        return f"unreadable output: {err!r}"


class Runner:
    """Runs a workload's stream and keeps every outcome and failure."""

    def __init__(self, workload: str, seed: int, spawner: Spawner):
        self.workload, self.seed = workload, seed
        self.spawner = spawner
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.digests = (digests.get("workloads", {}).get(workload, [])
                        if seed == digests.get("seed") else [])
        self.attempted = 0
        self.failures: list[str] = []
        self.commands_failed = 0
        self.digests_checked = 0
        self.axioms_threads: set[int] = set()

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")

    def run(self, i: int, prefix: list[str]) -> tuple[workloads.Command, Outcome]:
        cmd = workloads.command(self.workload, self.seed, i)
        if cmd.kind == "axioms":
            self.axioms_threads.add(axioms_threads(cmd))
        out = self.spawner.run(prefix + cmd.argv)
        want = self.digests[i] if i < len(self.digests) else None
        self.digests_checked += want is not None
        problem = judge(cmd, out, want)
        self.commands_failed += problem is not None
        self.record(f"command {i} {cmd.argv}", problem)
        return cmd, out

    def setup_time(self) -> float:
        out = self.spawner.run([sys.executable, "-c", "import deltacalc.cli"])
        self.record("import deltacalc.cli", None if out.code == 0 and not out.timed_out
                    else f"exit {out.code}: {out.stderr.strip()[-200:]}")
        return out.wall_s


def axioms_threads(cmd: workloads.Command) -> int:
    """Pool threads of an axioms command with DELTA_CALC_THREADS unset, as cli.py sizes it:
    os.cpu_count() threads at most, and one per 50 trials, at least one."""
    trials = int(cmd.args[cmd.args.index("--trials") + 1])
    return min(os.cpu_count() or 1, max(1, trials // 50))


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with ten samples beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Closed loop over the stream from command 0 for `seconds`.

    One set-up sample is taken per second of the loop, so that their median
    covers the same stretch of machine time as the commands' median.
    """
    setup: list[float] = []
    done: list[tuple[workloads.Command, Outcome]] = []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        if len(setup) <= elapsed:
            setup.append(runner.setup_time())
        done.append(runner.run(len(done), [sys.executable, "-m", "deltacalc"]))
    lat = [o.wall_s for _, o in done]
    by_kind: dict[str, list[float]] = defaultdict(list)
    for cmd, o in done:
        by_kind[cmd.kind].append(o.wall_s)
    tail_s, pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "cmd_p50_ms": 1000 * statistics.median(lat),
        "cmd_tail_ms": 1000 * tail_s,
        "cmds_per_s": len(lat) / sum(lat),
        "peak_rss_mb": max(o.rss_mb for _, o in done),
        "success_ratio": 1 - runner.commands_failed / len(lat),
    }
    detail = {"commands": len(lat), "tail_percentile": pct, "setup_samples": len(setup),
              "fail_ratio": 1 - metrics["success_ratio"],
              "by_kind": {k: {"n": len(v), "p50_ms": 1000 * statistics.median(v),
                              "max_ms": 1000 * max(v)} for k, v in sorted(by_kind.items())}}
    return metrics, detail


# --- traced run -------------------------------------------------------------


def self_intervals(rows: list) -> list[list[tuple[int, int]]]:
    """Each span's interval minus the union of its children's intervals."""
    kids: dict[int, list[int]] = defaultdict(list)
    for k, row in enumerate(rows):
        if row[3] >= 0:
            kids[row[3]].append(k)
    out = []
    for k, (_, start, end, _, _) in enumerate(rows):
        pieces, reach = [], start
        for c_start, c_end in sorted((rows[c][1], rows[c][2]) for c in kids[k]):
            if min(c_start, end) > reach:
                pieces.append((reach, min(c_start, end)))
            reach = max(reach, c_end)
        if end > reach:
            pieces.append((reach, end))
        out.append(pieces)
    return out


def union_s(intervals: list[tuple[int, int]]) -> float:
    """Length of the union of nanosecond intervals, in seconds."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total, reach = total + end - start, end
        elif end > reach:
            total, reach = total + end - reach, end
    return total / 1e9


class LayerTotals:
    """Per-span-name sums over all traced commands.

    Within one command, the time of a span name is the union of its spans'
    intervals, so that spans of one name running at once on worker threads
    (axioms splits its trials over a pool) count once and the figure does
    not grow with the thread count.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.wall_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)  # calls entering from another layer
        self.info: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        self.oracle_terms = 0  # terms of the divided powers taken by the oracle
        self.import_s: list[float] = []

    def add(self, trace: dict) -> None:
        rows = trace["spans"]
        self.import_s.append(trace["import_ns"] / 1e9)
        own: dict[str, list] = defaultdict(list)
        busy: dict[str, list] = defaultdict(list)
        for row, pieces in zip(rows, self_intervals(rows)):
            name, start, end, parent, info = row
            own[name] += pieces
            busy[name].append((start, end))
            if parent < 0 or rows[parent][0] != name:
                self.calls[name] += 1
            if info is not None:
                for k, v in enumerate(info if isinstance(info, list) else [info]):
                    self.info[name][k] += v
            if name == "artin.gr_gamma" and rows[parent][0] == "artin.gamma2_oracle_expand":
                # gr_gamma always runs under cli.main, so parent >= 0
                self.oracle_terms += info
        for name, pieces in own.items():
            self.self_s[name] += union_s(pieces)
        for name, intervals in busy.items():
            self.wall_s[name] += union_s(intervals)


def _trials_per_s(t: LayerTotals) -> float:
    suites = ("gamma.gamma_axiom_suite", "artin.gamma_axiom_suite_over_ring")
    busy = sum(t.wall_s[s] for s in suites)
    return sum(t.info[s][0] for s in suites) / busy if busy else 0.0


def _self(span):
    return lambda t: t.self_s[span]


def _calls(span):
    return lambda t: t.calls[span]


def _count(span, k=0):
    return lambda t: t.info[span][k]


# What each layer metric should move, on which workload.
STARTUP = "setup_s and cmd_p50_ms on quick"
PARSE_PRINT = "cmd_p50_ms on quick"
ADEM = "cmds_per_s and cmd_tail_ms on adem"
ADEM_MEMO = "cmds_per_s and peak_rss_mb on adem"
ACTION = "cmd_tail_ms on adem"
TABLES = "cmds_per_s, cmd_tail_ms and peak_rss_mb on tables"
AXIOMS = "cmds_per_s on verify"
RINGS = "cmd_tail_ms on verify"
RING_OPS = "cmds_per_s on verify"  # oracle and ring-mul runs are the light end of verify

# Layer metric -> (value from the traced totals, or None if set elsewhere; what it should move).
LAYER_METRICS = {
    "cli.import_s": (lambda t: statistics.median(t.import_s), STARTUP),
    "cli.main.self_s": (_self("cli.main"), STARTUP),
    "exprs.parse.self_s": (_self("exprs.parse"), PARSE_PRINT),
    "exprs.parse.calls": (_calls("exprs.parse"), PARSE_PRINT),
    "exprs.format.self_s": (_self("exprs.format"), PARSE_PRINT),
    "exprs.format.calls": (_calls("exprs.format"), PARSE_PRINT),
    "words.reduce.self_s": (_self("words.reduce"), ADEM),
    "words.reduce.calls": (_calls("words.reduce"), ADEM),
    "words.reduce.words_in": (_count("words.reduce", 0), ADEM),
    "words.reduce.terms_out": (_count("words.reduce", 1), ADEM),
    "words.compose.self_s": (_self("words.compose"), ADEM),
    "words.annihilation_order.self_s": (_self("words.annihilation_order"), ADEM),
    "words.reduce.cold_s": (None, ADEM_MEMO),
    "words.reduce.warm_s": (None, ADEM_MEMO),
    "words.reduce.rss_growth_mb": (None, ADEM_MEMO),
    "gamma.delta_act.self_s": (_self("gamma.delta_act"), ACTION),
    "gamma.delta_act.calls": (_calls("gamma.delta_act"), ACTION),
    "gamma.nilpotency_probe.self_s": (_self("gamma.nilpotency_probe"), ACTION),
    "gamma.s_basis.self_s": (_self("gamma.s_basis"), TABLES),
    "gamma.s_basis.monomials": (_count("gamma.s_basis"), TABLES),
    "gamma.s_generators.self_s": (_self("gamma.s_generators"), TABLES),
    "e1.e1_page.self_s": (_self("e1.e1_page"), TABLES),
    "e1.entries": (_count("e1.e1_page"), TABLES),
    "gamma.gamma_axiom_suite.self_s": (_self("gamma.gamma_axiom_suite"), AXIOMS),
    "artin.gamma_axiom_suite_over_ring.self_s": (_self("artin.gamma_axiom_suite_over_ring"),
                                                 AXIOMS),
    "axioms.trials_per_s": (_trials_per_s, AXIOMS),
    "artin.m_index.self_s": (_self("artin.m_index"), RINGS),
    "artin.normal_monomials.count": (_count("artin.normal_monomials"), RINGS),
    "artin.gamma2_oracle_expand.self_s": (_self("artin.gamma2_oracle_expand"), RING_OPS),
    "artin.oracle.terms": (lambda t: t.oracle_terms, RING_OPS),
    "artin.ring_multiply.self_s": (_self("artin.ring_multiply"), RING_OPS),
    "trace.overhead_ratio": (None, "nothing: traced over untraced wall time, every workload"),
}


def traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Each command untraced, then traced, so that drift in machine speed hits both."""
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{os.getpid()}.json"
    totals = LayerTotals()
    log = []
    plain_wall = traced_wall = 0.0
    start = time.perf_counter()
    try:
        for i in range(TRACE_COMMANDS[runner.workload]):
            if time.perf_counter() - start > TRACE_TIME_FACTOR * seconds:
                break
            plain_wall += runner.run(i, [sys.executable, "-m", "deltacalc"])[1].wall_s
            spans_file.unlink(missing_ok=True)
            _, out = runner.run(i, [sys.executable, str(HERE / "traced_child.py"),
                                    str(spans_file), "--"])
            traced_wall += out.wall_s
            if spans_file.exists():
                trace = json.loads(spans_file.read_text())
                for layer in trace["missing"]:
                    runner.record(f"traced command {i}", f"layer {layer} not found; not traced")
                totals.add(trace)
                log.append({"command": i, **trace})
            else:
                runner.record(f"traced command {i}", "no spans written")
    finally:
        spans_file.unlink(missing_ok=True)

    probe = runner.spawner.run([sys.executable, str(HERE / "words_probe.py"), str(runner.seed)])
    try:
        cold_warm = json.loads(probe.stdout.strip().splitlines()[-1])
        runner.record("words probe", None if cold_warm["ok"] else "cold and warm passes disagree")
    except (ValueError, IndexError, KeyError):
        cold_warm = {"cold_s": 0.0, "warm_s": 0.0, "rss_growth_mb": 0.0}
        runner.record("words probe", f"exit {probe.code}: {probe.stderr.strip()[-200:]}")

    metrics = {name: fn(totals) for name, (fn, _) in LAYER_METRICS.items() if fn}
    metrics["words.reduce.cold_s"] = cold_warm["cold_s"]
    metrics["words.reduce.warm_s"] = cold_warm["warm_s"]
    metrics["words.reduce.rss_growth_mb"] = cold_warm["rss_growth_mb"]
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall if plain_wall else 0.0

    trace_path = OUT / f"trace-{runner.workload}-seed{runner.seed}.json.gz"
    with gzip.open(trace_path, "wt", encoding="utf-8") as fh:
        json.dump({"workload": runner.workload, "env": environment(runner), "metrics": metrics,
                   "moves": {k: moves for k, (_, moves) in LAYER_METRICS.items()},
                   "span_fields": ["name", "start_ns", "end_ns", "parent", "info"],
                   "commands": log}, fh)
    detail = {"commands": len(log), "trace_file": str(trace_path.relative_to(ROOT)),
              "self_s_by_span": {k: v for k, v in sorted(totals.self_s.items())}}
    return metrics, detail


# --- entry point ------------------------------------------------------------


def environment(runner: Runner) -> dict:
    head = None
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        head = (git / ref[5:]).read_text().strip() if ref.startswith("ref: ") else ref
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "git_commit": head,  # null outside a git checkout
        "src_sha256": src.hexdigest(),
        "seed": runner.seed,
        "DELTA_CALC_THREADS": "unset",
        "axioms_threads": sorted(runner.axioms_threads),  # over the axioms commands run
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "deltacalc" / "cli.py").is_file() or not spec_path.is_file():
        print(f"run.py: no deltacalc sources under {SRC} or no BENCHMARK.json; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    spawner = Spawner(child_env())
    try:
        # Compile bytecode and fill the file cache before anything is timed.
        warm = spawner.run([sys.executable, "-c", "import deltacalc.cli"])
        if warm.code != 0:
            print(f"run.py: cannot import deltacalc.cli:\n{warm.stderr}", file=sys.stderr)
            return 2
        runner = Runner(args.workload, args.seed, spawner)
        metrics, detail = (traced if args.trace else end_to_end)(runner, args.seconds)
    finally:
        spawner.close()
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"run.py: metrics not measured: {missing}", file=sys.stderr)
        return 2

    for failure in runner.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    detail.update({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                   "env": environment(runner), "digests_checked": runner.digests_checked,
                   "failures": runner.failures[:5]})
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
