"""Smoke tests of the CLI benchmark harness: a short quick run and its result shape,
the tracer finding every layer function it wraps, and stdout matching the
recorded digests."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_quick_bench_run_reports_every_end_to_end_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert len(units) == 6
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quick", "--seconds", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, name
        assert isinstance(metric["value"], (int, float)) and metric["unit"] == units[name], name


def test_tracer_wraps_every_layer(tmp_path):
    # a deleted or renamed layer function shows as "missing", which fails a traced run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ring = '{"vars":["t"],"relations":["t^3"]}'
    for k, argv in enumerate((
            ["axioms", "--trials", "2"],
            ["nilpotency", "--ring", ring, "--element", '[{"coef":"t","gen":"x"}]', "--oracle"])):
        spans = tmp_path / f"spans{k}.json"
        run = subprocess.run(
            [sys.executable, "perfbench/traced_child.py", str(spans), "--", *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, (argv, run.stderr)
        assert json.loads(spans.read_text())["missing"] == [], argv


def test_stdout_matches_recorded_digests(monkeypatch):
    # the first commands of the adem and quick streams at the recorded seed, run
    # in-process; perfbench/ is read, not written
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    import record_digests
    import workloads
    from deltacalc import cli

    table = json.loads(record_digests.DIGESTS.read_text())
    for name, count in (("adem", 40), ("quick", 36)):
        for i in range(count):
            cmd = workloads.command(name, table["seed"], i)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(cmd.argv)
            assert code == cmd.expect, (name, i, cmd.argv)
            assert record_digests.digest(out.getvalue()) == table["workloads"][name][i], (
                name, i, cmd.argv)
