"""Record stdout digests of each workload's default-seed stream.

    python3 perfbench/record_digests.py

Runs the first ``COUNT`` commands of each workload at the default seed
through ``deltacalc.cli.main`` in-process, in fresh interpreters of 20
commands each so that memo tables stay small, checks each exit code and
invariant, and writes ``perfbench/digests.json`` anew.  ``run.py``
compares the stdout of every default-seed command it runs against these
digests.
Re-record only when the program's output is meant to change.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
COUNT = 300
BATCH = 20


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()[:16]


def _worker(workload: str, start: int, stop: int) -> None:
    """Run commands [start, stop) in this interpreter; print one digest per line."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from deltacalc import cli

    for i in range(start, stop):
        cmd = workloads.command(workload, DEFAULT_SEED, i)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(cmd.argv)
        out = buf.getvalue()
        problem = None if code == cmd.expect else f"exit {code}, expected {cmd.expect}"
        if problem is None and code == 0 and cmd.check is not None:
            problem = cmd.check(out, cmd.fmt)
        if problem:
            raise SystemExit(f"{workload} command {i} {cmd.argv}: {problem}")
        print(digest(out), flush=True)


def main() -> int:
    if sys.argv[1:2] == ["--worker"]:
        _worker(sys.argv[2], int(sys.argv[3]), int(sys.argv[4]))
        return 0

    sys.path.insert(0, str(HERE))
    import workloads

    recorded = {}
    env = {k: v for k, v in os.environ.items() if k != "DELTA_CALC_THREADS"}
    for name in workloads.WORKLOADS:
        digests: list[str] = []
        for start in range(0, COUNT, BATCH):
            out = subprocess.run(
                [sys.executable, __file__, "--worker", name, str(start), str(start + BATCH)],
                env=env, stdout=subprocess.PIPE, text=True, check=True,
            ).stdout
            digests += out.split()
        recorded[name] = digests
        print(f"{name}: {len(digests)} digests", file=sys.stderr)
    table = {"seed": DEFAULT_SEED, "workloads": recorded}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
