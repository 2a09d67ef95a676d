"""Start commands for run.py from a small process and report each one's own peak RSS.

    python3 -S perfbench/spawner.py

Reads one JSON request per line on stdin, ``{"argv": [...], "timeout": s}``,
runs the command to exit with the spawner's environment, and writes one
JSON line back: exit code, stdout, stderr, wall time from start to exit,
peak RSS in MB, and whether the command was killed at its timeout.

On Linux a child's ``ru_maxrss`` starts from the peak RSS of the process
that spawned it, so a command started from run.py would report run.py's
memory whenever that is larger.  This process imports almost nothing, so
its own peak stays below that of any command it starts.
"""

import json
import os
import selectors
import signal
import sys
import time


def run(argv: list, timeout_s: float) -> dict:
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, out_w, 1), (os.POSIX_SPAWN_DUP2, err_w, 2)]
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        os.close(out_w)
        os.close(err_w)
    chunks = {out_r: [], err_r: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for fd in chunks:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            remaining = start + timeout_s - time.perf_counter()
            if remaining <= 0:
                os.kill(pid, signal.SIGKILL)
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.close(out_r)
    os.close(err_r)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "stdout": b"".join(chunks[out_r]).decode(errors="replace"),
        "stderr": b"".join(chunks[err_r]).decode(errors="replace"),
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        "timed_out": timed_out,
    }


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(run(request["argv"], request["timeout"])) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
