"""Cold and warm Adem normal form of one seeded batch, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/words_probe.py SEED

Reduces the same batch of 120 random length-5 words (indices 2-64) twice
with ``words.reduce`` and prints one JSON object: the cold and warm wall
times, the growth of peak RSS during the cold pass, and whether both
passes agree and give admissible terms.
"""

import json
import random
import resource
import sys
import time

from deltacalc import words

BATCH, LENGTH, TOP = 120, 5, 64


def main() -> int:
    rng = random.Random(f"words-probe:{sys.argv[1]}")
    batch = [tuple(rng.randint(2, TOP) for _ in range(LENGTH)) for _ in range(BATCH)]
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    t0 = time.perf_counter()
    cold = words.reduce(batch)
    t1 = time.perf_counter()
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    warm = words.reduce(batch)
    t2 = time.perf_counter()
    ok = cold == warm and all(w[k] >= 2 * w[k + 1] for w in cold for k in range(len(w) - 1))
    print(json.dumps({"cold_s": t1 - t0, "warm_s": t2 - t1,
                      "rss_growth_mb": (rss1 - rss0) / 1024, "ok": ok}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
