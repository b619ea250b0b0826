"""Speed probe for ``run.py``: a fixed memory-bound loop, timed on request.

Random reads from a 64 MB table, larger than the last-level cache, with no
library code.  Of three probe designs tried against back-to-back passes of
the ``derivations`` workload on a shared machine (an interpreter-bound loop,
dict and Fraction work, and this one), this one followed the machine's speed
best: dividing pass times by it cut their spread from 0.32 to 0.14.

Runs as its own process, so that the table is in no worker's address space
or peak memory.  Each line read on stdin asks for one measurement: the best
of five timings, in seconds, is written back.  Exits when stdin closes.
"""

import array
import math
import random
import sys
import time


def main():
    n = 1 << 23
    table = array.array("q", range(n))
    rng = random.Random(0)
    index = array.array("q", (rng.randrange(n) for _ in range(100_000)))
    for _ in sys.stdin:
        best = math.inf
        for _ in range(5):
            t = time.perf_counter()
            total = 0
            for i in index:
                total += table[i]
            best = min(best, time.perf_counter() - t)
        sys.stdout.write(f"{best!r}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
