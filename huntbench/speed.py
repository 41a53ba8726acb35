"""Machine speed: the time of a fixed reference loop, run in a helper process.

A shared host's speed drifts by tens of percent within minutes, and not
evenly: sometimes the cores slow, sometimes the memory. A hunt does both
interpreter work on small objects and lookups across a working set larger
than the L2 cache, so the reference loop does both too. It runs in its
own process, so its table does not count in the hunting process's memory.

Run as a script, it answers each line on stdin with the loop's time in
seconds: the median of three runs.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Entries of the lookup table: tens of MB, well past a 2 MB L2 cache.
TABLE_ENTRIES = 200_000
PROBES = 40_000


def _reference_loop(table: dict, keys: list) -> int:
    small: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(60_000):
        key = (i & 63, (i >> 6) & 63)
        small[key] = small.get(key, 0) + i
        total += len(key) ^ (i % 7)
    for key in keys:
        total += table[key][0] & 7
    return total


def _serve() -> None:
    table = {(i, i * 7 % 1013): [i] for i in range(TABLE_ENTRIES)}
    keys = list(table)
    random.Random(0).shuffle(keys)
    keys = keys[:PROBES]
    for _ in sys.stdin:
        times = []
        for _ in range(3):
            started = time.perf_counter()
            _reference_loop(table, keys)
            times.append(time.perf_counter() - started)
        print(repr(statistics.median(times)), flush=True)


class SpeedProbe:
    """The helper process; ``loop_seconds()`` times the loop now."""

    def __init__(self):
        self._process = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def loop_seconds(self) -> float:
        self._process.stdin.write("\n")
        self._process.stdin.flush()
        return float(self._process.stdout.readline())

    def close(self) -> None:
        """End the helper: it exits when its stdin closes."""
        self._process.stdin.close()
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


if __name__ == "__main__":
    _serve()
