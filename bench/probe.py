"""Host-speed probe: times one fixed unit of numpy work every ``PERIOD_S``.

    python3 bench/probe.py OUT.json

Prints ``ready`` once it is timing, runs until SIGTERM, then writes
``[[start, duration], ...]`` (``perf_counter`` seconds, comparable across
processes) to ``OUT.json``.  It shares its core
with the workload process, so each unit sees the speed the workload gets at
that moment.  The unit uses numpy only, never ``bcns``, so a change to the
program cannot change the probe.
"""

from __future__ import annotations

import json
import signal
import sys
import time

import numpy as np

PERIOD_S = 0.02
UNIT_TRANSFORMS = 8


def main() -> int:
    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    field = np.random.default_rng(0).standard_normal((64, 64)) + 0j
    samples = []
    print("ready", flush=True)
    while not stopping:
        t0 = time.perf_counter()
        for _ in range(UNIT_TRANSFORMS):
            np.fft.ifftn(np.fft.fftn(field) * 0.5)
        t1 = time.perf_counter()
        samples.append((t0, t1 - t0))
        time.sleep(max(0.0, PERIOD_S - (t1 - t0)))
    with open(sys.argv[1], "w") as fh:
        json.dump(samples, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
