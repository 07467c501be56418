"""How much a workload pulls on the speed probe that shares its core.

    python3 bench/probe_pull.py

``bench.py`` scales every time by the speed of ``probe.py`` on the pass's
own core.  If the program's memory traffic slowed the probe, a change to
that traffic would move the reported times without moving the program.
This script measures that pull for each workload.  On one core, beside a
probe, it takes turns of ``TURN_S`` between three busy processes, each
stopped while the others run:

- ``workload``: passes of the workload (``workload.py``), one after another;
- ``quiet``: a Python loop that touches almost no memory;
- ``stream``: numpy copies of a 64 MiB array, which flush the core's caches.

Order ``quiet, workload, quiet, stream, ...`` puts a ``quiet`` turn next to
every other turn, so the host's drift cancels in the ratio of neighbouring
turns.  The core is busy in every turn, so the ratios show only what the
busy process does to the probe.  A second probe on another core shows what
the turns do to a core that runs nothing of theirs.  Prints one line per
workload: the median unit-time ratios ``workload/quiet`` and
``stream/quiet`` on each core.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench import BENCH, SRC, THREAD_PINS, WORKLOADS

TURN_S = 0.5
# a probe unit that starts this soon after a turn began is not counted
SETTLE_S = 0.1
TURNS = 160
QUIET = "while True: pass"
STREAM = ("import numpy as np\n"
          "a = np.ones(8 << 20); b = np.empty_like(a)\n"
          "while True: np.copyto(b, a)")


def pinned(cpu: int):
    return lambda: os.sched_setaffinity(0, {cpu})


def pull(workload: str, cpus: list, tmp: Path) -> dict:
    env = dict(os.environ, **THREAD_PINS, PYTHONPATH=str(SRC))
    probes = {cpu: subprocess.Popen(
        [sys.executable, str(BENCH / "probe.py"), str(tmp / f"probe{cpu}.json")],
        preexec_fn=pinned(cpu), stdout=subprocess.PIPE, text=True)
        for cpu in cpus}
    cmd = [sys.executable, str(BENCH / "workload.py"), "--command", workload,
           "--config", str(BENCH / "configs" / f"{workload}.cfg"),
           "--out", str(tmp / workload), "--result", str(tmp / "result.json")]
    if WORKLOADS[workload]["seeded"]:
        cmd += ["--seed", "0"]
    # each in a process group of its own, so that a signal reaches the
    # whole group; the workload restarts whenever a pass ends
    busy = {name: subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                                   preexec_fn=pinned(cpus[0]),
                                   start_new_session=True)
            for name, argv in [
                ("workload", ["bash", "-c", 'while :; do "$@"; done', "loop",
                              *cmd]),
                ("quiet", [sys.executable, "-c", QUIET]),
                ("stream", [sys.executable, "-c", STREAM])]}
    turns = []                                  # (name, start, end)
    try:
        for probe in probes.values():
            probe.stdout.readline()
        time.sleep(3.0)                         # all three past their imports
        for proc in busy.values():
            os.killpg(proc.pid, signal.SIGSTOP)
        order = ["quiet", "workload", "quiet", "stream"]
        for i in range(TURNS):
            name = order[i % len(order)]
            os.killpg(busy[name].pid, signal.SIGCONT)
            t0 = time.perf_counter()
            time.sleep(TURN_S)
            os.killpg(busy[name].pid, signal.SIGSTOP)
            turns.append((name, t0, time.perf_counter()))
    finally:
        for proc in busy.values():
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        for probe in probes.values():
            probe.send_signal(signal.SIGTERM)
            probe.wait()
            probe.stdout.close()

    ratios = {}
    for cpu in cpus:
        units = json.loads((tmp / f"probe{cpu}.json").read_text())

        def turn_unit(turn):
            _, t0, t1 = turn
            sel = [d for t, d in units if t0 + SETTLE_S <= t <= t1]
            return statistics.median(sel) if sel else None

        per_turn = [turn_unit(turn) for turn in turns]
        for name in ("workload", "stream"):
            pairs = [per_turn[i] / per_turn[j]
                     for i, turn in enumerate(turns) if turn[0] == name
                     for j in (i - 1, i + 1)
                     if 0 <= j < len(turns) and turns[j][0] == "quiet"
                     and per_turn[i] and per_turn[j]]
            ratios[f"cpu{cpu}.{name}/quiet"] = (
                round(statistics.median(pairs), 4) if pairs else None)
    return {"workload": workload, **ratios}


def main() -> int:
    cpus = sorted(os.sched_getaffinity(0))[:2]
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=BENCH.parent) as tmp:
            print(json.dumps(pull(workload, cpus, Path(tmp))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
