"""Record the reference artifacts that every benchmark run is checked against.

    python3 bench/record_reference.py

Runs the ``bcns`` command line of the current sources on each workload
config (the lemmas suite once per input seed ``0 .. LEMMA_SEEDS - 1``) and
copies the checked artifacts into ``bench/reference/``.  Run it only at a
commit whose outputs are the accepted baseline, and say so in the change
that updates the files: the check is that the program reproduces itself.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench import (BENCH, LEMMA_SEEDS, REFERENCE, SRC, THREAD_PINS, WORKLOADS,
                   input_seed)


def record(workload: str, seed: int, env: dict) -> None:
    with tempfile.TemporaryDirectory(dir=BENCH.parent) as out:
        cmd = [sys.executable, "-m", "bcns.cli", workload,
               "--config", str(BENCH / "configs" / f"{workload}.cfg"),
               "--out", out]
        prog_seed = input_seed(workload, seed)
        if prog_seed is not None:
            cmd += ["--seed", str(prog_seed)]
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        for artifact, ref in WORKLOADS[workload]["artifacts"].items():
            dest = REFERENCE / ref.format(seed=prog_seed or 0)
            dest.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(Path(out) / artifact, dest)
            print(f"recorded {dest.relative_to(BENCH)}")


def main() -> int:
    env = dict(os.environ, **THREAD_PINS, PYTHONPATH=str(SRC))
    for workload in WORKLOADS:
        seeds = range(LEMMA_SEEDS) if WORKLOADS[workload]["seeded"] else [0]
        for seed in seeds:
            record(workload, seed, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
