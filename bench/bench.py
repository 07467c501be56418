"""The bcns benchmark: one command, three workloads, checked outputs.

    python3 bench/bench.py --workload {sweep,simulate,lemmas} --seed N \
        --seconds S --trace {0,1}

Every run of a workload is a fresh process (``workload.py``) that goes
through the public ``bcns`` entry points, with ``OMP_NUM_THREADS``,
``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` pinned to 1.

``--trace 0`` times ``SETUP_PASSES`` set-up-only processes, then runs the
workload again and again until ``S`` seconds have passed (at least once),
and reports the medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb``.
``setup_s`` comes from the set-up-only passes, ``wall_s`` and
``peak_rss_mb`` from the whole passes.  ``--trace 1`` makes one untraced and
one traced pass, side by side on two cores when there are two, and reports
the per-layer metrics of ``spans.py`` plus ``process.cpu_s`` and
``trace.overhead_s``.  The exact counts of a traced pass are stored
under ``.bench_out/`` and a later traced pass of the same inputs and
sources that counts differently makes the run incorrect.

Host speed.  The speed of this kind of shared host drifts by 15-20% over
tens of seconds, and a 6 s pass of ``simulate`` varied by 11% (CV) from
pass to pass.  So every process of a run is pinned to one core together
with ``probe.py``, which times a fixed unit of numpy work every 20 ms.  The
speed factor of a window is ``REF_UNIT_S`` over the 10%-trimmed mean unit
time in it, and every reported time is the measured time times the speed
factor of its pass: the time on a host where the unit takes
``REF_UNIT_S``.  ``README.md`` gives the spreads this leaves.  The measured
times of every pass, and their medians, are kept in ``result.json``.
``probe_pull.py`` measures how much the workload itself moves the probe.

Every run's artifacts are compared with ``reference/`` (see ``outputs.py``).
The last line of standard output is the JSON result; the line before it
stamps the environment, which is also written with the per-run details to
``.bench_out/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from importlib import metadata
from pathlib import Path

import outputs
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_out"
REFERENCE = BENCH / "reference"

THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SETUP_PASSES = 9
# one probe unit on the reference host (see the module docstring)
REF_UNIT_S = 1.0e-3
# fewest probe units a timed pass needs for its speed factor
MIN_PROBE_UNITS = 20
# lemma references are stored for input seeds 0 .. LEMMA_SEEDS - 1
LEMMA_SEEDS = 16
# a run must end within 180 s; leave room for the checks and the report
DEADLINE_S = 170.0

WORKLOADS = {
    "sweep": {"artifacts": {"sweep.csv": "sweep.csv", "fit.txt": "fit.txt"},
              "seeded": False},
    "simulate": {"artifacts": {"ledger.csv": "ledger.csv"}, "seeded": False},
    "lemmas": {"artifacts": {"lemmas.csv": "lemmas/seed_{seed:02d}.csv"},
               "seeded": True},
}


def input_seed(workload: str, seed: int) -> int | None:
    """The seed the program receives; sweep and simulate take none."""
    return seed % LEMMA_SEEDS if WORKLOADS[workload]["seeded"] else None


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "commit": commit,
        "src_sha256": source_hash(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "seed": seed,
        "thread_pins": THREAD_PINS,
    }


class Runner:
    """Starts the workload processes of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = input_seed(workload, seed)
        self.dir = STATE / workload
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, **THREAD_PINS)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.ops = outputs.Ops()
        self.reps = []
        self.cpus = sorted(os.sched_getaffinity(0))[:2]
        self.probe_units = {}               # cpu -> [(start, duration), ...]
        self.raw = None                     # medians of the measured times

    @contextmanager
    def speed_probes(self, cpus: list):
        """Run ``probe.py`` on each of ``cpus`` while the block runs."""
        probes = {}
        try:
            for cpu in cpus:
                path = self.dir / f"probe{cpu}.json"
                path.unlink(missing_ok=True)
                probes[cpu] = (path, subprocess.Popen(
                    [sys.executable, str(BENCH / "probe.py"), str(path)],
                    preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu}),
                    stdout=subprocess.PIPE, text=True))
            for _, probe in probes.values():
                probe.stdout.readline()     # "ready", or "" if it died
            yield
        finally:
            for path, probe in probes.values():
                probe.send_signal(signal.SIGTERM)
                try:
                    probe.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    probe.kill()
                    probe.wait()
                probe.stdout.close()
        for cpu, (path, _) in probes.items():
            if path.is_file():
                self.probe_units[cpu] = json.loads(path.read_text())

    def speed_factor(self, cpu: int, t_start: float, t_end: float, what: str,
                     fewest: int = MIN_PROBE_UNITS) -> float | None:
        """``REF_UNIT_S`` over the trimmed mean probe unit in the window."""
        units = sorted(d for t, d in self.probe_units.get(cpu, [])
                       if t_start <= t <= t_end)
        if len(units) < fewest:
            self.ops.add(False, f"{what}: {len(units)} probe units, "
                                f"need {fewest}", check=True)
            return None
        cut = len(units) // 10
        return REF_UNIT_S / statistics.fmean(units[cut:len(units) - cut])

    def pass_factor(self, rep: dict) -> float | None:
        rep["speed_factor"] = self.speed_factor(
            rep["cpu"], rep["t_start"], rep["t_end"], rep["tag"])
        return rep["speed_factor"]

    def start(self, tag: str, cpu: int, trace: int = 0,
              setup_only: bool = False) -> dict:
        """Start one workload process pinned to ``cpu``."""
        out = self.dir / tag
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        result_path = self.dir / f"{tag}.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "workload.py"),
               "--command", self.workload,
               "--config", str(BENCH / "configs" / f"{self.workload}.cfg"),
               "--out", str(out), "--result", str(result_path),
               "--trace", str(trace)]
        if self.seed is not None:
            cmd += ["--seed", str(self.seed)]
        if setup_only:
            cmd.append("--setup-only")
        proc = subprocess.Popen(
            cmd, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        return {"tag": tag, "cpu": cpu, "proc": proc, "out": out,
                "result_path": result_path, "setup_only": setup_only}

    def finish(self, handle: dict) -> dict | None:
        """Wait for a started process; its result, or None if it failed."""
        tag, proc = handle["tag"], handle["proc"]
        try:
            _, stderr = proc.communicate(
                timeout=max(0.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.ops.add(False, f"{tag}: killed at the {DEADLINE_S:g} s deadline",
                         check=True)
            return None
        if proc.returncode != 0 or not handle["result_path"].is_file():
            tail = stderr.strip().splitlines()[-1:] or [""]
            self.ops.add(False, f"{tag}: workload process exited "
                                f"{proc.returncode}: {tail[0]}", check=True)
            return None
        result = json.loads(handle["result_path"].read_text())
        result.update(tag=tag, cpu=handle["cpu"])
        if not handle["setup_only"] and result["returncode"] != 0:
            self.ops.add(False, f"{tag}: bcns exited {result['returncode']}",
                         check=True)
        return result

    def run(self, *handles: dict) -> list:
        """Wait for full workload passes and check their outputs."""
        results = []
        for handle in handles:
            result = self.finish(handle)
            self.check(handle["out"])
            if result is not None:
                self.reps.append(result)
            results.append(result)
        return results

    def reference(self, artifact: str) -> Path:
        ref = WORKLOADS[self.workload]["artifacts"][artifact]
        return REFERENCE / ref.format(seed=self.seed or 0)

    def check(self, out: Path) -> None:
        """Ops of one run: its trajectories or reports, then one per artifact
        compared with the reference."""
        ops = self.ops
        if self.workload == "sweep":
            outputs.sweep_ops(ops, out, self.reference("sweep.csv"))
        elif self.workload == "simulate":
            outputs.simulate_ops(ops, out)
        else:
            outputs.lemma_ops(ops, out, self.reference("lemmas.csv"))
        for name in WORKLOADS[self.workload]["artifacts"]:
            outputs.check_artifact(ops, out, name, self.reference(name))


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced: set-up passes, then whole passes until ``seconds`` passed,
    one at a time on one core.

    Times are scaled by the speed factor of their window: the set-up passes
    share the one of their whole phase (a pass is too short for its own).
    The medians of the measured times go to ``runner.raw``."""
    start = time.monotonic()
    cpu = runner.cpus[0]
    setups = []
    with runner.speed_probes([cpu]):
        for i in range(SETUP_PASSES):
            result = runner.finish(runner.start(f"setup{i}", cpu, setup_only=True))
            if result is not None:
                setups.append(result)
        i = 0
        while True:
            [result] = runner.run(runner.start(f"run{i}", cpu))
            i += 1
            if result is None or time.monotonic() - start >= seconds:
                break
    reps = runner.reps
    factors = [runner.pass_factor(r) for r in reps]
    setup_f = (runner.speed_factor(cpu, setups[0]["t_start"], setups[-1]["t_end"],
                                   "set-up passes", fewest=SETUP_PASSES)
               if setups else None)
    if not reps or None in factors or setup_f is None:
        return {}
    runner.raw = {"wall_s": statistics.median(r["wall_s"] for r in reps),
                  "setup_s": statistics.median(r["setup_s"] for r in setups)}
    return {
        "wall_s": (statistics.median(r["wall_s"] * f
                                     for r, f in zip(reps, factors)), "s"),
        "setup_s": (statistics.median(r["setup_s"] * setup_f for r in setups),
                    "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def counts_agree(runner: Runner, counts: dict) -> bool:
    """Store the exact counts of these inputs and sources, or compare them
    with the stored ones."""
    path = STATE / "counts.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{runner.workload}:{runner.seed}:{source_hash()[:16]}"
    if key not in stored:
        stored[key] = counts
        path.write_text(json.dumps(stored, indent=1, sort_keys=True))
        return True
    diff = {k: (stored[key].get(k), v) for k, v in counts.items()
            if stored[key].get(k) != v}
    for k, (old, new) in sorted(diff.items()):
        runner.ops.problems.append(f"count {k}: {new} differs from the "
                                   f"earlier run's {old}")
    return not diff


def measure_traced(runner: Runner) -> tuple[dict, bool]:
    """An untraced and a traced pass, side by side on two cores when there
    are two; per-layer metrics of the traced pass, with its times scaled by
    its speed factor like ``wall_s``."""
    cpus = runner.cpus
    with runner.speed_probes(cpus):
        if len(cpus) > 1:
            plain, traced = runner.run(runner.start("untraced", cpus[0]),
                                       runner.start("traced", cpus[1], trace=1))
        else:
            [plain] = runner.run(runner.start("untraced", cpus[0]))
            [traced] = runner.run(runner.start("traced", cpus[0], trace=1))
    if plain is None or traced is None:
        return {}, False
    plain_f, traced_f = runner.pass_factor(plain), runner.pass_factor(traced)
    if plain_f is None or traced_f is None:
        return {}, False
    layers = traced["layers"]
    same_counts = counts_agree(runner, spans.exact_counts(layers))
    metrics = {}
    for name, value in layers.items():
        unit = spans.unit(name)
        metrics[name] = (value * traced_f if unit in ("s", "ms") else value, unit)
    metrics.update({
        "process.cpu_s": (traced["cpu_s"] * traced_f, "s"),
        "trace.overhead_s": (traced["wall_s"] * traced_f
                             - plain["wall_s"] * plain_f, "s"),
    })
    return metrics, same_counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "bcns" / "__init__.py").is_file():
        print(f"bench: no bcns sources under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    runner = Runner(args.workload, args.seed)
    runner.dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        metrics, same_counts = measure_traced(runner)
    else:
        metrics, same_counts = measure(runner, args.seconds), True
    ops = runner.ops
    # correct: every pass ran and reproduced the reference, and the exact
    # counts repeat; unstable lemma reports fail their ops only
    correct = bool(metrics) and ops.checks_failed == 0 and same_counts
    report = {
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (runner.dir / "result.json").write_text(json.dumps(
        {"env": env, "workload": args.workload, "seconds": args.seconds,
         "trace": args.trace, "problems": ops.problems, "raw": runner.raw,
         "runs": runner.reps,
         **report}, indent=1))
    for problem in ops.problems:
        print(f"bench: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
