"""Small pinned artifacts: a lemma suite, a ``simulate`` ledger with its
event log, and a sweep with its fit, each from a small config in
``tests/reference/``.  A fresh run must reproduce the recorded files:
``events.log`` byte for byte, the rest within the tolerance of the
benchmark's comparators (``bench/outputs.py``).  Those checks are for
determinism; the fresh sweep's accuracy is checked against converged
values, ``tests/reference/sweep/converged.csv``.

    PYTHONPATH=src python tests/test_pinned_outputs.py

re-records the references from the current sources.  Do that only at a
commit whose outputs are the accepted baseline, and state in that change
how far the pinned values moved.

    PYTHONPATH=src python tests/test_pinned_outputs.py converged

records ``converged.csv`` alone (about 15 s): the Richardson values
``R(h/2) + (R(h/2) - R(h))/3`` of the sweep's blocks from two runs of
``tests/reference/sweep.cfg`` at ``dt_max`` = h = 2e-4 and h/2.
Re-record it when the scheme's converged values move, not when its time
error does.
"""

import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import outputs  # noqa: E402

from bcns import cli  # noqa: E402
from bcns.diagnostics import fit_rate  # noqa: E402

REFERENCE = ROOT / "tests" / "reference"

# command -> the artifacts compared with tests/reference/<command>/
PINNED = {
    "lemmas": ("lemmas.csv",),
    "simulate": ("ledger.csv", "events.log"),
    "sweep": ("sweep.csv", "fit.txt"),
}


def run_pinned(command: str, out: Path) -> int:
    return cli.main([command, "--config", str(REFERENCE / f"{command}.cfg"),
                     "--out", str(out)])


CONVERGED = REFERENCE / "sweep" / "converged.csv"
BLOCKS = ("err_density", "err_sup", "err_grad_l1", "err_dt_l1")
CONVERGED_DT_MAX = 2e-4  # h; and h/2


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """The output directory of one fresh run of each pinned command."""
    outs = {}

    def get(command):
        if command not in outs:
            out = tmp_path_factory.mktemp(command)
            assert run_pinned(command, out) == 0
            outs[command] = out
        return outs[command]
    return get


@pytest.mark.parametrize("command", sorted(PINNED))
def test_fresh_run_reproduces_pinned_artifacts(command, fresh):
    for name in PINNED[command]:
        got, ref = fresh(command) / name, REFERENCE / command / name
        if name == "events.log":
            assert got.read_bytes() == ref.read_bytes()
        else:
            problem = outputs.COMPARE[name](got.read_text(), ref.read_text())
            assert problem is None, f"{command} {name}: {problem}"


def _sweep_table(path: Path) -> np.ndarray:
    """``nu`` and the four blocks per member, one row each."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def test_fresh_sweep_is_within_one_percent_of_the_converged_values(fresh):
    # the pinned sweep's time error is up to 0.78% (the sup block at nu = 640)
    got, want = _sweep_table(fresh("sweep") / "sweep.csv"), _sweep_table(CONVERGED)
    assert np.array_equal(got[:, 0], want[:, 0])
    assert np.max(np.abs(got[:, 1:] / want[:, 1:] - 1.0)) <= 0.01
    slope = float((fresh("sweep") / "fit.txt").read_text().split()[1])
    assert abs(slope - fit_rate(want[:, 0], want[:, 2])[0]) <= 0.005


def record_converged() -> None:
    cfg = cli.load_config(str(REFERENCE / "sweep.cfg"))
    coarse, fine = (np.array([[getattr(e, b) for b in BLOCKS] for e in
                              cli.sweep_once(replace(cfg, dt_max=h)).errors])
                    for h in (CONVERGED_DT_MAX, CONVERGED_DT_MAX / 2))
    values = fine + (fine - coarse) / 3.0
    with open(CONVERGED, "w") as fh:
        fh.write(",".join(("nu",) + BLOCKS) + "\n")
        for nu, row in zip(cfg.nu_list, values):
            fh.write(",".join(format(float(x), ".17e") for x in (nu, *row)) + "\n")
    print(f"recorded {CONVERGED.relative_to(ROOT)}")


def record() -> None:
    for command, names in PINNED.items():
        with tempfile.TemporaryDirectory() as out:
            if run_pinned(command, Path(out)) != 0:
                raise SystemExit(f"{command} failed; nothing recorded for it")
            dest = REFERENCE / command
            dest.mkdir(exist_ok=True)
            for name in names:
                shutil.copyfile(Path(out) / name, dest / name)
                print(f"recorded {(dest / name).relative_to(ROOT)}")


if __name__ == "__main__":
    record_converged() if sys.argv[1:] == ["converged"] else record()
