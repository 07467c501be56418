"""Small pinned artifacts: a lemma suite, a ``simulate`` ledger with its
event log, and a sweep with its fit, each from a small config in
``tests/reference/``.  A fresh run must reproduce the recorded files:
``events.log`` byte for byte, the rest within the tolerance of the
benchmark's comparators (``bench/outputs.py``).

    PYTHONPATH=src python tests/test_pinned_outputs.py

re-records the references from the current sources.  Do that only at a
commit whose outputs are the accepted baseline, and state in that change
how far the pinned values moved.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import outputs  # noqa: E402

from bcns import cli  # noqa: E402

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


@pytest.mark.parametrize("command", sorted(PINNED))
def test_fresh_run_reproduces_pinned_artifacts(command, tmp_path):
    assert run_pinned(command, tmp_path) == 0
    for name in PINNED[command]:
        got, ref = tmp_path / name, REFERENCE / command / name
        if name == "events.log":
            assert got.read_bytes() == ref.read_bytes()
        else:
            problem = outputs.COMPARE[name](got.read_text(), ref.read_text())
            assert problem is None, f"{command} {name}: {problem}"


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
    record()
