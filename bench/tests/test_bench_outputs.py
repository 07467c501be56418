"""Output checks: a perturbed artifact is counted as a failed operation."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import outputs  # noqa: E402

REFERENCE = Path(__file__).resolve().parents[1] / "reference"


def _check(tmp_path, name, text, ref):
    (tmp_path / name).write_text(text)
    ops = outputs.Ops()
    outputs.check_artifact(ops, tmp_path, name, ref)
    return ops


def _scale_field(line, col, factor):
    parts = line.split(",")
    parts[col] = repr(float(parts[col]) * factor)
    return ",".join(parts)


def test_reference_passes_and_roundoff_is_admitted(tmp_path):
    ref = REFERENCE / "sweep.csv"
    lines = ref.read_text().splitlines()
    assert _check(tmp_path, "sweep.csv", ref.read_text(), ref).failed == 0
    lines[2] = _scale_field(lines[2], 2, 1.0 + 1e-13)
    ops = _check(tmp_path, "sweep.csv", "\n".join(lines) + "\n", ref)
    assert (ops.attempted, ops.failed) == (1, 0)


def test_perturbed_csv_counts_as_failed(tmp_path):
    ref = REFERENCE / "sweep.csv"
    lines = ref.read_text().splitlines()
    lines[2] = _scale_field(lines[2], 2, 1.0 + 1e-6)
    ops = _check(tmp_path, "sweep.csv", "\n".join(lines) + "\n", ref)
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "row 2 column 3" in ops.problems[0]


def test_perturbed_ledger_and_fit_count_as_failed(tmp_path):
    ref = REFERENCE / "ledger.csv"
    lines = ref.read_text().splitlines()
    lines[-1] = _scale_field(lines[-1], 4, 1.0 - 1e-7)
    assert _check(tmp_path, "ledger.csv", "\n".join(lines), ref).failed == 1
    fit = REFERENCE / "fit.txt"
    slope, resid = fit.read_text().splitlines()
    bad = f"slope {float(slope.split()[1]) + 1e-6!r}\n{resid}\n"
    assert _check(tmp_path, "fit.txt", bad, fit).failed == 1


def test_lemma_rows_keep_commas_in_params_and_flag_changes(tmp_path):
    ref = REFERENCE / "lemmas" / "seed_00.csv"
    rows = outputs.parse_lemmas(ref.read_text())
    assert any("," in params for _, params, _, _, _ in rows)
    lines = ref.read_text().splitlines()
    lines[1] = lines[1].rsplit(",", 1)[0] + ",false"
    ops = outputs.Ops()
    (tmp_path / "lemmas.csv").write_text("\n".join(lines) + "\n")
    outputs.lemma_ops(ops, tmp_path, ref)
    outputs.check_artifact(ops, tmp_path, "lemmas.csv", ref)
    assert ops.attempted == len(rows) + 1
    assert ops.failed == 2           # the unstable report and the check


def test_missing_sweep_member_and_blowup_count_as_failed(tmp_path):
    ref = REFERENCE / "sweep.csv"
    lines = ref.read_text().splitlines()
    (tmp_path / "sweep.csv").write_text("\n".join(lines[:-1]) + "\n")
    ops = outputs.Ops()
    outputs.sweep_ops(ops, tmp_path, ref)
    assert (ops.attempted, ops.failed) == (len(lines), 1)
    (tmp_path / "events.log").write_text(
        "t=0.0 event=ins:start\nt=2.0 event=ins:end:horizon\n"
        "t=0.0 event=cns:start\nt=0.5 event=cns:blowup:vacuum\n"
        "t=0.5 event=cns:end:blowup\n")
    ops = outputs.Ops()
    outputs.simulate_ops(ops, tmp_path)
    assert (ops.attempted, ops.failed) == (2, 1)
