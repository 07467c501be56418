"""Output checks against the reference artifacts stored with the benchmark,
and the operation accounting of one workload run.

Tolerance.  A value ``x`` matches its reference ``r`` when
``|x - r| <= RTOL * (|r| + max|column of r|)``: relative to the value, with a
floor scaled to its column so that entries at roundoff level (``X`` at
``t = 0`` is 3e-16) compare on the column's scale.  Running every workload
with ``numpy.fft.fftn``/``ifftn`` replaced by the real transforms
(``rfftn``/``irfftn`` plus the Hermitian fill, the reordering that a
real-FFT tendency brings) moved no value by more than 4.2e-15 of itself or
2.2e-15 of its column.  ``RTOL = 1e-10`` leaves more than four decades for
such roundoff and still fails any change of the computed numbers.
Strings (lemma ids, parameters, stability flags) must match exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

RTOL = 1e-10


@dataclass
class Ops:
    """Operations of one run: solver trajectories or lemma reports, plus one
    per output check.

    ``checks_failed`` counts the failed ops that say the program did not
    produce its reference output (a check, a missing or crashed process).
    An unstable lemma report fails its op but is a correct output when the
    reference records it unstable too.
    """

    attempted: int = 0
    failed: int = 0
    checks_failed: int = 0
    problems: list = field(default_factory=list)

    def add(self, ok: bool, what: str, check: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks_failed += check
            self.problems.append(what)


def _numeric_rows(text: str) -> tuple[str, list]:
    lines = text.splitlines()
    return lines[0], [[float(x) for x in line.split(",")] for line in lines[1:]]


def _close(x: float, r: float, scale: float) -> bool:
    return abs(x - r) <= RTOL * (abs(r) + scale)


def _compare_table(got: list, ref: list) -> str | None:
    """First mismatch between two tables of floats, or None."""
    if len(got) != len(ref):
        return f"{len(got)} rows, reference has {len(ref)}"
    if any(len(g) != len(r) for g, r in zip(got, ref)):
        return "row lengths differ from the reference"
    for col in range(len(ref[0]) if ref else 0):
        scale = max(abs(row[col]) for row in ref)
        for i, (g, r) in enumerate(zip(got, ref)):
            if not _close(g[col], r[col], scale):
                return f"row {i + 1} column {col + 1}: {g[col]!r} vs {r[col]!r}"
    return None


def compare_numeric_csv(got: str, ref: str) -> str | None:
    """Mismatch in a header + float-rows CSV (``sweep.csv``, ``ledger.csv``)."""
    try:
        head_g, rows_g = _numeric_rows(got)
    except (ValueError, IndexError) as exc:
        return f"unparsable: {exc}"
    head_r, rows_r = _numeric_rows(ref)
    if head_g != head_r:
        return f"header {head_g!r} vs {head_r!r}"
    return _compare_table(rows_g, rows_r)


def compare_fit(got: str, ref: str) -> str | None:
    """Mismatch in ``fit.txt`` (``slope <v>`` and ``residual <v>`` lines)."""
    try:
        pairs_g = [line.split() for line in got.splitlines()]
        keys_g = [p[0] for p in pairs_g]
        vals_g = [[float(p[1])] for p in pairs_g]
    except (ValueError, IndexError) as exc:
        return f"unparsable: {exc}"
    pairs_r = [line.split() for line in ref.splitlines()]
    if keys_g != [p[0] for p in pairs_r]:
        return f"keys {keys_g} vs {[p[0] for p in pairs_r]}"
    # each value is its own column
    for (g,), p in zip(vals_g, pairs_r):
        r = float(p[1])
        if not _close(g, r, abs(r)):
            return f"{p[0]}: {g!r} vs {r!r}"
    return None


def parse_lemmas(text: str) -> list:
    """Rows ``(lemma, params, max_ratio, median_ratio, stable)``.

    ``params`` may itself hold commas, so the row is split from both ends.
    """
    rows = []
    for line in text.splitlines()[1:]:
        parts = line.split(",")
        if len(parts) < 5:
            raise ValueError(f"short row {line!r}")
        rows.append((parts[0], ",".join(parts[1:-3]), float(parts[-3]),
                     float(parts[-2]), parts[-1]))
    return rows


def compare_lemmas(got: str, ref: str) -> str | None:
    """Mismatch in ``lemmas.csv``: labels exact, ratios within tolerance."""
    try:
        rows_g = parse_lemmas(got)
    except ValueError as exc:
        return f"unparsable: {exc}"
    rows_r = parse_lemmas(ref)
    if got.splitlines()[:1] != ref.splitlines()[:1]:
        return "header differs from the reference"
    labels_g = [(r[0], r[1], r[4]) for r in rows_g]
    labels_r = [(r[0], r[1], r[4]) for r in rows_r]
    if labels_g != labels_r:
        return "lemma ids, parameters or stability differ from the reference"
    return _compare_table([r[2:4] for r in rows_g], [r[2:4] for r in rows_r])


COMPARE = {
    "sweep.csv": compare_numeric_csv,
    "ledger.csv": compare_numeric_csv,
    "fit.txt": compare_fit,
    "lemmas.csv": compare_lemmas,
}


def check_artifact(ops: Ops, outdir: Path, name: str, ref_path: Path) -> None:
    """One op: the artifact ``name`` in ``outdir`` matches its reference."""
    path = outdir / name
    if not path.is_file():
        ops.add(False, f"{name}: missing", check=True)
        return
    problem = COMPARE[name](path.read_text(), ref_path.read_text())
    ops.add(problem is None, f"{name}: {problem}", check=True)


def _first_column(path: Path) -> set:
    try:
        return {float(line.split(",")[0])
                for line in path.read_text().splitlines()[1:]}
    except (OSError, ValueError):
        return set()


def sweep_ops(ops: Ops, outdir: Path, ref_path: Path) -> None:
    """One op per trajectory: the incompressible reference run and each
    member of the reference sweep, which fails when it blew up or was
    excluded (no ``sweep.csv`` row)."""
    path = outdir / "sweep.csv"
    done = _first_column(path)
    ops.add(path.is_file(), "sweep: incompressible reference did not finish")
    for nu in sorted(_first_column(ref_path)):
        ops.add(nu in done, f"sweep: member nu={nu:g} excluded or blown up")


def simulate_ops(ops: Ops, outdir: Path, systems=("ins", "cns")) -> None:
    """One op per trajectory, read from the ``end:`` events of ``events.log``."""
    ends = {}
    path = outdir / "events.log"
    if path.is_file():
        for line in path.read_text().splitlines():
            event = line.split("event=", 1)[-1]
            tag, _, rest = event.partition(":")
            if rest.startswith("end:"):
                ends[tag] = rest[len("end:"):]
    for tag in systems:
        ops.add(ends.get(tag) == "horizon",
                f"simulate: {tag} run ended {ends.get(tag, 'without end event')}")


def lemma_ops(ops: Ops, outdir: Path, ref_path: Path) -> None:
    """One op per lemma report; an unstable report fails, and so does each
    report of the reference missing from the output."""
    expected_reports = len(parse_lemmas(ref_path.read_text()))
    rows = []
    path = outdir / "lemmas.csv"
    if path.is_file():
        try:
            rows = parse_lemmas(path.read_text())
        except ValueError:
            rows = []
    for lemma, params, _, _, stable in rows:
        ops.add(stable == "true", f"lemmas: {lemma} ({params}) unstable")
    for _ in range(expected_reports - len(rows)):
        ops.add(False, "lemmas: report missing")
