"""Tiny ``sweep``, ``simulate`` and ``lemmas`` passes under the benchmark's
span tracer: the tracer binds ``step_cns``'s arguments by name and counts
the lemma reports, so a change of either signature breaks the traced
benchmark; and the traced projections of ``simulate`` are the count the
code implies, so a diagnostic that projects a snapshot twice fails."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402


def _traced(command, config_text, tmp_path):
    from bcns import cli

    cfg = tmp_path / f"{command}.cfg"
    cfg.write_text(config_text)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main", "cli"):
            rc = cli.main([command, "--config", str(cfg),
                           "--out", str(tmp_path / command)])
    finally:
        tracer.uninstall()
    return rc, tracer.metrics()


def test_traced_sweep_pass(tmp_path):
    rc, metrics = _traced("sweep", "N = 16\nT = 0.1\nsnapshots = 3\n"
                          "nu_list = 1, 10, 100\n", tmp_path)
    assert rc == 0
    assert metrics["solvers.step_cns.calls"] > 0
    # the tracer counts builds by the public name the propagator builds through
    assert metrics["solvers.propagator_builds"] > 0


def test_traced_lemmas_pass(tmp_path):
    rc, metrics = _traced("lemmas", "trials = 10\n", tmp_path)
    assert rc == 0
    assert metrics["lemmas.reports"] == 16


def test_traced_simulate_projects_each_snapshot_once(tmp_path):
    snapshots = 3
    rc, metrics = _traced("simulate", f"N = 16\nT = 0.1\nsnapshots = {snapshots}\n",
                          tmp_path)
    assert rc == 0
    # the ledger: Q of each snapshot's u and of its u_t (Pu = u - Qu), and
    # Q v0; the incompressible run: P v0 alone, since its tendency projects
    # on the kept block
    ledger = 2 * snapshots + 1
    assert metrics["solvers.step_ins.calls"] > 0
    assert metrics["calculus.project.calls"] == ledger + 1
