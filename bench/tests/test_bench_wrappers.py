"""The tracer wraps every public layer function under every ``bcns`` name
and reports every per-layer metric that ``BENCHMARK.json`` lists."""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]


def _public_layer_bindings():
    """(module name, attribute, value) for every binding, in any ``bcns``
    module, of a public function defined in a layer module."""
    import bcns.cli  # noqa: F401  (loads every module)
    layer_modules = {f"bcns.{layer}" for layer in spans.LAYERS}
    public = {}
    for name in layer_modules:
        for fn in spans.layer_functions(sys.modules[name]).values():
            fn = getattr(fn, "__bench_original__", fn)
            public[id(fn)] = fn
    out = []
    for modname, module in list(sys.modules.items()):
        if modname != "bcns" and not modname.startswith("bcns."):
            continue
        for attr, value in vars(module).items():
            original = getattr(value, "__bench_original__", value)
            if public.get(id(original)) is original:
                out.append((modname, attr, value))
    return out


def test_no_bcns_module_keeps_an_unwrapped_public_function():
    before = _public_layer_bindings()
    assert ("bcns.solvers", "product_dealiased") in {(m, a) for m, a, _ in before}
    tracer = spans.Tracer()
    tracer.install()
    try:
        bindings = _public_layer_bindings()
        unwrapped = [(m, a) for m, a, v in bindings if not spans.is_wrapped(v)]
        assert unwrapped == []
        assert len(bindings) == len(before)
        import numpy as np
        assert spans.is_wrapped(np.fft.fftn) and spans.is_wrapped(np.fft.ifftn)
    finally:
        tracer.uninstall()
    assert _public_layer_bindings() == before
    assert not any(spans.is_wrapped(v) for _, _, v in _public_layer_bindings())


def test_traced_run_reports_every_listed_layer_metric(tmp_path):
    from bcns import cli

    cfg = tmp_path / "small.cfg"
    cfg.write_text("N = 16\nT = 0.1\nsnapshots = 3\n")
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("cli.main", "cli"):
            rc = cli.main(["simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "out")])
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracer.metrics()
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    harness = {"process.cpu_s", "trace.overhead_s"}
    assert {m["name"] for m in listed} == set(metrics) | harness
    for m in listed:
        if m["name"] not in harness:
            assert m["unit"] == spans.unit(m["name"]), m["name"]
    assert metrics["solvers.step_cns.calls"] > 0
    assert metrics["spectral.fft.calls"] > metrics["solvers.step_cns.calls"]
    assert metrics["io.write_snapshot.calls"] == 3
    assert metrics["bands.lp_norms_per_besov"] > 0
    assert set(spans.exact_counts(metrics)) >= {"spectral.fft.calls",
                                                "solvers.propagator_builds"}
