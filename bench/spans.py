"""Span tracing of the ``bcns`` layers, installed from outside the package.

``Tracer.install`` replaces every public function of the layer modules
(``spectral``, ``bands``, ``calculus``, ``solvers``, ``diagnostics``,
``lemmas``, ``io``) by a wrapper that records one span per call, and
rebinds the wrapper under every name that any ``bcns`` module holds for the
function (``product_dealiased`` alone is bound in five modules).  It also
counts the N-D FFTs made through ``numpy.fft.fftn`` and ``numpy.fft.ifftn``.
``Tracer.uninstall`` restores every binding.

A span is (name, start, end, parent); the spans of one run share the
tracer's trace id.  They are kept in flat arrays while the run lasts and
written by ``Tracer.save`` when it ends.  The program has no queues or
threads, so no span ever waits: there is no "time waited" to report.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
import uuid
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

LAYERS = ("spectral", "bands", "calculus", "solvers", "diagnostics", "lemmas",
          "io")

# lemma id (as in ``bcns lemmas``) -> the check function that computes it
LEMMA_CHECKS = {
    "bernstein": "check_bernstein",
    "product_laws": "check_product_laws",
    "commutators": "check_commutators",
    "heat": "check_heat_regularity",
    "composition": "check_composition",
    "oscillatory": "check_oscillatory_scaling",
}

CNS_NUS = (10, 40, 160, 640)

# counts that must repeat exactly between two runs of the same inputs
# (besides every ``*.calls``)
EXACT_COUNTS = ("spectral.fft.flops_computed", "spectral.fft.bytes_computed",
                "solvers.propagator_builds") + tuple(
                    f"solvers.cns_steps.nu{nu}" for nu in CNS_NUS)

# bytes a transform is modelled to move per point: one complex128 read and
# one complex128 write ("computed", not measured)
FFT_BYTES_PER_POINT = 32


_UNITS = (("_s", "s"), ("ms_per_call", "ms"), ("flops_computed", "flop"),
          ("bytes_computed", "B"), (".bytes", "B"), ("_share", "ratio"))


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name; the rest are counts."""
    return next((u for suffix, u in _UNITS if metric.endswith(suffix)), "count")


@dataclass(frozen=True)
class Hook:
    """Extra work of a wrapper, run inside the function's span: ``before``
    gets the arguments, ``after`` the arguments and the result, and
    ``depth`` names a counter of the calls open."""

    before: Callable | None = None
    after: Callable | None = None
    depth: str | None = None


def layer_functions(module) -> dict:
    """Public functions defined in ``module``, by name."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


def is_wrapped(fn) -> bool:
    return hasattr(fn, "__bench_original__")


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Children of one span never overlap (the program is single-threaded), so
    the covered time is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


class Tracer:
    """Records spans and layer counts for one run of the program."""

    def __init__(self):
        self.trace_id = uuid.uuid4().hex
        self.names: list[str] = []         # span name table, index = name id
        self.layer_of: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._depth = {"solvers.step_cns": 0, "bands.besov_norm": 0,
                       "bands.band_lp_norms": 0}
        self._bindings: list = []          # (namespace, attr, original)
        self.counts = {
            "spectral.fft.calls": 0,
            "spectral.fft.flops_computed": 0.0,
            "spectral.fft.bytes_computed": 0,
            "fft_in_cns_steps": 0,
            "lp_norms_in_besov": 0,
            "blocks_transformed": 0,
            "blocks_nonempty": 0,
            "cns_steps_clamped": 0,
            "blowups": 0,
            "io.write_snapshot.bytes": 0,
            "lemmas.reports": 0,
            "lemmas.stable": 0,
        }
        self.cns_steps_by_nu: dict = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    @contextmanager
    def span(self, name: str, layer: str):
        """Record one span around the block (the root of a pass)."""
        idx = self._open(self._name_id(name, layer))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, t0, time.perf_counter())

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self.span_start[idx] = t0
        self.span_end[idx] = t1
        self._stack.pop()

    def _wrap(self, fn, nid: int, hook: Hook | None):
        clock = time.perf_counter
        open_span, close_span = self._open, self._close

        if hook is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = open_span(nid)
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    close_span(idx, t0, clock())
        else:
            depth = self._depth
            before, after, key = hook.before, hook.after, hook.depth

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = open_span(nid)
                t0 = clock()
                try:
                    if before:
                        before(args, kwargs)
                    if key:
                        depth[key] += 1
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        if key:
                            depth[key] -= 1
                    if after:
                        after(args, kwargs, result)
                    return result
                finally:
                    close_span(idx, t0, clock())
        wrapper.__bench_original__ = fn
        return wrapper

    # -- hooks: counters measured where the work happens ------------------

    def _hooks(self, solvers) -> dict:
        step_sig = inspect.signature(solvers.step_cns)
        counts = self.counts

        def before_step(args, kwargs):
            bound = step_sig.bind(*args, **kwargs).arguments
            params, dt = bound["params"], bound["dt"]
            config = bound.get("config", step_sig.parameters["config"].default)
            key = f"nu{params.nu:g}"
            self.cns_steps_by_nu[key] = self.cns_steps_by_nu.get(key, 0) + 1
            clamp = config.cfl * min(config.dt_max, 0.8 / params.nu)
            if math.isclose(dt, clamp, rel_tol=1e-12):
                counts["cns_steps_clamped"] += 1

        def before_lp_norm(args, kwargs):
            if self._depth["bands.besov_norm"]:
                counts["lp_norms_in_besov"] += 1
            if self._depth["bands.band_lp_norms"]:
                f = args[0] if args else kwargs["f"]
                counts["blocks_transformed"] += 1
                counts["blocks_nonempty"] += bool(np.any(f.coeffs))

        def after_run(args, kwargs, traj):
            counts["blowups"] += traj.terminated == "blowup"

        def after_write(args, kwargs, _):
            path = args[0] if args else kwargs["path"]
            counts["io.write_snapshot.bytes"] += os.path.getsize(path)

        def after_check(args, kwargs, reports):
            reports = reports if isinstance(reports, list) else [reports]
            counts["lemmas.reports"] += len(reports)
            counts["lemmas.stable"] += sum(bool(r.stable) for r in reports)

        hooks = {
            "solvers.step_cns": Hook(before=before_step, depth="solvers.step_cns"),
            "bands.besov_norm": Hook(depth="bands.besov_norm"),
            "bands.band_lp_norms": Hook(depth="bands.band_lp_norms"),
            "spectral.lp_norm": Hook(before=before_lp_norm),
            "solvers.run": Hook(after=after_run),
            "io.write_snapshot": Hook(after=after_write),
        }
        for check in LEMMA_CHECKS.values():
            hooks[f"lemmas.{check}"] = Hook(after=after_check)
        return hooks

    def _count_fft(self, fn):
        counts = self.counts
        depth = self._depth

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            axes = kwargs.get("axes", args[1] if len(args) > 1 else None)
            n = (out.size if axes is None
                 else math.prod(out.shape[ax] for ax in axes))
            batch = out.size // n
            counts["spectral.fft.calls"] += 1
            counts["spectral.fft.flops_computed"] += batch * 5.0 * n * math.log2(n)
            counts["spectral.fft.bytes_computed"] += FFT_BYTES_PER_POINT * out.size
            if depth["solvers.step_cns"]:
                counts["fft_in_cns_steps"] += 1
            return out

        wrapper.__bench_original__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function under every ``bcns`` binding."""
        importlib.import_module("bcns.cli")
        modules = {layer: importlib.import_module(f"bcns.{layer}")
                   for layer in LAYERS}
        hooks = self._hooks(modules["solvers"])
        wrappers = {}                       # id(original) -> wrapper
        for layer, module in modules.items():
            for name, fn in layer_functions(module).items():
                span_name = f"{layer}.{name}"
                nid = self._name_id(span_name, layer)
                wrappers[id(fn)] = self._wrap(fn, nid, hooks.get(span_name))
        for modname, module in list(sys.modules.items()):
            if modname != "bcns" and not modname.startswith("bcns."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__bench_original__ is value:
                    self._bind(module, attr, wrapper)
        for attr in ("fftn", "ifftn"):
            self._bind(np.fft, attr, self._count_fft(getattr(np.fft, attr)))

    def _bind(self, namespace, attr: str, value) -> None:
        self._bindings.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        while self._bindings:
            namespace, attr, original = self._bindings.pop()
            setattr(namespace, attr, original)

    # -- results -------------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.span_name, dtype=np.int32),
                np.frombuffer(self.span_parent, dtype=np.int32),
                np.frombuffer(self.span_start, dtype=np.float64),
                np.frombuffer(self.span_end, dtype=np.float64))

    def metrics(self) -> dict:
        """Per-layer metrics of the recorded run (all layers, zeros included)."""
        names, parent, start, end = self.arrays()
        own = self_times(parent, start, end)
        n_names = len(self.names)
        calls = np.bincount(names, minlength=n_names)
        self_by_name = np.bincount(names, weights=own, minlength=n_names)
        total_by_name = np.bincount(names, weights=end - start,
                                    minlength=n_names)
        index = {name: i for i, name in enumerate(self.names)}

        def n_calls(name):
            return int(calls[index[name]]) if name in index else 0

        def self_s(name):
            return float(self_by_name[index[name]]) if name in index else 0.0

        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = float(sum(
                self_by_name[i] for i, lay in enumerate(self.layer_of)
                if lay == layer))
        steps = n_calls("solvers.step_cns")
        besov = n_calls("bands.besov_norm")
        # a projection called by another projection is part of that call
        proj = [index[n] for n in ("calculus.leray_project",
                                   "calculus.compressible_project")
                if n in index]
        is_proj = np.isin(names, proj)
        parent_is_proj = np.zeros_like(is_proj)
        parent_is_proj[parent >= 0] = is_proj[parent[parent >= 0]]
        out.update({
            "spectral.fft.calls": c["spectral.fft.calls"],
            "spectral.fft.flops_computed": c["spectral.fft.flops_computed"],
            "spectral.fft.bytes_computed": c["spectral.fft.bytes_computed"],
            "spectral.fft.per_cns_step": c["fft_in_cns_steps"] / steps if steps else 0.0,
            "spectral.product_dealiased.calls": n_calls("spectral.product_dealiased"),
            "spectral.lp_norm.calls": n_calls("spectral.lp_norm"),
            "solvers.step_cns.calls": steps,
            "solvers.step_cns.ms_per_call": (
                1e3 * float(total_by_name[index["solvers.step_cns"]]) / steps
                if steps else 0.0),
            "solvers.step_ins.calls": n_calls("solvers.step_ins"),
        })
        for nu in CNS_NUS:
            out[f"solvers.cns_steps.nu{nu}"] = self.cns_steps_by_nu.get(f"nu{nu}", 0)
        out.update({
            "solvers.propagator_builds": n_calls("solvers.acoustic_propagator"),
            "solvers.dt_clamped_share": c["cns_steps_clamped"] / steps if steps else 0.0,
            "solvers.blowups": c["blowups"],
            "calculus.advect.calls": n_calls("calculus.advect"),
            "calculus.project.calls": int(np.sum(is_proj & ~parent_is_proj)),
            "bands.besov_norm.calls": besov,
            "bands.lp_norms_per_besov": c["lp_norms_in_besov"] / besov if besov else 0.0,
            "bands.nonempty_block_share": (
                c["blocks_nonempty"] / c["blocks_transformed"]
                if c["blocks_transformed"] else 0.0),
            "diagnostics.norm_ledger.self_s": self_s("diagnostics.norm_ledger"),
            "diagnostics.limit_error.self_s": self_s("diagnostics.limit_error"),
        })
        for lemma, check in LEMMA_CHECKS.items():
            out[f"lemmas.check.{lemma}.self_s"] = self_s(f"lemmas.{check}")
        out.update({
            "lemmas.reports": c["lemmas.reports"],
            "lemmas.stable_share": (c["lemmas.stable"] / c["lemmas.reports"]
                                    if c["lemmas.reports"] else 0.0),
            "io.write_snapshot.calls": n_calls("io.write_snapshot"),
            "io.write_snapshot.bytes": c["io.write_snapshot.bytes"],
            "trace.spans": len(names),
        })
        return out

    def save(self, path) -> None:
        """Write the spans of the run (compressed ``.npz``)."""
        names, parent, start, end = self.arrays()
        np.savez_compressed(path, trace_id=self.trace_id,
                            names=np.array(self.names),
                            layers=np.array(self.layer_of), span_name=names,
                            span_parent=parent, span_start=start, span_end=end)


def exact_counts(metrics: dict) -> dict:
    """The subset of metrics that must repeat exactly between runs."""
    return {k: v for k, v in metrics.items()
            if k.endswith(".calls") or k in EXACT_COUNTS}
