"""Self-time arithmetic of the benchmark's span tracer."""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    parent = np.array([-1, 0, 1, 0], dtype=np.int32)
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    own = spans.self_times(parent, start, end)
    np.testing.assert_allclose(own, [3.0, 2.0, 1.0, 4.0])
    assert own.sum() == end[0] - start[0]


def test_layer_self_times_add_up_to_the_root_span():
    tracer = spans.Tracer()
    tracer.names += ["spectral.f", "bands.g"]
    tracer.layer_of += ["spectral", "bands"]
    with tracer.span("cli.main", "cli"):
        for nid in (0, 1, 0):
            idx = tracer._open(nid)
            inner = tracer._open(1 - nid)
            tracer._close(inner, 0.0, 0.0)
            tracer._close(idx, 0.0, 0.0)
    names, parent, start, end = tracer.arrays()
    # rewrite the clock: every span lasts 2 s and its inner child 0.5 s
    start, end = start.copy(), end.copy()
    for i in range(1, len(start), 2):
        start[i], end[i] = 10.0 * i, 10.0 * i + 2.0
        start[i + 1], end[i + 1] = 10.0 * i + 0.5, 10.0 * i + 1.0
    own = spans.self_times(parent, start, end)
    root = end[0] - start[0]
    assert np.isclose(own.sum(), root)
    by_name = np.bincount(names, weights=own)
    # spectral.f: two spans of 1.5 s self time plus one inner of 0.5 s
    assert np.isclose(by_name[0], 2 * 1.5 + 0.5)
    assert np.isclose(by_name[1], 1.5 + 2 * 0.5)


def test_units_follow_metric_names():
    assert spans.unit("spectral.self_s") == "s"
    assert spans.unit("solvers.step_cns.ms_per_call") == "ms"
    assert spans.unit("spectral.fft.flops_computed") == "flop"
    assert spans.unit("io.write_snapshot.bytes") == "B"
    assert spans.unit("bands.nonempty_block_share") == "ratio"
    assert spans.unit("spectral.fft.calls") == "count"
