"""One pass of one workload in a fresh process, through the public ``bcns``
entry points; writes its measurements as JSON.

    python3 bench/workload.py --command sweep --config CFG --out DIR \
        --result RESULT.json [--seed N] [--trace 0|1] [--setup-only]

With ``--setup-only`` the pass times the set-up alone: ``import bcns``, the
config parse, ``cli.initial_data`` and ``bands.build_partition``.  Otherwise
it times ``import bcns`` and ``cli.main``, which does its own set-up, until
``cli.main`` returns after the last artifact is written: what one ``bcns``
invocation costs.  With ``--trace 1`` the layer wrappers of ``spans.py`` are
installed after the import and the spans are written to ``DIR/spans.npz``.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--command", required=True,
                    choices=("simulate", "sweep", "lemmas"))
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import bcns
    from bcns import cli

    if args.setup_only:
        cfg = cli.load_config(args.config)
        grid, _, _ = cli.initial_data(cfg)
        bcns.build_partition(grid)
        t_setup = time.perf_counter()
        Path(args.result).write_text(json.dumps(
            {"setup_s": t_setup - t0, "t_start": t0, "t_end": t_setup}))
        return 0

    argv = [args.command, "--config", args.config, "--out", args.out]
    if args.seed is not None:
        argv += ["--seed", str(args.seed)]
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        with tracer.span("cli.main", "cli"):
            rc = cli.main(argv)
        tracer.uninstall()
    else:
        rc = cli.main(argv)
    t_end = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "returncode": rc,
        "wall_s": t_end - t0,
        "t_start": t0,
        "t_end": t_end,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,   # ru_maxrss is in KiB on Linux
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if tracer is not None:
        result["trace_id"] = tracer.trace_id
        result["layers"] = tracer.metrics()
        tracer.save(Path(args.out) / "spans.npz")
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
