"""One library-workload process: set up cold, then run the timed phase.

Started by ``run.py`` with the workload, seed, run length and trace flag.
It prints ``READY`` once the workload is ready for its first timed
operation (the parent times process start to that line as ``setup_s``),
then -- unless started with ``--setup-only`` -- one ``RESULT <json>``
line with the raw operations (untraced) or the per-layer metrics
(traced).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import report  # noqa: E402
import tracing  # noqa: E402
from workloads import LIBRARY, Record  # noqa: E402


def timed_phase(wl, seconds: float) -> dict:
    rec = Record()
    t0 = time.perf_counter()
    while True:
        wl.run_pass(rec)
        if time.perf_counter() - t0 >= seconds:
            break
    wall = time.perf_counter() - t0
    checked = wl.final_check(rec)
    return {
        "ops": [op.__dict__ for op in rec.ops],
        "wall_s": wall,
        "final_check": checked,
        "problems": rec.problems,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def traced_phase(wl, tracer, out_path: str) -> dict:
    """A warm-up pass, then each pass untraced and again traced.

    Interleaving the two keeps slow and fast stretches of the host from
    landing on one side of ``trace.overhead_frac``.
    """
    setup_stats = wl.session.stats.compile_counts()
    warmup, untraced, traced = Record(), Record(), Record()
    wl.run_pass(warmup)
    dispatches = 0
    for p in range(wl.trace_passes):
        wl.passes = p
        wl.run_pass(untraced)
        wl.passes = p
        before = wl.session.stats.shard_dispatches
        tracer.phase = "timed"
        wl.run_pass(traced)
        tracer.phase = None
        dispatches += wl.session.stats.shard_dispatches - before
    checked = wl.final_check(traced)
    tracer.dump(out_path)
    layers = report.library_layers(
        tracer, untraced.ops, traced.ops, setup_stats, dispatches
    )
    ops = warmup.ops + untraced.ops + traced.ops
    failed = sum(not op.ok for op in ops) + (0 if checked else 1)
    return {
        "layers": layers,
        "attempted": len(ops) + 1,  # the final output check counts as one
        "failed": failed,
        "ok": failed == 0,
        "problems": warmup.problems + untraced.problems + traced.problems,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(LIBRARY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    cls = LIBRARY[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.phase = "setup"
    wl = cls(cls.toy if args.toy else cls.full, args.seed)
    wl.setup()
    try:
        if tracer is not None:
            tracer.phase = None
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if tracer is not None:
            result = traced_phase(wl, tracer, args.trace_out)
        else:
            result = timed_phase(wl, args.seconds)
    finally:
        wl.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
