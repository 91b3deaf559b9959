"""The repository benchmark: one command, checked outputs, traced layers.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with tracing off.  ``--trace 1`` runs a fixed amount of work twice, with
tracing off and on, and reports the per-layer metrics from the spans
recorded around each layer's public functions (``tracing.py``); the spans
are written to ``perfbench/out/``.  Library workloads run in fresh child
processes (``child.py``) so set-up is cold and peak memory is the run's
own; ``serve-plate20`` drives a ``repro serve`` process from here.

``BENCHMARK.json`` lists the three workloads the benchmark gates.  The
harness also runs ``sharded-plate80`` (the only workload that exercises
``repro.parallel``), which is not gated: with the default BLAS threads
its sharded solves swing between about 3.5 s and 13 s from run to run.

The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Lines before it record the host (CPU count, library versions, BLAS and
its thread settings as found, whether the native kernel pack loaded and
whether shared memory is enabled) and a per-workload summary including
``fail_frac`` and the sample counts.  The benchmark never pins BLAS or
OpenMP threads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

#: Extra cold set-ups (beyond the one the timed run pays) are made while
#: the set-up time spent stays under this budget, up to three in total.
SETUP_BUDGET_S = 12.0
CHILD_TIMEOUT_S = 170.0


def repo_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        raise SystemExit(
            "perfbench: run from the root of a repro checkout (no src/repro here)"
        )
    return root


def blas_info() -> dict:
    """The BLAS numpy was built against and its thread setting, as found."""
    import ctypes
    import glob

    import numpy as np

    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = blas.get("name")
        info["version"] = blas.get("version")
        info["config"] = blas.get("openblas configuration")
    except (KeyError, TypeError, AttributeError):
        info["name"] = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    info["thread_env"] = {
        key: os.environ[key]
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
        if key in os.environ
    }
    return info


def host_info() -> dict:
    """Host record; loading the native pack here also builds it untimed."""
    import platform

    import numpy as np
    import scipy

    import report
    from repro.parallel.shm import shm_enabled

    native = report.native_loaded()
    degraded = []
    if not native:
        degraded.append("native kernel pack unavailable: numpy fallback")
    if not shm_enabled():
        degraded.append("shared memory disabled: pickled shard transport")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "native": native,
        "shm": shm_enabled(),
        "degraded": degraded,
    }


# ------------------------------------------------------------ library workloads
def spawn_child(root: str, args, setup_only: bool):
    """Run one child; returns (process start → READY seconds, result or None)."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--trace-out", trace_path(args),
    ]
    if setup_only:
        cmd.append("--setup-only")
    if args.toy:
        cmd.append("--toy")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if ready.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"{args.workload} child failed (exit {proc.returncode})")
    result = None
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    return setup_s, result


def run_library(root: str, args) -> dict:
    if args.trace:
        _, result = spawn_child(root, args, setup_only=False)
        return {
            "layers": result["layers"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "correct": result["ok"],
            "problems": result["problems"],
        }
    setup_s, raw = spawn_child(root, args, setup_only=False)
    setups = [setup_s]
    while len(setups) < 3 and sum(setups) + max(setups) <= SETUP_BUDGET_S:
        setups.append(spawn_child(root, args, setup_only=True)[0])
    ops = raw["ops"]
    failed = sum(not op["ok"] for op in ops) + (0 if raw["final_check"] else 1)
    good = [op for op in ops if op["ok"]]
    by_kind: dict[str, list[float]] = {}
    for op in good:
        by_kind.setdefault(op["kind"], []).append(op["seconds"])
    return {
        "setups": setups,
        "attempted": len(ops) + 1,  # the final output check counts as one
        "failed": failed,
        "correct": failed == 0,
        "rhs_per_s": sum(op["columns"] for op in good) / raw["wall_s"],
        "latencies": [op["seconds"] for op in good],
        "by_kind": by_kind,
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "problems": raw["problems"],
    }


# --------------------------------------------------------------------- output
def trace_path(args) -> str:
    return os.path.join(HERE, "out", f"trace-{args.workload}-{args.seed}.json")


def end_to_end(result: dict) -> dict:
    """Every end-to-end value of an untraced run: name → (value, unit).

    ``BENCHMARK.json`` gates a steady subset; the rest are printed on the
    summary line (``latency_p99_ms`` and the per-shape medians spread too
    widely between runs on a shared 2-core host to carry a bound).
    """
    import report

    lat = result["latencies"]
    values = {
        "setup_s": (statistics.median(result["setups"]), "s"),
        "rhs_per_s": (result["rhs_per_s"], "1/s"),
        "latency_p50_ms": (1e3 * report.percentile(lat, 50), "ms"),
        "latency_p99_ms": (1e3 * report.percentile(lat, 99), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }
    for kind, seconds in result.get("by_kind", {}).items():
        values[f"solve_{kind}_ms"] = (1e3 * statistics.median(seconds), "ms")
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy problem sizes (the harness self-test)")
    args = parser.parse_args(argv)

    root = repo_root()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)

    import serve
    from workloads import LIBRARY

    names = [serve.NAME, *LIBRARY]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(names)}")

    print("host " + json.dumps(host_info()), flush=True)
    if args.workload == serve.NAME:
        size = serve.TOY if args.toy else serve.FULL
        if args.trace:
            result = serve.run_traced(size, args.seed, trace_path(args))
        else:
            result = serve.run_timed(root, size, args.seed, args.seconds, SETUP_BUDGET_S)
    else:
        result = run_library(root, args)

    if args.trace:
        declared = bench["per_layer"]
        units = {m["name"]: m["unit"] for m in declared}
        values = {name: (v, units.get(name)) for name, v in result["layers"].items()}
    else:
        declared = bench["end_to_end"]
        values = end_to_end(result)
    wrong = [m["name"] for m in declared if values.get(m["name"], (0, None))[1] != m["unit"]]
    if wrong:
        raise SystemExit(f"perfbench: metrics missing or in another unit: {', '.join(wrong)}")
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]} for m in declared}

    summary = {
        "workload": args.workload,
        "size": "toy" if args.toy else "full",
        "seed": args.seed,
        "fail_frac": {"value": result["failed"] / result["attempted"], "unit": "ratio"},
        "problems": result["problems"],
    }
    if not args.trace:
        summary["setup_samples_s"] = result["setups"]
        summary["latency_samples"] = len(result["latencies"])
        summary["ungated"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items() if name not in metrics
        }
    print("summary " + json.dumps(summary), flush=True)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
