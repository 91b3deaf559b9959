"""Fast self-test of the benchmark harness (toy sizes, about a minute).

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload the harness defines it runs ``run.py --toy`` with
tracing off and on, and asserts that the result line has exactly the
contract's keys, that the outputs checked correct with nothing failed,
and that every metric named in ``BENCHMARK.json`` is emitted with its
unit and a finite value (end-to-end values also nonzero), and that
``layers.json`` maps exactly the per-layer metrics.  A second
traced run of the same seed must repeat the exact counts.  Last, the
benchmark must fail without a result where ``src/repro`` is absent.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = ("core.iterations", "core.matvecs", "core.precond_steps",
         "parallel.shard_dispatches")


def run(workload: str, trace: int, cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc, label: str) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"{label}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        raise AssertionError(f"{label}: outputs failed their checks: {proc.stdout}")
    return result


def check_metrics(result: dict, declared: list, nonzero: bool, label: str) -> None:
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in declared}:
        raise AssertionError(f"{label}: metric names differ from BENCHMARK.json")
    for m in declared:
        got = metrics[m["name"]]
        value = got["value"]
        if got["unit"] != m["unit"]:
            raise AssertionError(f"{label}: {m['name']} unit {got['unit']!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise AssertionError(f"{label}: {m['name']} is not a number")
        if not math.isfinite(value) or (nonzero and value == 0):
            raise AssertionError(f"{label}: {m['name']} = {value}")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    with open(os.path.join(HERE, "layers.json")) as fh:
        mapped = set(json.load(fh)["metrics"])
    if mapped != {m["name"] for m in bench["per_layer"]}:
        raise AssertionError("layers.json and BENCHMARK.json per_layer differ")
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    import serve
    from workloads import LIBRARY

    for workload in (serve.NAME, *LIBRARY):
        timed = result_of(run(workload, 0), f"{workload} trace 0")
        check_metrics(timed, bench["end_to_end"], True, f"{workload} trace 0")
        traced = result_of(run(workload, 1), f"{workload} trace 1")
        check_metrics(traced, bench["per_layer"], False, f"{workload} trace 1")
        again = result_of(run(workload, 1), f"{workload} trace 1 again")
        for name in EXACT:
            first, second = traced["metrics"][name], again["metrics"][name]
            if first != second:
                raise AssertionError(f"{workload}: {name} {first} != {second}")
        if traced["metrics"]["core.iterations"]["value"] <= 0:
            raise AssertionError(f"{workload}: no iterations traced")
        print(f"ok  {workload}", flush=True)

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = run(serve.NAME, 0, cwd=bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        raise AssertionError("benchmark did not fail without src/repro")
    print("ok  fails without the program", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
