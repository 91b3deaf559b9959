"""The ``serve-plate20`` workload: closed-loop clients against ``repro serve``.

Timed runs start the daemon as its own process (``python -m repro serve``
with default settings on an ephemeral port) and drive it from this
process with two closed-loop connections; each sends its next request
only after the previous reply.  Requests carry an explicit seeded ``rhs``
and alternate between the CSR and the ``stencil`` backend.  The traced
run hosts the daemon in this process (``start_server_thread``) so the
span wrappers of ``tracing.py`` see its solve thread.

Every reply is checked afterwards: its ``u`` and iteration count must
equal, bitwise, an in-process ``SolverSession.solve_cell_block`` of the
same ``rhs`` and system key (one reference solve per key and ``rhs``).
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

import report
from repro.pipeline import SolverPlan, SolverSession, build_scenario
from repro.serving import ServeClient
from repro.serving.protocol import ProtocolError

NAME = "serve-plate20"
FULL = {"rows": 20, "m": 3, "eps": 1e-6, "clients": 2, "pool": 16, "trace_requests": 40}
TOY = {"rows": 6, "m": 3, "eps": 1e-6, "clients": 2, "pool": 4, "trace_requests": 6}
#: CSR (the plan's default backend) and matrix-free, split 50/50.
BACKENDS = (None, "stencil")


@dataclass
class Sample:
    """One request: client-side latency plus the reply's own fields."""

    latency: float
    backend: str | None
    rhs: int
    ok: bool
    queue_s: float = 0.0
    solve_s: float = 0.0
    batch_width: int = 0
    cache_hit: bool = False
    iterations: int = 0
    u: np.ndarray | None = None


class ServeWorkload:
    def __init__(self, size: dict, seed: int):
        self.size = size
        n = build_scenario("plate", nrows=size["rows"]).f.shape[0]
        rng = np.random.default_rng(seed)
        self.rhs = [rng.standard_normal(n) for _ in range(size["pool"])]
        self.problems: list[str] = []

    # -------------------------------------------------------------- traffic
    def _solve(self, client, backend, j) -> Sample:
        size = self.size
        t0 = time.perf_counter()
        try:
            reply = client.solve(
                scenario="plate", rows=size["rows"], m=size["m"],
                eps=size["eps"], backend=backend, rhs=self.rhs[j],
            )
        except ProtocolError as exc:
            self.problems.append(f"error reply: {exc}")
            return Sample(time.perf_counter() - t0, backend, j, False)
        latency = time.perf_counter() - t0
        if not reply.converged:
            self.problems.append(f"reply for rhs {j} did not converge")
        return Sample(
            latency, backend, j, reply.converged, reply.queue_s, reply.solve_s,
            reply.batch_width, reply.cache_hit, reply.iterations, reply.u,
        )

    def warm(self, host, port) -> None:
        """First request per system key: the daemon compiles it."""
        with ServeClient(host, port) as client:
            for backend in BACKENDS:
                self._solve(client, backend, 0)

    def closed_loop(self, host, port, seconds=None, count=None) -> list[Sample]:
        """Each client sends until ``seconds`` pass or it sent ``count``."""
        clients = self.size["clients"]
        out: list[list[Sample]] = [[] for _ in range(clients)]
        errors: list[BaseException] = []
        deadline = time.perf_counter() + seconds if seconds is not None else None

        def client_loop(i: int) -> None:
            try:
                with ServeClient(host, port) as client:
                    j = 0
                    while (count is None or j < count) and (
                        deadline is None or time.perf_counter() < deadline
                    ):
                        backend = BACKENDS[(i + j) % len(BACKENDS)]
                        rhs = (i * 7 + j) % len(self.rhs)
                        out[i].append(self._solve(client, backend, rhs))
                        j += 1
            except BaseException as exc:  # re-raised in the caller below
                errors.append(exc)

        threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(clients)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        return [s for samples in out for s in samples]

    # --------------------------------------------------------------- checks
    def check(self, samples: list[Sample]) -> int:
        """Bitwise-compare replies with in-process solves; returns failures."""
        size = self.size
        sessions = {}
        for backend in BACKENDS:
            params = {"assemble": False} if backend == "stencil" else {}
            problem = build_scenario("plate", nrows=size["rows"], **params)
            plan = SolverPlan.single(
                size["m"], False, eps=size["eps"], omega=1.0, backend=backend,
                block_rhs=8,
            )
            sessions[backend] = SolverSession(problem, plan=plan).compile()
        references = {}
        failed = 0
        for s in samples:
            if not s.ok:
                continue
            key = (s.backend, s.rhs)
            if key not in references:
                references[key] = sessions[s.backend].solve_cell_block(
                    size["m"], False, F=self.rhs[s.rhs][:, None]
                )
            block = references[key]
            if not (
                np.array_equal(block.u[:, 0], s.u)
                and int(block.iterations[0]) == s.iterations
            ):
                failed += 1
                self.problems.append(f"reply for rhs {s.rhs} ({s.backend}) != local solve")
        for session in sessions.values():
            session.close()
        return failed


# ---------------------------------------------------------------- daemon process
def start_daemon(root: str) -> tuple[subprocess.Popen, str, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )
    banner = proc.stdout.readline()
    if "listening on " not in banner:
        stop_daemon(proc, None, None)
        raise RuntimeError(f"repro serve did not start: {banner!r}")
    address = banner.split("listening on ", 1)[1].split()[0]
    host, port = address.rsplit(":", 1)
    return proc, host, int(port)


def stop_daemon(proc, host, port) -> None:
    """Graceful ``shutdown`` op, then wait; kill if that fails."""
    try:
        if host is None:
            raise OSError("daemon address unknown")
        if proc.poll() is None:
            with ServeClient(host, port, timeout=30) as client:
                client.shutdown()
        proc.communicate(timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        proc.kill()
        proc.communicate()


def peak_rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc status")


def cold_setup(wl: ServeWorkload, root: str):
    """Daemon process start → first compile of both keys; returns its time."""
    t0 = time.perf_counter()
    proc, host, port = start_daemon(root)
    try:
        wl.warm(host, port)
    except BaseException:
        stop_daemon(proc, host, port)
        raise
    return time.perf_counter() - t0, (proc, host, port)


def run_timed(root: str, size: dict, seed: int, seconds: float, setup_budget: float):
    """Untraced run: setup samples, the timed closed loop, checks."""
    wl = ServeWorkload(size, seed)
    setup_s, daemon = cold_setup(wl, root)
    proc, host, port = daemon
    try:
        t0 = time.perf_counter()
        samples = wl.closed_loop(host, port, seconds=seconds)
        wall = time.perf_counter() - t0
        with ServeClient(host, port) as client:
            errors = client.stats()["stats"]["errors"]
        rss_kb = peak_rss_kb(proc.pid)
    finally:
        stop_daemon(proc, host, port)
    setups = [setup_s]
    while len(setups) < 3 and sum(setups) + max(setups) <= setup_budget:
        extra, daemon = cold_setup(wl, root)
        stop_daemon(*daemon)
        setups.append(extra)
    failed = sum(not s.ok for s in samples) + wl.check(samples)
    if errors:
        wl.problems.append(f"daemon counted {errors} errors")
    good = [s for s in samples if s.ok]
    return {
        "setups": setups,
        "attempted": len(samples),
        "failed": failed,
        "correct": failed == 0 and errors == 0,
        "rhs_per_s": len(good) / wall,
        "latencies": [s.latency for s in good],
        "peak_rss_mb": rss_kb / 1024.0,
        "problems": wl.problems,
    }


def run_traced(size: dict, seed: int, trace_out: str):
    """Traced run: in-process daemon, fixed requests untraced then traced."""
    import tracing
    from repro.serving import start_server_thread
    from repro.serving.protocol import parse_solve_request

    tracer = tracing.Tracer()
    tracing.install(tracer)
    wl = ServeWorkload(size, seed)
    tracer.phase = "setup"
    handle = start_server_thread()
    try:
        wl.warm(handle.host, handle.port)
        tracer.phase = None
        count = size["trace_requests"]
        untraced = wl.closed_loop(handle.host, handle.port, count=count)
        tracer.phase = "timed"
        traced = wl.closed_loop(handle.host, handle.port, count=count)
        tracer.phase = None
        with ServeClient(handle.host, handle.port) as client:
            errors = client.stats()["stats"]["errors"]
        stats = {"colorings": 0, "intervals": 0, "applicator_builds": 0}
        for backend in BACKENDS:
            payload = {"scenario": "plate", "rows": size["rows"], "m": size["m"],
                       "eps": size["eps"], "backend": backend}
            entry, _ = handle.server.cache.get(parse_solve_request(payload))
            for key, value in entry.session.stats.compile_counts().items():
                if key in stats:
                    stats[key] += value
    finally:
        handle.stop()
    tracer.dump(trace_out)
    failed = sum(not s.ok for s in untraced + traced) + wl.check(untraced + traced)

    good = [s for s in traced if s.ok]
    latency = sum(s.latency for s in good)
    queue = sum(s.queue_s for s in good)
    solve = sum(s.solve_s for s in good)
    transport = latency - queue - solve
    spans = sum(tracer.self_by_name("timed").values())
    layers = {
        "serving.queue_wait_ms": 1e3 * queue / len(good),
        "serving.solve_ms": 1e3 * solve / len(good),
        "serving.transport_ms": 1e3 * transport / len(good),
        "serving.batch_width_mean": float(np.mean([s.batch_width for s in good])),
        "serving.cache_hit_ratio": float(np.mean([s.cache_hit for s in good])),
        "serving.errors": errors,
    }
    layers.update(report.solver_layers(tracer, stats, 0))
    layers.update(report.fit_model([]))
    # Queue wait and transport are timed by the daemon and the client; what
    # the solve thread's spans do not cover of solve_s is unattributed.
    layers["trace.unattributed_frac"] = (solve - spans) / latency
    layers["trace.overhead_frac"] = (
        latency / sum(s.latency for s in untraced if s.ok) - 1.0
    )
    return {
        "layers": layers,
        "attempted": len(untraced) + len(traced),
        "failed": failed,
        "correct": failed == 0 and errors == 0,
        "problems": wl.problems,
    }
