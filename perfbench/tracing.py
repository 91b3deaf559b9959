"""Span tracing around the calls into the solver's layers.

The benchmark installs wrappers on the public functions of each layer
(``repro.pipeline``, ``repro.core``, ``repro.multicolor``,
``repro.kernels``, ``repro.fem``, ``repro.parallel``) by replacing module
attributes and class methods from here; no program code is changed.  A
wrapped call records one span -- name, start, end, parent -- into memory,
and the spans of one operation share an operation id.  The self time of a
span is its duration minus the time its child spans cover; summing self
times per layer attributes the wall time of an operation to the layers.

Only the process that installed the wrappers records: worker processes
forked from it inherit the wrappers but call straight through.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict

class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "phase", "child_s")

    def __init__(self, sid, name, start, parent, op, phase):
        self.id = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.phase = phase
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """In-memory span recorder; ``phase`` None means tracing is off."""

    def __init__(self):
        self.pid = os.getpid()
        self.phase: str | None = None
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs):
        if self.phase is None or os.getpid() != self.pid:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else None
        op = parent.op if parent is not None else next(self._ops)
        span = Span(next(self._ids), name, 0.0, parent, op, self.phase)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_s += span.end - span.start
            with self._lock:
                self.spans.append(span)

    @property
    def counting(self) -> bool:
        """Counts are kept for the timed phase of the installing process."""
        return self.phase == "timed" and os.getpid() == self.pid

    def wrap(self, name, fn, on_result=None, on_args=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_args is not None and self.counting:
                on_args(self, args)
            result = self.call(name, fn, args, kwargs)
            if on_result is not None and self.counting:
                on_result(self, result)
            return result

        return traced

    # ------------------------------------------------------------ reduction
    def in_phase(self, phase: str) -> list[Span]:
        return [s for s in self.spans if s.phase == phase]

    def self_by_name(self, phase: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.in_phase(phase):
            out[s.name] += s.self_s
        return out

    def total_by_name(self, phase: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.in_phase(phase):
            out[s.name] += s.end - s.start
        return out

    def calls_by_name(self, phase: str) -> Counter:
        return Counter(s.name for s in self.in_phase(phase))

    def dump(self, path) -> None:
        """Write every span as one JSON document (columnar, names interned)."""
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = min((s.start for s in self.spans), default=0.0)
        doc = {
            "names": names,
            "columns": ["id", "name", "start_s", "end_s", "parent", "op", "phase"],
            "spans": [
                [s.id, index[s.name], round(s.start - t0, 9), round(s.end - t0, 9),
                 -1 if s.parent is None else s.parent.id, s.op, s.phase]
                for s in self.spans
            ],
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _count_pcg(tracer, result):
    tracer.counts["iterations"] += int(result.iterations)
    tracer.counts["matvecs"] += result.counter.matvecs
    tracer.counts["precond_steps"] += result.counter.precond_steps


def _count_block(tracer, result):
    tracer.counts["iterations"] += int(sum(int(i) for i in result.iterations))
    for c in result.counters:
        tracer.counts["matvecs"] += c.matvecs
        tracer.counts["precond_steps"] += c.precond_steps


def _operand_bytes(x, out) -> int:
    # x is read once, out is read and written (the kernels accumulate).
    return x.nbytes + 2 * out.nbytes


def _count_stencil_bytes(tracer, args):
    op, x, out = args[:3]
    tracer.counts["matvec_bytes"] += op.values.nbytes + _operand_bytes(x, out)


def _count_csr_bytes(tracer, args):
    a, x, out = args[:3]
    tracer.counts["matvec_bytes"] += (
        a.data.nbytes + a.indices.nbytes + a.indptr.nbytes + _operand_bytes(x, out)
    )


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    import importlib

    import scipy.sparse as sp

    # import_module: ``repro.core.pcg`` the attribute is the function.
    core_pcg = importlib.import_module("repro.core.pcg")
    par_block = importlib.import_module("repro.parallel.block")
    pipeline = importlib.import_module("repro.pipeline")
    session_mod = importlib.import_module("repro.pipeline.session")
    daemon_mod = importlib.import_module("repro.serving.daemon")
    from repro.kernels.stencil import StencilOperator, StencilSSOR
    from repro.multicolor.sor import MStepSSOR
    from repro.pipeline import SolverSession

    def patch(owner, attr, name, on_result=None, on_args=None):
        fn = getattr(owner, attr)
        setattr(owner, attr, tracer.wrap(name, fn, on_result, on_args))

    def csr_only(fn):
        # ops.matvec_into/matvec_accumulate hand matrix-free operators to
        # their own (separately wrapped) methods; only CSR is a kernel here.
        traced = tracer.wrap("kernels.csr_matvec", fn, on_args=_count_csr_bytes)

        @functools.wraps(fn)
        def dispatch(a, *args):
            return traced(a, *args) if sp.issparse(a) else fn(a, *args)

        return dispatch

    # repro.serving (the daemon's solve thread; the rest comes from replies)
    patch(daemon_mod.SessionCache, "get", "serving.cache_get")
    # repro.pipeline
    patch(SolverSession, "solve_cell", "pipeline.solve_cell")
    patch(SolverSession, "solve_cell_block", "pipeline.solve_cell_block")
    patch(SolverSession, "compile", "pipeline.compile")
    # repro.parallel (prewarm is a session method, its work is the pool's)
    patch(SolverSession, "prewarm_sharding", "parallel.prewarm")
    patch(session_mod, "sharded_block_pcg", "parallel.sharded_block_pcg", _count_block)
    patch(session_mod, "run_tasks", "parallel.dispatch")
    patch(par_block, "run_tasks", "parallel.dispatch")
    # repro.fem (the benchmark itself builds through repro.pipeline)
    patch(pipeline, "build_scenario", "fem.build")
    patch(session_mod, "build_scenario", "fem.build")
    patch(daemon_mod, "build_scenario", "fem.build")
    patch(session_mod, "stencil_operator", "fem.build")
    # repro.core
    patch(session_mod, "pcg", "core.pcg", _count_pcg)
    patch(session_mod, "block_pcg", "core.block_pcg", _count_block)
    patch(session_mod, "ssor_interval", "core.interval")
    patch(session_mod, "stencil_interval", "core.interval")
    patch(core_pcg, "inner", "core.inner")
    # repro.multicolor
    patch(session_mod, "build_blocked_system", "multicolor.coloring")
    patch(MStepSSOR, "apply", "multicolor.sweep")
    # repro.kernels
    for attr in ("matvec_into", "matvec_accumulate"):
        patch(StencilOperator, attr, "kernels.matvec", on_args=_count_stencil_bytes)
    patch(StencilSSOR, "apply", "kernels.sweep")
    for attr in ("matvec_into", "matvec_accumulate"):
        setattr(core_pcg, attr, csr_only(getattr(core_pcg, attr)))
