"""The benchmark's workloads, driven through the solver's public API.

Three library workloads run in a fresh child process each (``child.py``):

* ``table2-plate41`` -- a cold ``SolverPlan.table2()`` session on the
  assembled plate, then passes over all 13 Table-2 cells at k=1;
* ``stencil-g256`` -- matrix-free Poisson, each pass eight ``solve_cell``
  calls and one k=8 ``solve_cell_block`` on the same columns;
* ``sharded-plate80`` -- assembled plate with a prewarmed pool of two
  workers, each pass one k=8 block serially and once sharded.

``serve-plate20`` is driven from the load process in ``serve.py``.

Right-hand sides are seeded standard-normal columns made here; the
program only receives them.  Every timed operation is recorded as an
``Op``; a non-converged solve or a failed output check marks it failed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

# Called through the package attribute so the traced run's wrapper applies.
import repro.pipeline as pipeline
from repro.pipeline import SolverPlan, SolverSession

#: Table 2 of the paper, plate a=41, eps=1e-7, m = 0, 1, 2, 2P, 3, 3P, 4P..10P.
TABLE2_ROW = [349, 158, 112, 88, 92, 66, 51, 43, 36, 32, 28, 26, 23]


@dataclass
class Op:
    """One timed call into the program."""

    kind: str
    seconds: float
    columns: int
    ok: bool
    m: int = 0
    parametrized: bool = False
    iterations: int = 0


@dataclass
class Record:
    ops: list[Op] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


class _Library:
    """A workload on one ``SolverSession``: ``setup`` then repeated passes.

    ``full`` and ``toy`` are the problem sizes; ``trace_passes`` is the
    fixed number of passes the traced run makes.
    """

    trace_passes = 1

    def __init__(self, size: dict, seed: int):
        self.size = size
        self.seed = seed

    def final_check(self, rec: Record) -> bool:
        return True

    def close(self) -> None:
        self.session.close()


class Table2(_Library):
    name = "table2-plate41"
    full = {"rows": 41, "eps": 1e-7, "pool": 4, "row": TABLE2_ROW}
    toy = {"rows": 6, "eps": 1e-7, "pool": 2, "row": None}
    trace_passes = 3

    def setup(self) -> None:
        problem = pipeline.build_scenario("plate", nrows=self.size["rows"])
        self.session = SolverSession(
            problem, plan=SolverPlan.table2(eps=self.size["eps"])
        ).compile()
        n = problem.f.shape[0]
        rng = np.random.default_rng(self.seed)
        self.rhs = [rng.standard_normal(n) for _ in range(self.size["pool"])]
        self.passes = 0

    def run_pass(self, rec: Record) -> None:
        f = self.rhs[self.passes % len(self.rhs)]
        self.passes += 1
        for m, parametrized in self.session.plan.schedule:
            solve, dt = _timed(self.session.solve_cell, m, parametrized, f=f)
            ok = bool(solve.result.converged)
            if not ok:
                rec.fail(f"cell m={m}{'P' if parametrized else ''} did not converge")
            rec.ops.append(Op("k1", dt, 1, ok, m, parametrized, solve.iterations))

    def final_check(self, rec: Record) -> bool:
        """One pass on the problem's own load reproduces the Table-2 row."""
        row = [
            self.session.solve_cell(m, p).iterations
            for m, p in self.session.plan.schedule
        ]
        expected = self.size["row"]
        if expected is not None and row != expected:
            rec.fail(f"Table-2 row {row} != {expected}")
            return False
        return True


class Stencil(_Library):
    name = "stencil-g256"
    full = {"grid": 256, "m": 2, "k": 8, "pool": 2}
    toy = {"grid": 16, "m": 2, "k": 8, "pool": 1}

    def setup(self) -> None:
        problem = pipeline.build_scenario(
            "poisson", n_grid=self.size["grid"], assemble=False
        )
        self.m = self.size["m"]
        self.session = SolverSession(
            problem, plan=SolverPlan.single(self.m, backend="stencil")
        ).compile()
        n = problem.f.shape[0]
        rng = np.random.default_rng(self.seed)
        self.blocks = [
            rng.standard_normal((n, self.size["k"])) for _ in range(self.size["pool"])
        ]
        self.passes = 0

    def run_pass(self, rec: Record) -> None:
        F = self.blocks[self.passes % len(self.blocks)]
        self.passes += 1
        singles = []
        for j in range(F.shape[1]):
            solve, dt = _timed(self.session.solve_cell, self.m, f=F[:, j])
            ok = bool(solve.result.converged)
            if not ok:
                rec.fail(f"k=1 column {j} did not converge")
            singles.append(solve)
            rec.ops.append(Op("k1", dt, 1, ok, self.m, iterations=solve.iterations))
        block, dt = _timed(self.session.solve_cell_block, self.m, F=F)
        ok = bool(block.result.all_converged)
        for j, single in enumerate(singles):
            if not (
                np.array_equal(block.u[:, j], single.u)
                and int(block.iterations[j]) == single.iterations
            ):
                ok = False
                rec.fail(f"k=8 block column {j} differs from its k=1 solve")
        rec.ops.append(Op("block", dt, F.shape[1], ok, self.m,
                          iterations=int(block.iterations.sum())))


class Sharded(_Library):
    name = "sharded-plate80"
    full = {"rows": 80, "m": 3, "k": 8, "workers": 2, "pool": 2}
    toy = {"rows": 8, "m": 3, "k": 8, "workers": 2, "pool": 1}

    def setup(self) -> None:
        problem = pipeline.build_scenario("plate", nrows=self.size["rows"])
        self.m = self.size["m"]
        self.session = SolverSession(problem, plan=SolverPlan.single(self.m)).compile()
        self.session.prewarm_sharding(self.size["workers"])
        n = problem.f.shape[0]
        rng = np.random.default_rng(self.seed)
        self.blocks = [
            rng.standard_normal((n, self.size["k"])) for _ in range(self.size["pool"])
        ]
        self.passes = 0

    def run_pass(self, rec: Record) -> None:
        F = self.blocks[self.passes % len(self.blocks)]
        self.passes += 1
        k = F.shape[1]
        serial, dt = _timed(self.session.solve_cell_block, self.m, F=F)
        ok = bool(serial.result.all_converged)
        if not ok:
            rec.fail("serial block did not converge")
        rec.ops.append(Op("block", dt, k, ok, self.m,
                          iterations=int(serial.iterations.sum())))
        sharded, dt = _timed(
            self.session.solve_cell_block, self.m, F=F,
            sharding=self.size["workers"],
        )
        ok = bool(sharded.result.all_converged) and (
            np.array_equal(sharded.u, serial.u)
            and np.array_equal(sharded.iterations, serial.iterations)
        )
        if not ok:
            rec.fail("sharded block differs from the serial block")
        rec.ops.append(Op("sharded", dt, k, ok, self.m,
                          iterations=int(sharded.iterations.sum())))

    def close(self) -> None:
        import multiprocessing

        from repro.parallel import shutdown_pools

        self.session.close()
        shutdown_pools()
        for child in multiprocessing.active_children():
            child.join(30)


LIBRARY = {cls.name: cls for cls in (Table2, Stencil, Sharded)}
