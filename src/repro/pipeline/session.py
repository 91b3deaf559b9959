"""SolverSession: compile a plan once, execute many cells and right-hand sides.

The expensive, value-independent work of the m-step multicolor SSOR PCG
method — coloring the problem, permuting into the block system (3.1),
measuring the spectrum of ``P⁻¹K``, factorizing/caching the color-block
triangular kernels, laying out the machine simulators — depends only on the
problem and the plan, never on which schedule cell or right-hand side is
being solved.  Before this module every entry point re-derived some of it
per cell; a :class:`SolverSession` does each piece exactly once and then
serves:

* :meth:`solve_cell` / :meth:`execute` — driver-level solves (the engine
  behind :func:`repro.driver.solve_mstep_ssor`), any number of cells and
  right-hand sides against one compiled state;
* :meth:`solve_cell_block` / :meth:`execute_block` — the multi-RHS
  numerics: all ``k`` columns of an ``(n, k)`` right-hand-side block
  advance through **one** :func:`repro.core.pcg.block_pcg` lockstep per
  cell, batched through the compiled kernels, per-column bitwise
  identical to ``k`` separate solves (:meth:`execute_many` routes
  through this path);
* :meth:`cyber` / :meth:`run_cyber_schedule` — the CYBER 203/205
  simulator, including the batched lockstep pass that runs a whole
  Table-2 schedule through **one** simulator sweep
  (:meth:`repro.machines.cyber.CyberMachine.solve_schedule`);
* :meth:`fem` / :meth:`fem_solve` / :meth:`run_fem_schedule` — Finite
  Element Machine solves on the session's blocked system, including the
  batched Table-3 lockstep pass
  (:meth:`repro.machines.fem_machine.FiniteElementMachine.solve_schedule`).

Both solve methods are one code path over either operator representation.
The plan's backend picks one private representation object per session —
the permuted CSR blocked system, or the matrix-free stencil in natural
ordering — which owns the operator, the permutation in and out, its one
preconditioner realization (:class:`~repro.multicolor.sor.MStepSSOR` or
:class:`~repro.kernels.stencil.StencilSSOR`), the shard recipe and shard
payload, and the ``operator_backend`` label; the cell solve itself never
asks which one it holds.

:attr:`stats` counts the compile-level artifacts (colorings, interval
measurements, applicator factorizations, machine layouts) so tests can
assert structurally that executing N cells × K right-hand sides performs
exactly one of each.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.convergence import StoppingRule
from repro.core.pcg import BlockPCGResult, block_pcg, pcg
from repro.driver import (
    MStepSolve,
    build_blocked_system,
    mstep_coefficients,
    ssor_interval,
)
from repro.fem.matrixfree import stencil_interval, stencil_operator
from repro.kernels.backend import STENCIL
from repro.kernels.stencil import StencilSSOR
from repro.machines import CYBER_203, CyberMachine, FiniteElementMachine
from repro.multicolor.blocked import BlockedMatrix
from repro.multicolor.sor import MStepSSOR
from repro.parallel import (
    ApplicatorRecipe,
    ShardSpec,
    column_groups,
    sharded_block_pcg,
    sharded_schedule,
    shard_token,
    warm_shard,
)
from repro.parallel import shm
from repro.parallel.executor import run_tasks
from repro.parallel.shards import CSRPayload, matrix_token, stencil_description
from repro.pipeline.plan import SolverPlan
from repro.pipeline.problems import build_scenario
from repro.util import require

__all__ = ["BlockMStepSolve", "SessionStats", "SolverSession"]


def _release_tokens(tokens: set) -> None:
    """Free a session's shared-memory publications (GC finalizer target).

    Module-level and handed only the token set so the
    :func:`weakref.finalize` registration holds no reference back to the
    session; :meth:`~repro.parallel.shm.SegmentRegistry.release` is
    pid-guarded, so a forked worker inheriting the set can never unlink
    the parent's segments.
    """
    try:
        reg = shm.registry()
        for token in tuple(tokens):
            reg.release(token)
    except Exception:  # pragma: no cover - interpreter-teardown ordering
        pass
    tokens.clear()


def _normalize_sharding(sharding) -> tuple[int, int | None]:
    """``sharding`` → ``(workers, group)``.

    Accepts ``None`` (serial), an int worker count, or a ``(workers,
    group)`` pair — ``group`` being the columns-per-shard override of
    :func:`repro.parallel.column_groups`.
    """
    if sharding is None:
        return 1, None
    if isinstance(sharding, int):
        return max(sharding, 1), None
    workers, group = sharding
    return max(int(workers), 1), (None if group is None else int(group))


class _AssembledRepresentation:
    """The permuted CSR representation: the multicolor blocked system.

    Solves run on ``blocked.permuted``; right-hand sides are permuted in
    and iterates permuted back out.  The realization is the Conrad–Wallach
    merged sweep :class:`~repro.multicolor.sor.MStepSSOR`; workers of the
    sharded path rebuild it from a recipe plus the operator's CSR arrays,
    shipped through shared memory when enabled.
    """

    label = "csr"

    def __init__(self, blocked: BlockedMatrix):
        self.blocked = blocked
        self.operator = blocked.permuted

    def permute_in(self, F: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(self.blocked.ordering.permute_vector(F))

    def permute_out(self, U: np.ndarray) -> np.ndarray:
        return self.blocked.ordering.unpermute_vector(U)

    def build_applicator(self, coefficients) -> MStepSSOR:
        return MStepSSOR(self.blocked, coefficients)

    def recipe(self, coefficients) -> ApplicatorRecipe:
        ordering = self.blocked.ordering
        return ApplicatorRecipe(
            kind="sweep",
            coefficients=coefficients,
            groups=np.sort(ordering.groups),
            labels=tuple(ordering.labels),
        )

    def shard_handle(self, tokens: set):
        """The operator as a shard payload: shared-memory segments
        (their token recorded in ``tokens``) or the pickled CSR arrays."""
        if not shm.shm_enabled():
            return CSRPayload.from_matrix(self.operator)
        mtoken = matrix_token(self.operator)
        tokens.add(mtoken)
        return shm.registry().publish_operator(mtoken, self.operator)


class _StencilRepresentation:
    """The matrix-free representation: the stencil in natural ordering.

    Nothing is permuted (K is the same matrix, so the iteration is the
    similarity-transformed twin of the permuted CSR run — iterates map
    through the permutation, iteration counts agree exactly).  The one
    realization is :class:`~repro.kernels.StencilSSOR`, whose "build" is
    binding coefficients to the operator; workers rebuild the operator
    from its tiny :class:`~repro.parallel.StencilDescription`, so no
    operator segments are ever published.
    """

    label = STENCIL
    blocked = None

    def __init__(self, operator):
        self.operator = operator

    def permute_in(self, F: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(F)

    def permute_out(self, U: np.ndarray) -> np.ndarray:
        return U

    def build_applicator(self, coefficients) -> StencilSSOR:
        return StencilSSOR(self.operator, coefficients)

    def recipe(self, coefficients) -> ApplicatorRecipe:
        return ApplicatorRecipe(kind="stencil", coefficients=coefficients)

    def shard_handle(self, tokens: set):
        return stencil_description(self.operator)


@dataclass
class SessionStats:
    """Compile-artifact counters — the session's structural contract.

    ``colorings``/``intervals``/``applicator_builds``/``machine_builds``
    count the expensive once-per-session steps; ``solves`` counts the
    cheap per-execution work (one per right-hand side, so a ``k``-wide
    block solve adds ``k``) and ``block_solves`` the batched
    :func:`~repro.core.pcg.block_pcg` passes those columns rode in on.
    A correctly compiled session serving many cells and right-hand sides
    increments only ``solves``/``block_solves`` — one compile for any k.
    """

    colorings: int = 0
    intervals: int = 0
    coefficient_builds: int = 0
    applicator_builds: int = 0
    machine_builds: int = 0
    solves: int = 0
    block_solves: int = 0
    #: Column-group shards dispatched to the repro.parallel executor (a
    #: sharded block solve adds one per group; serial solves add none).
    shard_dispatches: int = 0
    #: Which operator representation the last solve ran on: ``"csr"``
    #: (the assembled, permuted block system) or ``"stencil"`` (the
    #: matrix-free path).  Not a compile count — surfaced by
    #: ``repro request --stats`` and the benchmarks.
    operator_backend: str = "csr"

    def compile_counts(self) -> dict[str, int]:
        return {
            "colorings": self.colorings,
            "intervals": self.intervals,
            "coefficient_builds": self.coefficient_builds,
            "applicator_builds": self.applicator_builds,
            "machine_builds": self.machine_builds,
        }


@dataclass
class BlockMStepSolve:
    """Full record of one m-step SSOR PCG **block** solve (``k`` RHS).

    The block analogue of :class:`repro.driver.MStepSolve`:
    :attr:`result` is the :class:`~repro.core.pcg.BlockPCGResult` of the
    lockstep pass and :attr:`u` holds the ``(n, k)`` iterates in natural
    ordering.  :meth:`column` materializes any column as a plain
    :class:`~repro.driver.MStepSolve`, bitwise identical to the record an
    independent single-RHS solve of that column would produce.
    """

    result: BlockPCGResult
    u: np.ndarray  # (n, k), natural ordering
    m: int
    parametrized: bool
    coefficients: np.ndarray | None
    interval: tuple[float, float] | None
    #: ``None`` for the matrix-free ``"stencil"`` backend (no permutation).
    blocked: BlockedMatrix | None

    @property
    def k(self) -> int:
        """Number of right-hand-side columns."""
        return self.result.k

    @property
    def iterations(self) -> np.ndarray:
        """Per-column completed-iteration counts."""
        return self.result.iterations

    @property
    def label(self) -> str:
        """Table-2/3 row label: ``0``, ``1``, …, or ``2P``, ``3P``, …"""
        if self.m == 0:
            return "0"
        return f"{self.m}P" if self.parametrized else f"{self.m}"

    def column(self, j: int) -> MStepSolve:
        """The j-th right-hand side's solve as a standalone record."""
        return MStepSolve(
            result=self.result.column(j),
            u=np.ascontiguousarray(self.u[:, j]),
            m=self.m,
            parametrized=self.parametrized,
            coefficients=self.coefficients,
            interval=self.interval,
            blocked=self.blocked,
        )


class SolverSession:
    """One problem + one plan, compiled once, executed many times.

    Every solve runs the one preconditioner realization of the plan's
    operator representation: :class:`~repro.multicolor.sor.MStepSSOR`
    over :attr:`blocked` for the CSR backends (``"vectorized"``,
    ``"reference"``), :class:`~repro.kernels.stencil.StencilSSOR` for
    ``"stencil"``.  The ``"reference"`` backend additionally pins the
    machine simulators to their row-sequential kernels.
    """

    def __init__(
        self,
        problem,
        plan: SolverPlan | None = None,
        blocked=None,
        interval: tuple[float, float] | None = None,
    ):
        self.problem = problem
        self.plan = plan if plan is not None else SolverPlan.single(0)
        self.stats = SessionStats()
        self._blocked = blocked
        self._interval = interval
        self._coefficients: dict = {}
        self._applicators: dict = {}
        self._stencil = None
        self._rep = None
        self._machines: dict = {}
        self._compiled = False
        # Shared-memory operator tokens this session published; released
        # when the session is closed or garbage-collected (the registry's
        # atexit hook is only the backstop).
        self._shm_tokens: set[str] = set()
        self._shm_finalizer = weakref.finalize(
            self, _release_tokens, self._shm_tokens
        )

    @classmethod
    def from_scenario(
        cls, name: str, plan: SolverPlan | None = None, **params
    ) -> "SolverSession":
        """Build a session for a registered scenario (see
        :mod:`repro.pipeline.problems`)."""
        return cls(build_scenario(name, **params), plan=plan)

    # ------------------------------------------------------------ compiled state
    @property
    def blocked(self):
        """The multicolor blocked system — colored and permuted once."""
        if self._blocked is None:
            require(
                getattr(self.problem, "k", None) is not None,
                "matrix-free problem (assemble=False) has no blocked "
                "system; only the 'stencil' backend can serve it",
            )
            self._blocked = build_blocked_system(self.problem)
            self.stats.colorings += 1
        return self._blocked

    @property
    def interval(self) -> tuple[float, float]:
        """``[λ₁, λ_n]`` of ``P⁻¹K`` — computed once, reused everywhere.

        ``λ_n = 1`` exactly for the ω = 1 SSOR splitting, so only ``λ₁``
        is computed, by CG–Lanczos on one m = 1 solve
        (:mod:`repro.core.spectral`).  An assembled problem runs it on the
        blocked system (:func:`repro.driver.ssor_interval`) even under the
        stencil backend, so coefficients match the CSR path exactly; a
        matrix-free problem (``k=None``) runs the same helper on the
        stencil operator (:func:`repro.fem.stencil_interval`), which agrees
        with the assembled value to ~10⁻¹³.
        """
        if self._interval is None:
            if getattr(self.problem, "k", None) is None:
                self._interval = stencil_interval(self.stencil())
            else:
                self._interval = ssor_interval(self.blocked)
            self.stats.intervals += 1
        return self._interval

    def stencil(self):
        """The problem's matrix-free operator — built once, cached.

        The stencil analogue of :attr:`blocked`: carries the coloring (the
        operator's ``groups``) without ever permuting or assembling, so
        building it counts as the session's coloring.
        """
        if self._stencil is None:
            self._stencil = stencil_operator(self.problem)
            self.stats.colorings += 1
        return self._stencil

    def coefficients(self, m: int, parametrized: bool) -> np.ndarray | None:
        """The cell's αᵢ under the plan's criterion (cached; None for m = 0)."""
        if m == 0:
            return None
        key = (m, parametrized)
        if key not in self._coefficients:
            interval = self.interval if parametrized else None
            self._coefficients[key] = mstep_coefficients(
                m, parametrized, interval, self.plan.criterion, self.plan.weight
            )
            self.stats.coefficient_builds += 1
        return self._coefficients[key]

    def _representation(self):
        """The operator representation the plan's backend solves on.

        ``"stencil"`` → the matrix-free operator in natural ordering;
        anything else → the permuted CSR blocked system.  Built once per
        session.
        """
        if self._rep is None:
            self._rep = (
                _StencilRepresentation(self.stencil())
                if self.plan.backend == STENCIL
                else _AssembledRepresentation(self.blocked)
            )
        return self._rep

    def applicator(self, m: int, parametrized: bool):
        """The cell's compiled preconditioner (cached; None for m = 0).

        :class:`~repro.multicolor.sor.MStepSSOR` over the permuted
        blocked system on the CSR backends; on the ``"stencil"`` backend
        a :class:`~repro.kernels.StencilSSOR` running the Conrad–Wallach
        merged sweeps color-wise straight off the stencil — no factors,
        so "building" one is just binding coefficients to the operator.
        """
        if m == 0:
            return None
        key = (m, parametrized)
        if key not in self._applicators:
            self._applicators[key] = self._representation().build_applicator(
                self.coefficients(m, parametrized)
            )
            self.stats.applicator_builds += 1
        return self._applicators[key]

    def _shard_recipe(self, m: int, parametrized: bool) -> ApplicatorRecipe:
        """The cell's applicator as a picklable rebuild recipe.

        Worker processes of the sharded block path reconstruct the
        session's realization — the merged multicolor sweep or the
        stencil sweep — from this description plus the shard's operator
        payload, through the same constructor the serial path uses, so
        iterates stay bitwise identical.
        """
        if m == 0:
            return ApplicatorRecipe(kind="none")
        return self._representation().recipe(self.coefficients(m, parametrized))

    def compile(self) -> "SolverSession":
        """Force every plan artifact now (idempotent).

        Touches the operator representation (blocked system or stencil),
        the interval (iff some cell is parametrized), and every cell's
        coefficients and applicator, so a compiled session's executes
        perform no factorization work at all.
        """
        if self._compiled:
            return self
        self._representation()
        if self.plan.needs_interval:
            _ = self.interval
        for m, parametrized in self.plan.schedule:
            self.applicator(m, parametrized)
        self._compiled = True
        return self

    def prewarm_sharding(self, sharding) -> int:
        """Pay the sharded path's one-time costs now, not on the first solve.

        Compiles the session, publishes the operator for the workers (the
        permuted CSR arrays go to the shared-memory registry once, reused
        by every later dispatch against this session; a stencil ships as
        its tiny :class:`~repro.parallel.StencilDescription`), starts the
        worker pool, and dispatches :func:`~repro.parallel.warm_shard`
        specs so each worker attaches the operator and builds every plan
        cell's applicator *before* the first timed solve.  Returns the
        number of warm dispatches issued; serial sharding (``None`` or one
        worker) is a no-op.

        Warm-started this way, a steady-state
        :meth:`solve_cell_block` dispatch ships only column indices and a
        recipe fingerprint — the zero-copy plan's whole point.
        """
        workers, _ = _normalize_sharding(sharding)
        if workers <= 1:
            return 0
        self.compile()
        rep = self._representation()
        recipes = {}
        for m, parametrized in self.plan.schedule:
            recipe = self._shard_recipe(m, parametrized)
            recipes.setdefault(shard_token(rep.operator, recipe), recipe)
        handle = rep.shard_handle(self._shm_tokens)
        empty = np.empty((0, 0))
        specs = [
            ShardSpec(
                token=token, matrix=handle, recipe=recipe,
                columns=np.arange(0), F=empty,
            )
            for token, recipe in recipes.items()
            for _ in range(workers)  # one warm task per pool slot
        ]
        run_tasks(warm_shard, specs, workers)
        return len(specs)

    def calibrated_model(self, which: str = "fem"):
        """A :class:`~repro.analysis.models.PerformanceModel` calibrated on
        this problem's simulated machine layout.

        ``which`` names the machine the (4.1) quantities are charged on:
        ``"fem"`` (the Finite Element Machine, the default) or ``"cyber"``
        (the CYBER vector timing model).  Returns ``None`` when the
        problem has no plate mesh to lay a machine out on — callers fall
        back to a default B/A ratio.  The machine itself comes from the
        session's cache, so repeated calibrations build nothing.  Shared
        by the CLI's ``--m auto`` and the serving daemon's ``m = "auto"``
        resolution.
        """
        from repro.analysis import PerformanceModel
        from repro.fem.model_problems import PlateProblem

        problem = self.problem
        if not isinstance(problem, PlateProblem) or getattr(
            problem, "mesh", None
        ) is None:
            return None
        if problem.k is None:
            # Matrix-free problem: no assembled system to lay a machine
            # out on — callers fall back to the default B/A ratio.
            return None
        if which == "cyber":
            return PerformanceModel.from_cyber_machine(self.cyber())
        return PerformanceModel.from_fem_machine(self.fem(1))

    def close(self) -> None:
        """Release this session's shared-memory publications (idempotent).

        Also runs automatically when the session is garbage-collected;
        worker pools and any segments published outside a session are
        torn down by :func:`repro.parallel.shutdown_pools` instead.
        """
        self._shm_finalizer()

    # ----------------------------------------------------------------- execution
    def _cell(self, m: int, parametrized: bool):
        """The cell's ``(coefficients, interval)`` record fields."""
        if m == 0:
            return None, self._interval
        interval = self.interval if parametrized else self._interval
        return self.coefficients(m, parametrized), interval

    def solve_cell(
        self,
        m: int,
        parametrized: bool = False,
        f: np.ndarray | None = None,
        eps: float | None = None,
        stopping: StoppingRule | None = None,
        maxiter: int | None = None,
        track_residual: bool = False,
    ) -> MStepSolve:
        """One cell against the compiled state, for any right-hand side.

        Numerically identical to :func:`repro.driver.solve_mstep_ssor` —
        which since this refactor *is* a one-cell session — but coloring,
        interval, coefficients and the preconditioner factorization come
        from the session caches.  Any backend: the session's operator
        representation (permuted CSR or natural-order stencil) supplies
        the operator, the applicator and the permutation in and out.
        """
        require(m >= 0, "m must be non-negative")
        rep = self._representation()
        f = self.problem.f if f is None else f
        coefficients, interval = self._cell(m, parametrized)
        result = pcg(
            rep.operator,
            rep.permute_in(np.asarray(f, dtype=float)),
            preconditioner=self.applicator(m, parametrized),
            eps=eps if eps is not None else self.plan.eps,
            stopping=stopping,
            maxiter=maxiter if maxiter is not None else self.plan.maxiter,
            track_residual=track_residual,
        )
        self.stats.solves += 1
        self.stats.operator_backend = rep.label
        return MStepSolve(
            result=result,
            u=rep.permute_out(result.u),
            m=m,
            parametrized=parametrized,
            coefficients=coefficients,
            interval=interval,
            blocked=rep.blocked,
        )

    def solve_cell_block(
        self,
        m: int,
        parametrized: bool = False,
        F: np.ndarray | None = None,
        eps: float | None = None,
        stopping: StoppingRule | None = None,
        maxiter: int | None = None,
        track_residual: bool = False,
        sharding=None,
    ) -> BlockMStepSolve:
        """One cell against an ``(n, k)`` block of right-hand sides.

        The multi-RHS analogue of :meth:`solve_cell`: all ``k`` columns
        advance through one :func:`~repro.core.pcg.block_pcg` lockstep
        against the compiled caches — one batched matrix product and one
        batched preconditioner application per outer iteration, columns
        retiring individually as they converge.  Per-column iterates,
        iteration counts and counters are bitwise identical to ``k``
        separate :meth:`solve_cell` calls (the acceptance contract of the
        block path, pinned in the tests).

        ``F`` may be any memory order (Fortran-ordered or strided blocks
        are handled); ``None`` solves the problem's own load as a
        single-column block.

        ``sharding`` — ``workers`` or ``(workers, group)`` — fans the
        block's column groups across worker processes
        (:func:`repro.parallel.sharded_block_pcg`).  Workers rebuild the
        cell's applicator from a picklable recipe derived from the
        compiled plan (never from a pickled live applicator), so every
        column stays bitwise identical to the serial path for any
        worker/group partition.  ``None`` (or 1 worker, or ``k ≤ 1``)
        is exactly the serial lockstep.
        """
        require(m >= 0, "m must be non-negative")
        rep = self._representation()
        if F is None:
            F = np.asarray(self.problem.f, dtype=float)[:, None]
        F = np.asarray(F, dtype=float)
        if F.ndim == 1:
            F = F[:, None]
        require(F.ndim == 2, "F must be an (n, k) block of right-hand sides")
        F = rep.permute_in(F)
        coefficients, interval = self._cell(m, parametrized)

        workers, group = _normalize_sharding(sharding)
        groups = column_groups(F.shape[1], workers, group) if workers > 1 else []
        eps_value = eps if eps is not None else self.plan.eps
        maxiter_value = maxiter if maxiter is not None else self.plan.maxiter
        if len(groups) > 1:
            # Workers rebuild the applicator from the recipe; the parent
            # never builds (or pickles) a live one on this path.
            result = sharded_block_pcg(
                rep.operator,
                F,
                recipe=self._shard_recipe(m, parametrized),
                workers=workers,
                group=group,
                eps=eps_value,
                stopping=stopping,
                maxiter=maxiter_value,
                track_residual=track_residual,
            )
            self.stats.shard_dispatches += len(groups)
            if shm.shm_enabled():
                # The dispatch published segments under the operator's
                # token; tie their lifetime to this session.
                self._shm_tokens.add(matrix_token(rep.operator))
        else:
            result = block_pcg(
                rep.operator,
                F,
                preconditioner=self.applicator(m, parametrized),
                eps=eps_value,
                stopping=stopping,
                maxiter=maxiter_value,
                track_residual=track_residual,
            )
        self.stats.solves += result.k
        self.stats.block_solves += 1
        self.stats.operator_backend = rep.label
        return BlockMStepSolve(
            result=result,
            u=rep.permute_out(result.u),
            m=m,
            parametrized=parametrized,
            coefficients=coefficients,
            interval=interval,
            blocked=rep.blocked,
        )

    def execute(self, f: np.ndarray | None = None) -> list[MStepSolve]:
        """Every plan cell in order against one right-hand side."""
        self.compile()
        return [
            self.solve_cell(m, parametrized, f=f)
            for m, parametrized in self.plan.schedule
        ]

    def execute_block(
        self, F: np.ndarray | None = None, sharding=None
    ) -> list[BlockMStepSolve]:
        """Every plan cell in order against an ``(n, k)`` block of RHS.

        One compile serves any ``k``: the session's coloring, interval,
        coefficients and factorized applicators are built exactly once
        regardless of the block width (``stats.compile_counts()`` is the
        structural witness; the tests assert it).  ``sharding`` —
        ``workers`` or ``(workers, group)`` — fans every cell's column
        groups across worker processes, bitwise identical to the serial
        path (see :meth:`solve_cell_block`).
        """
        self.compile()
        return [
            self.solve_cell_block(m, parametrized, F=F, sharding=sharding)
            for m, parametrized in self.plan.schedule
        ]

    def execute_many(self, rhs_list) -> list[list[MStepSolve]]:
        """Every plan cell for every right-hand side (one compile serves all).

        Since the block-PCG refactor the right-hand sides are stacked into
        one ``(n, k)`` block and each cell runs a single
        :func:`~repro.core.pcg.block_pcg` lockstep over all of them; the
        returned per-RHS records are bitwise identical to the former
        solve-at-a-time path (block-PCG's per-column contract).
        """
        rhs = [np.asarray(f, dtype=float) for f in rhs_list]
        if not rhs:
            self.compile()
            return []
        block_solves = self.execute_block(np.stack(rhs, axis=1))
        return [
            [cell.column(j) for cell in block_solves]
            for j in range(len(rhs))
        ]

    # ------------------------------------------------------------------ machines
    def schedule_cells(self) -> list[tuple[int, np.ndarray | None]]:
        """The plan's cells as ``(m, coefficients)`` pairs for the machines."""
        return [
            (m, self.coefficients(m, parametrized))
            for m, parametrized in self.plan.schedule
        ]

    def cyber(self, timing=None) -> CyberMachine:
        """The CYBER simulator for this problem (laid out once, cached)."""
        timing = timing if timing is not None else CYBER_203
        key = ("cyber", timing)
        if key not in self._machines:
            self._machines[key] = CyberMachine(self.problem, timing)
            self.stats.machine_builds += 1
        return self._machines[key]

    def run_cyber_schedule(
        self,
        batched: bool = True,
        eps: float | None = None,
        maxiter: int | None = None,
        timing=None,
        workers: int = 1,
        group: int | None = None,
    ):
        """The plan's full schedule on the CYBER simulator.

        ``batched=True`` (default) runs every cell through **one** lockstep
        simulator pass — the batched ``(n, k)`` merged-sweep kernels with
        per-cell charge replay of
        :meth:`~repro.machines.cyber.CyberMachine.solve_schedule`, bitwise
        identical to the per-column path in iteration counts, clocks, op
        ledgers and iterates.  ``batched=False`` (or a ``"reference"``
        plan backend) keeps the cell-at-a-time pass for pinning.

        ``workers > 1`` fans the schedule's cells across worker processes
        (:func:`repro.parallel.sharded_schedule`): each worker lays out
        its own machine from the pickled problem and runs its cell chunk
        through ``solve_schedule``, whose partition-invariant per-cell
        contract keeps every record bitwise identical to the
        single-process pass.  ``group`` bounds the cells per lockstep
        pass — the ``(workers, group)`` 2-D shard grid of
        :func:`repro.parallel.sharded_schedule`.
        """
        require(
            self.plan.backend != STENCIL,
            "the machine simulators replay the assembled multicolor "
            "system; the stencil backend has no machine path",
        )
        cells = self.schedule_cells()
        eps = eps if eps is not None else self.plan.eps
        if batched and self.plan.backend != "reference":
            if workers > 1 or group is not None:
                return sharded_schedule(
                    self.problem, cells, machine="cyber", workers=workers,
                    group=group, eps=eps, maxiter=maxiter, timing=timing,
                )
            return self.cyber(timing).solve_schedule(
                cells, eps=eps, maxiter=maxiter
            )
        machine = self.cyber(timing)
        return [
            machine.solve(
                m, coeffs, eps=eps, maxiter=maxiter, backend=self.plan.backend
            )
            for m, coeffs in cells
        ]

    def run_fem_schedule(
        self,
        n_procs: int = 1,
        batched: bool = True,
        eps: float | None = None,
        maxiter: int | None = None,
        workers: int = 1,
        group: int | None = None,
        **kwargs,
    ):
        """The plan's full schedule on the Finite Element Machine.

        ``batched=True`` (default) runs every cell through **one**
        lockstep simulator pass — the FEM analogue of
        :meth:`run_cyber_schedule`, batching the active cells' direction
        vectors and residuals into ``(n, k)`` blocks
        (:meth:`~repro.machines.fem_machine.FiniteElementMachine.solve_schedule`)
        — bitwise identical to the per-cell path in iteration counts,
        charged clocks, communication ledgers and iterates.
        ``batched=False`` (or a ``"reference"`` plan backend) keeps the
        cell-at-a-time pass for pinning.

        Both passes precondition through the machine's own SSOR
        splitting (the FEM machine owns that realization, as
        :meth:`fem_solve` does); it is factorized once per machine, which
        the session itself caches, so repeated schedule runs rebuild
        nothing.

        ``workers > 1`` fans the cells across worker processes — the FEM
        analogue of :meth:`run_cyber_schedule`'s sharded pass, every
        per-cell record (iterations, charged clocks, communication
        ledgers, iterates) bitwise identical to the single-process
        schedule by the partition-invariance of ``solve_schedule``;
        ``group`` bounds the cells per lockstep pass (the 2-D grid).
        """
        require(
            self.plan.backend != STENCIL,
            "the machine simulators replay the assembled multicolor "
            "system; the stencil backend has no machine path",
        )
        cells = self.schedule_cells()
        eps = eps if eps is not None else self.plan.eps
        if (
            (workers > 1 or group is not None)
            and batched
            and self.plan.backend != "reference"
        ):
            return sharded_schedule(
                self.problem, cells, machine="fem", workers=workers,
                group=group, eps=eps, maxiter=maxiter, n_procs=n_procs,
                backend=self.plan.backend,
                timing=kwargs.get("timing"),
                reduction=kwargs.get("reduction", "software"),
            )
        machine = self.fem(n_procs, **kwargs)
        if batched and self.plan.backend != "reference":
            return machine.solve_schedule(
                cells, eps=eps, maxiter=maxiter, backend=self.plan.backend
            )
        return [
            machine.solve(
                m, coeffs, eps=eps, maxiter=maxiter, backend=self.plan.backend
            )
            for m, coeffs in cells
        ]

    def fem(self, n_procs: int = 1, **kwargs) -> FiniteElementMachine:
        """A Finite Element Machine sharing the session's blocked system."""
        key = ("fem", n_procs, tuple(sorted(kwargs.items())))
        if key not in self._machines:
            self._machines[key] = FiniteElementMachine(
                self.problem, n_procs, blocked=self.blocked, **kwargs
            )
            self.stats.machine_builds += 1
        return self._machines[key]

    def fem_solve(
        self,
        m: int,
        parametrized: bool = False,
        n_procs: int = 1,
        eps: float | None = None,
        **kwargs,
    ):
        """One FEM-simulator cell with the session's coefficients.

        The machine (cached per layout) preconditions through its own
        cached SSOR splitting on the plan's kernel backend.
        """
        self.stats.solves += 1
        return self.fem(n_procs, **kwargs).solve(
            m,
            self.coefficients(m, parametrized),
            eps=eps if eps is not None else self.plan.eps,
            backend=self.plan.backend,
        )
