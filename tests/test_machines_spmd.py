"""Tests for the real SPMD execution engine.

The engine distributes data and messages for real; these tests prove
(1) the distributed numerics agree with the reference solver,
(2) results are independent of the processor count,
(3) the *measured* message ledger matches the static border counts that
    the FiniteElementMachine cost model charges — cross-validating the
    Table-3 cost model through an independent code path.
"""

import numpy as np
import pytest

from repro import plate_problem, solve_mstep_ssor
from repro.driver import build_blocked_system, mstep_coefficients, ssor_interval
from repro.machines import Assignment, FiniteElementMachine, ProcessorGrid
from repro.machines.spmd import SPMDSolver


@pytest.fixture(scope="module")
def plate():
    return plate_problem(6)


@pytest.fixture(scope="module")
def blocked(plate):
    return build_blocked_system(plate)


@pytest.fixture(scope="module")
def interval(blocked):
    return ssor_interval(blocked)


def make_solver(plate, blocked, n_procs):
    grid = ProcessorGrid.for_count(n_procs, plate.mesh)
    assignment = Assignment.rectangles(plate.mesh, grid)
    return SPMDSolver(plate, assignment, blocked=blocked)


class TestDistributedCorrectness:
    @pytest.mark.parametrize("n_procs", [1, 2, 5])
    @pytest.mark.parametrize("m, par", [(0, False), (1, False), (3, True)])
    def test_matches_reference(self, plate, blocked, interval, n_procs, m, par):
        solver = make_solver(plate, blocked, n_procs)
        coeffs = mstep_coefficients(m, par, interval) if m else None
        sim = solver.solve(m, coeffs, eps=1e-6)
        ref = solve_mstep_ssor(
            plate, m, parametrized=par, interval=interval, blocked=blocked, eps=1e-6
        )
        assert sim.converged
        # Local kernels reorder column sums, so agreement is to roundoff.
        assert abs(sim.iterations - ref.iterations) <= 2
        assert sim.u_natural == pytest.approx(ref.u, rel=1e-4, abs=1e-7)

    @pytest.mark.parametrize("n_procs", [2, 3, 5])
    def test_solution_solves_system(self, plate, blocked, n_procs):
        solver = make_solver(plate, blocked, n_procs)
        sim = solver.solve(2, np.ones(2), eps=1e-8)
        resid = np.max(np.abs(plate.f - plate.k @ sim.u_natural))
        assert resid < 1e-6

    def test_scatter_gather_roundtrip(self, plate, blocked):
        solver = make_solver(plate, blocked, 5)
        rng = np.random.default_rng(0)
        x = rng.normal(size=solver.n)
        assert np.array_equal(solver.gather(solver.scatter(x)), x)

    def test_distributed_matvec_matches_global(self, plate, blocked):
        solver = make_solver(plate, blocked, 5)
        rng = np.random.default_rng(1)
        x = rng.normal(size=solver.n)
        xd = solver.scatter(x)
        yd = solver.matvec(xd, solver.new_halos())
        assert solver.gather(yd) == pytest.approx(blocked.permuted @ x, rel=1e-12)

    def test_distributed_precondition_matches_mstep_ssor(
        self, plate, blocked, interval
    ):
        from repro.multicolor import MStepSSOR

        solver = make_solver(plate, blocked, 5)
        coeffs = mstep_coefficients(3, True, interval)
        rng = np.random.default_rng(2)
        r = rng.normal(size=solver.n)
        rd = solver.scatter(r)
        rtd = solver.precondition(coeffs, rd)
        expected = MStepSSOR(blocked, coeffs).apply(r)
        assert solver.gather(rtd) == pytest.approx(expected, rel=1e-9, abs=1e-10)

    def test_solve_accumulates_the_solver_ledger(self, plate, blocked):
        solver = make_solver(plate, blocked, 2)
        first = solver.solve(2, np.ones(2), eps=1e-6)
        assert first.ledger is solver.ledger
        once = (
            solver.ledger.messages,
            dict(solver.ledger.words_by_kind),
            dict(solver.ledger.words_by_pair),
        )
        assert once[0] > 0
        second = solver.solve(2, np.ones(2), eps=1e-6)
        assert second.ledger is solver.ledger
        assert solver.ledger.messages == 2 * once[0]
        assert solver.ledger.words_by_kind == {k: 2 * w for k, w in once[1].items()}
        assert solver.ledger.words_by_pair == {k: 2 * w for k, w in once[2].items()}
        # One solve books exactly what its one-cell schedule pass moves.
        [cell] = make_solver(plate, blocked, 2).solve_schedule(
            [(2, np.ones(2))], eps=1e-6
        )
        assert cell.ledger.messages == once[0]
        assert cell.ledger.words_by_kind == once[1]
        assert cell.ledger.words_by_pair == once[2]
        assert np.array_equal(cell.u_natural, second.u_natural)

    def test_single_processor_has_no_messages(self, plate, blocked):
        solver = make_solver(plate, blocked, 1)
        sim = solver.solve(2, np.ones(2), eps=1e-6)
        assert sim.converged
        assert sim.ledger.total_words == 0


class TestLedgerCrossValidation:
    """Measured SPMD traffic == static counts charged by the cost model."""

    @pytest.mark.parametrize("n_procs", [2, 5])
    def test_p_exchange_words_match_static_model(self, plate, blocked, n_procs):
        solver = make_solver(plate, blocked, n_procs)
        machine = FiniteElementMachine(plate, solver.assignment, blocked=blocked)
        # one matvec = one full halo exchange
        xd = solver.scatter(np.ones(solver.n))
        solver.matvec(xd, solver.new_halos())
        measured = dict(solver.ledger.words_by_pair)
        assert measured == machine._kp_exchange_words

    @pytest.mark.parametrize("n_procs", [2, 5])
    def test_precondition_words_match_static_model(self, plate, blocked, n_procs):
        solver = make_solver(plate, blocked, n_procs)
        machine = FiniteElementMachine(plate, solver.assignment, blocked=blocked)
        m = 3
        rd = solver.scatter(np.ones(solver.n))
        solver.precondition(np.ones(m), rd)
        measured_fwd = solver.ledger.words_by_kind.get("precond_fwd", 0)
        measured_bwd = solver.ledger.words_by_kind.get("precond_bwd", 0)
        static_fwd = m * sum(sum(w) for w in machine._fwd_words.values())
        static_bwd = m * sum(sum(w) for w in machine._bwd_words.values())
        assert measured_fwd == static_fwd
        assert measured_bwd == static_bwd

    def test_halo_is_node_granular(self, plate, blocked):
        # Both dofs of a referenced border node are in the halo (packaged
        # records), even where an exact stiffness cancellation drops one
        # coupling from the sparsity.
        solver = make_solver(plate, blocked, 5)
        mesh = plate.mesh
        ordering = blocked.ordering
        node_of_mc = mesh.dof_node[ordering.perm]
        for p in range(solver.n_procs):
            halo_nodes, counts = np.unique(
                node_of_mc[solver.halo_idx[p]], return_counts=True
            )
            assert np.all(counts == 2), f"proc {p} has a half-node halo"

    def test_iterations_invariant_across_procs(self, plate, blocked, interval):
        coeffs = mstep_coefficients(2, True, interval)
        iters = set()
        for n_procs in (1, 2, 5):
            solver = make_solver(plate, blocked, n_procs)
            iters.add(solver.solve(2, coeffs, eps=1e-6).iterations)
        # Partials are summed in rank order, so tiny rounding differences
        # may shift the stopping iteration by one at most.
        assert max(iters) - min(iters) <= 1
