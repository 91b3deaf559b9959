"""Tests for Algorithm 1 (PCG driver) and stopping rules."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AbsoluteResidual,
    DeltaInfNorm,
    IdentityPreconditioner,
    JacobiSplitting,
    MStepPreconditioner,
    RelativeResidual,
    SSORSplitting,
    cg,
    neumann_coefficients,
    pcg,
)
from repro.fem import plate_problem, poisson_problem


def random_spd(seed: int, n: int = 30) -> tuple[sp.csr_matrix, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    k = sp.csr_matrix(a @ a.T + n * np.eye(n))
    return k, rng.normal(size=n)


class TestCG:
    def test_solves_diagonal_exactly_in_one_iteration(self):
        k = sp.diags([2.0, 2.0, 2.0]).tocsr()
        f = np.array([2.0, 4.0, 6.0])
        result = cg(k, f, eps=1e-12)
        assert result.converged
        assert result.u == pytest.approx(f / 2.0)
        # One Krylov direction suffices for a scaled identity; Algorithm 1
        # still needs a second iteration for ‖Δu‖ to fall below ε.
        assert result.iterations <= 2

    def test_exact_termination_within_n_steps(self):
        k, f = random_spd(0, n=25)
        result = cg(k, f, stopping=AbsoluteResidual(tol=1e-9), maxiter=200)
        assert result.converged
        assert result.iterations <= 25 + 5  # finite termination + rounding slack

    def test_solution_correct(self):
        prob = poisson_problem(10)
        result = cg(prob.k, prob.f, eps=1e-10)
        direct = prob.direct_solution()
        assert result.u == pytest.approx(direct, rel=1e-6, abs=1e-8)

    def test_zero_rhs_converges_immediately(self):
        k, _ = random_spd(1, n=10)
        result = cg(k, np.zeros(10), eps=1e-12)
        assert result.converged
        assert result.u == pytest.approx(np.zeros(10))

    def test_maxiter_respected(self):
        prob = poisson_problem(12)
        result = cg(prob.k, prob.f, eps=1e-14, maxiter=3)
        assert not result.converged
        assert result.iterations == 3

    def test_initial_guess_used(self):
        prob = poisson_problem(6)
        exact = prob.direct_solution()
        result = cg(prob.k, prob.f, u0=exact.copy(), eps=1e-10)
        assert result.iterations <= 1
        assert result.converged


class TestInstrumentation:
    def test_two_inner_products_per_iteration(self):
        # The paper's central cost claim: Algorithm 1 does two inner
        # products per iteration (plus one at startup), regardless of m.
        prob = plate_problem(5)
        result = cg(prob.k, prob.f, eps=1e-8)
        iters = result.iterations
        # Startup ρ₀ + per iteration: (p, Kp) always, (r̃, r) except on the
        # stopping iteration (steps 4–7 skipped).
        assert result.counter.inner_products == 1 + 2 * iters - 1

    def test_matvec_count(self):
        prob = plate_problem(5)
        result = cg(prob.k, prob.f, eps=1e-8)
        assert result.counter.matvecs == result.iterations + 1  # + initial r⁰

    def test_precond_counts_merged_per_solve(self):
        prob = plate_problem(5)
        splitting = SSORSplitting(prob.k)
        precond = MStepPreconditioner(splitting, neumann_coefficients(2))
        first = pcg(prob.k, prob.f, preconditioner=precond, eps=1e-8)
        second = pcg(prob.k, prob.f, preconditioner=precond, eps=1e-8)
        # Re-using the preconditioner must not leak counts across solves.
        # Applications per solve: one at startup plus one per iteration,
        # minus the stopping iteration's (steps 4–7 are skipped).
        assert first.counter.precond_applications == first.iterations
        assert second.counter.precond_applications == second.iterations
        assert second.counter.precond_steps == 2 * second.iterations

    def test_delta_history_length(self):
        prob = poisson_problem(8)
        result = cg(prob.k, prob.f, eps=1e-8)
        assert len(result.delta_history) == result.iterations
        assert result.delta_history[-1] < 1e-8

    def test_alpha_beta_histories(self):
        """One α per completed iteration; one β per iteration that ran
        steps 4–7, i.e. all but the stopping one under the paper's rule."""
        prob = poisson_problem(8)
        result = cg(prob.k, prob.f, eps=1e-8)
        assert len(result.alpha_history) == result.iterations
        assert len(result.beta_history) == result.iterations - 1
        assert min(result.alpha_history) > 0.0
        assert min(result.beta_history) > 0.0

    def test_residual_tracking_optional(self):
        prob = poisson_problem(8)
        untracked = cg(prob.k, prob.f, eps=1e-8)
        tracked = cg(prob.k, prob.f, eps=1e-8, track_residual=True)
        assert untracked.residual_history == []
        assert len(tracked.residual_history) >= tracked.iterations

    def test_callback_invoked(self):
        prob = poisson_problem(6)
        seen = []
        cg(prob.k, prob.f, eps=1e-8, callback=lambda k, u, d: seen.append(k))
        assert seen == list(range(1, len(seen) + 1))


class TestPreconditionedConvergence:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_mstep_ssor_reduces_iterations(self, m):
        prob = plate_problem(6)
        base = cg(prob.k, prob.f, eps=1e-6)
        precond = MStepPreconditioner(SSORSplitting(prob.k), neumann_coefficients(m))
        result = pcg(prob.k, prob.f, preconditioner=precond, eps=1e-6)
        assert result.converged
        assert result.iterations < base.iterations
        assert result.u == pytest.approx(base.u, rel=1e-4, abs=1e-6)

    def test_jacobi_preconditioner_correct(self):
        k, f = random_spd(3, n=40)
        precond = MStepPreconditioner(JacobiSplitting(k), neumann_coefficients(1))
        result = pcg(k, f, preconditioner=precond, stopping=AbsoluteResidual(1e-10))
        assert result.converged
        assert k @ result.u == pytest.approx(f, rel=1e-7, abs=1e-7)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4))
    @settings(max_examples=15, deadline=None)
    def test_property_random_spd_systems_solved(self, seed, m):
        k, f = random_spd(seed, n=20)
        precond = MStepPreconditioner(SSORSplitting(k), neumann_coefficients(m))
        result = pcg(k, f, preconditioner=precond, stopping=AbsoluteResidual(1e-9))
        assert result.converged
        assert np.linalg.norm(k @ result.u - f) < 1e-6 * max(np.linalg.norm(f), 1)


class TestStoppingRules:
    def test_delta_inf_description(self):
        assert "1e-06" in DeltaInfNorm(1e-6).describe() or "1e-6" in DeltaInfNorm(
            1e-6
        ).describe()

    def test_rules_validate_tolerances(self):
        for cls in (DeltaInfNorm, RelativeResidual, AbsoluteResidual):
            with pytest.raises(ValueError):
                cls(-1.0)

    def test_relative_residual_stops_later_than_loose_delta(self):
        prob = poisson_problem(10)
        loose = cg(prob.k, prob.f, stopping=DeltaInfNorm(1e-2))
        tight = cg(prob.k, prob.f, stopping=RelativeResidual(1e-12))
        assert tight.iterations > loose.iterations
        assert np.linalg.norm(prob.k @ tight.u - prob.f) <= 1e-10 * np.linalg.norm(
            prob.f
        )

    def test_identity_preconditioner_equals_plain_cg(self):
        prob = poisson_problem(9)
        a = cg(prob.k, prob.f, eps=1e-9)
        b = pcg(prob.k, prob.f, preconditioner=IdentityPreconditioner(), eps=1e-9)
        assert a.iterations == b.iterations
        assert a.u == pytest.approx(b.u)

    def test_shape_mismatch_rejected(self):
        k = sp.identity(4).tocsr()
        with pytest.raises(ValueError):
            pcg(k, np.ones(5))
