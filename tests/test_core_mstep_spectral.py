"""Tests for the generic m-step preconditioner and spectrum tools."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    IdentityPreconditioner,
    JacobiSplitting,
    MStepPreconditioner,
    RichardsonSplitting,
    SORSplitting,
    SSORSplitting,
    condition_number,
    full_splitting_spectrum,
    neumann_coefficients,
    preconditioned_condition_number,
    preconditioned_spectrum,
    spectrum_interval,
)
from repro.driver import build_blocked_system, mstep_coefficients, ssor_interval
from repro.fem import plate_problem
from repro.multicolor import MStepSSOR
from repro.pipeline import available_scenarios, build_scenario
from repro.util import is_symmetric


@pytest.fixture(scope="module")
def plate():
    return plate_problem(5)


@pytest.fixture(scope="module")
def plate_k(plate):
    return plate.k


def dense_mstep(splitting, coeffs):
    p = splitting.p_matrix().toarray()
    k = splitting.k.toarray()
    g = np.eye(k.shape[0]) - np.linalg.solve(p, k)
    acc = np.zeros_like(p)
    power = np.eye(k.shape[0])
    for a in coeffs:
        acc += a * power
        power = power @ g
    return acc @ np.linalg.inv(p)


class TestMStepPreconditioner:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_closed_form_ssor(self, plate_k, m):
        rng = np.random.default_rng(m)
        coeffs = rng.uniform(-1.0, 2.0, size=m)
        splitting = SSORSplitting(plate_k)
        precond = MStepPreconditioner(splitting, coeffs)
        dense = dense_mstep(splitting, coeffs)
        r = rng.normal(size=plate_k.shape[0])
        assert precond.apply(r) == pytest.approx(dense @ r, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_closed_form_jacobi(self, plate_k, m):
        rng = np.random.default_rng(m + 5)
        coeffs = rng.uniform(0.1, 2.0, size=m)
        splitting = JacobiSplitting(plate_k)
        precond = MStepPreconditioner(splitting, coeffs)
        dense = dense_mstep(splitting, coeffs)
        r = rng.normal(size=plate_k.shape[0])
        assert precond.apply(r) == pytest.approx(dense @ r, rel=1e-10, abs=1e-10)

    def test_operator_is_symmetric(self, plate_k):
        precond = MStepPreconditioner(SSORSplitting(plate_k), neumann_coefficients(3))
        assert is_symmetric(precond.as_dense_operator(), tol=1e-9)

    def test_rejects_nonsymmetric_splitting(self, plate_k):
        with pytest.raises(ValueError, match="nonsymmetric"):
            MStepPreconditioner(SORSplitting(plate_k), neumann_coefficients(2))
        # ...unless explicitly allowed for experimentation.
        MStepPreconditioner(
            SORSplitting(plate_k), neumann_coefficients(2), allow_nonsymmetric=True
        )

    def test_counts_solves_and_matvecs(self, plate_k):
        precond = MStepPreconditioner(SSORSplitting(plate_k), neumann_coefficients(4))
        precond.apply(np.ones(plate_k.shape[0]))
        assert precond.counter.precond_applications == 1
        assert precond.counter.precond_steps == 4
        assert precond.counter.extra["p_solves"] == 4
        assert precond.counter.extra["inner_matvecs"] == 3

    def test_matches_multicolor_sweep_implementation(self, plate):
        # The generic splitting path and the Conrad–Wallach sweep path are
        # the same operator on the multicolor-permuted matrix.
        blocked = build_blocked_system(plate)
        coeffs = np.array([1.5, -0.5, 2.0])
        sweeps = MStepSSOR(blocked, coeffs)
        generic = MStepPreconditioner(SSORSplitting(blocked.permuted), coeffs)
        rng = np.random.default_rng(9)
        r = rng.normal(size=blocked.n)
        assert sweeps.apply(r) == pytest.approx(generic.apply(r), rel=1e-9, abs=1e-9)

    def test_identity_preconditioner(self):
        ident = IdentityPreconditioner()
        r = np.array([1.0, -2.0])
        out = ident.apply(r)
        assert np.array_equal(out, r)
        out[0] = 99.0
        assert r[0] == 1.0  # copy, not view
        assert ident.counter.precond_applications == 1
        assert ident.m == 0


class TestSpectrum:
    def test_full_spectrum_positive_unit_bounded_for_ssor(self, plate_k):
        eigs = full_splitting_spectrum(SSORSplitting(plate_k))
        assert eigs.min() > 0
        assert eigs.max() <= 1.0 + 1e-10

    def test_interval_matches_full_spectrum_dense(self, plate_k):
        splitting = SSORSplitting(plate_k)
        eigs = full_splitting_spectrum(splitting)
        lo, hi = spectrum_interval(splitting)
        assert lo == pytest.approx(float(eigs.min()), rel=1e-8)
        assert hi == pytest.approx(float(eigs.max()), rel=1e-8)

    def test_iterative_path_agrees_with_dense(self, plate_k, monkeypatch):
        # Force the Lanczos upper end by monkeypatching the dense limit;
        # the lower end has one path (CG–Lanczos) at every n.
        import repro.core.spectral as spectral

        splitting = SSORSplitting(plate_k)
        dense_lo, dense_hi = spectrum_interval(splitting)
        monkeypatch.setattr(spectral, "_DENSE_LIMIT", 1)
        lo, hi = spectrum_interval(splitting)
        assert lo == dense_lo
        assert hi == pytest.approx(dense_hi, rel=1e-5)

    @pytest.mark.parametrize(
        "make",
        [JacobiSplitting, RichardsonSplitting, lambda k: SSORSplitting(k, omega=1.5)],
        ids=["jacobi", "richardson", "ssor-1.5"],
    )
    def test_lower_end_of_general_splittings(self, plate_k, make):
        """CG–Lanczos on each splitting's own m = 1 preconditioner."""
        splitting = make(plate_k)
        lo, _ = spectrum_interval(splitting)
        assert lo == pytest.approx(float(full_splitting_spectrum(splitting)[0]), rel=1e-9)

    def test_indefinite_operator_raises(self, plate_k):
        """K − σI with σ inside K's spectrum but below every diagonal
        entry: the SSOR ``P`` stays SPD, ``P⁻¹K`` has a negative
        eigenvalue, and the m = 1 CG–Lanczos run breaks down on
        ``pᵀKp ≤ 0`` — a loud error, not α fitted on a meaningless λ₁."""
        sigma = 0.5 * float(plate_k.diagonal().min())
        assert np.linalg.eigvalsh(plate_k.toarray())[0] < sigma
        shifted = (plate_k - sigma * sp.identity(plate_k.shape[0])).tocsr()
        with pytest.raises(ValueError, match="unconverged"):
            spectrum_interval(SSORSplitting(shifted))

    def test_condition_number_helpers(self):
        assert condition_number(np.array([0.5, 1.0, 2.0])) == 4.0
        assert condition_number((2.0, 10.0)) == 5.0
        assert condition_number(np.array([0.0, 1.0])) == float("inf")

    def test_nonsymmetric_splitting_rejected(self, plate_k):
        with pytest.raises(ValueError):
            spectrum_interval(SORSplitting(plate_k))


class TestSSORInterval:
    """ω = 1 SSOR: ``λ_n = 1`` exactly, only ``λ₁`` is computed."""

    SIZE = 8  # every scenario's size parameter; n ≤ 112

    @pytest.fixture(
        scope="class", params=available_scenarios(), ids=lambda spec: spec.name
    )
    def scenario_blocked(self, request):
        spec = request.param
        return build_blocked_system(
            build_scenario(spec.name, **{spec.size_param: self.SIZE})
        )

    @pytest.mark.parametrize("dense_limit", [None, 0], ids=["dense", "lanczos"])
    def test_encloses_registry_spectrum(
        self, scenario_blocked, dense_limit, monkeypatch
    ):
        """λ₁ has one path, CG–Lanczos, at every n: the dense limit that
        still switches the two-ended interval's upper end leaves it alone."""
        import repro.core.spectral as spectral

        eigs = full_splitting_spectrum(SSORSplitting(scenario_blocked.permuted))
        assert abs(eigs.max() - 1.0) <= 1e-13
        if dense_limit is not None:
            monkeypatch.setattr(spectral, "_DENSE_LIMIT", dense_limit)
        lo, hi = ssor_interval(scenario_blocked)
        assert hi == 1.0
        assert lo == pytest.approx(float(eigs.min()), rel=1e-9)

    @pytest.mark.parametrize("dense_limit", [None, 0], ids=["dense", "lanczos"])
    def test_never_applies_s(self, plate, dense_limit, monkeypatch):
        import repro.core.spectral as spectral

        built = []
        original = spectral._symmetric_operator

        def counting(splitting):
            built.append(splitting)
            return original(splitting)

        monkeypatch.setattr(spectral, "_symmetric_operator", counting)
        if dense_limit is not None:
            monkeypatch.setattr(spectral, "_DENSE_LIMIT", dense_limit)
        blocked = build_blocked_system(plate)
        ssor_interval(blocked)
        assert built == []
        # The counter is live: the generic two-ended interval does build S
        # on the Lanczos path.
        spectrum_interval(SSORSplitting(blocked.permuted))
        assert len(built) == (1 if dense_limit == 0 else 0)

    def test_reproducible_after_unrelated_eigsh(self, monkeypatch):
        """ARPACK's internal random start carries state between calls; a
        fixed start vector makes the interval — and with it α and every
        iterate — independent of which eigen-solves ran earlier."""
        import scipy.sparse.linalg as spla

        import repro.core.spectral as spectral

        monkeypatch.setattr(spectral, "_DENSE_LIMIT", 0)
        blocked = build_blocked_system(plate_problem(8))
        spla.eigsh(sp.diags(np.arange(1.0, 51.0)), k=1, which="LA")
        first = ssor_interval(blocked)
        second = ssor_interval(blocked)
        assert first == second
        assert np.array_equal(
            mstep_coefficients(4, True, first), mstep_coefficients(4, True, second)
        )
        splitting = JacobiSplitting(blocked.permuted)
        assert spectrum_interval(splitting) == spectrum_interval(splitting)

    def test_general_splittings_keep_a_computed_upper_end(self, plate_k):
        eigs = full_splitting_spectrum(SSORSplitting(plate_k, omega=1.5))
        assert eigs.max() < 1.0 - 1e-6
        _, hi = spectrum_interval(SSORSplitting(plate_k, omega=1.5))
        assert hi == pytest.approx(float(eigs.max()), rel=1e-8)


class TestAdams1982Bound:
    """κ(M_m⁻¹K) decreases with m and κ₁/κ_m ≤ m (Adams 1982, for SSOR)."""

    def test_condition_number_decreases_with_m(self, plate_k):
        splitting = SSORSplitting(plate_k)
        kappas = [
            preconditioned_condition_number(splitting, neumann_coefficients(m))
            for m in range(1, 7)
        ]
        assert all(b <= a + 1e-9 for a, b in zip(kappas, kappas[1:]))

    def test_ratio_bounded_by_m(self, plate_k):
        splitting = SSORSplitting(plate_k)
        kappa_1 = preconditioned_condition_number(splitting, neumann_coefficients(1))
        for m in range(2, 8):
            kappa_m = preconditioned_condition_number(
                splitting, neumann_coefficients(m)
            )
            assert kappa_1 / kappa_m <= m + 1e-9

    def test_mapped_spectrum_formula(self, plate_k):
        splitting = SSORSplitting(plate_k)
        eigs = full_splitting_spectrum(splitting)
        mapped = preconditioned_spectrum(eigs, neumann_coefficients(3))
        assert mapped == pytest.approx(np.sort(1.0 - (1.0 - eigs) ** 3), rel=1e-10)

    def test_richardson_m_step_is_polynomial_in_k(self):
        # For P = cI, M_m⁻¹K is a polynomial in K/c — sanity-check κ via a
        # tiny dense example.
        k = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]))
        splitting = RichardsonSplitting(k, c=4.0)
        kappa_1 = preconditioned_condition_number(splitting, neumann_coefficients(1))
        assert kappa_1 == pytest.approx(3.0)
        kappa_3 = preconditioned_condition_number(splitting, neumann_coefficients(3))
        expected = (1 - (1 - 3 / 4) ** 3) / (1 - (1 - 1 / 4) ** 3)
        assert kappa_3 == pytest.approx(expected)
