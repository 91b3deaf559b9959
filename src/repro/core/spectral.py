"""Spectrum tools for splittings and preconditioned operators.

The parametrized method needs the interval ``[λ₁, λ_n]`` containing the
eigenvalues of ``P⁻¹K`` (Section 2.2).

**Lower end, one path for every splitting and representation.**  PCG
with the m = 1 preconditioner ``M = P`` is the Lanczos process on
``P⁻¹K`` in the ``P`` inner product, and the run's own step lengths α
and direction updates β are the entries of its Lanczos tridiagonal
(Meurant, *The Lanczos and Conjugate Gradient Algorithms*, SIAM 2006):

* ``T[0, 0] = 1/α₀``;
* ``T[j, j] = 1/α_j + β_{j−1}/α_{j−1}``;
* ``T[j, j+1] = T[j+1, j] = √β_j / α_j``.

:func:`smallest_eigenvalue` runs Algorithm 1 from ``f = 1`` to a
relative residual of 10⁻⁶ and returns the smallest eigenvalue of ``T``.
The extreme Ritz values converge first, and CG's residual reduction is
governed by ``λ₁``, so by then the smallest Ritz value has settled; it
lies above ``λ₁`` (Cauchy interlacing) and agrees with a dense ``eigh``
to ≤ 3·10⁻¹¹ relative on the registry problems.  The
preconditioner is whatever m = 1 application the representation has
(:class:`~repro.multicolor.sor.MStepSSOR`,
:class:`~repro.kernels.stencil.StencilSSOR` or
:class:`~repro.core.mstep.MStepPreconditioner`), so the assembled and
matrix-free paths share the code, and nothing is factored.

**Upper end.**  ``P⁻¹K`` is similar to the *symmetric* operator
``S = W⁻¹ K W⁻ᵀ`` through the factor ``P = W Wᵀ`` each symmetric
splitting exposes, so :func:`spectrum_interval` takes ``λ_n`` from the
dense pencil ``K v = λ P v`` for small n, else from Lanczos (``eigsh``) on
``S`` started from the fixed vector of ones — an interval is a function
of the operator alone, not of the ARPACK state earlier solves left behind.

For the paper's ω = 1 SSOR splitting the upper end needs no computation:
``λ_n = 1`` exactly (:func:`repro.driver.ssor_interval` returns it and
computes only ``λ₁``).  With
``K = D − L − Lᵀ`` and ``P = (D − L) D⁻¹ (D − Lᵀ)``:

* ``P − K = L D⁻¹ Lᵀ ⪰ 0``, so ``P ⪰ K`` and every eigenvalue is ≤ 1;
* ``Lᵀ`` is strictly upper triangular, so ``Lᵀ e₁ = 0`` (under a
  multicolor ordering the whole first color block lies in ``null(Lᵀ)``):
  ``P e₁ = K e₁`` and 1 is attained.

Lanczos would otherwise crawl towards that eigenvalue — it sits in a
cluster of multiplicity about ``n/colors`` — and still stop short of it.
Jacobi, Richardson and ω ≠ 1 SSOR have ``λ_n < 1``; they keep the
two-ended :func:`spectrum_interval`.

Because the preconditioned operator ``M_m⁻¹K`` is a fixed polynomial ``q``
of ``P⁻¹K``, its spectrum — and hence κ(M_m⁻¹K), the quantity Adams (1982)
proves decreases with m — is obtained exactly by mapping eigenvalues of
``P⁻¹K`` through ``q`` rather than by re-running Lanczos per m.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from repro.core.convergence import RelativeResidual
from repro.core.mstep import MStepPreconditioner
from repro.core.pcg import pcg
from repro.core.polynomial import eigenvalue_map
from repro.core.splittings import Splitting
from repro.util import require

__all__ = [
    "spectrum_interval",
    "smallest_eigenvalue",
    "full_splitting_spectrum",
    "condition_number",
    "preconditioned_spectrum",
    "preconditioned_condition_number",
]

_DENSE_LIMIT = 700


def full_splitting_spectrum(splitting: Splitting) -> np.ndarray:
    """All eigenvalues of ``P⁻¹K`` (ascending); dense computation.

    Only for analysis on small problems — O(n³).
    """
    n = splitting.n
    require(n <= 2000, "full spectrum is a dense computation; use spectrum_interval")
    k = splitting.k.toarray()
    p = splitting.p_matrix().toarray()
    return sla.eigh(k, p, eigvals_only=True)


def _symmetric_operator(splitting: Splitting) -> spla.LinearOperator:
    """``S = W⁻¹ K W⁻ᵀ`` as a LinearOperator.

    The splitting applications are batched (``(n, k)`` blocks of vectors go
    through one color-block sweep each), so the operator advertises
    ``matmat`` too — block methods probe it with matmuls instead of ``k``
    sequential applies.
    """
    k = splitting.k

    def apply(x):
        return splitting.apply_w_inv(k @ splitting.apply_wt_inv(x))

    return spla.LinearOperator(
        (splitting.n, splitting.n), matvec=apply, matmat=apply
    )


def _largest_eigenvalue(operator: spla.LinearOperator) -> float:
    """Top eigenvalue of a symmetric operator by Lanczos from a fixed start."""
    v0 = np.ones(operator.shape[0])
    return float(
        spla.eigsh(
            operator, k=1, which="LA", return_eigenvectors=False, tol=1e-7, v0=v0
        )[0]
    )


def smallest_eigenvalue(k, preconditioner) -> float:
    """``λ₁`` of ``M⁻¹K`` by CG–Lanczos: the smallest Ritz value of one
    PCG run.

    ``preconditioner`` is the m = 1 application ``M⁻¹ = P⁻¹`` of the
    splitting, on whatever representation ``k`` has.  The run solves
    ``K u = 1`` to ``‖r‖₂ ≤ 10⁻⁶‖f‖₂`` and its α, β become the Lanczos
    tridiagonal ``T`` (module docstring).  A run that stops unconverged —
    breakdown (``pᵀKp ≤ 0``), a non-finite value or ``maxiter`` — or with
    a non-positive α or β (``M`` not SPD) raises ``ValueError``: its ``T``
    says nothing about the spectrum.
    """
    n = k.shape[0]
    result = pcg(k, np.ones(n), preconditioner, stopping=RelativeResidual(1e-6))
    alpha = np.asarray(result.alpha_history)
    beta = np.asarray(result.beta_history[: alpha.size - 1])
    if not (
        result.converged and alpha.size and np.all(alpha > 0.0) and np.all(beta > 0.0)
    ):
        raise ValueError(
            f"CG–Lanczos run for λ₁ stopped unconverged after "
            f"{result.iterations} iterations (breakdown, non-finite value or "
            f"maxiter): K or the preconditioner is not SPD"
        )
    diag = 1.0 / alpha
    diag[1:] += beta / alpha[:-1]
    off = np.sqrt(beta) / alpha[:-1]
    return float(
        sla.eigh_tridiagonal(
            diag, off, eigvals_only=True, select="i", select_range=(0, 0)
        )[0]
    )


def spectrum_interval(splitting: Splitting) -> tuple[float, float]:
    """``(λ₁, λ_n)`` of ``P⁻¹K`` for any symmetric splitting.

    ``λ₁`` comes from :func:`smallest_eigenvalue` on the splitting's
    m = 1 preconditioner; ``λ_n`` from a dense ``eigh`` for small n, else
    Lanczos on ``S``.  ω = 1 SSOR, whose upper end is exactly 1, has the
    cheaper :func:`repro.driver.ssor_interval`.
    """
    require(splitting.symmetric, "spectrum interval needs a symmetric splitting")
    lo = smallest_eigenvalue(
        splitting.k, MStepPreconditioner(splitting, np.ones(1))
    )
    if splitting.n <= _DENSE_LIMIT:
        hi = float(full_splitting_spectrum(splitting)[-1])
    else:
        hi = _largest_eigenvalue(_symmetric_operator(splitting))
    return lo, hi


def condition_number(eigenvalues_or_interval) -> float:
    """κ = λ_max / λ_min from a spectrum array or an (lo, hi) pair."""
    arr = np.atleast_1d(np.asarray(eigenvalues_or_interval, dtype=float))
    lo, hi = float(arr.min()), float(arr.max())
    if lo <= 0:
        return float("inf")
    return hi / lo


def preconditioned_spectrum(
    splitting_eigenvalues: np.ndarray, coefficients: np.ndarray
) -> np.ndarray:
    """Eigenvalues of ``M_m⁻¹K``: the map ``q`` applied to eigs of ``P⁻¹K``."""
    q = eigenvalue_map(coefficients)
    return np.sort(q(np.asarray(splitting_eigenvalues, dtype=float)))


def preconditioned_condition_number(
    splitting: Splitting, coefficients: np.ndarray
) -> float:
    """Exact κ(M_m⁻¹K) on a small problem (full spectrum + polynomial map)."""
    eigs = full_splitting_spectrum(splitting)
    mapped = preconditioned_spectrum(eigs, coefficients)
    return condition_number(mapped)
