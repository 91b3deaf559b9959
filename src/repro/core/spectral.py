"""Spectrum tools for splittings and preconditioned operators.

The parametrized method needs the interval ``[λ₁, λ_n]`` containing the
eigenvalues of ``P⁻¹K`` (Section 2.2).  ``P⁻¹K`` is similar to the
*symmetric* operator ``S = W⁻¹ K W⁻ᵀ`` through the factor ``P = W Wᵀ`` each
symmetric splitting exposes, so its spectrum is computed stably:

* dense path (small n): generalized symmetric eigenproblem
  ``K v = λ P v`` via ``scipy.linalg.eigh``;
* iterative path (large n): Lanczos (``eigsh``) on ``S`` for ``λ_n``, and on
  ``S⁻¹ = Wᵀ K⁻¹ W`` (one sparse LU of K) for ``1/λ₁``.  Every Lanczos run
  starts from the fixed vector of ones, so an interval is a function of
  the operator alone — not of the ARPACK state earlier solves left behind.

For the paper's ω = 1 SSOR splitting the upper end needs no computation:
``λ_n = 1`` exactly (:func:`repro.driver.ssor_interval` returns it and
estimates only ``λ₁`` with :func:`smallest_eigenvalue`).  With
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

from repro.core.polynomial import eigenvalue_map
from repro.core.splittings import Splitting
from repro.util import require

__all__ = [
    "spectrum_interval",
    "smallest_eigenvalue",
    "power_interval",
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


def _inverse_operator(splitting: Splitting) -> spla.LinearOperator:
    """``S⁻¹ = Wᵀ K⁻¹ W``; factors K once."""
    lu = spla.splu(splitting.k.tocsc())
    w = _WFactor(splitting)

    def apply(x):
        return w.wt(lu.solve(w.w(x)))

    return spla.LinearOperator(
        (splitting.n, splitting.n), matvec=apply, matmat=apply
    )


class _WFactor:
    """Forward actions of W and Wᵀ derived from the inverse actions.

    ``W x`` is recovered by solving ``W⁻¹ y = x`` — but splittings only give
    us inverse applications.  Rather than invert numerically we use
    ``W = P W⁻ᵀ`` (from ``P = W Wᵀ``), which needs only ``P`` and ``W⁻ᵀ``.
    """

    def __init__(self, splitting: Splitting):
        self._p = splitting.p_matrix()
        self._splitting = splitting

    def w(self, x: np.ndarray) -> np.ndarray:
        return self._p @ self._splitting.apply_wt_inv(x)

    def wt(self, x: np.ndarray) -> np.ndarray:
        # Wᵀ = W⁻¹ P by the same identity.
        return self._splitting.apply_w_inv(self._p @ x)


def _largest_eigenvalue(operator: spla.LinearOperator, tol: float) -> float:
    """Top eigenvalue of a symmetric operator by Lanczos from a fixed start."""
    v0 = np.ones(operator.shape[0])
    return float(
        spla.eigsh(
            operator, k=1, which="LA", return_eigenvectors=False, tol=tol, v0=v0
        )[0]
    )


def smallest_eigenvalue(splitting: Splitting, tol: float = 1e-7) -> float:
    """``λ₁`` of ``P⁻¹K``: dense ``eigh`` for small n, else Lanczos on ``S⁻¹``.

    ``1/λ₁`` is the well-separated top of ``S⁻¹ = Wᵀ K⁻¹ W``, so Lanczos
    converges in a few dozen applications after one sparse LU of K.
    """
    require(splitting.symmetric, "spectrum interval needs a symmetric splitting")
    if splitting.n <= _DENSE_LIMIT:
        k = splitting.k.toarray()
        p = splitting.p_matrix().toarray()
        return float(sla.eigh(k, p, eigvals_only=True, subset_by_index=[0, 0])[0])
    return 1.0 / _largest_eigenvalue(_inverse_operator(splitting), tol)


def spectrum_interval(
    splitting: Splitting,
    tol: float = 1e-7,
    safety: float = 0.0,
) -> tuple[float, float]:
    """``(λ₁, λ_n)`` of ``P⁻¹K``, optionally widened by ``safety`` (relative).

    Both ends are computed, for any symmetric splitting; ω = 1 SSOR, whose
    upper end is exactly 1, has the cheaper
    :func:`repro.driver.ssor_interval`.  A small ``safety`` (e.g. 0.02)
    widens the interval used for polynomial fitting so that Lanczos
    under-estimation of the extremes cannot place an eigenvalue outside it
    (which could cost positivity of ``q``).
    """
    require(splitting.symmetric, "spectrum interval needs a symmetric splitting")
    if splitting.n <= _DENSE_LIMIT:
        eigs = full_splitting_spectrum(splitting)
        lo, hi = float(eigs[0]), float(eigs[-1])
    else:
        hi = _largest_eigenvalue(_symmetric_operator(splitting), tol)
        lo = smallest_eigenvalue(splitting, tol)
    if safety:
        span = hi - lo
        lo = max(lo - safety * span, 0.0 if lo >= 0.0 else lo * (1 + safety))
        hi = hi + safety * span
    return lo, hi


def power_interval(
    splitting: Splitting,
    iterations: int = 200,
    seed: int = 0,
    tol: float = 1e-10,
) -> tuple[float, float]:
    """Factorization-free ``[λ₁, λ_n]`` estimate by (shifted) power iteration.

    The era-appropriate estimator: the machines of the paper had no sparse
    LU, but a power iteration is just repeated matvecs and diagonal solves.
    ``λ_n`` comes from power iteration on ``S = W⁻¹KW⁻ᵀ``; ``λ₁`` from
    power iteration on the shifted operator ``λ_n·I − S``.  Estimates are
    Rayleigh quotients, hence lie *inside* the true interval — combine with
    a ``safety`` widening (see :func:`spectrum_interval`) when positivity
    of the fitted polynomial matters.
    """
    require(splitting.symmetric, "power interval needs a symmetric splitting")
    rng = np.random.default_rng(seed)
    k = splitting.k

    def s_apply(x: np.ndarray) -> np.ndarray:
        return splitting.apply_w_inv(k @ splitting.apply_wt_inv(x))

    def rayleigh_power(apply_op, n_iter: int) -> float:
        v = rng.normal(size=splitting.n)
        v /= np.linalg.norm(v)
        value = 0.0
        for _ in range(n_iter):
            w = apply_op(v)
            new_value = float(v @ w)
            norm = float(np.linalg.norm(w))
            if norm == 0.0:
                return 0.0
            v = w / norm
            if abs(new_value - value) <= tol * max(1.0, abs(new_value)):
                value = new_value
                break
            value = new_value
        return value

    hi = rayleigh_power(s_apply, iterations)
    shift = hi * (1.0 + 1e-8)
    lo_shifted = rayleigh_power(lambda x: shift * x - s_apply(x), iterations)
    lo = shift - lo_shifted
    return max(lo, 0.0), hi


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
