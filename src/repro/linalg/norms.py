"""Norms and distances on quantum states and operators (Section 2.3).

The paper uses several related quantities; we keep their conventions explicit:

* ``trace_norm(A)`` is the Schatten-1 norm ``||A||_1`` (sum of singular
  values), taking values in ``[0, 2]`` for differences of density matrices;
* ``trace_distance(rho, sigma) = 0.5 * ||rho - sigma||_1`` in ``[0, 1]``;
* predicate distances δ in the (ρ̂, δ)-diamond norm are *full* trace norms
  ``||rho - rho_hat||_1``, matching Sections 4–6 of the paper;
* ``statistical_distance`` is the total-variation distance between classical
  distributions, used for the "measured error" of Table 3.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

__all__ = [
    "schatten_norm",
    "trace_norm",
    "frobenius_norm",
    "operator_norm",
    "trace_distance",
    "trace_norm_distance",
    "hilbert_schmidt_distance",
    "statistical_distance",
    "distribution_from_counts",
    "hermitian_mask",
]

#: ``np.allclose``'s default relative tolerance, kept by :func:`hermitian_mask`.
_ALLCLOSE_RTOL = 1e-5


def hermitian_mask(stack: np.ndarray, *, atol: float = 1e-12) -> np.ndarray:
    """Which matrices of a ``(..., n, n)`` stack are Hermitian within ``atol``.

    Per matrix this is ``np.allclose(m, m.conj().T, atol=atol)`` (rtol
    1e-5, NaN fails) written as one fused comparison; allclose's own
    per-call checks cost more than the comparison on the 2×2 and 4×4
    predicates.  allclose bounds entry ``(i, j)`` of ``|m - mᴴ|`` by
    ``atol + rtol·|m[j, i]|``; that deviation matrix is exactly symmetric,
    so bounding entry ``(j, i)`` by the same value, ``atol + rtol·|m|``
    elementwise, checks the same pairs.  Unlike allclose it treats an
    infinite entry as non-Hermitian.  Every Hermitian fast path in the
    package decides through this one test, so a single matrix and the same
    matrix inside a stack always take the same branch.
    """
    stack = np.asarray(stack)
    deviation = np.abs(stack - stack.conj().swapaxes(-1, -2))
    return (deviation <= atol + _ALLCLOSE_RTOL * np.abs(stack)).all(axis=(-2, -1))


def _singular_values(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim == 1:
        matrix = np.outer(matrix, matrix.conj())
    # Hermitian fast path: singular values are absolute eigenvalues.
    if matrix.shape[0] == matrix.shape[1] and hermitian_mask(matrix):
        return np.abs(np.linalg.eigvalsh(matrix))
    return np.linalg.svd(matrix, compute_uv=False)


def schatten_norm(matrix: np.ndarray, p: float) -> float:
    """Schatten-p norm ``(sum_i sigma_i**p)**(1/p)`` of a matrix.

    ``p = inf`` gives the operator norm, ``p = 1`` the trace norm and
    ``p = 2`` the Frobenius norm.
    """
    sigma = _singular_values(matrix)
    if np.isinf(p):
        return float(sigma.max(initial=0.0))
    if p <= 0:
        raise ValueError("Schatten norm requires p > 0")
    return float(np.sum(sigma**p) ** (1.0 / p))


def trace_norm(matrix: np.ndarray) -> float:
    """Trace norm ``||A||_1`` (Schatten-1)."""
    return schatten_norm(matrix, 1)


def frobenius_norm(matrix: np.ndarray) -> float:
    """Frobenius norm ``||A||_F`` (Schatten-2)."""
    return float(np.linalg.norm(np.asarray(matrix), ord="fro"))


def operator_norm(matrix: np.ndarray) -> float:
    """Operator (spectral) norm ``||A||_inf``."""
    return schatten_norm(matrix, np.inf)


def trace_norm_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Full trace-norm distance ``||rho - sigma||_1`` in ``[0, 2]``.

    This is the quantity the paper's predicates bound (``delta``).
    """
    from .states import density_matrix

    return trace_norm(density_matrix(rho) - density_matrix(sigma))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance ``0.5 * ||rho - sigma||_1`` in ``[0, 1]``."""
    return 0.5 * trace_norm_distance(rho, sigma)


def hilbert_schmidt_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Frobenius distance between two states."""
    from .states import density_matrix

    return frobenius_norm(density_matrix(rho) - density_matrix(sigma))


def distribution_from_counts(counts: Mapping[str, int]) -> dict[str, float]:
    """Normalise a counts dictionary (bitstring -> hits) into probabilities."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("counts must contain at least one sample")
    return {key: value / total for key, value in counts.items()}


def statistical_distance(
    p: Mapping[str, float] | np.ndarray, q: Mapping[str, float] | np.ndarray
) -> float:
    """Total-variation distance ``0.5 * sum_x |p(x) - q(x)|``.

    Accepts either dense probability vectors or dictionaries keyed by
    bitstrings; missing keys are treated as probability zero.  This is the
    "measured error" quantity of Table 3 (maximum statistical distance over
    measurements is the trace distance, so the Gleipnir bound must dominate
    this value).
    """
    if isinstance(p, Mapping) or isinstance(q, Mapping):
        p_map = dict(p) if isinstance(p, Mapping) else {str(i): v for i, v in enumerate(p)}
        q_map = dict(q) if isinstance(q, Mapping) else {str(i): v for i, v in enumerate(q)}
        keys = set(p_map) | set(q_map)
        return 0.5 * sum(abs(p_map.get(k, 0.0) - q_map.get(k, 0.0)) for k in keys)
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if p_arr.shape != q_arr.shape:
        raise ValueError("probability vectors must have the same shape")
    return 0.5 * float(np.abs(p_arr - q_arr).sum())
