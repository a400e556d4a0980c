"""Real parametrisations of Hermitian matrices.

The SDP engine (Section 6) works over Hermitian matrix variables.  Its
solver wants a real vector view of those variables with an inner product that
matches ``tr(A B)``; this module provides the standard ``svec``-like
isometry for complex Hermitian matrices together with an orthonormal
Hermitian operator basis.

For an ``n x n`` Hermitian matrix the real dimension is ``n**2``:
``n`` diagonal entries, ``n(n-1)/2`` real parts and ``n(n-1)/2`` imaginary
parts of the strict upper triangle (the off-diagonal entries are scaled by
``sqrt(2)`` so the map is an isometry for the trace inner product).
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "hermitian_dim",
    "hvec",
    "hunvec",
    "hermitian_basis",
    "random_hermitian",
    "is_hvec_consistent",
]

_SQRT2 = np.sqrt(2.0)


@functools.lru_cache(maxsize=64)
def _upper_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached strict upper-triangle indices (hvec/hunvec are called in hot loops)."""
    rows, cols = np.triu_indices(n, k=1)
    return rows, cols


def hermitian_dim(n: int) -> int:
    """Real dimension of the space of ``n x n`` Hermitian matrices."""
    return n * n


def hvec(matrix: np.ndarray) -> np.ndarray:
    """Isometric real vectorisation of a Hermitian matrix.

    The map satisfies ``hvec(A) @ hvec(B) == tr(A B)`` for Hermitian A, B.
    The input is symmetrised first, so small anti-Hermitian numerical noise is
    discarded rather than silently corrupting the embedding.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    matrix = (matrix + matrix.conj().T) / 2
    n = matrix.shape[0]
    out = np.empty(n * n, dtype=float)
    out[:n] = np.diag(matrix).real
    if n > 1:
        iu = _upper_indices(n)
        upper = matrix[iu]
        m = upper.size
        out[n : n + m] = _SQRT2 * upper.real
        out[n + m :] = _SQRT2 * upper.imag
    return out


def hunvec(vector: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`hvec`."""
    vector = np.asarray(vector, dtype=float)
    if vector.size != n * n:
        raise ValueError(f"expected a vector of length {n * n}, got {vector.size}")
    matrix = np.zeros((n, n), dtype=np.complex128)
    np.fill_diagonal(matrix, vector[:n])
    if n > 1:
        iu = _upper_indices(n)
        m = iu[0].size
        upper = (vector[n : n + m] + 1j * vector[n + m :]) / _SQRT2
        matrix[iu] = upper
        matrix[(iu[1], iu[0])] = upper.conj()
    return matrix


def hermitian_basis(n: int) -> list[np.ndarray]:
    """Orthonormal basis of the real vector space of ``n x n`` Hermitian matrices.

    The basis elements ``E_k`` satisfy ``tr(E_j E_k) = delta_{jk}``.  Order
    matches :func:`hvec`: diagonal elements first, then real off-diagonal,
    then imaginary off-diagonal.
    """
    basis: list[np.ndarray] = []
    for i in range(n):
        element = np.zeros((n, n), dtype=np.complex128)
        element[i, i] = 1.0
        basis.append(element)
    for i in range(n):
        for j in range(i + 1, n):
            element = np.zeros((n, n), dtype=np.complex128)
            element[i, j] = 1.0 / _SQRT2
            element[j, i] = 1.0 / _SQRT2
            basis.append(element)
    for i in range(n):
        for j in range(i + 1, n):
            element = np.zeros((n, n), dtype=np.complex128)
            element[i, j] = 1j / _SQRT2
            element[j, i] = -1j / _SQRT2
            basis.append(element)
    # Reorder so the imaginary elements follow the same (i, j) enumeration as
    # hvec: hvec packs all real uppers then all imaginary uppers, which is the
    # order produced above.
    return basis


def random_hermitian(n: int, *, rng: np.random.Generator | None = None) -> np.ndarray:
    """A random Hermitian matrix with i.i.d. Gaussian entries (GUE-like)."""
    rng = rng or np.random.default_rng()
    mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (mat + mat.conj().T) / 2


def is_hvec_consistent(matrix: np.ndarray, *, atol: float = 1e-10) -> bool:
    """Round-trip check used by the property tests."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    n = matrix.shape[0]
    return bool(np.allclose(hunvec(hvec(matrix), n), (matrix + matrix.conj().T) / 2, atol=atol))
