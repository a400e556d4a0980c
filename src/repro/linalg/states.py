"""Quantum state construction and basic state-level utilities.

States follow the conventions of the paper (Section 2.1):

* a pure ``n``-qubit state is a unit vector in the ``2**n``-dimensional
  Hilbert space, written ``|s_0 s_1 ... s_{n-1}>`` where qubit 0 is the
  *most significant* bit of the computational-basis index;
* a mixed state is a density matrix ``rho`` (positive semidefinite,
  trace one).

All functions return plain ``numpy.ndarray`` objects with ``complex128``
dtype so they compose freely with the rest of the library.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..errors import SimulationError
from .decompositions import matrix_sqrt

__all__ = [
    "basis_state",
    "ket",
    "bra",
    "zero_state",
    "plus_state",
    "computational_basis",
    "density_matrix",
    "pure_density",
    "product_state",
    "product_density",
    "ghz_state",
    "w_state",
    "maximally_mixed",
    "maximally_entangled",
    "is_density_matrix",
    "is_normalized",
    "purity",
    "fidelity",
    "state_overlap",
    "random_statevector",
    "random_density_matrix",
    "random_pure_density",
    "bloch_vector",
    "density_from_bloch",
    "num_qubits_of",
]


def _as_complex(array: np.ndarray | Sequence) -> np.ndarray:
    return np.asarray(array, dtype=np.complex128)


def num_qubits_of(obj: np.ndarray) -> int:
    """Infer the number of qubits of a state vector or density matrix.

    Raises :class:`~repro.errors.SimulationError` if the dimension is not a
    power of two.
    """
    dim = obj.shape[0]
    n = int(round(np.log2(dim))) if dim > 0 else 0
    if dim <= 0 or 2**n != dim:
        raise SimulationError(f"dimension {dim} is not a power of two")
    return n


def basis_state(bits: str | Sequence[int]) -> np.ndarray:
    """Computational-basis ket ``|bits>`` as a column vector.

    ``bits`` may be a string such as ``"010"`` or a sequence of 0/1 integers.
    Qubit 0 is the leftmost character (most significant bit).
    """
    if isinstance(bits, str):
        values = [int(b) for b in bits]
    else:
        values = [int(b) for b in bits]
    if any(v not in (0, 1) for v in values):
        raise ValueError(f"basis labels must be 0/1, got {bits!r}")
    n = len(values)
    index = 0
    for v in values:
        index = (index << 1) | v
    state = np.zeros(2**n, dtype=np.complex128)
    state[index] = 1.0
    return state


def ket(label: str | Sequence[int]) -> np.ndarray:
    """Alias of :func:`basis_state`; reads like Dirac notation in user code."""
    return basis_state(label)


def bra(label: str | Sequence[int]) -> np.ndarray:
    """Conjugate transpose of :func:`ket` (a row vector)."""
    return basis_state(label).conj()


def zero_state(num_qubits: int) -> np.ndarray:
    """The all-zeros state ``|0...0>`` on ``num_qubits`` qubits."""
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    return basis_state([0] * num_qubits)


def plus_state(num_qubits: int) -> np.ndarray:
    """The uniform superposition ``|+...+>`` on ``num_qubits`` qubits."""
    dim = 2**num_qubits
    return np.full(dim, 1.0 / np.sqrt(dim), dtype=np.complex128)


def computational_basis(num_qubits: int) -> list[np.ndarray]:
    """All ``2**num_qubits`` computational-basis kets, in index order."""
    dim = 2**num_qubits
    return [np.eye(dim, dtype=np.complex128)[:, i] for i in range(dim)]


def density_matrix(state: np.ndarray) -> np.ndarray:
    """Density matrix of a pure state vector, ``|psi><psi|``.

    If ``state`` is already a square matrix it is returned unchanged (after a
    dtype cast), which lets callers accept either representation.
    """
    arr = _as_complex(state)
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return arr
    if arr.ndim != 1:
        raise SimulationError(f"expected a vector or square matrix, got shape {arr.shape}")
    return np.outer(arr, arr.conj())


def pure_density(state: np.ndarray) -> np.ndarray:
    """Density matrix of a pure state (always forms the outer product)."""
    arr = _as_complex(state)
    if arr.ndim != 1:
        raise SimulationError(f"expected a state vector, got shape {arr.shape}")
    return np.outer(arr, arr.conj())


def product_state(bits: str | Sequence[int]) -> np.ndarray:
    """Product computational-basis state ``|bits>`` (same as :func:`basis_state`)."""
    return basis_state(bits)


def product_density(bits: str | Sequence[int]) -> np.ndarray:
    """Density matrix of a product computational-basis state."""
    return pure_density(basis_state(bits))


def ghz_state(num_qubits: int) -> np.ndarray:
    """The n-qubit GHZ state ``(|0...0> + |1...1>)/sqrt(2)`` (Example 2.1)."""
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    state = np.zeros(2**num_qubits, dtype=np.complex128)
    state[0] = 1.0 / np.sqrt(2.0)
    state[-1] = 1.0 / np.sqrt(2.0)
    return state


def w_state(num_qubits: int) -> np.ndarray:
    """The n-qubit W state, an equal superposition of single-excitation kets."""
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    state = np.zeros(2**num_qubits, dtype=np.complex128)
    for k in range(num_qubits):
        state[1 << (num_qubits - 1 - k)] = 1.0
    return state / np.sqrt(num_qubits)


def maximally_mixed(num_qubits: int) -> np.ndarray:
    """The maximally mixed density matrix ``I / 2**n``."""
    dim = 2**num_qubits
    return np.eye(dim, dtype=np.complex128) / dim


def maximally_entangled(dim: int, *, normalized: bool = True) -> np.ndarray:
    """The maximally entangled vector ``sum_i |i>|i>`` on a ``dim x dim`` system.

    Used by the Choi–Jamiołkowski isomorphism.  With ``normalized=False`` the
    un-normalised vector (norm ``sqrt(dim)``) is returned, matching the
    convention used for Choi matrices in :mod:`repro.linalg.channels`.
    """
    vec = np.zeros(dim * dim, dtype=np.complex128)
    for i in range(dim):
        vec[i * dim + i] = 1.0
    if normalized:
        vec /= np.sqrt(dim)
    return vec


def is_normalized(state: np.ndarray, *, atol: float = 1e-9) -> bool:
    """Whether a state vector has unit norm."""
    return bool(abs(np.linalg.norm(state) - 1.0) <= atol)


def is_density_matrix(rho: np.ndarray, *, atol: float = 1e-8) -> bool:
    """Whether ``rho`` is a valid density matrix (Hermitian, PSD, trace 1)."""
    rho = _as_complex(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        return False
    if not np.allclose(rho, rho.conj().T, atol=atol):
        return False
    if abs(np.trace(rho).real - 1.0) > max(atol, 1e-8):
        return False
    eigenvalues = np.linalg.eigvalsh((rho + rho.conj().T) / 2)
    return bool(eigenvalues.min() >= -atol * 10)


def purity(rho: np.ndarray) -> float:
    """Purity ``tr(rho^2)`` of a density matrix (1 for pure states)."""
    rho = density_matrix(rho)
    return float(np.real(np.trace(rho @ rho)))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ``||sqrt(rho) sqrt(sigma)||_1**2``.

    Both arguments may be state vectors or density matrices.  The trace norm
    is the sum of the singular values of ``sqrt(rho) sqrt(sigma)``; swapping
    the arguments only takes the adjoint of that product, so the value is
    symmetric to rounding even for rank-deficient inputs (the textbook form
    ``tr sqrt(sqrt(rho) sigma sqrt(rho))`` is not).
    """
    product = matrix_sqrt(density_matrix(rho)) @ matrix_sqrt(density_matrix(sigma))
    return float(np.linalg.svd(product, compute_uv=False).sum() ** 2)


def state_overlap(psi: np.ndarray, phi: np.ndarray) -> complex:
    """Inner product ``<psi|phi>`` of two state vectors."""
    return complex(np.vdot(psi, phi))


def random_statevector(num_qubits: int, *, rng: np.random.Generator | None = None) -> np.ndarray:
    """A Haar-random pure state on ``num_qubits`` qubits."""
    rng = rng or np.random.default_rng()
    dim = 2**num_qubits
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_pure_density(num_qubits: int, *, rng: np.random.Generator | None = None) -> np.ndarray:
    """Density matrix of a Haar-random pure state."""
    return pure_density(random_statevector(num_qubits, rng=rng))


def random_density_matrix(
    num_qubits: int,
    *,
    rank: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """A random mixed state obtained by partial trace of a larger pure state.

    ``rank`` controls the number of pure states in the mixture (defaults to
    the full dimension).
    """
    rng = rng or np.random.default_rng()
    dim = 2**num_qubits
    rank = dim if rank is None else max(1, min(rank, dim))
    mat = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho)


def bloch_vector(rho: np.ndarray) -> np.ndarray:
    """Bloch vector ``(x, y, z)`` of a single-qubit density matrix."""
    rho = density_matrix(rho)
    if rho.shape != (2, 2):
        raise SimulationError("Bloch vectors are defined for single qubits only")
    x = 2 * rho[0, 1].real
    y = 2 * rho[1, 0].imag
    z = (rho[0, 0] - rho[1, 1]).real
    return np.array([x, y, z], dtype=float)


def density_from_bloch(vector: Iterable[float]) -> np.ndarray:
    """Single-qubit density matrix with the given Bloch vector."""
    x, y, z = (float(v) for v in vector)
    if x * x + y * y + z * z > 1.0 + 1e-9:
        raise ValueError("Bloch vector must lie inside the unit ball")
    return 0.5 * np.array(
        [[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=np.complex128
    )
