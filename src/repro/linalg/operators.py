"""Operator-level utilities: Pauli matrices, gate matrices, and embeddings.

This module contains the raw matrices (Figure 1 of the paper) together with
the machinery to embed a k-qubit operator into an n-qubit register (the
``U ⊗ I`` extension described in Section 2.1) and to form controlled and
tensor-product operators.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache, reduce

import numpy as np

from ..errors import GateError
from .norms import hermitian_mask

__all__ = [
    "I2",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "HADAMARD",
    "S_GATE",
    "SDG_GATE",
    "T_GATE",
    "TDG_GATE",
    "CNOT",
    "CZ",
    "SWAP",
    "pauli_matrix",
    "pauli_string_matrix",
    "rx_matrix",
    "ry_matrix",
    "rz_matrix",
    "rzz_matrix",
    "phase_matrix",
    "u3_matrix",
    "controlled",
    "kron_all",
    "embed_operator",
    "expand_to_adjacent",
    "is_unitary",
    "is_hermitian",
    "random_unitary",
    "commutator",
    "anticommutator",
    "operator_from_function",
]

I2 = np.eye(2, dtype=np.complex128)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
S_GATE = np.array([[1, 0], [0, 1j]], dtype=np.complex128)
SDG_GATE = S_GATE.conj().T
T_GATE = np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=np.complex128)
TDG_GATE = T_GATE.conj().T
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
)
CZ = np.diag([1, 1, 1, -1]).astype(np.complex128)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)

_PAULIS = {"I": I2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


def pauli_matrix(label: str) -> np.ndarray:
    """Single-qubit Pauli matrix for label ``I``, ``X``, ``Y`` or ``Z``."""
    try:
        return _PAULIS[label.upper()]
    except KeyError as exc:
        raise GateError(f"unknown Pauli label {label!r}") from exc


def pauli_string_matrix(labels: str) -> np.ndarray:
    """Tensor product of single-qubit Paulis, e.g. ``"XZI"`` -> X ⊗ Z ⊗ I."""
    if not labels:
        raise GateError("Pauli string must be non-empty")
    return kron_all([pauli_matrix(c) for c in labels])


def rx_matrix(theta: float) -> np.ndarray:
    """Rotation ``exp(-i theta X / 2)``."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def ry_matrix(theta: float) -> np.ndarray:
    """Rotation ``exp(-i theta Y / 2)``."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def rz_matrix(theta: float) -> np.ndarray:
    """Rotation ``exp(-i theta Z / 2)``."""
    phase = np.exp(-1j * theta / 2)
    return np.array([[phase, 0], [0, np.conj(phase)]], dtype=np.complex128)


def rzz_matrix(theta: float) -> np.ndarray:
    """Two-qubit Ising interaction ``exp(-i theta Z⊗Z / 2)``."""
    phase = np.exp(-1j * theta / 2)
    return np.diag([phase, np.conj(phase), np.conj(phase), phase]).astype(np.complex128)


def phase_matrix(phi: float) -> np.ndarray:
    """Single-qubit phase gate ``diag(1, exp(i phi))``."""
    return np.array([[1, 0], [0, np.exp(1j * phi)]], dtype=np.complex128)


def u3_matrix(theta: float, phi: float, lam: float) -> np.ndarray:
    """General single-qubit unitary in the usual (theta, phi, lambda) form."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [
            [c, -np.exp(1j * lam) * s],
            [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c],
        ],
        dtype=np.complex128,
    )


def controlled(unitary: np.ndarray) -> np.ndarray:
    """Controlled version of a unitary (control on the first qubit)."""
    unitary = np.asarray(unitary, dtype=np.complex128)
    dim = unitary.shape[0]
    out = np.eye(2 * dim, dtype=np.complex128)
    out[dim:, dim:] = unitary
    return out


def kron_all(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left to right."""
    if not matrices:
        raise GateError("kron_all requires at least one matrix")
    return reduce(np.kron, [np.asarray(m, dtype=np.complex128) for m in matrices])


def embed_operator(
    operator: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Embed a k-qubit operator acting on ``qubits`` into an n-qubit register.

    This is the extension ``U ⊗ I`` described in Section 2.1, generalised to
    an arbitrary (possibly non-contiguous, possibly permuted) list of target
    qubits.  Qubit 0 is the most significant index of the register.

    Args:
        operator: a ``2**k x 2**k`` matrix.
        qubits: the k register positions the operator acts on, in the order of
            the operator's own tensor factors.
        num_qubits: total register size n.

    Returns:
        The ``2**n x 2**n`` embedded operator.
    """
    operator = np.asarray(operator, dtype=np.complex128)
    k = len(qubits)
    if operator.shape != (2**k, 2**k):
        raise GateError(
            f"operator of shape {operator.shape} does not act on {k} qubits"
        )
    if len(set(qubits)) != k:
        raise GateError(f"duplicate target qubits in {qubits}")
    if any(q < 0 or q >= num_qubits for q in qubits):
        raise GateError(f"qubits {qubits} outside register of size {num_qubits}")

    # Reshape the operator into a rank-2k tensor and contract into an identity
    # scaffold via tensordot + transpose.  Axis order: row indices then column
    # indices, each ordered like `qubits`.
    full = np.eye(2**num_qubits, dtype=np.complex128)
    full = full.reshape([2] * (2 * num_qubits))
    op_tensor = operator.reshape([2] * (2 * k))

    # Contract the operator's column indices with the row axes of the
    # identity corresponding to the target qubits.
    row_axes = list(qubits)
    full = np.tensordot(op_tensor, full, axes=(list(range(k, 2 * k)), row_axes))
    # tensordot puts the operator's row indices first; move them back to the
    # positions of the target qubits.
    remaining = [ax for ax in range(num_qubits) if ax not in qubits]
    current_order = list(qubits) + remaining + list(range(num_qubits, 2 * num_qubits))
    inverse = np.argsort(
        [current_order.index(ax) for ax in range(2 * num_qubits)]
    )
    # Build permutation mapping new tensor axes to canonical order.
    perm = [current_order.index(ax) for ax in range(2 * num_qubits)]
    del inverse
    full = full.transpose(perm)
    return full.reshape(2**num_qubits, 2**num_qubits)


def expand_to_adjacent(operator: np.ndarray, position: int, num_qubits: int) -> np.ndarray:
    """Embed an operator acting on qubits ``position..position+k-1``.

    A fast path of :func:`embed_operator` for contiguous targets, implemented
    with plain Kronecker products.
    """
    operator = np.asarray(operator, dtype=np.complex128)
    k = int(round(np.log2(operator.shape[0])))
    left = np.eye(2**position, dtype=np.complex128)
    right = np.eye(2 ** (num_qubits - position - k), dtype=np.complex128)
    return np.kron(np.kron(left, operator), right)


@lru_cache(maxsize=None)
def _identity_and_rtol(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(I, 1e-5 * I)`` of side ``dim`` for :func:`is_unitary`."""
    identity = np.eye(dim)
    rtol = 1e-5 * identity
    identity.setflags(write=False)
    rtol.setflags(write=False)
    return identity, rtol


def is_unitary(matrix: np.ndarray, *, atol: float = 1e-9) -> bool:
    """Whether a matrix is unitary within tolerance.

    The same test as ``np.allclose(M†M, I, atol=atol)`` (default rtol 1e-5,
    NaN fails), fused into one comparison: with the finite right-hand side
    I, allclose's ``isfinite``/``==`` terms add nothing, and isclose's
    per-call overhead dominated gate construction.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity, rtol = _identity_and_rtol(matrix.shape[0])
    deviation = np.abs(matrix.conj().T @ matrix - identity)
    return bool((deviation <= atol + rtol).all())


def is_hermitian(matrix: np.ndarray, *, atol: float = 1e-9) -> bool:
    """Whether a matrix is Hermitian within tolerance."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(hermitian_mask(matrix, atol=atol))


def random_unitary(dim: int, *, rng: np.random.Generator | None = None) -> np.ndarray:
    """A Haar-random unitary of the given dimension (QR of a Ginibre matrix)."""
    rng = rng or np.random.default_rng()
    ginibre = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(ginibre)
    phases = np.diag(r) / np.abs(np.diag(r))
    return q * phases


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator ``[A, B] = AB - BA``."""
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix anticommutator ``{A, B} = AB + BA``."""
    return a @ b + b @ a


def operator_from_function(num_qubits: int, fn) -> np.ndarray:
    """Diagonal operator whose entries are ``fn(bitstring)`` per basis state.

    Useful for building classical cost Hamiltonians (e.g. max-cut objectives)
    when validating QAOA circuits in tests.
    """
    dim = 2**num_qubits
    diag = np.zeros(dim, dtype=np.complex128)
    for index in range(dim):
        bits = [(index >> (num_qubits - 1 - q)) & 1 for q in range(num_qubits)]
        diag[index] = fn(bits)
    return np.diag(diag)
