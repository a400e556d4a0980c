"""Quantum channels (superoperators) and their representations.

Quantum gates, measurements, and noise are all completely positive
trace-preserving (CPTP) maps on density matrices (Section 2.1).  This module
implements the three standard representations and the conversions between
them:

* **Kraus**: ``E(rho) = sum_k K_k rho K_k^dagger``;
* **Choi**: ``J(E) = (E ⊗ id)(|Omega><Omega|)`` with the *unnormalised*
  maximally entangled vector ``|Omega> = sum_i |i>|i>``.  The first tensor
  factor of the Choi matrix is the channel output, the second the reference
  copy of the input.  This is the convention used by the diamond-norm SDPs in
  :mod:`repro.sdp`;
* **Liouville** (superoperator matrix) acting on row-major vectorised density
  matrices: ``vec(E(rho)) = S vec(rho)`` with ``S = sum_k K_k ⊗ conj(K_k)``.

The :class:`QuantumChannel` class is immutable and caches the representations
it has computed.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..errors import NoiseModelError
from .codec import complex_matrix_from_json, complex_matrix_to_json
from .operators import embed_operator, is_unitary

__all__ = [
    "QuantumChannel",
    "kraus_to_choi",
    "choi_stack",
    "unitary_conjugate_stack",
    "choi_to_kraus",
    "kraus_to_liouville",
    "liouville_to_choi",
    "choi_to_liouville",
    "apply_kraus",
    "is_cptp_kraus",
    "choi_is_trace_preserving",
    "choi_output_trace_map",
    "identity_channel",
    "unitary_channel",
    "channel_difference_choi",
]


def _vec(matrix: np.ndarray) -> np.ndarray:
    """Row-major vectorisation, consistent with the Choi convention above."""
    return np.asarray(matrix, dtype=np.complex128).reshape(-1)


def apply_kraus(kraus: Sequence[np.ndarray], rho: np.ndarray) -> np.ndarray:
    """Apply a channel given by Kraus operators to a density matrix."""
    rho = np.asarray(rho, dtype=np.complex128)
    out = np.zeros(
        (kraus[0].shape[0], kraus[0].shape[0]), dtype=np.complex128
    )
    for k in kraus:
        out += k @ rho @ k.conj().T
    return out


def kraus_to_choi(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Choi matrix ``J = sum_k vec(K_k) vec(K_k)^dagger`` (output ⊗ input).

    Computed as one Gram product ``V^T V*`` over the stacked Kraus vectors —
    the same formula :func:`choi_stack` applies to a whole group of channels
    at once, so a channel's Choi matrix is bit-identical whether it was
    computed alone or as part of a stacked group.
    """
    vectors = np.stack([_vec(k) for k in kraus])
    return vectors.T @ vectors.conj()


def choi_stack(channels: Sequence["QuantumChannel"]) -> np.ndarray:
    """Stacked Choi matrices ``(len(channels), d*d', d*d')`` of same-arity channels.

    All channels must share one ``(dim_out, dim_in)``.  Channels that already
    cached their Choi matrix contribute the cached array; the remaining ones
    are computed with one batched Gram product per distinct Kraus count and
    the results are written back into each channel's cache, so a later
    ``channel.choi()`` call returns the identical array.  Per-channel results
    are independent of the group composition (each Gram product only sees its
    own channel's Kraus vectors), which keeps batched and one-at-a-time
    reductions bit-identical.
    """
    if not channels:
        raise NoiseModelError("choi_stack needs at least one channel")
    shape = (channels[0].dim_out, channels[0].dim_in)
    if any((ch.dim_out, ch.dim_in) != shape for ch in channels):
        raise NoiseModelError("choi_stack requires channels of one arity")
    missing: dict[int, list[int]] = {}
    for index, channel in enumerate(channels):
        if channel._choi is None:
            missing.setdefault(len(channel.kraus), []).append(index)
    for indices in missing.values():
        # One (C, K, D) stack per Kraus count: J_c = V_c^T V_c* as a batched
        # Gram product, no padding, so each element matches kraus_to_choi.
        vectors = np.stack(
            [
                np.stack([_vec(k) for k in channels[i].kraus])
                for i in indices
            ]
        )
        chois = vectors.swapaxes(-1, -2) @ vectors.conj()
        for row, index in enumerate(indices):
            channels[index]._choi = chois[row]
    return np.stack([channel.choi() for channel in channels])


def unitary_conjugate_stack(unitaries: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Batched conjugation ``U rho U^dagger`` over stacks of matrices.

    ``unitaries`` and ``states`` broadcast against each other on their leading
    axes; the result per element is bit-identical to conjugating that element
    alone (stacked matmul applies the same per-element GEMM).  Used by the
    batched structural-reduction front-end to push local predicates through
    the ideal gates of a whole request in two matmuls.
    """
    unitaries = np.asarray(unitaries, dtype=np.complex128)
    states = np.asarray(states, dtype=np.complex128)
    return unitaries @ states @ unitaries.conj().swapaxes(-1, -2)


def choi_to_kraus(choi: np.ndarray, *, atol: float = 1e-10) -> list[np.ndarray]:
    """Kraus operators of a CP map from its Choi matrix (eigendecomposition)."""
    choi = np.asarray(choi, dtype=np.complex128)
    choi = (choi + choi.conj().T) / 2
    dim_sq = choi.shape[0]
    dim = int(round(np.sqrt(dim_sq)))
    if dim * dim != dim_sq:
        raise NoiseModelError(
            f"Choi matrix dimension {dim_sq} is not a perfect square"
        )
    vals, vecs = np.linalg.eigh(choi)
    if vals.min() < -1e-7 * max(1.0, vals.max()):
        raise NoiseModelError(
            f"Choi matrix is not positive semidefinite (min eigenvalue {vals.min():.3e})"
        )
    kraus = []
    for value, vector in zip(vals, vecs.T):
        if value <= atol:
            continue
        kraus.append(np.sqrt(value) * vector.reshape(dim, dim))
    if not kraus:
        kraus.append(np.zeros((dim, dim), dtype=np.complex128))
    return kraus


def kraus_to_liouville(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Superoperator matrix acting on row-major vectorised density matrices."""
    dim_out, dim_in = np.asarray(kraus[0]).shape
    liouville = np.zeros((dim_out * dim_out, dim_in * dim_in), dtype=np.complex128)
    for k in kraus:
        k = np.asarray(k, dtype=np.complex128)
        liouville += np.kron(k, k.conj())
    return liouville


def choi_to_liouville(choi: np.ndarray) -> np.ndarray:
    """Convert a Choi matrix (output ⊗ input) into a Liouville matrix."""
    choi = np.asarray(choi, dtype=np.complex128)
    dim = int(round(np.sqrt(choi.shape[0])))
    # J[(o1, i1), (o2, i2)] = S[(o1, o2), (i1, i2)]
    tensor = choi.reshape(dim, dim, dim, dim)
    liouville = tensor.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    return liouville


def liouville_to_choi(liouville: np.ndarray) -> np.ndarray:
    """Convert a Liouville matrix (row-major vec convention) into a Choi matrix."""
    liouville = np.asarray(liouville, dtype=np.complex128)
    dim = int(round(np.sqrt(liouville.shape[0])))
    tensor = liouville.reshape(dim, dim, dim, dim)
    choi = tensor.transpose(0, 2, 1, 3).reshape(dim * dim, dim * dim)
    return choi


def choi_output_trace_map(choi: np.ndarray) -> np.ndarray:
    """Partial trace of the Choi matrix over the *output* factor.

    For a trace-preserving map this equals the identity on the input space;
    the dual of the diamond-norm SDP uses the same operation on the dual
    variable Z (Section 6).  Accepts a stack ``(..., d², d²)`` of Choi
    matrices and maps each one, so the batch certification pass traces a
    whole candidate stack in one call.
    """
    choi = np.asarray(choi, dtype=np.complex128)
    dim = int(round(np.sqrt(choi.shape[-1])))
    tensor = choi.reshape(choi.shape[:-2] + (dim, dim, dim, dim))
    return np.trace(tensor, axis1=-4, axis2=-2)


def choi_is_trace_preserving(choi: np.ndarray, *, atol: float = 1e-8) -> bool:
    """Whether the Choi matrix corresponds to a trace-preserving map."""
    reduced = choi_output_trace_map(choi)
    return bool(np.allclose(reduced, np.eye(reduced.shape[0]), atol=atol))


def is_cptp_kraus(kraus: Sequence[np.ndarray], *, atol: float = 1e-8) -> bool:
    """Whether a set of Kraus operators defines a CPTP map."""
    dim_in = np.asarray(kraus[0]).shape[1]
    acc = np.zeros((dim_in, dim_in), dtype=np.complex128)
    for k in kraus:
        k = np.asarray(k, dtype=np.complex128)
        acc += k.conj().T @ k
    return bool(np.allclose(acc, np.eye(dim_in), atol=atol))


class QuantumChannel:
    """An immutable CP map with cached Kraus / Choi / Liouville representations.

    Construct with :meth:`from_kraus`, :meth:`from_unitary`, :meth:`from_choi`
    or :meth:`identity`.  Channels compose with ``@`` (``a @ b`` means "apply
    b first, then a", matching function composition) and combine in parallel
    with :meth:`tensor`.
    """

    def __init__(self, kraus: Sequence[np.ndarray], *, name: str | None = None):
        if not kraus:
            raise NoiseModelError("a channel needs at least one Kraus operator")
        mats = [np.asarray(k, dtype=np.complex128) for k in kraus]
        shape = mats[0].shape
        if any(m.shape != shape for m in mats):
            raise NoiseModelError("all Kraus operators must have the same shape")
        if len(shape) != 2:
            raise NoiseModelError("Kraus operators must be matrices")
        self._kraus = tuple(m.copy() for m in mats)
        self._name = name or "channel"
        self._choi: np.ndarray | None = None
        self._liouville: np.ndarray | None = None

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_kraus(
        cls, kraus: Sequence[np.ndarray], *, name: str | None = None
    ) -> "QuantumChannel":
        return cls(kraus, name=name)

    @classmethod
    def from_unitary(cls, unitary: np.ndarray, *, name: str | None = None) -> "QuantumChannel":
        unitary = np.asarray(unitary, dtype=np.complex128)
        if not is_unitary(unitary, atol=1e-7):
            raise NoiseModelError("from_unitary requires a unitary matrix")
        return cls([unitary], name=name or "unitary")

    @classmethod
    def from_choi(cls, choi: np.ndarray, *, name: str | None = None) -> "QuantumChannel":
        return cls(choi_to_kraus(choi), name=name or "choi")

    @classmethod
    def identity(cls, dim: int) -> "QuantumChannel":
        return cls([np.eye(dim, dtype=np.complex128)], name="id")

    # -- representations --------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        return self._kraus

    @property
    def dim_in(self) -> int:
        return self._kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self._kraus[0].shape[0]

    @property
    def num_qubits(self) -> int:
        n = int(round(np.log2(self.dim_in)))
        if 2**n != self.dim_in:
            raise NoiseModelError("channel does not act on a qubit register")
        return n

    def choi(self) -> np.ndarray:
        if self._choi is None:
            self._choi = kraus_to_choi(self._kraus)
        return self._choi

    def liouville(self) -> np.ndarray:
        if self._liouville is None:
            self._liouville = kraus_to_liouville(self._kraus)
        return self._liouville

    # -- behaviour --------------------------------------------------------
    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the channel to a density matrix."""
        return apply_kraus(self._kraus, rho)

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        return self.apply(rho)

    def compose(self, other: "QuantumChannel") -> "QuantumChannel":
        """Sequential composition ``self ∘ other`` (apply ``other`` first)."""
        if other.dim_out != self.dim_in:
            raise NoiseModelError(
                f"cannot compose: inner dimensions {other.dim_out} != {self.dim_in}"
            )
        kraus = [a @ b for a in self._kraus for b in other._kraus]
        return QuantumChannel(kraus, name=f"{self._name}∘{other._name}")

    def __matmul__(self, other: "QuantumChannel") -> "QuantumChannel":
        return self.compose(other)

    def tensor(self, other: "QuantumChannel") -> "QuantumChannel":
        """Parallel composition ``self ⊗ other``."""
        kraus = [np.kron(a, b) for a in self._kraus for b in other._kraus]
        return QuantumChannel(kraus, name=f"{self._name}⊗{other._name}")

    def adjoint(self) -> "QuantumChannel":
        """The adjoint (Heisenberg-picture) map, with Kraus ``K_k^dagger``."""
        return QuantumChannel([k.conj().T for k in self._kraus], name=f"{self._name}†")

    def embed(self, qubits: Sequence[int], num_qubits: int) -> "QuantumChannel":
        """Extend the channel with identities to act on an n-qubit register."""
        kraus = [embed_operator(k, qubits, num_qubits) for k in self._kraus]
        return QuantumChannel(kraus, name=f"{self._name}@{tuple(qubits)}")

    # -- predicates & diagnostics ----------------------------------------
    def is_trace_preserving(self, *, atol: float = 1e-8) -> bool:
        return is_cptp_kraus(self._kraus, atol=atol)

    def is_cptp(self, *, atol: float = 1e-8) -> bool:
        return self.is_trace_preserving(atol=atol)

    def is_unitary_channel(self, *, atol: float = 1e-8) -> bool:
        return len(self._kraus) == 1 and is_unitary(self._kraus[0], atol=atol)

    # -- serialization ----------------------------------------------------
    def to_json_dict(self) -> dict:
        """Canonical dict form: the Kraus operators as nested ``[re, im]`` pairs.

        Used by the analysis engine to ship noise models across process
        boundaries and to fingerprint jobs (:mod:`repro.engine.spec`).
        """
        return {
            "name": self._name,
            "kraus": [complex_matrix_to_json(operator) for operator in self._kraus],
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "QuantumChannel":
        """Inverse of :meth:`to_json_dict`."""
        try:
            kraus = [complex_matrix_from_json(operator) for operator in payload["kraus"]]
            name = payload.get("name")
        except (TypeError, KeyError, ValueError) as exc:
            raise NoiseModelError(f"malformed channel payload: {exc}") from exc
        return cls(kraus, name=name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantumChannel(name={self._name!r}, dim_in={self.dim_in}, "
            f"dim_out={self.dim_out}, num_kraus={len(self._kraus)})"
        )


def identity_channel(num_qubits: int) -> QuantumChannel:
    """The identity channel on ``num_qubits`` qubits."""
    return QuantumChannel.identity(2**num_qubits)


def unitary_channel(unitary: np.ndarray, *, name: str | None = None) -> QuantumChannel:
    """Channel ``rho -> U rho U^dagger`` for a unitary gate matrix."""
    return QuantumChannel.from_unitary(unitary, name=name)


def channel_difference_choi(noisy: QuantumChannel, ideal: QuantumChannel) -> np.ndarray:
    """Choi matrix of the Hermitian-preserving difference map ``noisy - ideal``.

    This is the ``Phi = U - E`` object fed to the diamond-norm SDPs of
    Section 6 (note the paper writes the ideal map first; the diamond norm is
    symmetric in the sign of the difference, and so are our SDP bounds).
    """
    if noisy.dim_in != ideal.dim_in or noisy.dim_out != ideal.dim_out:
        raise NoiseModelError("channels must share input and output dimensions")
    return noisy.choi() - ideal.choi()
