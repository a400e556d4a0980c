"""Gate definitions for the quantum circuit IR.

A :class:`Gate` couples a name, an optional parameter list, and a unitary
matrix.  The standard library (Figure 1 of the paper plus the usual NISQ gate
set) is exposed both as factory functions (``h()``, ``cx()``, ``rz(theta)``)
and through :func:`gate_by_name` for job decoding.

Gates are value objects: two gates compare equal when their names, arities
and parameters match.  Equality ignores the matrix, so two different unitaries
built under one name (``Circuit.unitary`` gives every gate the name
``"unitary"``) compare equal; nothing that depends on the unitary may key on
it.  A gate's error bound does not: it is solved for the gate's own matrix.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Sequence

import numpy as np

from ..errors import GateError
from ..linalg import operators as ops

__all__ = [
    "Gate",
    "gate_by_name",
    "available_gates",
    "identity",
    "x",
    "y",
    "z",
    "h",
    "s",
    "sdg",
    "t",
    "tdg",
    "rx",
    "ry",
    "rz",
    "phase",
    "u3",
    "cx",
    "cnot",
    "cz",
    "swap",
    "rzz",
    "crz",
    "iswap",
    "custom_gate",
]


@dataclasses.dataclass(frozen=True)
class Gate:
    """A named unitary gate acting on a fixed number of qubits.

    Attributes:
        name: lower-case gate name (``"h"``, ``"cx"``, ``"rz"``, ...).
        num_qubits: arity of the gate.
        params: tuple of real parameters (rotation angles), possibly empty.
        matrix: the ``2**k x 2**k`` unitary.  Excluded from equality/hashing;
            equality is structural (name + params + arity).
    """

    name: str
    num_qubits: int
    params: tuple[float, ...] = ()
    matrix: np.ndarray = dataclasses.field(compare=False, hash=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.matrix is None:
            raise GateError(f"gate {self.name!r} constructed without a matrix")
        matrix = np.asarray(self.matrix, dtype=np.complex128)
        expected = 2**self.num_qubits
        if matrix.shape != (expected, expected):
            raise GateError(
                f"gate {self.name!r} on {self.num_qubits} qubits needs a "
                f"{expected}x{expected} matrix, got {matrix.shape}"
            )
        if not ops.is_unitary(matrix, atol=1e-7):
            raise GateError(f"gate {self.name!r} matrix is not unitary")
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return 2**self.num_qubits

    def dagger(self) -> "Gate":
        """The inverse gate (conjugate transpose), with a ``_dg`` name suffix."""
        name = self.name[:-3] if self.name.endswith("_dg") else self.name + "_dg"
        return Gate(name, self.num_qubits, tuple(-p for p in self.params), self.matrix.conj().T)

    def label(self) -> str:
        """Human-readable label, e.g. ``rz(0.500)``."""
        if not self.params:
            return self.name
        args = ", ".join(f"{p:.6g}" for p in self.params)
        return f"{self.name}({args})"


# ---------------------------------------------------------------------------
# Standard gate factories
# ---------------------------------------------------------------------------

def identity(num_qubits: int = 1) -> Gate:
    """Identity gate on ``num_qubits`` qubits."""
    return Gate("id", num_qubits, (), np.eye(2**num_qubits, dtype=np.complex128))


def x() -> Gate:
    """Pauli-X (bit flip)."""
    return Gate("x", 1, (), ops.PAULI_X)


def y() -> Gate:
    """Pauli-Y."""
    return Gate("y", 1, (), ops.PAULI_Y)


def z() -> Gate:
    """Pauli-Z (phase flip)."""
    return Gate("z", 1, (), ops.PAULI_Z)


def h() -> Gate:
    """Hadamard gate."""
    return Gate("h", 1, (), ops.HADAMARD)


def s() -> Gate:
    """Phase gate S = sqrt(Z)."""
    return Gate("s", 1, (), ops.S_GATE)


def sdg() -> Gate:
    """Inverse phase gate."""
    return Gate("sdg", 1, (), ops.SDG_GATE)


def t() -> Gate:
    """T gate (pi/8 gate)."""
    return Gate("t", 1, (), ops.T_GATE)


def tdg() -> Gate:
    """Inverse T gate."""
    return Gate("tdg", 1, (), ops.TDG_GATE)


def rx(theta: float) -> Gate:
    """X-axis rotation by ``theta``."""
    return Gate("rx", 1, (float(theta),), ops.rx_matrix(theta))


def ry(theta: float) -> Gate:
    """Y-axis rotation by ``theta``."""
    return Gate("ry", 1, (float(theta),), ops.ry_matrix(theta))


def rz(theta: float) -> Gate:
    """Z-axis rotation by ``theta``."""
    return Gate("rz", 1, (float(theta),), ops.rz_matrix(theta))


def phase(phi: float) -> Gate:
    """Phase gate ``diag(1, e^{i phi})``."""
    return Gate("p", 1, (float(phi),), ops.phase_matrix(phi))


def u3(theta: float, phi: float, lam: float) -> Gate:
    """General single-qubit unitary."""
    return Gate("u3", 1, (float(theta), float(phi), float(lam)), ops.u3_matrix(theta, phi, lam))


def cx() -> Gate:
    """Controlled-NOT (control is the first qubit)."""
    return Gate("cx", 2, (), ops.CNOT)


def cnot() -> Gate:
    """Alias of :func:`cx`."""
    return cx()


def cz() -> Gate:
    """Controlled-Z."""
    return Gate("cz", 2, (), ops.CZ)


def swap() -> Gate:
    """SWAP gate."""
    return Gate("swap", 2, (), ops.SWAP)


def rzz(theta: float) -> Gate:
    """Two-qubit Ising interaction ``exp(-i theta Z⊗Z / 2)``."""
    return Gate("rzz", 2, (float(theta),), ops.rzz_matrix(theta))


def crz(theta: float) -> Gate:
    """Controlled-RZ rotation."""
    return Gate("crz", 2, (float(theta),), ops.controlled(ops.rz_matrix(theta)))


def iswap() -> Gate:
    """iSWAP gate."""
    matrix = np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]],
        dtype=np.complex128,
    )
    return Gate("iswap", 2, (), matrix)


def custom_gate(name: str, matrix: np.ndarray, params: Sequence[float] = ()) -> Gate:
    """A user-defined gate from an explicit unitary matrix."""
    matrix = np.asarray(matrix, dtype=np.complex128)
    num_qubits = int(round(np.log2(matrix.shape[0])))
    if 2**num_qubits != matrix.shape[0]:
        raise GateError(f"matrix dimension {matrix.shape[0]} is not a power of two")
    return Gate(name.lower(), num_qubits, tuple(float(p) for p in params), matrix)


_PARAMETRIC: dict[str, Callable[..., Gate]] = {
    "rx": rx,
    "ry": ry,
    "rz": rz,
    "p": phase,
    "phase": phase,
    "u3": u3,
    "rzz": rzz,
    "crz": crz,
}

_FIXED_FACTORIES: dict[str, Callable[[], Gate]] = {
    "id": identity,
    "i": identity,
    "x": x,
    "y": y,
    "z": z,
    "h": h,
    "s": s,
    "sdg": sdg,
    "t": t,
    "tdg": tdg,
    "cx": cx,
    "cnot": cnot,
    "cz": cz,
    "swap": swap,
    "iswap": iswap,
}


def _shared(factory: Callable[[], Gate]) -> Gate:
    """A fixed gate built and checked once, with a read-only matrix.

    Every decoded gate of this name shares the matrix, and so do most
    factories (they alias the module constants), so an in-place write would
    corrupt every gate of that name at once.
    """
    gate = factory()
    gate.matrix.setflags(write=False)
    return gate


#: One shared instance per fixed gate name, so decoding one builds nothing.
_FIXED: dict[str, Gate] = {name: _shared(factory) for name, factory in _FIXED_FACTORIES.items()}


def available_gates() -> list[str]:
    """Names of all gates the library can construct by name."""
    return sorted(set(_FIXED) | set(_PARAMETRIC))


def gate_by_name(name: str, *params: float) -> Gate:
    """The standard gate with this name and parameters.

    Used by job decoding and by noise models that attach channels to gate
    names.  Fixed gates come back as one shared instance per name;
    parametric gates are built per call.
    """
    key = name.lower()
    if key in _FIXED:
        if params:
            raise GateError(f"gate {name!r} takes no parameters")
        return _FIXED[key]
    if key in _PARAMETRIC:
        return _PARAMETRIC[key](*params)
    raise GateError(f"unknown gate name {name!r}; known gates: {available_gates()}")
