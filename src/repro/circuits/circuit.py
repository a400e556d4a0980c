"""A fluent builder for (mostly branch-free) quantum circuits.

:class:`Circuit` is the user-facing way to construct the benchmark programs:
it records gate applications against a fixed register size and converts to
the :class:`~repro.circuits.program.Program` AST consumed by the simulators,
the MPS approximator, and the error logic.

The builder also supports ``if`` statements through :meth:`if_measure`, so
branchy programs such as quantum teleportation can be expressed without
touching the AST classes directly.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..errors import CircuitError
from . import gates as gate_lib
from .gates import Gate
from .program import GateOp, IfMeasure, Program, Skip, seq

__all__ = ["Circuit"]


class Circuit:
    """An ordered list of gate applications (and optional ``if`` statements).

    Args:
        num_qubits: size of the qubit register.  All gate applications are
            validated against this size.
        name: optional human-readable name used in reports.
    """

    def __init__(self, num_qubits: int, *, name: str = "circuit"):
        if num_qubits < 1:
            raise CircuitError("a circuit needs at least one qubit")
        self._num_qubits = int(num_qubits)
        self._name = name
        self._statements: list[Program] = []

    # -- basic properties ---------------------------------------------------
    @property
    def num_qubits(self) -> int:
        return self._num_qubits

    @property
    def name(self) -> str:
        return self._name

    @property
    def statements(self) -> tuple[Program, ...]:
        return tuple(self._statements)

    def __len__(self) -> int:
        return sum(stmt.total_gate_count() for stmt in self._statements)

    def gate_count(self) -> int:
        """Number of gate applications (branches counted by their maximum)."""
        return sum(stmt.gate_count() for stmt in self._statements)

    def two_qubit_gate_count(self) -> int:
        """Number of 2-qubit gate applications in branch-free circuits."""
        return sum(1 for op in self.operations() if op.gate.num_qubits == 2)

    def has_branches(self) -> bool:
        return any(stmt.branch_count() > 1 for stmt in self._statements)

    def operations(self) -> Iterator[GateOp]:
        """Iterate gate applications (branch-free circuits only)."""
        return self.to_program().operations()

    def depth(self) -> int:
        """Circuit depth: number of moments of non-overlapping gates."""
        frontier = [0] * self._num_qubits
        depth = 0
        for op in self.operations():
            start = max(frontier[q] for q in op.qubits)
            for q in op.qubits:
                frontier[q] = start + 1
            depth = max(depth, start + 1)
        return depth

    # -- gate application ----------------------------------------------------
    def _check_qubits(self, qubits: Sequence[int]) -> tuple[int, ...]:
        out = tuple(int(q) for q in qubits)
        for q in out:
            if q < 0 or q >= self._num_qubits:
                raise CircuitError(
                    f"qubit {q} outside register of size {self._num_qubits}"
                )
        return out

    def append(self, gate: Gate, *qubits: int) -> "Circuit":
        """Append an arbitrary gate; returns ``self`` for chaining."""
        self._statements.append(GateOp(gate, self._check_qubits(qubits)))
        return self

    def extend(self, other: "Circuit") -> "Circuit":
        """Append all statements of another circuit (register sizes must agree)."""
        if other.num_qubits > self._num_qubits:
            raise CircuitError(
                f"cannot extend a {self._num_qubits}-qubit circuit with a "
                f"{other.num_qubits}-qubit circuit"
            )
        self._statements.extend(other._statements)
        return self

    # Named helpers for the standard library ----------------------------------
    def i(self, qubit: int) -> "Circuit":
        return self.append(gate_lib.identity(), qubit)

    def x(self, qubit: int) -> "Circuit":
        return self.append(gate_lib.x(), qubit)

    def y(self, qubit: int) -> "Circuit":
        return self.append(gate_lib.y(), qubit)

    def z(self, qubit: int) -> "Circuit":
        return self.append(gate_lib.z(), qubit)

    def h(self, qubit: int) -> "Circuit":
        return self.append(gate_lib.h(), qubit)

    def s(self, qubit: int) -> "Circuit":
        return self.append(gate_lib.s(), qubit)

    def sdg(self, qubit: int) -> "Circuit":
        return self.append(gate_lib.sdg(), qubit)

    def t(self, qubit: int) -> "Circuit":
        return self.append(gate_lib.t(), qubit)

    def tdg(self, qubit: int) -> "Circuit":
        return self.append(gate_lib.tdg(), qubit)

    def rx(self, theta: float, qubit: int) -> "Circuit":
        return self.append(gate_lib.rx(theta), qubit)

    def ry(self, theta: float, qubit: int) -> "Circuit":
        return self.append(gate_lib.ry(theta), qubit)

    def rz(self, theta: float, qubit: int) -> "Circuit":
        return self.append(gate_lib.rz(theta), qubit)

    def p(self, phi: float, qubit: int) -> "Circuit":
        return self.append(gate_lib.phase(phi), qubit)

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> "Circuit":
        return self.append(gate_lib.u3(theta, phi, lam), qubit)

    def cx(self, control: int, target: int) -> "Circuit":
        return self.append(gate_lib.cx(), control, target)

    def cnot(self, control: int, target: int) -> "Circuit":
        return self.cx(control, target)

    def cz(self, control: int, target: int) -> "Circuit":
        return self.append(gate_lib.cz(), control, target)

    def swap(self, a: int, b: int) -> "Circuit":
        return self.append(gate_lib.swap(), a, b)

    def rzz(self, theta: float, a: int, b: int) -> "Circuit":
        return self.append(gate_lib.rzz(theta), a, b)

    def crz(self, theta: float, control: int, target: int) -> "Circuit":
        return self.append(gate_lib.crz(theta), control, target)

    def unitary(self, matrix: np.ndarray, *qubits: int, name: str = "unitary") -> "Circuit":
        """Append a custom unitary acting on the given qubits."""
        gate = gate_lib.custom_gate(name, matrix)
        if gate.num_qubits != len(qubits):
            raise CircuitError(
                f"matrix acts on {gate.num_qubits} qubits but {len(qubits)} were given"
            )
        return self.append(gate, *qubits)

    def if_measure(
        self,
        qubit: int,
        then_builder: Callable[["Circuit"], None],
        else_builder: Callable[["Circuit"], None] | None = None,
    ) -> "Circuit":
        """Append an ``if qubit = |0> then ... else ...`` statement.

        The builders receive a fresh sub-circuit over the same register and
        populate the respective branch::

            circuit.if_measure(1, lambda c: c.x(0), lambda c: c.z(0))
        """
        (qubit,) = self._check_qubits([qubit])
        then_circuit = Circuit(self._num_qubits, name=f"{self._name}:then")
        then_builder(then_circuit)
        else_circuit = Circuit(self._num_qubits, name=f"{self._name}:else")
        if else_builder is not None:
            else_builder(else_circuit)
        self._statements.append(
            IfMeasure(qubit, then_circuit.to_program(), else_circuit.to_program())
        )
        return self

    # -- layer helpers ---------------------------------------------------------
    def h_layer(self, qubits: Iterable[int] | None = None) -> "Circuit":
        """Apply a Hadamard to every (or each listed) qubit."""
        for q in range(self._num_qubits) if qubits is None else qubits:
            self.h(q)
        return self

    def rx_layer(self, theta: float, qubits: Iterable[int] | None = None) -> "Circuit":
        """Apply ``rx(theta)`` to every (or each listed) qubit."""
        for q in range(self._num_qubits) if qubits is None else qubits:
            self.rx(theta, q)
        return self

    # -- conversions ------------------------------------------------------------
    def to_program(self) -> Program:
        """The AST of this circuit (a Seq of its statements, or Skip)."""
        if not self._statements:
            return Skip()
        return seq(*self._statements)

    @classmethod
    def from_program(
        cls, program: Program, num_qubits: int | None = None, *, name: str = "circuit"
    ) -> "Circuit":
        """Build a circuit from a branch-free program AST."""
        n = num_qubits if num_qubits is not None else max(program.num_qubits, 1)
        circuit = cls(n, name=name)
        for op in program.operations():
            circuit.append(op.gate, *op.qubits)
        return circuit

    def copy(self, *, name: str | None = None) -> "Circuit":
        clone = Circuit(self._num_qubits, name=name or self._name)
        clone._statements = list(self._statements)
        return clone

    def inverse(self) -> "Circuit":
        """The inverse circuit (branch-free circuits only)."""
        inverse = Circuit(self._num_qubits, name=f"{self._name}_inverse")
        for op in reversed(list(self.operations())):
            inverse.append(op.gate.dagger(), *op.qubits)
        return inverse

    def remap(
        self, mapping: Sequence[int] | dict[int, int], num_qubits: int | None = None
    ) -> "Circuit":
        """Relabel qubits according to ``mapping`` (logical -> physical).

        ``mapping`` may be a sequence (``mapping[logical] = physical``) or a
        dictionary.  Used by the device-mapping experiments (Table 3).
        """
        if isinstance(mapping, dict):
            lookup = dict(mapping)
        else:
            lookup = {logical: physical for logical, physical in enumerate(mapping)}
        target_size = num_qubits if num_qubits is not None else max(lookup.values()) + 1
        remapped = Circuit(target_size, name=f"{self._name}_mapped")
        for op in self.operations():
            try:
                new_qubits = [lookup[q] for q in op.qubits]
            except KeyError as exc:
                raise CircuitError(f"qubit {exc.args[0]} missing from mapping") from exc
            remapped.append(op.gate, *new_qubits)
        return remapped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Circuit(name={self._name!r}, num_qubits={self._num_qubits}, "
            f"gates={self.gate_count()})"
        )
