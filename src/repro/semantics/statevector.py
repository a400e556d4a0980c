"""Exact state-vector simulation of branch-free quantum programs.

This simulator is the reference implementation used to validate the MPS
approximator (which must agree exactly when the bond dimension is large
enough) and to compute ideal output distributions for the device experiments.
It scales as ``2**n`` in memory and is guarded by the resource budget.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.program import Program
from ..config import ResourceGuard
from ..errors import SimulationError
from ..linalg.states import num_qubits_of, zero_state

__all__ = ["StatevectorSimulator", "apply_gate_to_statevector", "simulate_statevector"]


def apply_gate_to_statevector(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int]
) -> np.ndarray:
    """Apply a k-qubit gate to the given qubits of a state vector.

    Uses a tensor reshape/contraction rather than building the ``2**n``-sized
    embedded operator, so it is usable up to ~24 qubits.
    """
    state = np.asarray(state, dtype=np.complex128)
    n = num_qubits_of(state)
    k = len(qubits)
    matrix = np.asarray(matrix, dtype=np.complex128)
    if matrix.shape != (2**k, 2**k):
        raise SimulationError(
            f"gate matrix shape {matrix.shape} does not match {k} target qubits"
        )
    tensor = state.reshape([2] * n)
    gate_tensor = matrix.reshape([2] * (2 * k))
    # Contract gate columns with the target axes of the state.
    tensor = np.tensordot(gate_tensor, tensor, axes=(list(range(k, 2 * k)), list(qubits)))
    # tensordot puts the gate's output axes first; restore canonical order.
    remaining = [axis for axis in range(n) if axis not in qubits]
    current_order = list(qubits) + remaining
    perm = [current_order.index(axis) for axis in range(n)]
    tensor = tensor.transpose(perm)
    return tensor.reshape(-1)


class StatevectorSimulator:
    """Pure-state simulator for branch-free programs."""

    def __init__(self, guard: ResourceGuard | None = None):
        self._guard = guard or ResourceGuard()

    def run(
        self,
        program: Program | Circuit,
        *,
        initial_state: np.ndarray | None = None,
        num_qubits: int | None = None,
    ) -> np.ndarray:
        """Simulate and return the final state vector.

        Args:
            program: a branch-free program or circuit.
            initial_state: optional initial state vector (defaults to |0...0>).
            num_qubits: register size (inferred from the program/state if omitted).
        """
        if isinstance(program, Circuit):
            n = program.num_qubits
            ast = program.to_program()
        else:
            ast = program
            n = program.num_qubits
        if initial_state is not None:
            n = max(n, num_qubits_of(np.asarray(initial_state)))
        if num_qubits is not None:
            n = max(n, num_qubits)
        if n == 0:
            raise SimulationError("cannot simulate a program with no qubits")
        self._guard.check_statevector_qubits(n)

        state = zero_state(n) if initial_state is None else np.asarray(
            initial_state, dtype=np.complex128
        ).copy()
        if state.shape != (2**n,):
            raise SimulationError(
                f"initial state of dimension {state.shape} does not match {n} qubits"
            )
        for op in ast.operations():
            state = apply_gate_to_statevector(state, op.gate.matrix, op.qubits)
        return state

    def probabilities(self, program: Program | Circuit, **kwargs) -> np.ndarray:
        """Computational-basis outcome probabilities of the final state."""
        state = self.run(program, **kwargs)
        return np.abs(state) ** 2


def simulate_statevector(
    program: Program | Circuit,
    *,
    initial_state: np.ndarray | None = None,
    num_qubits: int | None = None,
    guard: ResourceGuard | None = None,
) -> np.ndarray:
    """Functional wrapper around :class:`StatevectorSimulator`."""
    sim = StatevectorSimulator(guard)
    return sim.run(program, initial_state=initial_state, num_qubits=num_qubits)
