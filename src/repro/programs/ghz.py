"""GHZ state preparation circuits (Example 2.1 and Figure 16).

``ghz_circuit(n)`` builds the standard ladder: a Hadamard on qubit 0 followed
by a chain of CNOTs ``(0,1), (1,2), ..., (n-2, n-1)``.  This is the circuit
family used by the qubit-mapping study of Table 3 (GHZ-3 and GHZ-5).
"""

from __future__ import annotations

import numpy as np

from ..circuits.circuit import Circuit
from ..errors import CircuitError
from ..linalg.states import ghz_state

__all__ = ["ghz_circuit", "ghz_star_circuit", "ideal_ghz_distribution"]


def ghz_circuit(num_qubits: int, *, name: str | None = None) -> Circuit:
    """The standard GHZ ladder circuit (H then a CNOT chain)."""
    if num_qubits < 2:
        raise CircuitError("a GHZ state needs at least two qubits")
    circuit = Circuit(num_qubits, name=name or f"ghz_{num_qubits}")
    circuit.h(0)
    for q in range(num_qubits - 1):
        circuit.cx(q, q + 1)
    return circuit


def ghz_star_circuit(num_qubits: int, *, root: int = 0, name: str | None = None) -> Circuit:
    """A GHZ preparation fanning out from a root qubit (star pattern).

    Useful on devices whose coupling map has a central qubit; included to let
    the mapping experiments compare circuit shapes as well as placements.
    """
    if num_qubits < 2:
        raise CircuitError("a GHZ state needs at least two qubits")
    if not 0 <= root < num_qubits:
        raise CircuitError(f"root {root} outside the register")
    circuit = Circuit(num_qubits, name=name or f"ghz_star_{num_qubits}")
    circuit.h(root)
    for q in range(num_qubits):
        if q != root:
            circuit.cx(root, q)
    return circuit


def ideal_ghz_distribution(num_qubits: int) -> np.ndarray:
    """The ideal measurement distribution of a GHZ state (half 0...0, half 1...1)."""
    probabilities = np.abs(ghz_state(num_qubits)) ** 2
    return probabilities
