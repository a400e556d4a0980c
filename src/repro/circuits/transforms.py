"""Circuit transformation passes.

These are the compiler-style rewrites used by the device experiments:

* :func:`decompose_swaps` — expand SWAP gates into three CNOTs;
* :func:`route_to_coupling` — insert SWAP gates so every 2-qubit gate acts on
  an edge of a coupling graph (used by the qubit-mapping study of Table 3);
* :func:`count_gates_by_name` — a histogram of gate names.

The rewrites take and return :class:`~repro.circuits.circuit.Circuit`
objects and never mutate their input.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import networkx as nx

from ..errors import CircuitError
from .circuit import Circuit

__all__ = [
    "decompose_swaps",
    "route_to_coupling",
    "count_gates_by_name",
]


def decompose_swaps(circuit: Circuit) -> Circuit:
    """Rewrite every SWAP as three alternating CNOTs."""
    out = Circuit(circuit.num_qubits, name=f"{circuit.name}_swap_decomposed")
    for op in circuit.operations():
        if op.gate.name == "swap":
            a, b = op.qubits
            out.cx(a, b)
            out.cx(b, a)
            out.cx(a, b)
        else:
            out.append(op.gate, *op.qubits)
    return out


def count_gates_by_name(circuit: Circuit) -> dict[str, int]:
    """Histogram of gate names, useful in reports and tests."""
    counts: dict[str, int] = {}
    for op in circuit.operations():
        counts[op.gate.name] = counts.get(op.gate.name, 0) + 1
    return counts


def route_to_coupling(
    circuit: Circuit,
    edges: Iterable[tuple[int, int]],
    *,
    num_physical_qubits: int | None = None,
    initial_layout: Sequence[int] | None = None,
) -> Circuit:
    """Insert SWAPs so that every 2-qubit gate acts on a coupling-graph edge.

    A simple greedy router: logical qubits start at ``initial_layout``
    (identity by default); before each 2-qubit gate acting on physically
    distant qubits, SWAP gates move one operand along a shortest path until
    the operands are adjacent.  The emitted circuit acts on *physical* qubits.

    This mirrors what a NISQ compiler does after choosing a qubit mapping
    (Section 7.2); mapping selection itself lives in
    :mod:`repro.devices.mapping`.
    """
    graph = nx.Graph()
    graph.add_edges_from(edges)
    if num_physical_qubits is None:
        num_physical_qubits = (
            (max(graph.nodes) + 1) if graph.number_of_nodes() else circuit.num_qubits
        )
    graph.add_nodes_from(range(num_physical_qubits))

    if initial_layout is None:
        layout = list(range(circuit.num_qubits))
    else:
        layout = list(initial_layout)
    if len(layout) < circuit.num_qubits:
        raise CircuitError("initial_layout must place every logical qubit")
    if len(set(layout)) != len(layout):
        raise CircuitError("initial_layout must be injective")
    for physical in layout:
        if physical not in graph.nodes:
            raise CircuitError(f"layout uses physical qubit {physical} not in the device")

    # logical -> physical position
    position = {logical: physical for logical, physical in enumerate(layout)}
    # physical -> logical occupant (or None)
    occupant: dict[int, int | None] = {p: None for p in graph.nodes}
    for logical, physical in position.items():
        occupant[physical] = logical

    routed = Circuit(num_physical_qubits, name=f"{circuit.name}_routed")

    def apply_swap(a: int, b: int) -> None:
        routed.swap(a, b)
        la, lb = occupant[a], occupant[b]
        occupant[a], occupant[b] = lb, la
        if la is not None:
            position[la] = b
        if lb is not None:
            position[lb] = a

    for op in circuit.operations():
        if op.gate.num_qubits == 1:
            routed.append(op.gate, position[op.qubits[0]])
            continue
        if op.gate.num_qubits != 2:
            raise CircuitError("route_to_coupling handles 1- and 2-qubit gates only")
        a, b = (position[q] for q in op.qubits)
        if not graph.has_edge(a, b):
            try:
                path = nx.shortest_path(graph, a, b)
            except nx.NetworkXNoPath as exc:
                raise CircuitError(
                    f"physical qubits {a} and {b} are disconnected in the coupling graph"
                ) from exc
            # Walk qubit `a` along the path until adjacent to `b`.
            for step in range(1, len(path) - 1):
                apply_swap(path[step - 1], path[step])
            a, b = (position[q] for q in op.qubits)
            if not graph.has_edge(a, b):
                raise CircuitError("routing failed to make operands adjacent")
        routed.append(op.gate, a, b)
    return routed
