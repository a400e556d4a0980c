"""Device coupling maps (Figure 15).

A :class:`CouplingMap` records which pairs of physical qubits can host a
2-qubit gate.  Besides generic constructors (linear chains, grids, rings),
this module defines the topologies used in the paper's Table 3 experiment:
an IBM-Boeblingen-like 20-qubit lattice and an IBM-Lima-like 5-qubit "T".
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import networkx as nx

from ..errors import DeviceError

__all__ = ["CouplingMap"]


class CouplingMap:
    """An undirected coupling graph over physical qubits 0..n-1."""

    def __init__(self, num_qubits: int, edges: Iterable[tuple[int, int]], *, name: str = "device"):
        if num_qubits < 1:
            raise DeviceError("a device needs at least one qubit")
        self._graph = nx.Graph()
        self._graph.add_nodes_from(range(num_qubits))
        for a, b in edges:
            a, b = int(a), int(b)
            if a == b:
                raise DeviceError(f"self-loop on qubit {a}")
            if not (0 <= a < num_qubits and 0 <= b < num_qubits):
                raise DeviceError(f"edge ({a}, {b}) outside 0..{num_qubits - 1}")
            self._graph.add_edge(a, b)
        self._name = name

    # -- constructors ------------------------------------------------------------
    @classmethod
    def linear(cls, num_qubits: int) -> "CouplingMap":
        """A chain 0-1-2-...-(n-1)."""
        return cls(
            num_qubits,
            [(i, i + 1) for i in range(num_qubits - 1)],
            name=f"linear_{num_qubits}",
        )

    @classmethod
    def ring(cls, num_qubits: int) -> "CouplingMap":
        edges = [(i, (i + 1) % num_qubits) for i in range(num_qubits)]
        return cls(num_qubits, edges, name=f"ring_{num_qubits}")

    @classmethod
    def grid(cls, rows: int, cols: int) -> "CouplingMap":
        """A rows x cols rectangular lattice."""
        edges = []
        for r in range(rows):
            for c in range(cols):
                q = r * cols + c
                if c + 1 < cols:
                    edges.append((q, q + 1))
                if r + 1 < rows:
                    edges.append((q, q + cols))
        return cls(rows * cols, edges, name=f"grid_{rows}x{cols}")

    @classmethod
    def ibm_boeblingen(cls) -> "CouplingMap":
        """A 20-qubit lattice with the Boeblingen-style ladder connectivity.

        Four rows of five qubits; neighbouring qubits within a row are coupled,
        and rows are linked by vertical edges at alternating columns
        (Figure 15, left).
        """
        edges = [
            (0, 1), (1, 2), (2, 3), (3, 4),
            (5, 6), (6, 7), (7, 8), (8, 9),
            (10, 11), (11, 12), (12, 13), (13, 14),
            (15, 16), (16, 17), (17, 18), (18, 19),
            (1, 6), (3, 8),
            (5, 10), (7, 12), (9, 14),
            (11, 16), (13, 18),
        ]
        return cls(20, edges, name="ibm_boeblingen")

    @classmethod
    def ibm_lima(cls) -> "CouplingMap":
        """The 5-qubit T-shaped device of Figure 15 (right)."""
        return cls(5, [(0, 1), (1, 2), (1, 3), (3, 4)], name="ibm_lima")

    # -- queries -------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def num_qubits(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def graph(self) -> nx.Graph:
        return self._graph

    def edges(self) -> list[tuple[int, int]]:
        return [tuple(sorted(edge)) for edge in self._graph.edges]

    def has_edge(self, a: int, b: int) -> bool:
        return self._graph.has_edge(a, b)

    def degree(self, qubit: int) -> int:
        return self._graph.degree(qubit)

    def distance(self, a: int, b: int) -> int:
        """Shortest-path distance between two physical qubits."""
        try:
            return nx.shortest_path_length(self._graph, a, b)
        except nx.NetworkXNoPath as exc:
            raise DeviceError(f"qubits {a} and {b} are disconnected") from exc

    def shortest_path(self, a: int, b: int) -> list[int]:
        try:
            return nx.shortest_path(self._graph, a, b)
        except nx.NetworkXNoPath as exc:
            raise DeviceError(f"qubits {a} and {b} are disconnected") from exc

    def is_connected_path(self, qubits: Sequence[int]) -> bool:
        """Whether consecutive entries of ``qubits`` are all coupled."""
        return all(self.has_edge(a, b) for a, b in zip(qubits, qubits[1:]))

    def simple_paths(self, length: int) -> list[list[int]]:
        """All simple paths with ``length`` vertices (used by mapping search)."""
        if length < 1:
            raise DeviceError("path length must be at least 1")
        if length == 1:
            return [[q] for q in range(self.num_qubits)]
        paths: list[list[int]] = []
        for source in self._graph.nodes:
            for target in self._graph.nodes:
                if source == target:
                    continue
                for path in nx.all_simple_paths(self._graph, source, target, cutoff=length - 1):
                    if len(path) == length:
                        paths.append(list(path))
        return paths

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CouplingMap(name={self._name!r}, qubits={self.num_qubits}, "
            f"edges={len(self.edges())})"
        )
