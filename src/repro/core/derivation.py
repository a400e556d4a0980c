"""Derivation trees of the quantum error logic, and the replay tape.

Every analysis performed by Gleipnir produces a :class:`Derivation`: a tree
whose nodes record which inference rule was applied (Figure 5), the judgment
it concluded, and — for Gate nodes — the SDP certificate establishing the
per-gate bound.  The derivation is what makes the final bound *verified*:
:meth:`Derivation.check` re-validates every step independently of the
analyzer (certificate feasibility, additivity of the Seq rule, the Meas rule
arithmetic), raising :class:`~repro.errors.DerivationCheckError` on any
unsound step.

The module also defines the :class:`ReplayTape`: the single-pass contract
between the bound scheduler's MPS pre-pass and the derivation replay.  The
pre-pass walks the normalised program once, recording for every node exactly
the approximator facts the inference rules need — the local predicate,
bound-cache class key and truncation of each gate, the branch probabilities
of each measurement, the accumulated δ at each skip.  The analyzer then
rebuilds the derivation from the tape without evolving a second MPS or
quantising a predicate again, so the tensor-network phase runs once per
input instead of twice.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

import numpy as np

from ..errors import DerivationCheckError, LogicError
from ..sdp.certificates import verify_certificate
from ..sdp.diamond import DiamondNormBound
from .judgment import Judgment

__all__ = [
    "DerivationNode",
    "Derivation",
    "GateContribution",
    "ReplayTape",
    "TapeGate",
    "TapeMeasure",
    "TapeSkip",
]


# ---------------------------------------------------------------------------
# The replay tape (single-pass MPS contract)
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class TapeSkip:
    """Accumulated δ at a Skip node (the Skip rule's predicate distance)."""

    delta: float


@dataclasses.dataclass(frozen=True)
class TapeGate:
    """One gate application of the pre-pass.

    ``rho_local`` is the *raw* (unquantised) reduced density matrix before
    the gate, and ``key`` the bound-cache class key it quantises to — both
    None for noiseless gates, which never ask for a predicate.  The replay
    reads the gate's bound by ``key`` and never quantises again.
    ``delta_before`` doubles as the predicate distance (both read
    ``approximator.delta`` at the same point).
    """

    delta_before: float
    rho_local: np.ndarray | None
    truncation_added: float
    delta_after: float
    key: tuple | None = None


@dataclasses.dataclass(frozen=True)
class TapeMeasure:
    """One measurement fork: δ before the fork and the reachable outcomes.

    ``probabilities`` is None for a fork the walk reached saturated (δ = 2),
    which estimates nothing: the Meas rule then concludes ε = 1 whatever the
    branches hold.
    """

    delta_before: float
    probabilities: tuple[tuple[int, float], ...] | None


class ReplayTape:
    """Sequential record of one MPS walk, consumed in the same order.

    The scheduler's pre-pass and the analyzer's replay traverse the
    normalised program identically (Seq parts in order, measurement branches
    in (0, 1) order, unreachable and saturated branches included), so a flat
    record list
    aligns the two passes.  :meth:`take` enforces the alignment: a record of
    the wrong kind, a premature end, or leftover records after the replay
    (:meth:`verify_exhausted`) all mean the traversals diverged and raise
    :class:`~repro.errors.LogicError` rather than silently mixing up
    predicates.
    """

    def __init__(self) -> None:
        self._records: list[TapeSkip | TapeGate | TapeMeasure] = []
        self._cursor = 0

    def record(self, entry: TapeSkip | TapeGate | TapeMeasure) -> int:
        """Append ``entry``; return its position."""
        self._records.append(entry)
        return len(self._records) - 1

    def attach_key(self, position: int, key: tuple) -> None:
        """Set the class key of the gate recorded at ``position``."""
        self._records[position] = dataclasses.replace(self._records[position], key=key)

    def __len__(self) -> int:
        return len(self._records)

    @property
    def num_gates(self) -> int:
        return sum(1 for record in self._records if isinstance(record, TapeGate))

    def rewind(self) -> None:
        self._cursor = 0

    def take(self, kind: type) -> TapeSkip | TapeGate | TapeMeasure:
        """Consume the next record, which must be of ``kind``."""
        if self._cursor >= len(self._records):
            raise LogicError(
                f"replay tape exhausted while expecting a {kind.__name__} record"
            )
        entry = self._records[self._cursor]
        if not isinstance(entry, kind):
            raise LogicError(
                f"replay tape out of step: expected {kind.__name__}, "
                f"found {type(entry).__name__} at position {self._cursor}"
            )
        self._cursor += 1
        return entry

    def verify_exhausted(self) -> None:
        """Raise unless the replay consumed every record of the pre-pass."""
        if self._cursor != len(self._records):
            raise LogicError(
                f"replay consumed {self._cursor} of {len(self._records)} tape "
                "records; the pre-pass and the replay traversed different programs"
            )


@dataclasses.dataclass(frozen=True)
class GateContribution:
    """Per-gate summary row used in reports and examples."""

    index: int
    gate_label: str
    qubits: tuple[int, ...]
    epsilon: float
    delta_before: float
    truncation_added: float
    sdp_method: str


@dataclasses.dataclass
class DerivationNode:
    """One application of an inference rule."""

    rule: str
    judgment: Judgment
    children: list["DerivationNode"] = dataclasses.field(default_factory=list)
    # Gate-rule payload.
    gate_label: str | None = None
    qubits: tuple[int, ...] | None = None
    rho_local: np.ndarray | None = None
    bound: DiamondNormBound | None = None
    # Seq-rule payload: δ added by the TN step *after* this child.
    truncation_added: float = 0.0
    # Meas-rule payload.
    measured_qubit: int | None = None
    branch_probabilities: tuple[float, ...] | None = None

    def iter_nodes(self) -> Iterator["DerivationNode"]:
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def pretty(self, indent: int = 0) -> str:
        pad = "  " * indent
        header = f"{pad}[{self.rule}] {self.judgment.pretty()}"
        lines = [header]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)


class Derivation:
    """A complete derivation of ``(rho_hat, delta) |- P_omega <= eps``."""

    def __init__(
        self,
        root: DerivationNode,
        *,
        noise_model_name: str = "",
        mps_width: int | None = None,
    ):
        self.root = root
        self.noise_model_name = noise_model_name
        self.mps_width = mps_width

    # -- queries ---------------------------------------------------------------
    @property
    def error_bound(self) -> float:
        return self.root.judgment.epsilon

    def nodes(self) -> list[DerivationNode]:
        return list(self.root.iter_nodes())

    def gate_nodes(self) -> list[DerivationNode]:
        return [node for node in self.root.iter_nodes() if node.rule == "gate"]

    def gate_contributions(self) -> list[GateContribution]:
        """Per-gate bound contributions in program order."""
        rows = []
        for index, node in enumerate(self.gate_nodes()):
            rows.append(
                GateContribution(
                    index=index,
                    gate_label=node.gate_label or "?",
                    qubits=node.qubits or (),
                    epsilon=node.judgment.epsilon,
                    delta_before=node.judgment.delta,
                    truncation_added=node.truncation_added,
                    sdp_method=(node.bound.method if node.bound is not None else "n/a"),
                )
            )
        return rows

    def total_truncation(self) -> float:
        return sum(node.truncation_added for node in self.root.iter_nodes())

    def pretty(self) -> str:
        return self.root.pretty()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.pretty()

    # -- re-validation ------------------------------------------------------------
    def check(self, *, tolerance: float = 1e-7) -> None:
        """Re-validate the whole derivation; raise on any unsound step."""
        self._check_node(self.root, tolerance)

    def _check_node(self, node: DerivationNode, tolerance: float) -> None:
        for child in node.children:
            self._check_node(child, tolerance)

        if node.rule == "skip":
            if node.judgment.epsilon != 0.0:
                raise DerivationCheckError("Skip rule must conclude a zero bound")
        elif node.rule == "gate":
            self._check_gate(node, tolerance)
        elif node.rule == "seq":
            self._check_seq(node, tolerance)
        elif node.rule == "meas":
            self._check_meas(node, tolerance)
        elif node.rule == "weaken":
            self._check_weaken(node, tolerance)
        else:
            raise DerivationCheckError(f"unknown rule {node.rule!r}")

    def _check_gate(self, node: DerivationNode, tolerance: float) -> None:
        if node.bound is None:
            # Noiseless gates carry no SDP bound; their epsilon must be zero.
            if node.judgment.epsilon != 0.0:
                raise DerivationCheckError(
                    f"gate {node.gate_label!r} has no certificate but a non-zero bound"
                )
            return
        if node.judgment.epsilon + tolerance < node.bound.value:
            raise DerivationCheckError(
                f"gate {node.gate_label!r} concluded {node.judgment.epsilon} below "
                f"its certified bound {node.bound.value}"
            )
        if node.bound.choi is not None and node.bound.method not in ("noiseless", "exact-zero"):
            if not verify_certificate(
                node.bound.certificate, node.bound.choi, tolerance=max(tolerance, 1e-6)
            ):
                raise DerivationCheckError(
                    f"gate {node.gate_label!r}: dual certificate failed re-verification"
                )

    def _check_seq(self, node: DerivationNode, tolerance: float) -> None:
        total = sum(child.judgment.epsilon for child in node.children)
        if node.judgment.epsilon + tolerance < total:
            raise DerivationCheckError(
                f"Seq rule concluded {node.judgment.epsilon} below the sum of its parts {total}"
            )
        # The predicate distance must grow monotonically along the sequence:
        # delta_{i+1} >= delta_i (the TN step only adds error).
        deltas = [child.judgment.delta for child in node.children]
        for before, after in zip(deltas, deltas[1:]):
            if after + tolerance < before:
                raise DerivationCheckError(
                    "Seq rule children have decreasing predicate distances"
                )

    def _check_meas(self, node: DerivationNode, tolerance: float) -> None:
        if not node.children:
            raise DerivationCheckError("Meas rule requires at least one branch")
        branch_eps = max(child.judgment.epsilon for child in node.children)
        delta = min(1.0, node.judgment.delta)
        expected = (1.0 - delta) * branch_eps + delta
        if node.judgment.epsilon + tolerance < expected:
            raise DerivationCheckError(
                f"Meas rule concluded {node.judgment.epsilon} below (1-d)e+d = {expected}"
            )

    def _check_weaken(self, node: DerivationNode, tolerance: float) -> None:
        if len(node.children) != 1:
            raise DerivationCheckError("Weaken rule must have exactly one premise")
        child = node.children[0]
        if node.judgment.delta > child.judgment.delta + tolerance:
            raise DerivationCheckError("Weaken rule increased the predicate distance")
        if node.judgment.epsilon + tolerance < child.judgment.epsilon:
            raise DerivationCheckError("Weaken rule decreased the error bound")
