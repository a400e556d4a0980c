"""Derivation trees of the quantum error logic.

Every analysis performed by Gleipnir produces a :class:`Derivation`: a tree
whose nodes record which inference rule was applied (Figure 5), the judgment
it concluded, and — for Gate nodes — the certificate establishing the
per-gate bound: an SDP dual certificate, or a closed-form certificate for a
single-unitary-error channel.  The derivation is what makes the final bound
*verified*: :meth:`Derivation.check` re-validates every step independently of
the analyzer (certificate feasibility or the exact closed-form recomputation,
additivity of the Seq rule, the Meas rule arithmetic), raising
:class:`~repro.errors.DerivationCheckError` on any unsound step.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterator

import numpy as np

from ..errors import DerivationCheckError
from ..sdp.certificates import verify_certificate
from ..sdp.closed_form import verify_closed_form
from ..sdp.diamond import DiamondNormBound
from .judgment import Judgment

__all__ = [
    "DerivationNode",
    "Derivation",
    "GateContribution",
]


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
        """The δ the walk added after the nodes' predicates were read.

        The swaps that route a noisy gate's operands run before its
        predicate is read, so their truncation is in that gate's δ, not
        here; the final δ of the analysis counts both.
        """
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
        if node.bound.method == "closed-form":
            # Recomputed bit for bit from (p, V, σ, δ): no tolerance.
            if not verify_closed_form(node.bound.certificate):
                raise DerivationCheckError(
                    f"gate {node.gate_label!r}: closed-form certificate failed recomputation"
                )
        elif node.bound.choi is not None and node.bound.method not in ("noiseless", "exact-zero"):
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
