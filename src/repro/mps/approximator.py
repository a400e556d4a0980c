"""The tensor-network state approximator ``TN(rho0, P) = (rho_hat, delta)``.

:class:`MPSApproximator` is the stateful, gate-by-gate interface used by the
quantum error logic (Section 4): before bounding a gate's error it asks for
the local predicate ``(rho', delta)``; after bounding it advances the MPS
through the (ideal) gate and accumulates the truncation error, so ``delta``
stays the sound approximation bound of Theorem 5.1.  A measurement forks it
(Section 5.2, "Supporting branches"); the scheduler's walk
(:mod:`repro.core.scheduler`) drives it over whole programs.

A distant 2-qubit gate is routed lazily: asking for its predicate swaps the
operand on the lower site up next to its partner (it is never swapped
back), adds the swaps' truncation to ``delta`` and reads ``rho'`` off the
routed pair's two-site tensor, so the predicate's ``delta`` covers the
routing.  Applying the gate then finds the pair adjacent and splits once.

The approximator always evolves the *ideal* program: gate noise never enters
here.  Noise is handled exclusively by the (ρ̂, δ)-diamond norm of the gates
(Section 6); δ only accounts for the MPS truncation error.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.program import GateOp, Program
from ..config import DEFAULT_MPS_WIDTH
from ..errors import MPSError
from .mps import MPS
from .truncation import TruncationInfo

__all__ = ["LocalPredicate", "MPSApproximator"]


@dataclasses.dataclass(frozen=True)
class LocalPredicate:
    """The ``(rho', delta)`` pair used to constrain a gate's diamond norm.

    ``rho_local`` is the reduced density matrix of the approximate state on
    the gate's qubits (in gate operand order); ``delta`` is the accumulated
    trace-norm distance bound between the approximate global state and the
    ideal global state at this point of the program, the truncation of the
    swaps that routed the gate's operands included.
    """

    rho_local: np.ndarray
    delta: float
    qubits: tuple[int, ...]


class MPSApproximator:
    """Stateful MPS evolution with sound truncation-error accounting."""

    def __init__(self, mps: MPS, *, delta: float = 0.0):
        self._mps = mps
        self._delta = float(delta)

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_product_state(
        cls, bits: str | Sequence[int], *, width: int = DEFAULT_MPS_WIDTH
    ) -> "MPSApproximator":
        return cls(MPS.from_product_state(bits, max_bond=width))

    @classmethod
    def zero_state(cls, num_qubits: int, *, width: int = DEFAULT_MPS_WIDTH) -> "MPSApproximator":
        return cls(MPS.zero_state(num_qubits, max_bond=width))

    @classmethod
    def from_statevector(
        cls, statevector: np.ndarray, *, width: int = DEFAULT_MPS_WIDTH
    ) -> "MPSApproximator":
        mps = MPS.from_statevector(statevector, max_bond=width)
        # Building the MPS from a dense vector may itself truncate; that error
        # must be carried into delta to stay sound.
        exact = MPS.from_statevector(statevector, max_bond=None)
        initial_delta = exact.overlap_error(mps) if mps.max_bond is not None else 0.0
        return cls(mps, delta=initial_delta)

    # -- accessors -------------------------------------------------------------
    @property
    def mps(self) -> MPS:
        return self._mps

    @property
    def delta(self) -> float:
        """Accumulated approximation bound ``delta`` (trace-norm convention)."""
        return min(2.0, self._delta)

    @property
    def width(self) -> int | None:
        return self._mps.max_bond

    @property
    def num_qubits(self) -> int:
        return self._mps.num_qubits

    def copy(self) -> "MPSApproximator":
        return MPSApproximator(self._mps.copy(), delta=self._delta)

    def weaken_to(self, delta: float) -> "MPSApproximator":
        """Raise the accumulated distance bound (never lowers it); returns self.

        Corresponds to using the Weaken rule in reverse: declaring that the
        approximation is only known to be within ``delta`` of the ideal state.
        ``delta`` is compared with the reported, capped :attr:`delta`, so
        ``weaken_to(2.0)`` always succeeds.
        """
        if delta < self.delta:
            raise MPSError("weaken_to cannot decrease the approximation bound")
        self._delta = max(self._delta, float(delta))
        return self

    # -- predicates --------------------------------------------------------------
    def local_predicate(self, qubits: Sequence[int]) -> LocalPredicate:
        """The ``(rho', delta)`` predicate for a gate acting on ``qubits``.

        Two qubits are routed onto adjacent sites first (:meth:`MPS.route`);
        the swaps' truncation enters ``delta`` before it is read, so the
        returned ``delta`` is the distance after routing.
        """
        qubits = tuple(int(q) for q in qubits)
        if len(qubits) == 2:
            self._accumulate(self._mps.route(qubits))
        rho = self._mps.reduced_density_matrix(qubits)
        return LocalPredicate(rho_local=rho, delta=self.delta, qubits=qubits)

    # -- evolution ------------------------------------------------------------------
    def apply_gate_op(self, op: GateOp) -> float:
        """Advance the MPS through one ideal gate; returns the added truncation."""
        return self.apply_gate(op.gate.matrix, op.qubits)

    def apply_gate(self, matrix: np.ndarray, qubits: Sequence[int]) -> float:
        """Apply a gate matrix to the MPS and accumulate its truncation error.

        Returns the δ added, with the routing swaps of a pair that
        :meth:`local_predicate` has not already routed.
        """
        records = self._mps.apply_gate(np.asarray(matrix, dtype=np.complex128), list(qubits))
        return self._accumulate(records)

    def _accumulate(self, records: list[TruncationInfo]) -> float:
        """Add the records' truncation to δ; returns the sum added."""
        added = 0.0
        for record in records:
            added += record.trace_norm_error
        self._delta += added
        return added

    def apply_circuit(self, circuit: Circuit | Program) -> float:
        """Apply every gate of a branch-free circuit/program; returns added delta."""
        program = circuit.to_program() if isinstance(circuit, Circuit) else circuit
        added = 0.0
        for op in program.operations():
            added += self.apply_gate_op(op)
        return added

    # -- measurement branching ---------------------------------------------------------
    def branch_on_measurement(self, qubit: int) -> list[tuple[int, float, "MPSApproximator"]]:
        """Fork the approximator on a computational-basis measurement of ``qubit``.

        Returns a list of ``(outcome, probability, approximator)`` tuples for
        the outcomes with non-negligible probability.  Each branch keeps the
        parent's accumulated δ (projections do not increase trace distance,
        see the Meas soundness argument in Appendix A).
        """
        branches: list[tuple[int, float, MPSApproximator]] = []
        for outcome in (0, 1):
            probability = self._mps.outcome_probability(qubit, outcome)
            if probability <= 1e-12:
                continue
            child = self.copy()
            child._mps.project(qubit, outcome)
            branches.append((outcome, probability, child))
        if not branches:
            raise MPSError(f"measurement of qubit {qubit} has no feasible outcome")
        return branches
