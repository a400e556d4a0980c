"""Program-level gate-bound scheduler: one MPS walk, then one batched solve.

The analysis pays for the MPS walk once and for each distinct gate SDP
once.  This module does both before the derivation is built:

1. a *walk* evolves the MPS approximator over the normalised program —
   including measurement branching — and returns a tree of walk records
   that mirrors the program: a :class:`WalkSkip` per skip, a
   :class:`WalkGate` per gate, a :class:`WalkMeasure` per measurement fork
   and a tuple per sequence.  Once δ reaches its cap of 2 (and inside
   branches the approximation deems unreachable) the walk is *saturated*:
   every predicate is the trivial one, whatever the MPS holds, so the walk
   stops evolving the MPS and gives each later gate
   ``trivial_local_predicate``;
2. after the walk, one stacked pass
   (:func:`repro.sdp.diamond.quantise_predicates`) quantises every noisy
   gate's predicate;
3. every noisy gate, with its own unitary, noise channel and quantised
   predicate, goes to one :func:`repro.sdp.diamond.gate_error_bounds_batch`
   call.  That call reduces each gate to its problem, bounds a gate whose
   channel has a single unitary error in closed form, and solves each
   distinct remaining (Choi, σ, c) SDP once, compared byte for byte, so two
   gates share a bound exactly when they reduce to the same problem;
4. each returned bound is written onto its gate's record, and the analyzer
   folds the walk tree into the derivation.  The fold never reads the
   program again, so it follows the walk by construction, and nothing is
   quantised twice.

Every bound still carries its independently verified dual certificate,
and each equals the bound :func:`repro.sdp.diamond.gate_error_bound`
certifies for the same quantised predicate on its own.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from ..circuits.program import GateOp, IfMeasure, Program, Seq, Skip
from ..config import AnalysisConfig, check_deadline
from ..errors import LogicError
from ..linalg.channels import QuantumChannel
from ..mps.approximator import MPSApproximator
from ..noise.model import NoiseModel
from ..obs.trace import span
from ..sdp.diamond import DiamondNormBound, gate_error_bounds_batch, quantise_predicates
from .predicate import VACUOUS_DELTA, trivial_local_predicate

__all__ = [
    "WalkSkip",
    "WalkGate",
    "WalkMeasure",
    "WalkNode",
    "SchedulerReport",
    "BoundScheduler",
    "clear_tape_memo",
]


def clear_tape_memo() -> None:
    """No-op, kept because ``perfbench/workloads.py`` imports it."""


@dataclasses.dataclass(frozen=True)
class WalkSkip:
    """A Skip node: the accumulated δ (the Skip rule's predicate distance)."""

    delta: float


@dataclasses.dataclass
class WalkGate:
    """One gate application of the walk.

    ``rho_local`` is the *raw* (unquantised) reduced density matrix before
    the gate and ``bound`` the certified bound of its quantised predicate,
    written by :meth:`BoundScheduler.prefill` — both None for a noiseless
    gate, which never asks for a predicate.  ``delta_before`` is also the
    predicate distance: for a noisy gate it is read after its operands are
    routed, so it includes the routing swaps' truncation, and
    ``truncation_added`` is what the walk added after that (for a noiseless
    gate, the routing too).  ``delta_after`` is their sum, capped at 2.
    """

    op: GateOp
    delta_before: float
    delta_after: float
    truncation_added: float
    rho_local: np.ndarray | None
    bound: DiamondNormBound | None = None


@dataclasses.dataclass(frozen=True)
class WalkMeasure:
    """One measurement fork and the walks of both of its branches.

    ``probabilities`` holds the estimated ``(p0, p1)``; an outcome the
    approximation deems unreachable has probability 0 and its branch is
    walked saturated.  It is None for a fork the walk reached saturated,
    which estimates nothing.
    """

    qubit: int
    delta: float
    probabilities: tuple[float, float] | None
    then_branch: WalkNode
    else_branch: WalkNode


#: One node of the walk tree; a tuple holds the walks of a ``Seq``'s parts.
WalkNode = WalkSkip | WalkGate | WalkMeasure | tuple


@dataclasses.dataclass
class SchedulerReport:
    """What the pre-pass walked and solved.

    ``num_gate_instances`` counts the noisy gates and ``num_unique_classes``
    the distinct SDPs solved for them (the name is older than the per-problem
    dedupe); gates bounded in closed form add nothing to it.  The bounds
    themselves sit on the walk's :class:`WalkGate` records.
    """

    num_gate_instances: int = 0
    num_unique_classes: int = 0
    walk: WalkNode | None = None
    #: Wall-clock seconds of the MPS walk (with the stacked quantisation of
    #: its predicates) and of the batched solve phase.
    walk_seconds: float = 0.0
    solve_seconds: float = 0.0


class BoundScheduler:
    """Walk a program, then batch-solve the bounds of its noisy gates."""

    def __init__(self, noise_model: NoiseModel, config: AnalysisConfig):
        self.noise_model = noise_model
        self.config = config
        self._noisy: list[tuple[WalkGate, QuantumChannel]] = []

    # -- public entry --------------------------------------------------------
    def collect(self, program: Program, initial_bits: list[int]) -> WalkNode:
        """Walk ``program`` once and return the walk tree, with no bounds yet."""
        approximator = MPSApproximator.from_product_state(
            initial_bits, width=self.config.mps_width
        )
        self._noisy.clear()
        with span("scheduler.walk", "scheduler"):
            return self._collect(program, approximator)

    def prefill(self, program: Program, initial_bits: list[int]) -> SchedulerReport:
        """Walk ``program``, solve every distinct gate SDP once, and put each
        bound on its gate's record."""
        walk_start = time.perf_counter()
        walk = self.collect(program, initial_bits)
        noisy = self._noisy
        with span("scheduler.quantise", "scheduler", count=len(noisy)):
            predicates = quantise_predicates(
                [record.rho_local for record, _channel in noisy],
                [record.delta_before for record, _channel in noisy],
            )
        report = SchedulerReport(
            num_gate_instances=len(noisy),
            walk=walk,
            walk_seconds=time.perf_counter() - walk_start,
        )
        if not noisy:
            return report

        solve_start = time.perf_counter()
        with span("scheduler.solve", "scheduler", gates=len(noisy)):
            bounds = gate_error_bounds_batch(
                [
                    (record.op.gate.matrix, channel, rho, delta)
                    for (record, channel), (rho, delta) in zip(noisy, predicates)
                ],
                noise_after_gate=self.noise_model.noise_after_gate,
                config=self.config.sdp,
            )
        for (record, _channel), bound in zip(noisy, bounds):
            record.bound = bound
        report.num_unique_classes = len(
            {id(bound) for bound in bounds if bound.method != "closed-form"}
        )
        report.solve_seconds = time.perf_counter() - solve_start
        return report

    # -- the walk ------------------------------------------------------------
    def _collect(self, program: Program, approximator: MPSApproximator | None) -> WalkNode:
        """Walk ``program``; ``approximator`` is None once the walk saturates.

        At δ = 2 the predicate ``tr(ρ̂ ρ) >= ||ρ̂||_F (||ρ̂||_F - δ)`` has a
        negative bound for every ρ̂, so no later bound depends on the MPS and
        the walk drops it.  A branch the approximation deems unreachable
        starts out saturated.
        """
        if approximator is not None and approximator.delta >= VACUOUS_DELTA:
            approximator = None
        if isinstance(program, GateOp):
            return self._collect_gate(program, approximator)
        if isinstance(program, Seq):
            return tuple(self._collect(part, approximator) for part in program.parts)
        if isinstance(program, IfMeasure):
            return self._collect_measure(program, approximator)
        if isinstance(program, Skip):
            return WalkSkip(VACUOUS_DELTA if approximator is None else approximator.delta)
        raise LogicError(f"unknown program node {type(program).__name__}")

    def _collect_gate(self, op: GateOp, approximator: MPSApproximator | None) -> WalkGate:
        check_deadline()
        channel = self.noise_model.channel_for(op.gate, op.qubits)
        predicate = None
        if approximator is not None and channel is not None:
            # Reading the predicate routes a distant pair, and the routing
            # swaps' truncation is in its δ: δ must be read after it.
            predicate = approximator.local_predicate(op.qubits)
            if predicate.delta >= VACUOUS_DELTA:
                approximator = None
        if approximator is None:
            if channel is not None:
                predicate = trivial_local_predicate(len(op.qubits))
            delta_before = delta_after = VACUOUS_DELTA
            truncation_added = 0.0
        else:
            delta_before = predicate.delta if predicate is not None else approximator.delta
            truncation_added = approximator.apply_gate_op(op)
            delta_after = approximator.delta
        record = WalkGate(
            op=op,
            delta_before=delta_before,
            delta_after=delta_after,
            truncation_added=truncation_added,
            rho_local=predicate.rho_local if predicate is not None else None,
        )
        if channel is not None:
            self._noisy.append((record, channel))
        return record

    def _collect_measure(
        self, program: IfMeasure, approximator: MPSApproximator | None
    ) -> WalkMeasure:
        """Fork the walk; a saturated fork estimates no probabilities."""
        reachable: dict[int, MPSApproximator] = {}
        probabilities = None
        delta = VACUOUS_DELTA
        if approximator is not None:
            forks = approximator.branch_on_measurement(program.qubit)
            reachable = {outcome: child for outcome, _probability, child in forks}
            estimated = {outcome: probability for outcome, probability, _child in forks}
            probabilities = (estimated.get(0, 0.0), estimated.get(1, 0.0))
            delta = approximator.delta
        return WalkMeasure(
            qubit=program.qubit,
            delta=delta,
            probabilities=probabilities,
            then_branch=self._collect(program.then_branch, reachable.get(0)),
            else_branch=self._collect(program.else_branch, reachable.get(1)),
        )
