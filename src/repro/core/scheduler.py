"""Program-level gate-bound scheduler: one MPS walk, then batched solves.

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
   (:func:`repro.sdp.diamond.quantise_keys`) quantises every noisy gate's
   predicate into its solve-class key, puts each key on its gate's record,
   and dedupes the keys into unique solve classes in walk order;
3. the unique classes are solved through the *batched* SDP kernel — each
   distinct reduced problem once, same-shaped problems in lock-step inside
   one interior-point run, and all their dual certificates verified in one
   fused batch certification pass;
4. the solved bounds come back in :attr:`SchedulerReport.bounds`, keyed by
   class, and the analyzer folds the walk tree into the derivation, reading
   each gate's bound by the key on its record.  The fold never reads the
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
from ..config import AnalysisConfig
from ..errors import LogicError
from ..linalg.channels import QuantumChannel
from ..mps.approximator import MPSApproximator
from ..noise.model import NoiseModel
from ..obs.trace import span
from ..sdp.diamond import DiamondNormBound, gate_error_bounds_batch, quantise_keys
from .predicate import VACUOUS_DELTA, trivial_local_predicate

__all__ = [
    "WalkSkip",
    "WalkGate",
    "WalkMeasure",
    "WalkNode",
    "SolveClass",
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
    the gate and ``key`` the solve-class key it quantises to — both
    None for a noiseless gate, which never asks for a predicate.
    ``delta_before`` is also the predicate distance.
    """

    op: GateOp
    delta_before: float
    delta_after: float
    truncation_added: float
    rho_local: np.ndarray | None
    key: tuple | None = None


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


@dataclasses.dataclass(frozen=True)
class SolveClass:
    """One unique quantised (gate, noise, predicate) SDP instance."""

    key: tuple
    gate_matrix: np.ndarray
    noise_channel: object
    rho_rounded: np.ndarray
    delta_effective: float


@dataclasses.dataclass
class SchedulerReport:
    """What the pre-pass found and the bounds it solved.

    ``bounds`` maps each solve-class key to its certified bound, in solve
    order; classes whose problems reduce to one SDP share one bound object.
    """

    num_gate_instances: int = 0
    num_unique_classes: int = 0
    walk: WalkNode | None = None
    bounds: dict[tuple, DiamondNormBound] = dataclasses.field(default_factory=dict)
    #: Wall-clock seconds of the MPS walk (with the stacked quantisation of
    #: its predicates) and of the batched solve phase.
    walk_seconds: float = 0.0
    solve_seconds: float = 0.0


class BoundScheduler:
    """Walk, dedupe and batch-solve the gate bounds of a program."""

    def __init__(self, noise_model: NoiseModel, config: AnalysisConfig):
        self.noise_model = noise_model
        self.config = config
        # A calibration-driven model attaches different channels to
        # different qubits, so its class keys carry the qubit tuple; a
        # uniform model shares bounds across positions, which matters a lot
        # for the layered QAOA/Ising benchmarks.
        self._position_dependent = noise_model.is_position_dependent()
        self._classes: dict[tuple, SolveClass] = {}
        self._noisy: list[tuple[WalkGate, QuantumChannel]] = []

    # -- public entry --------------------------------------------------------
    def collect(self, program: Program, initial_bits: list[int]) -> WalkNode:
        """Walk ``program`` once, then key every predicate in one stacked pass."""
        approximator = MPSApproximator.from_product_state(
            initial_bits, width=self.config.mps_width
        )
        self._classes.clear()
        self._noisy.clear()
        with span("scheduler.walk", "scheduler"):
            walk = self._collect(program, approximator)
        with span("scheduler.quantise", "scheduler", count=len(self._noisy)):
            self._classify()
        return walk

    def prefill(self, program: Program, initial_bits: list[int]) -> SchedulerReport:
        """Walk ``program``, solve every class once, and return the walk tree."""
        walk_start = time.perf_counter()
        walk = self.collect(program, initial_bits)
        walk_seconds = time.perf_counter() - walk_start

        classes = list(self._classes.values())
        report = SchedulerReport(
            num_gate_instances=len(self._noisy),
            num_unique_classes=len(classes),
            walk=walk,
            walk_seconds=walk_seconds,
        )
        if not classes:
            return report

        solve_start = time.perf_counter()
        with span("scheduler.solve", "scheduler", classes=len(classes)):
            bounds = gate_error_bounds_batch(
                [
                    (c.gate_matrix, c.noise_channel, c.rho_rounded, c.delta_effective)
                    for c in classes
                ],
                noise_after_gate=self.noise_model.noise_after_gate,
                config=self.config.sdp,
            )
        report.bounds = {c.key: bound for c, bound in zip(classes, bounds)}
        report.solve_seconds = time.perf_counter() - solve_start
        return report

    def _classify(self) -> None:
        """Quantise every noisy gate's predicate, key its record, dedupe classes."""
        noisy = self._noisy
        quantised = quantise_keys(
            [self._key_parts(record.op, channel) for record, channel in noisy],
            [record.rho_local for record, _channel in noisy],
            [record.delta_before for record, _channel in noisy],
            self.config.sdp.cache_decimals,
        )
        for (record, channel), (key, rho_rounded, delta_effective) in zip(noisy, quantised):
            record.key = key
            if key in self._classes:
                continue
            self._classes[key] = SolveClass(
                key=key,
                gate_matrix=record.op.gate.matrix,
                noise_channel=channel,
                rho_rounded=rho_rounded,
                delta_effective=delta_effective,
            )

    def _key_parts(self, op: GateOp, channel: QuantumChannel) -> tuple:
        """The structural part of a gate's class key; quantisation adds ρ̂ and δ."""
        return (
            op.gate.key(),
            self.noise_model.name,
            channel.name,
            tuple(op.qubits) if self._position_dependent else (),
        )

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
        channel = self.noise_model.channel_for(op.gate, op.qubits)
        predicate = None
        if approximator is None:
            if channel is not None:
                predicate = trivial_local_predicate(len(op.qubits))
            delta_before = delta_after = VACUOUS_DELTA
            truncation_added = 0.0
        else:
            delta_before = approximator.delta
            if channel is not None:
                predicate = approximator.local_predicate(op.qubits)
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
