"""Program-level gate-bound scheduler and single-pass MPS pre-pass.

The analysis pays for the MPS walk once and for each distinct gate SDP
once.  This module does both before the derivation is built:

1. a *collection pre-pass* evolves the MPS approximator over the normalised
   program — including measurement branching — recording every noisy
   gate's raw (ρ̂, δ) predicate and writing every approximator fact the
   derivation needs into a :class:`~repro.core.derivation.ReplayTape`.
   Once δ reaches its cap of 2 (and inside branches the approximation
   deems unreachable) the walk is *saturated*: every predicate is the
   trivial one, whatever the MPS holds, so the walk stops evolving the MPS
   and gives each later gate ``trivial_local_predicate``;
2. after the walk, one stacked pass
   (:meth:`repro.sdp.diamond.GateBoundCache.quantise_keys`) quantises every
   predicate into its bound-cache class key, puts each key on its gate's
   tape record, and dedupes the keys into unique solve classes in walk
   order;
3. the unique classes that the cache cannot already answer are solved
   through the *batched* SDP kernel — each distinct reduced problem once,
   same-shaped problems in lock-step inside one interior-point run, and all
   their dual certificates verified in one fused batch certification pass;
4. the solved bounds are inserted into the cache, and the analyzer rebuilds
   the derivation from the tape, reading each gate's bound by the key on
   its record, so the MPS phase runs exactly once per input and nothing is
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
from ..mps.approximator import MPSApproximator
from ..noise.model import NoiseModel
from ..obs.trace import span
from ..sdp.diamond import GateBoundCache, gate_error_bounds_batch
from .derivation import ReplayTape, TapeGate, TapeMeasure, TapeSkip
from .predicate import VACUOUS_DELTA, trivial_local_predicate

__all__ = [
    "SolveClass",
    "SchedulerReport",
    "BoundScheduler",
    "clear_tape_memo",
]


def clear_tape_memo() -> None:
    """No-op, kept because ``perfbench/workloads.py`` imports it."""


@dataclasses.dataclass(frozen=True)
class _Predicate:
    """One noisy gate application of the walk, not yet quantised."""

    position: int
    key_parts: tuple
    op: GateOp
    noise_channel: object
    rho_local: np.ndarray
    delta: float


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
    """What the pre-pass found and what the solve phase actually paid for."""

    num_gate_instances: int = 0
    num_unique_classes: int = 0
    num_solved: int = 0
    num_prefilled: int = 0
    tape: ReplayTape | None = None
    #: Wall-clock seconds of the MPS collection walk (with the stacked
    #: quantisation of its predicates) and of the batched solve phase, plus one ``{"solve_class", "count", "seconds"}`` event per SDP
    #: template group — the per-solve-class cost data persisted with results.
    walk_seconds: float = 0.0
    solve_seconds: float = 0.0
    solve_timings: list = dataclasses.field(default_factory=list)


class BoundScheduler:
    """Collect, dedupe, batch-solve and prefill gate bounds for a program."""

    def __init__(
        self,
        noise_model: NoiseModel,
        cache: GateBoundCache,
        config: AnalysisConfig,
        *,
        gate_key,
    ):
        self.noise_model = noise_model
        self.cache = cache
        self.config = config
        self._gate_key = gate_key
        self._classes: dict[tuple, SolveClass] = {}
        self._predicates: list[_Predicate] = []

    # -- public entry --------------------------------------------------------
    def _pending_classes(self) -> list[SolveClass]:
        """The collected classes the cache cannot answer yet."""
        return [
            solve_class
            for key, solve_class in self._classes.items()
            if self.cache.peek(key) is None
        ]

    def collect(self, program: Program, initial_bits: list[int]) -> ReplayTape:
        """Walk ``program`` once, then key every predicate in one stacked pass."""
        approximator = MPSApproximator.from_product_state(
            initial_bits, width=self.config.mps_width
        )
        self._classes.clear()
        self._predicates.clear()
        tape = ReplayTape()
        with span("scheduler.walk", "scheduler"):
            self._collect(program, approximator, tape)
        with span("scheduler.quantise", "scheduler", count=len(self._predicates)):
            self._classify(tape)
        return tape

    def prefill(self, program: Program, initial_bits: list[int]) -> SchedulerReport:
        """Run the pre-pass over ``program``, seed the cache, return the tape."""
        walk_start = time.perf_counter()
        tape = self.collect(program, initial_bits)
        walk_seconds = time.perf_counter() - walk_start

        pending = self._pending_classes()
        report = SchedulerReport(
            num_gate_instances=len(self._predicates),
            num_unique_classes=len(self._classes),
            num_solved=len(pending),
            num_prefilled=len(self._classes) - len(pending),
            tape=tape,
            walk_seconds=walk_seconds,
        )
        if not pending:
            return report

        solve_start = time.perf_counter()
        with span("scheduler.solve", "scheduler", pending=len(pending)):
            bounds = gate_error_bounds_batch(
                [
                    (c.gate_matrix, c.noise_channel, c.rho_rounded, c.delta_effective)
                    for c in pending
                ],
                noise_after_gate=self.config.noise_after_gate,
                config=self.config.sdp,
                timing_events=report.solve_timings,
            )
        for solve_class, bound in zip(pending, bounds):
            self.cache.insert(solve_class.key, bound)
        report.solve_seconds = time.perf_counter() - solve_start
        return report

    def _classify(self, tape: ReplayTape) -> None:
        """Quantise every collected predicate, key the tape, dedupe classes."""
        predicates = self._predicates
        quantised = self.cache.quantise_keys(
            [p.key_parts for p in predicates],
            [p.rho_local for p in predicates],
            [p.delta for p in predicates],
        )
        for predicate, (key, rho_rounded, delta_effective) in zip(
            predicates, quantised
        ):
            tape.attach_key(predicate.position, key)
            if key in self._classes:
                continue
            self._classes[key] = SolveClass(
                key=key,
                gate_matrix=predicate.op.gate.matrix,
                noise_channel=predicate.noise_channel,
                rho_rounded=rho_rounded,
                delta_effective=delta_effective,
            )

    # -- collection traversal (the analyzer's replay consumes it in order) ----
    def _collect(
        self,
        program: Program,
        approximator: MPSApproximator | None,
        tape: ReplayTape,
    ) -> None:
        """Walk ``program``; ``approximator`` is None once the walk saturates.

        At δ = 2 the predicate ``tr(ρ̂ ρ) >= ||ρ̂||_F (||ρ̂||_F - δ)`` has a
        negative bound for every ρ̂, so no later bound depends on the MPS and
        the walk drops it.  A branch the approximation deems unreachable
        starts out saturated.
        """
        if approximator is not None and approximator.delta >= VACUOUS_DELTA:
            approximator = None
        if isinstance(program, Skip):
            tape.record(
                TapeSkip(
                    delta=VACUOUS_DELTA if approximator is None else approximator.delta
                )
            )
            return
        if isinstance(program, GateOp):
            self._collect_gate(program, approximator, tape)
            return
        if isinstance(program, Seq):
            for part in program.parts:
                self._collect(part, approximator, tape)
            return
        if isinstance(program, IfMeasure):
            self._collect_measure(program, approximator, tape)
            return
        raise LogicError(f"unknown program node {type(program).__name__}")

    def _collect_gate(
        self, op: GateOp, approximator: MPSApproximator | None, tape: ReplayTape
    ) -> None:
        noise_channel = self.noise_model.channel_for(op.gate, op.qubits)
        predicate = None
        if approximator is None:
            if noise_channel is not None:
                predicate = trivial_local_predicate(len(op.qubits))
            delta_before = delta_after = VACUOUS_DELTA
            truncation_added = 0.0
        else:
            delta_before = approximator.delta
            if noise_channel is not None:
                predicate = approximator.local_predicate(op.qubits)
            truncation_added = approximator.apply_gate_op(op)
            delta_after = approximator.delta
        position = tape.record(
            TapeGate(
                delta_before=delta_before,
                rho_local=predicate.rho_local if predicate is not None else None,
                truncation_added=truncation_added,
                delta_after=delta_after,
            )
        )
        if predicate is not None:
            self._predicates.append(
                _Predicate(
                    position=position,
                    key_parts=self._gate_key(op, noise_channel),
                    op=op,
                    noise_channel=noise_channel,
                    rho_local=predicate.rho_local,
                    delta=predicate.delta,
                )
            )

    def _collect_measure(
        self,
        program: IfMeasure,
        approximator: MPSApproximator | None,
        tape: ReplayTape,
    ) -> None:
        """Fork the walk; a saturated fork estimates no probabilities."""
        reachable: dict[int, MPSApproximator] = {}
        if approximator is None:
            tape.record(TapeMeasure(delta_before=VACUOUS_DELTA, probabilities=None))
        else:
            forks = approximator.branch_on_measurement(program.qubit)
            tape.record(
                TapeMeasure(
                    delta_before=approximator.delta,
                    probabilities=tuple(
                        (outcome, probability) for outcome, probability, _child in forks
                    ),
                )
            )
            reachable = {outcome: child for outcome, _probability, child in forks}
        self._collect(program.then_branch, reachable.get(0), tape)
        self._collect(program.else_branch, reachable.get(1), tape)
