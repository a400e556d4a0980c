"""Program-level gate-bound scheduler and single-pass MPS pre-pass.

The sequential analyzer pays for one SDP solve per cache-missing gate, in
program order.  This module amortises that cost across the whole derivation:

1. a *collection pre-pass* evolves the MPS approximator over the normalised
   program — exactly mirroring the analyzer's traversal, including
   measurement branching and the vacuous-predicate handling of unreachable
   branches — recording every quantised (gate, noise, ρ̂, δ) instance *and*
   writing every approximator fact the replay needs into a
   :class:`~repro.core.derivation.ReplayTape`;
2. the instances are *deduped* into unique solve classes (the same key the
   :class:`repro.sdp.diamond.GateBoundCache` would use, so the replay pass
   hits the cache for every gate);
3. the unique classes that the cache cannot already answer (from memory or
   from the persistent store) are solved through the *batched* SDP kernel —
   same-shaped problems advance in lock-step inside one vectorised ADMM run,
   and all their dual certificates are verified in one fused batch
   certification pass;
4. the solved bounds are inserted into the cache, and the analyzer replays
   the derivation from the solved table *and the tape*, so the MPS phase
   runs exactly once per input.

Every bound still carries its independently verified dual certificate.
The sequential path solves exactly the same classes, one at a time; the
equivalence tests hold the two bounds to 1e-9 relative.
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
from .analyzer import vacuous_branch_approximator
from .derivation import ReplayTape, TapeGate, TapeMeasure, TapeSkip

__all__ = [
    "SolveClass",
    "SchedulerReport",
    "BoundScheduler",
    "clear_tape_memo",
]


def clear_tape_memo() -> None:
    """No-op, kept because ``perfbench/workloads.py`` imports it."""


@dataclasses.dataclass(frozen=True)
class SolveClass:
    """One unique quantised (gate, noise, predicate) SDP instance.

    ``fingerprint`` binds the actual problem content (gate matrix, channel
    Choi, noise convention) for the persistent store; None when no store is
    configured.
    """

    key: tuple
    gate_matrix: np.ndarray
    noise_channel: object
    rho_rounded: np.ndarray
    delta_effective: float
    fingerprint: str | None = None


@dataclasses.dataclass
class SchedulerReport:
    """What the pre-pass found and what the solve phase actually paid for."""

    num_gate_instances: int = 0
    num_unique_classes: int = 0
    num_solved: int = 0
    num_prefilled: int = 0
    tape: ReplayTape | None = None
    #: Wall-clock seconds of the MPS collection walk and the batched solve
    #: phase, plus one ``{"solve_class", "count", "seconds"}`` event per SDP
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
        self._instances = 0

    # -- public entry --------------------------------------------------------
    def _pending_classes(self) -> list[SolveClass]:
        """The collected classes the cache cannot answer (memory or disk)."""
        return [
            solve_class
            for key, solve_class in self._classes.items()
            if self.cache.peek(
                key,
                solve_class.fingerprint,
                self.cache.expected_problem(
                    solve_class.gate_matrix,
                    solve_class.noise_channel,
                    solve_class.rho_rounded,
                    solve_class.delta_effective,
                    noise_after_gate=self.config.noise_after_gate,
                )
                if solve_class.fingerprint is not None
                else None,
                config=self.config.sdp,
            )
            is None
        ]

    def prefill(self, program: Program, initial_bits: list[int]) -> SchedulerReport:
        """Run the pre-pass over ``program``, seed the cache, return the tape."""
        approximator = MPSApproximator.from_product_state(
            initial_bits, width=self.config.mps_width
        )
        self._classes.clear()
        self._instances = 0
        tape = ReplayTape()
        walk_start = time.perf_counter()
        with span("scheduler.walk", "scheduler"):
            self._collect(program, approximator, tape)
        walk_seconds = time.perf_counter() - walk_start

        pending = self._pending_classes()
        report = SchedulerReport(
            num_gate_instances=self._instances,
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
            self.cache.insert(
                solve_class.key,
                bound,
                fingerprint=solve_class.fingerprint,
                config=self.config.sdp,
            )
        report.solve_seconds = time.perf_counter() - solve_start
        return report

    # -- collection traversal (mirrors GleipnirAnalyzer._analyze_node) -------
    def _collect(
        self, program: Program, approximator: MPSApproximator, tape: ReplayTape
    ) -> None:
        if isinstance(program, Skip):
            tape.record(TapeSkip(delta=approximator.delta))
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
        self, op: GateOp, approximator: MPSApproximator, tape: ReplayTape
    ) -> None:
        delta_before = approximator.delta
        rho_local = None
        noise_channel = self.noise_model.channel_for(op.gate, op.qubits)
        if noise_channel is not None:
            self._instances += 1
            predicate = approximator.local_predicate(op.qubits)
            rho_local = predicate.rho_local
            key_parts = self._gate_key(op, noise_channel)
            key, rho_rounded, delta_effective = self.cache.quantise_key(
                key_parts, predicate.rho_local, predicate.delta
            )
            if key not in self._classes:
                fingerprint = None
                if self.cache.store_path is not None:
                    fingerprint = self.cache.problem_fingerprint(
                        op.gate.matrix, noise_channel, self.config.noise_after_gate
                    )
                self._classes[key] = SolveClass(
                    key=key,
                    gate_matrix=op.gate.matrix,
                    noise_channel=noise_channel,
                    rho_rounded=rho_rounded,
                    delta_effective=delta_effective,
                    fingerprint=fingerprint,
                )
        truncation_added = approximator.apply_gate_op(op)
        tape.record(
            TapeGate(
                delta_before=delta_before,
                rho_local=rho_local,
                truncation_added=truncation_added,
                delta_after=approximator.delta,
            )
        )

    def _collect_measure(
        self, program: IfMeasure, approximator: MPSApproximator, tape: ReplayTape
    ) -> None:
        delta_before = approximator.delta
        forks = approximator.branch_on_measurement(program.qubit)
        tape.record(
            TapeMeasure(
                delta_before=delta_before,
                probabilities=tuple(
                    (outcome, probability) for outcome, probability, _child in forks
                ),
            )
        )
        reachable = {outcome: child for outcome, _probability, child in forks}
        for outcome, branch_program in (
            (0, program.then_branch),
            (1, program.else_branch),
        ):
            if outcome in reachable:
                self._collect(branch_program, reachable[outcome], tape)
            else:
                self._collect_unreachable_branch(
                    branch_program, program.qubit, outcome, tape
                )

    def _collect_unreachable_branch(
        self, branch: Program, qubit: int, outcome: int, tape: ReplayTape
    ) -> None:
        fresh = vacuous_branch_approximator(
            branch, qubit, outcome, self.config.mps_width
        )
        self._collect(branch, fresh, tape)
