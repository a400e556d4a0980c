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
3. the unique classes that the cache cannot already answer (exactly, by
   predicate dominance, or from the persistent store) are solved through the
   *batched* SDP kernel — same-shaped problems advance in lock-step inside
   one vectorised ADMM run, and all their dual certificates are verified in
   one fused batch certification pass;
4. the solved bounds are inserted into the cache, and the analyzer replays
   the derivation from the solved table *and the tape*, so the MPS phase
   runs exactly once per input.

Every bound still carries its independently verified dual certificate, and
on workloads where δ grows monotonically along each branch (the common
case — truncation error only accumulates) the replayed derivation is
exactly the one the sequential path would have built.  The one intentional
divergence: when the *dominance* layer could answer a later gate from an
earlier same-ρ̂/larger-δ solve of the same run, the scheduler instead
pre-solves both classes, giving an equal-or-tighter (never looser, still
sound) bound at the cost of an extra batched solve.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from collections import OrderedDict

import numpy as np

from ..circuits.program import GateOp, IfMeasure, Program, Seq, Skip
from ..config import AnalysisConfig
from ..errors import LogicError
from ..mps.approximator import MPSApproximator
from ..noise.model import NoiseModel
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from ..sdp.diamond import GateBoundCache, gate_error_bounds_batch
from .analyzer import vacuous_branch_approximator
from .derivation import ReplayTape, TapeGate, TapeMeasure, TapeSkip

__all__ = [
    "SolveClass",
    "SchedulerReport",
    "BoundScheduler",
    "clear_tape_memo",
    "tape_memo_stats",
]


# ---------------------------------------------------------------------------
# Replay-tape prefix memoisation
# ---------------------------------------------------------------------------
#
# Near-duplicate programs — parameter sweeps, circuits extended gate by gate —
# share a prefix of top-level steps, and the pre-pass walk of that prefix is
# deterministic given the analysis environment (noise model, semantic config,
# input bits).  The memo keys each measurement-free top-level step by the
# running hash of (environment, step₀, …, stepᵢ) and stores the step's tape
# segment, newly discovered solve classes, instance count, and an exact MPS
# snapshot.  A later program whose chain matches replays the recorded
# segments and resumes the walk from a *copy* of the snapshot, so every
# downstream float is identical to a cold walk's.  Steps containing
# measurements are never memoised: their traversal forks on branch
# probabilities, so a snapshot would not capture the walk state.
#
# Both caps are least-recently-used: a store or a hit moves the steps it
# touched to the recency tail, and eviction and snapshot stripping take from
# the head, each in O(1).

#: Total memoised steps kept (least recently used evicted beyond this).
TAPE_MEMO_MAX_STEPS = 1024

#: Steps that retain their MPS snapshot (least recently used snapshots are
#: stripped first; a stripped step can still be replayed but not resumed from).
TAPE_MEMO_MAX_SNAPSHOTS = 64


@dataclasses.dataclass
class _MemoStep:
    """One memoised top-level step of a pre-pass walk."""

    records: tuple
    classes: tuple
    instances: int
    snapshot: MPSApproximator | None


_TAPE_MEMO: OrderedDict[str, _MemoStep] = OrderedDict()
#: Keys of the entries that still hold a snapshot, in recency order.
_TAPE_MEMO_SNAPSHOTS: OrderedDict[str, None] = OrderedDict()
_TAPE_MEMO_LOCK = threading.Lock()
_TAPE_MEMO_STATS = {"hits": 0, "misses": 0, "steps_reused": 0}


def clear_tape_memo() -> None:
    """Drop every memoised tape prefix and reset the counters."""
    with _TAPE_MEMO_LOCK:
        _TAPE_MEMO.clear()
        _TAPE_MEMO_SNAPSHOTS.clear()
        for key in _TAPE_MEMO_STATS:
            _TAPE_MEMO_STATS[key] = 0


def tape_memo_stats() -> dict:
    """Process-wide prefix-memo counters (hits/misses/steps_reused/entries)."""
    with _TAPE_MEMO_LOCK:
        return {**_TAPE_MEMO_STATS, "entries": len(_TAPE_MEMO)}


def _contains_measure(program: Program) -> bool:
    pending = [program]
    while pending:
        node = pending.pop()
        if isinstance(node, IfMeasure):
            return True
        if isinstance(node, Seq):
            pending.extend(node.parts)
    return False


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
    tape_steps_reused: int = 0
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
        """The collected classes the cache cannot answer (exact/persistent/dominance)."""
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
            if getattr(self.config, "tape_memo", True):
                steps_reused = self._collect_memoised(
                    program, initial_bits, approximator, tape
                )
            else:
                self._collect(program, approximator, tape)
                steps_reused = 0
        walk_seconds = time.perf_counter() - walk_start

        pending = self._pending_classes()
        report = SchedulerReport(
            num_gate_instances=self._instances,
            num_unique_classes=len(self._classes),
            num_solved=len(pending),
            num_prefilled=len(self._classes) - len(pending),
            tape=tape,
            tape_steps_reused=steps_reused,
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

    # -- prefix memoisation ---------------------------------------------------
    def _memo_env_key(self, initial_bits: list[int]) -> str | None:
        """Hash of everything besides the program that shapes the walk.

        Two walks agree step for step only when the noise model, the
        bound-relevant configuration (width, quantisation, SDP settings), the
        input state, and whether persistent-store fingerprints are computed
        all agree.  Models that cannot serialize (factory-backed noise) return
        None, which disables memoisation for the walk rather than failing it.
        """
        # Imported lazily: repro.engine.spec must stay importable without core.
        from ..engine.spec import _semantic_config_dict, canonical_json

        try:
            payload = {
                "noise_model": self.noise_model.to_json_dict(),
                "config": _semantic_config_dict(self.config),
                "initial_bits": list(initial_bits),
                "persistent": self.cache.store_path is not None,
            }
            return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        except Exception:
            return None

    def _collect_memoised(
        self,
        program: Program,
        initial_bits: list[int],
        approximator: MPSApproximator,
        tape: ReplayTape,
    ) -> int:
        """Walk ``program`` reusing memoised top-level step prefixes.

        Returns the number of steps answered from the memo.  The memoisable
        prefix is the run of top-level ``Seq`` parts before the first part
        containing a measurement; the remainder always walks fresh.
        """
        env = self._memo_env_key(initial_bits)
        if env is None:
            self._collect(program, approximator, tape)
            return 0
        from ..circuits.serialize import program_to_json_dict
        from ..engine.spec import canonical_json

        parts = list(program.parts) if isinstance(program, Seq) else [program]
        prefix_len = 0
        for part in parts:
            if _contains_measure(part):
                break
            prefix_len += 1
        if prefix_len == 0:
            self._collect(program, approximator, tape)
            return 0

        # chains[i] addresses the walk state after steps 0..i under env.
        chains = []
        chain = env
        for part in parts[:prefix_len]:
            step = canonical_json(program_to_json_dict(part))
            chain = hashlib.sha256((chain + step).encode()).hexdigest()
            chains.append(chain)

        # Longest stored run from step 0, resumable at its last snapshot.
        reuse_nodes: list[_MemoStep] = []
        resume_index = -1
        snapshot = None
        with _TAPE_MEMO_LOCK:
            for chain in chains:
                node = _TAPE_MEMO.get(chain)
                if node is None:
                    break
                reuse_nodes.append(node)
            for index in range(len(reuse_nodes) - 1, -1, -1):
                if reuse_nodes[index].snapshot is not None:
                    resume_index = index
                    snapshot = reuse_nodes[index].snapshot.copy()
                    break
            if resume_index >= 0:
                _TAPE_MEMO_STATS["hits"] += 1
                _TAPE_MEMO_STATS["steps_reused"] += resume_index + 1
                for chain in chains[: resume_index + 1]:
                    _TAPE_MEMO.move_to_end(chain)
                    if chain in _TAPE_MEMO_SNAPSHOTS:
                        _TAPE_MEMO_SNAPSHOTS.move_to_end(chain)
            else:
                _TAPE_MEMO_STATS["misses"] += 1
        outcome = "hit" if resume_index >= 0 else "miss"
        obs_metrics.counter(
            "repro_tape_memo_lookups_total",
            "Replay-tape prefix memo lookups by outcome.",
            {"outcome": outcome},
        ).inc()
        if resume_index >= 0:
            obs_metrics.counter(
                "repro_tape_steps_reused_total",
                "Top-level program steps answered from the tape prefix memo.",
            ).inc(resume_index + 1)

        steps_reused = 0
        if resume_index >= 0:
            for node in reuse_nodes[: resume_index + 1]:
                tape.extend(node.records)
                self._instances += node.instances
                for solve_class in node.classes:
                    self._classes.setdefault(solve_class.key, solve_class)
            approximator = snapshot
            steps_reused = resume_index + 1

        # Fresh walk of the remaining memoisable steps, recording each one.
        for index in range(steps_reused, prefix_len):
            mark = tape.mark()
            instances_before = self._instances
            classes_before = len(self._classes)
            self._collect(parts[index], approximator, tape)
            node = _MemoStep(
                records=tape.records_since(mark),
                classes=tuple(list(self._classes.values())[classes_before:]),
                instances=self._instances - instances_before,
                snapshot=approximator.copy(),
            )
            self._memo_store(chains[index], node)

        for part in parts[prefix_len:]:
            self._collect(part, approximator, tape)
        return steps_reused

    @staticmethod
    def _memo_store(chain: str, node: _MemoStep) -> None:
        with _TAPE_MEMO_LOCK:
            _TAPE_MEMO[chain] = node
            _TAPE_MEMO.move_to_end(chain)
            _TAPE_MEMO_SNAPSHOTS[chain] = None
            _TAPE_MEMO_SNAPSHOTS.move_to_end(chain)
            while len(_TAPE_MEMO) > TAPE_MEMO_MAX_STEPS:
                evicted, _ = _TAPE_MEMO.popitem(last=False)
                _TAPE_MEMO_SNAPSHOTS.pop(evicted, None)
            # Strip the least recently used snapshots beyond the cap; the
            # stripped steps remain replayable, they just cannot seed a resume.
            while len(_TAPE_MEMO_SNAPSHOTS) > TAPE_MEMO_MAX_SNAPSHOTS:
                stripped, _ = _TAPE_MEMO_SNAPSHOTS.popitem(last=False)
                _TAPE_MEMO[stripped].snapshot = None

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
