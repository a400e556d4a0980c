"""The end-to-end Gleipnir analyzer (the workflow of Figure 4).

Given a program, an input product state, and a noise model, the analyzer

1. evolves an MPS approximation of the ideal state through the program,
   accumulating the sound truncation bound δ (Section 5);
2. before every noisy gate, computes the (ρ̂, δ)-diamond norm of that gate via
   the certified SDP engine, using the local density matrix of the MPS as the
   predicate (Section 6);
3. chains the per-gate bounds with the Seq/Meas rules of the error logic
   (Section 4) into a verified bound on the whole program, together with the
   full derivation tree.

The analysis pipeline is *single-pass*: with the bound scheduler enabled
(the default), the MPS walk happens once, inside the scheduler's pre-pass,
which records every predicate and truncation into a
:class:`~repro.core.derivation.ReplayTape`; the derivation is then rebuilt
from the tape (plus the prefilled bound cache) without evolving a second
MPS.  Without the scheduler, the analyzer drives a live approximator as the
paper describes.  Both modes run through the same traversal via the
``_LiveTrace`` / ``_TapeTrace`` sources below.

The result's ``error_bound`` is a *trace distance* (the ½‖·‖₁ convention), so
it directly upper-bounds the statistical distance of any measurement performed
on the noisy output versus the ideal output.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence

from ..circuits.circuit import Circuit
from ..circuits.program import GateOp, IfMeasure, Program, Seq, Skip
from ..config import AnalysisConfig
from ..errors import LogicError
from ..mps.approximator import MPSApproximator
from ..noise.model import NoiseModel
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from ..sdp.diamond import GateBoundCache
from .derivation import (
    Derivation,
    DerivationNode,
    GateContribution,
    ReplayTape,
    TapeGate,
    TapeMeasure,
    TapeSkip,
)
from .predicate import trivial_local_predicate
from .rules import absorb_continuations, gate_rule, meas_rule, seq_rule, skip_rule

__all__ = [
    "AnalysisResult",
    "GleipnirAnalyzer",
    "analyze_program",
    "vacuous_branch_approximator",
]


def vacuous_branch_approximator(
    branch: Program, qubit: int, outcome: int, width: int
) -> MPSApproximator:
    """Fresh approximator for a measurement branch deemed unreachable.

    Start from the collapsed basis state and immediately weaken the distance
    bound to the maximum (δ = 2), so every gate bound inside the branch
    reduces to the unconstrained diamond norm.  This keeps the Meas rule
    sound without knowing the collapsed state.  Shared by the analyzer and
    the bound scheduler, whose pre-pass must reproduce exactly the
    predicates the replay will request.
    """
    used = branch.qubits_used() | {qubit}
    num_qubits = max((max(used) + 1) if used else 1, qubit + 1)
    bits = [0] * num_qubits
    bits[qubit] = outcome
    fresh = MPSApproximator.from_product_state(bits, width=width)
    fresh.weaken_to(trivial_local_predicate(1).delta)  # vacuous predicate
    return fresh


class _LiveTrace:
    """Drives the derivation from a live MPS approximator (sequential path)."""

    def __init__(self, approximator: MPSApproximator):
        self._approximator = approximator

    def skip_delta(self) -> float:
        return self._approximator.delta

    def gate_step(
        self, op: GateOp, needs_predicate: bool
    ) -> tuple[float, "object | None", float, float]:
        approximator = self._approximator
        delta_before = approximator.delta
        rho_local = (
            approximator.local_predicate(op.qubits).rho_local
            if needs_predicate
            else None
        )
        truncation_added = approximator.apply_gate_op(op)
        return delta_before, rho_local, truncation_added, approximator.delta

    def measure_step(self, qubit: int) -> tuple[float, dict[int, tuple[float, "_LiveTrace"]]]:
        delta_before = self._approximator.delta
        reachable = {
            outcome: (probability, _LiveTrace(child))
            for outcome, probability, child in self._approximator.branch_on_measurement(
                qubit
            )
        }
        return delta_before, reachable

    def unreachable_branch(
        self, branch: Program, qubit: int, outcome: int, width: int
    ) -> "_LiveTrace":
        return _LiveTrace(vacuous_branch_approximator(branch, qubit, outcome, width))


class _TapeTrace:
    """Replays the pre-pass :class:`ReplayTape`; performs no MPS work.

    The tape is consumed sequentially — measurement branches and unreachable
    branches continue on the same tape because the pre-pass recorded them in
    the identical traversal order.
    """

    def __init__(self, tape: ReplayTape):
        self._tape = tape

    def skip_delta(self) -> float:
        return self._tape.take(TapeSkip).delta

    def gate_step(
        self, op: GateOp, needs_predicate: bool
    ) -> tuple[float, "object | None", float, float]:
        record = self._tape.take(TapeGate)
        if (record.rho_local is None) == needs_predicate:
            raise LogicError(
                f"replay tape out of step at gate {op.gate.label()}: the "
                "pre-pass and the replay disagree about the gate's noise"
            )
        return (
            record.delta_before,
            record.rho_local,
            record.truncation_added,
            record.delta_after,
        )

    def measure_step(self, qubit: int) -> tuple[float, dict[int, tuple[float, "_TapeTrace"]]]:
        record = self._tape.take(TapeMeasure)
        return record.delta_before, {
            outcome: (probability, self) for outcome, probability in record.probabilities
        }

    def unreachable_branch(
        self, branch: Program, qubit: int, outcome: int, width: int
    ) -> "_TapeTrace":
        return self


@dataclasses.dataclass
class AnalysisResult:
    """Outcome of one Gleipnir analysis.

    Attributes:
        error_bound: verified upper bound ε on the output trace distance.
        final_delta: accumulated MPS truncation bound at the end of the
            program (maximum over branches).
        derivation: the full derivation tree (None when disabled).
        num_gates: number of gate applications analysed (over all branches).
        num_branches: number of measurement branches explored.
        elapsed_seconds: wall-clock analysis time.
        sdp_solves / sdp_cache_hits: SDP workload statistics.
        mps_width: bond dimension used by the approximator.
        noise_model: name of the noise model.
        sdp_dominance_hits: lookups answered by a dominating (weaker)
            cached predicate instead of a fresh solve.
        scheduled_solves: unique solve classes the bound scheduler solved
            up front (0 when the scheduler is disabled).
        mps_walks: how many times an MPS evolved through the whole program
            for this analysis.  The single-pass pipeline keeps this at 1:
            either the scheduler's pre-pass (whose ReplayTape the derivation
            replays) or the live sequential traversal, never both.
        timings: structured per-phase wall-clock breakdown — always present:
            ``total_seconds``, ``prefill_walk_seconds``,
            ``prefill_solve_seconds``, ``replay_seconds``, and
            ``solve_classes`` (one ``{"solve_class", "count", "seconds"}``
            event per batched SDP template group).  Pure observation: the
            clocks never influence the derivation.
    """

    error_bound: float
    final_delta: float
    derivation: Derivation | None
    num_gates: int
    num_branches: int
    elapsed_seconds: float
    sdp_solves: int
    sdp_cache_hits: int
    mps_width: int
    noise_model: str
    program_name: str = ""
    sdp_dominance_hits: int = 0
    scheduled_solves: int = 0
    mps_walks: int = 1
    #: Always 0: kept because ``perfbench/layers.py`` reads it.
    tape_steps_reused: int = 0
    timings: dict = dataclasses.field(default_factory=dict)

    def gate_contributions(self) -> list[GateContribution]:
        if self.derivation is None:
            raise LogicError("the analysis was run without derivation collection")
        return self.derivation.gate_contributions()

    def summary(self) -> str:
        return (
            f"{self.program_name or 'program'}: bound={self.error_bound:.6e} "
            f"(delta={self.final_delta:.3e}, gates={self.num_gates}, "
            f"branches={self.num_branches}, {self.elapsed_seconds:.2f}s, "
            f"sdp solves={self.sdp_solves}, cache hits={self.sdp_cache_hits})"
        )


class GleipnirAnalyzer:
    """Computes verified error bounds for noisy quantum programs."""

    def __init__(self, noise_model: NoiseModel, config: AnalysisConfig | None = None):
        self.noise_model = noise_model
        self.config = config or AnalysisConfig()
        self.config.validate()
        self._cache = GateBoundCache(
            decimals=self.config.sdp.cache_decimals,
            dominance=self.config.sdp.dominance_cache,
            store_path=self.config.sdp.persistent_cache_path,
        )

    # -- public API -----------------------------------------------------------
    def analyze(
        self,
        program: Program | Circuit,
        *,
        initial_bits: str | Sequence[int] | None = None,
        num_qubits: int | None = None,
        program_name: str | None = None,
    ) -> AnalysisResult:
        """Analyse a program and return the verified error bound.

        Args:
            program: the program or circuit to analyse.
            initial_bits: computational-basis input state (all zeros by default).
            num_qubits: register size (inferred when omitted).
            program_name: label used in reports.
        """
        start = time.perf_counter()
        ast = program.to_program() if isinstance(program, Circuit) else program
        name = program_name or (program.name if isinstance(program, Circuit) else "program")
        if num_qubits is None:
            num_qubits = program.num_qubits if isinstance(program, Circuit) else ast.num_qubits
        if num_qubits == 0:
            raise LogicError("cannot analyse a program with no qubits")
        if initial_bits is None:
            initial_bits = [0] * num_qubits
        bits = [int(b) for b in initial_bits]
        if len(bits) != num_qubits:
            raise LogicError(
                f"initial state has {len(bits)} bits but the program uses {num_qubits} qubits"
            )

        normalised = absorb_continuations(ast)

        if not self.config.sdp.cache:
            self._cache.clear()
        solves_before = self._cache.misses
        hits_before = self._cache.hits
        dominance_before = self._cache.dominance_hits

        scheduled_solves = 0
        tape = None
        prefill_report = None
        if self.config.scheduler and self.config.sdp.cache:
            # Program-level pre-pass: collect every quantised solve class,
            # dedupe, and batch-solve the unique set before the derivation
            # replay below — which then hits the cache for every gate and
            # consumes the pre-pass ReplayTape instead of evolving a second
            # MPS (the single-pass pipeline).
            from .scheduler import BoundScheduler

            scheduler = BoundScheduler(
                self.noise_model, self._cache, self.config, gate_key=self._gate_key
            )
            with span("scheduler.prefill", "analysis", program=name):
                prefill_report = scheduler.prefill(normalised, bits)
            scheduled_solves = prefill_report.num_solved
            tape = prefill_report.tape

        if tape is not None:
            trace: _LiveTrace | _TapeTrace = _TapeTrace(tape)
        else:
            trace = _LiveTrace(
                MPSApproximator.from_product_state(bits, width=self.config.mps_width)
            )

        self._num_gates = 0
        self._num_branches = 1
        self._max_delta = 0.0
        replay_start = time.perf_counter()
        with span(
            "analyzer.replay" if tape is not None else "analyzer.walk",
            "analysis",
            program=name,
        ):
            root = self._analyze_node(normalised, trace)
        replay_seconds = time.perf_counter() - replay_start
        if tape is not None:
            tape.verify_exhausted()
        elapsed = time.perf_counter() - start
        timings = {
            "total_seconds": elapsed,
            "prefill_walk_seconds": (
                prefill_report.walk_seconds if prefill_report is not None else 0.0
            ),
            "prefill_solve_seconds": (
                prefill_report.solve_seconds if prefill_report is not None else 0.0
            ),
            "replay_seconds": replay_seconds,
            "solve_classes": (
                list(prefill_report.solve_timings)
                if prefill_report is not None
                else []
            ),
        }
        self._publish_metrics(
            solves=self._cache.misses - solves_before,
            hits=self._cache.hits - hits_before,
            dominance_hits=self._cache.dominance_hits - dominance_before,
        )

        derivation = None
        if self.config.collect_derivation:
            derivation = Derivation(
                root,
                noise_model_name=self.noise_model.name,
                mps_width=self.config.mps_width,
            )
        return AnalysisResult(
            error_bound=root.judgment.epsilon,
            final_delta=self._max_delta,
            derivation=derivation,
            num_gates=self._num_gates,
            num_branches=self._num_branches,
            elapsed_seconds=elapsed,
            sdp_solves=self._cache.misses - solves_before,
            sdp_cache_hits=self._cache.hits - hits_before,
            mps_width=self.config.mps_width,
            noise_model=self.noise_model.name,
            program_name=name,
            sdp_dominance_hits=self._cache.dominance_hits - dominance_before,
            scheduled_solves=scheduled_solves,
            mps_walks=1,
            timings=timings,
        )

    @staticmethod
    def _publish_metrics(*, solves: int, hits: int, dominance_hits: int) -> None:
        """Fold this analysis's bound-cache deltas into the metric registry.

        The cache keeps its own counters on the per-gate hot path; publishing
        the per-analysis deltas once keeps lookups free of registry work.
        """
        pairs = (
            ("miss", solves),
            ("hit", hits),
            ("dominance_hit", dominance_hits),
        )
        for outcome, amount in pairs:
            if amount:
                obs_metrics.counter(
                    "repro_gate_bound_lookups_total",
                    "Gate-bound cache lookups by outcome (miss = fresh solve).",
                    {"outcome": outcome},
                ).inc(amount)
        obs_metrics.counter(
            "repro_analyses_total", "Analyses completed by this process."
        ).inc()

    @property
    def cache(self) -> GateBoundCache:
        return self._cache

    # -- recursive analysis -------------------------------------------------------
    def _analyze_node(
        self, program: Program, trace: "_LiveTrace | _TapeTrace"
    ) -> DerivationNode:
        if isinstance(program, Skip):
            return skip_rule(trace.skip_delta(), noise_model=self.noise_model.name)
        if isinstance(program, GateOp):
            return self._analyze_gate(program, trace)
        if isinstance(program, Seq):
            children = [self._analyze_node(part, trace) for part in program.parts]
            return seq_rule(children, noise_model=self.noise_model.name)
        if isinstance(program, IfMeasure):
            return self._analyze_measure(program, trace)
        raise LogicError(f"unknown program node {type(program).__name__}")

    def _analyze_gate(
        self, op: GateOp, trace: "_LiveTrace | _TapeTrace"
    ) -> DerivationNode:
        self._num_gates += 1
        noise_channel = self.noise_model.channel_for(op.gate, op.qubits)
        delta_before, rho_local, truncation_added, delta_after = trace.gate_step(
            op, noise_channel is not None
        )

        bound = None
        if noise_channel is not None:
            bound = self._cache.lookup_or_compute(
                self._gate_key(op, noise_channel),
                op.gate.matrix,
                noise_channel,
                rho_local,
                delta_before,
                noise_after_gate=self.config.noise_after_gate,
                config=self.config.sdp,
            )

        self._max_delta = max(self._max_delta, delta_after)
        return gate_rule(
            op.gate.label(),
            op.qubits,
            delta_before,
            bound,
            rho_local=rho_local,
            truncation_added=truncation_added,
            noise_model=self.noise_model.name,
        )

    def _gate_key(self, op: GateOp, noise_channel) -> tuple:
        """The structural part of the SDP cache key for one gate application.

        Shared with the bound scheduler so the pre-pass populates exactly the
        keys the replay pass looks up.
        """
        return (
            op.gate.key(),
            self.noise_model.name,
            noise_channel.name,
            tuple(op.qubits) if self._noise_is_position_dependent() else (),
        )

    def _noise_is_position_dependent(self) -> bool:
        """Whether the noise model distinguishes physical qubits.

        Calibration-driven models attach different channels to different
        qubits; in that case the SDP cache key must include the qubit tuple so
        bounds are not shared across positions.  Uniform models (the paper's
        sample model) can share bounds across positions, which matters a lot
        for the layered QAOA/Ising benchmarks.
        """
        return self.noise_model.is_position_dependent()

    def _analyze_measure(
        self, program: IfMeasure, trace: "_LiveTrace | _TapeTrace"
    ) -> DerivationNode:
        delta_before, reachable = trace.measure_step(program.qubit)
        self._num_branches += 1
        branch_nodes: list[DerivationNode] = []
        probabilities: list[float] = []
        for outcome, branch_program in ((0, program.then_branch), (1, program.else_branch)):
            if outcome in reachable:
                probability, child = reachable[outcome]
                branch_nodes.append(self._analyze_node(branch_program, child))
                probabilities.append(probability)
            else:
                # The approximation gives this outcome probability ~0, so we
                # cannot compute a collapsed ρ̂ for it.  Analyse the branch
                # under the trivial predicate instead (sound, possibly loose;
                # see vacuous_branch_approximator).
                fresh = trace.unreachable_branch(
                    branch_program, program.qubit, outcome, self.config.mps_width
                )
                branch_nodes.append(self._analyze_node(branch_program, fresh))
                probabilities.append(0.0)
        return meas_rule(
            program.qubit,
            delta_before,
            branch_nodes,
            branch_probabilities=probabilities,
            noise_model=self.noise_model.name,
        )


def analyze_program(
    program: Program | Circuit,
    noise_model: NoiseModel,
    *,
    config: AnalysisConfig | None = None,
    initial_bits: str | Sequence[int] | None = None,
    num_qubits: int | None = None,
    program_name: str | None = None,
) -> AnalysisResult:
    """Functional one-shot wrapper around :class:`GleipnirAnalyzer`."""
    analyzer = GleipnirAnalyzer(noise_model, config)
    return analyzer.analyze(
        program,
        initial_bits=initial_bits,
        num_qubits=num_qubits,
        program_name=program_name,
    )
