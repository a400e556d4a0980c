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

The analysis pipeline is *single-pass*: the MPS walk happens once, inside
the bound scheduler's pre-pass, which records every predicate, its class
key and every truncation into a :class:`~repro.core.derivation.ReplayTape`
and solves each distinct gate SDP once.  The derivation is then rebuilt
from the tape and the prefilled bound cache without evolving a second MPS
or quantising a predicate again.

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
from .rules import absorb_continuations, gate_rule, meas_rule, seq_rule, skip_rule
from .scheduler import BoundScheduler

__all__ = [
    "AnalysisResult",
    "GleipnirAnalyzer",
    "analyze_program",
]


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
        scheduled_solves: unique solve classes the bound scheduler solved
            up front.
        mps_walks: how many times an MPS evolved through the whole program
            for this analysis: always 1, the scheduler's pre-pass, whose
            ReplayTape the derivation replays.
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
        self._cache = GateBoundCache(decimals=self.config.sdp.cache_decimals)

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

        solves_before = self._cache.misses
        hits_before = self._cache.hits

        # Program-level pre-pass: one MPS walk that keys every gate's
        # predicate and batch-solves the unique classes before the
        # derivation replay below, which reads each bound by the key on
        # the tape instead of evolving a second MPS.
        scheduler = BoundScheduler(
            self.noise_model, self._cache, self.config, gate_key=self._gate_key
        )
        with span("scheduler.prefill", "analysis", program=name):
            prefill_report = scheduler.prefill(normalised, bits)
        tape = prefill_report.tape

        self._num_gates = 0
        self._num_branches = 1
        self._max_delta = 0.0
        replay_start = time.perf_counter()
        with span("analyzer.replay", "analysis", program=name):
            root = self._analyze_node(normalised, tape)
        replay_seconds = time.perf_counter() - replay_start
        tape.verify_exhausted()
        elapsed = time.perf_counter() - start
        timings = {
            "total_seconds": elapsed,
            "prefill_walk_seconds": prefill_report.walk_seconds,
            "prefill_solve_seconds": prefill_report.solve_seconds,
            "replay_seconds": replay_seconds,
            "solve_classes": list(prefill_report.solve_timings),
        }
        self._publish_metrics(
            solves=self._cache.misses - solves_before,
            hits=self._cache.hits - hits_before,
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
            scheduled_solves=prefill_report.num_solved,
            mps_walks=1,
            timings=timings,
        )

    @staticmethod
    def _publish_metrics(*, solves: int, hits: int) -> None:
        """Fold this analysis's bound-cache deltas into the metric registry.

        The cache keeps its own counters on the per-gate hot path; publishing
        the per-analysis deltas once keeps lookups free of registry work.
        """
        for outcome, amount in (("miss", solves), ("hit", hits)):
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

    # -- recursive replay ---------------------------------------------------------
    def _analyze_node(self, program: Program, tape: ReplayTape) -> DerivationNode:
        if isinstance(program, Skip):
            return skip_rule(tape.take(TapeSkip).delta, noise_model=self.noise_model.name)
        if isinstance(program, GateOp):
            return self._analyze_gate(program, tape)
        if isinstance(program, Seq):
            children = [self._analyze_node(part, tape) for part in program.parts]
            return seq_rule(children, noise_model=self.noise_model.name)
        if isinstance(program, IfMeasure):
            return self._analyze_measure(program, tape)
        raise LogicError(f"unknown program node {type(program).__name__}")

    def _analyze_gate(self, op: GateOp, tape: ReplayTape) -> DerivationNode:
        self._num_gates += 1
        record = tape.take(TapeGate)
        noisy = self.noise_model.channel_for(op.gate, op.qubits) is not None
        if (record.key is None) == noisy:
            raise LogicError(
                f"replay tape out of step at gate {op.gate.label()}: the "
                "pre-pass and the replay disagree about the gate's noise"
            )
        bound = self._cache.lookup(record.key) if noisy else None
        self._max_delta = max(self._max_delta, record.delta_after)
        return gate_rule(
            op.gate.label(),
            op.qubits,
            record.delta_before,
            bound,
            rho_local=record.rho_local,
            truncation_added=record.truncation_added,
            noise_model=self.noise_model.name,
        )

    def _gate_key(self, op: GateOp, noise_channel) -> tuple:
        """The structural part of the SDP cache key for one gate application.

        The bound scheduler quantises each predicate onto it to form the
        class key the replay looks the bound up by.
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

    def _analyze_measure(self, program: IfMeasure, tape: ReplayTape) -> DerivationNode:
        record = tape.take(TapeMeasure)
        self._num_branches += 1
        # An outcome the approximation gives probability ~0 was walked under
        # the trivial predicate (sound, possibly loose) and enters the Meas
        # rule with probability 0.  A fork the walk reached saturated
        # estimated no probabilities at all.  Both branches follow on the
        # tape in (0, 1) order.
        probabilities = None
        if record.probabilities is not None:
            reachable = dict(record.probabilities)
            probabilities = [reachable.get(0, 0.0), reachable.get(1, 0.0)]
        branch_nodes = [
            self._analyze_node(program.then_branch, tape),
            self._analyze_node(program.else_branch, tape),
        ]
        return meas_rule(
            program.qubit,
            record.delta_before,
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
