"""The end-to-end Gleipnir analyzer (the workflow of Figure 4).

Given a program, an input product state, and a noise model, the analyzer

1. evolves an MPS approximation of the ideal state through the program,
   accumulating the sound truncation bound δ (Section 5);
2. before every noisy gate, computes the (ρ̂, δ)-diamond norm of that gate via
   the certified SDP engine — or in closed form, when the gate's noise is a
   single unitary error such as a bit flip — using the local density matrix
   of the MPS as the predicate (Section 6);
3. chains the per-gate bounds with the Seq/Meas rules of the error logic
   (Section 4) into a verified bound on the whole program, together with the
   full derivation tree.

The analysis pipeline is *single-pass*: the MPS walk happens once, inside
the bound scheduler's pre-pass, which returns a tree of walk records that
mirrors the program — every predicate and every truncation — quantises every
noisy gate's predicate, solves each distinct gate SDP once, and writes each
gate's certified bound onto its record.  The derivation is then folded from
that tree alone, without reading the program again, evolving a second MPS or
quantising a predicate again.

The result's ``error_bound`` is a *trace distance* (the ½‖·‖₁ convention), so
it directly upper-bounds the statistical distance of any measurement performed
on the noisy output versus the ideal output.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Sequence

from ..circuits.circuit import Circuit
from ..circuits.program import Program
from ..config import AnalysisConfig
from ..errors import LogicError
from ..noise.model import NoiseModel
from ..obs import metrics as obs_metrics
from ..obs.trace import span
from .derivation import Derivation, DerivationNode, GateContribution
from .rules import absorb_continuations, gate_rule, meas_rule, seq_rule, skip_rule
from .scheduler import BoundScheduler, SchedulerReport, WalkGate, WalkMeasure, WalkNode

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
        derivation: the full derivation tree.
        num_gates: number of gate applications analysed (over all branches).
        num_branches: number of measurement branches explored.
        elapsed_seconds: wall-clock analysis time.
        sdp_solves / sdp_cache_hits: SDP workload statistics — the
            distinct gate SDPs solved and the noisy gates that read a solved
            bound.  Two gates share one solve only when they reduce to the
            same (Choi, σ, c) problem.
        mps_width: bond dimension used by the approximator.
        noise_model: name of the noise model.
        scheduled_solves: the distinct gate SDPs the bound scheduler solved
            up front (equal to ``sdp_solves``).
        mps_walks: how many times an MPS evolved through the whole program
            for this analysis: always 1, the scheduler's pre-pass, whose
            walk tree the derivation is folded from.
        timings: structured per-phase wall-clock breakdown — always present:
            ``total_seconds``, ``prefill_walk_seconds``,
            ``prefill_solve_seconds`` and ``replay_seconds``.  Pure
            observation: the clocks never influence the derivation.
    """

    error_bound: float
    final_delta: float
    derivation: Derivation
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

        # Program-level pre-pass: one MPS walk, then one batched solve that
        # puts each noisy gate's bound on its record.  The fold below turns
        # that walk tree into the derivation.
        scheduler = BoundScheduler(self.noise_model, self.config)
        with span("scheduler.prefill", "analysis", program=name):
            prefill_report = scheduler.prefill(normalised, bits)

        self._num_gates = 0
        self._num_branches = 1
        self._max_delta = 0.0
        replay_start = time.perf_counter()
        with span("analyzer.replay", "analysis", program=name):
            root = self._analyze_node(prefill_report.walk)
        replay_seconds = time.perf_counter() - replay_start
        elapsed = time.perf_counter() - start
        timings = {
            "total_seconds": elapsed,
            "prefill_walk_seconds": prefill_report.walk_seconds,
            "prefill_solve_seconds": prefill_report.solve_seconds,
            "replay_seconds": replay_seconds,
        }
        self._publish_metrics(prefill_report)

        return AnalysisResult(
            error_bound=root.judgment.epsilon,
            final_delta=self._max_delta,
            derivation=Derivation(
                root,
                noise_model_name=self.noise_model.name,
                mps_width=self.config.mps_width,
            ),
            num_gates=self._num_gates,
            num_branches=self._num_branches,
            elapsed_seconds=elapsed,
            sdp_solves=prefill_report.num_unique_classes,
            sdp_cache_hits=prefill_report.num_gate_instances,
            mps_width=self.config.mps_width,
            noise_model=self.noise_model.name,
            program_name=name,
            scheduled_solves=prefill_report.num_unique_classes,
            mps_walks=1,
            timings=timings,
        )

    @staticmethod
    def _publish_metrics(report: SchedulerReport) -> None:
        """Fold this analysis's bound lookups into the metric registry, once."""
        lookups = (("miss", report.num_unique_classes), ("hit", report.num_gate_instances))
        for outcome, amount in lookups:
            if amount:
                obs_metrics.counter(
                    "repro_gate_bound_lookups_total",
                    "Gate-bound lookups by outcome (miss = fresh solve).",
                    {"outcome": outcome},
                ).inc(amount)
        obs_metrics.counter(
            "repro_analyses_total", "Analyses completed by this process."
        ).inc()

    # -- the fold over the walk tree -------------------------------------------
    def _analyze_node(self, node: WalkNode) -> DerivationNode:
        if isinstance(node, WalkGate):
            return self._analyze_gate(node)
        if isinstance(node, tuple):
            children = [self._analyze_node(part) for part in node]
            return seq_rule(children, noise_model=self.noise_model.name)
        if isinstance(node, WalkMeasure):
            return self._analyze_measure(node)
        return skip_rule(node.delta, noise_model=self.noise_model.name)

    def _analyze_gate(self, record: WalkGate) -> DerivationNode:
        self._num_gates += 1
        self._max_delta = max(self._max_delta, record.delta_after)
        return gate_rule(
            record.op.gate.label(),
            record.op.qubits,
            record.delta_before,
            record.bound,
            rho_local=record.rho_local,
            truncation_added=record.truncation_added,
            noise_model=self.noise_model.name,
        )

    def _analyze_measure(self, record: WalkMeasure) -> DerivationNode:
        self._num_branches += 1
        branch_nodes = [
            self._analyze_node(record.then_branch),
            self._analyze_node(record.else_branch),
        ]
        return meas_rule(
            record.qubit,
            record.delta,
            branch_nodes,
            branch_probabilities=record.probabilities,
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
