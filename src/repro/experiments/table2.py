"""Experiment harness for Table 2: error bounds on the benchmark suite.

For every benchmark circuit the harness computes

* the Gleipnir bound (MPS-constrained diamond norms chained by the error
  logic) and its runtime,
* the LQR + full-simulation baseline (strongest predicates from exact density
  simulation), which — exactly as in the paper — is only feasible for the
  small-qubit rows and reports a timeout otherwise,
* the worst-case bound from unconstrained diamond norms (``gate count × p``
  under the paper's bit-flip model).

Run at ``scale="full"`` this regenerates the paper's table (same qubit counts,
MPS width 128); at ``scale="reduced"`` it runs a shape-preserving smaller
suite suitable for CI and ``pytest benchmarks/``.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

from ..api import AnalysisOutcome, AnalysisSession
from ..circuits.circuit import Circuit
from ..config import AnalysisConfig, DEFAULT_BIT_FLIP_PROBABILITY
from ..core.baselines import lqr_full_simulation_bound, worst_case_bound
from ..errors import ExperimentError
from ..noise.model import NoiseModel
from ..programs.library import BenchmarkSpec, table2_benchmarks
from ._session import resolve_session, stream_batch

__all__ = ["Table2Row", "Table2Result", "run_table2", "run_table2_row"]


@dataclasses.dataclass
class Table2Row:
    """One row of Table 2."""

    benchmark: str
    num_qubits: int
    gate_count: int
    gleipnir_bound: float
    gleipnir_seconds: float
    lqr_bound: float | None
    lqr_seconds: float | None
    lqr_timed_out: bool
    worst_case_bound: float
    mps_width: int
    final_delta: float
    sdp_solves: int
    sdp_cache_hits: int
    mps_walks: int = 0

    @property
    def improvement_over_worst_case(self) -> float:
        """Relative tightening versus the worst-case bound (0.15 = 15 % tighter)."""
        if self.worst_case_bound <= 0:
            return 0.0
        return 1.0 - self.gleipnir_bound / self.worst_case_bound


@dataclasses.dataclass
class Table2Result:
    """All rows plus the configuration that produced them."""

    rows: list[Table2Row]
    scale: str
    mps_width: int
    bit_flip_probability: float

    def row(self, benchmark: str) -> Table2Row:
        for row in self.rows:
            if row.benchmark == benchmark:
                return row
        raise ExperimentError(f"no row named {benchmark!r}")

    def as_dicts(self) -> list[dict]:
        return [dataclasses.asdict(row) for row in self.rows]


def _noise_model(bit_flip_probability: float) -> NoiseModel:
    return NoiseModel.uniform_bit_flip(bit_flip_probability)


def _assemble_row(
    spec: BenchmarkSpec,
    circuit: Circuit,
    analysis: AnalysisOutcome,
    noise_model: NoiseModel,
    config: AnalysisConfig,
    *,
    include_lqr: bool,
) -> Table2Row:
    """Combine one facade outcome with the (inline) baselines into a row."""
    if not analysis.ok:
        raise ExperimentError(
            f"analysis of benchmark {spec.name!r} {analysis.status}: {analysis.error}"
        )
    worst = worst_case_bound(circuit, noise_model, config=config)

    lqr_bound = None
    lqr_seconds = None
    lqr_timed_out = False
    if include_lqr:
        lqr = lqr_full_simulation_bound(circuit, noise_model, config=config)
        lqr_bound = lqr.value
        lqr_seconds = lqr.elapsed_seconds
        lqr_timed_out = lqr.timed_out

    return Table2Row(
        benchmark=spec.name,
        num_qubits=circuit.num_qubits,
        gate_count=circuit.gate_count(),
        gleipnir_bound=analysis.bound,
        gleipnir_seconds=analysis.elapsed_seconds,
        lqr_bound=lqr_bound,
        lqr_seconds=lqr_seconds,
        lqr_timed_out=lqr_timed_out,
        worst_case_bound=worst.value if worst.value is not None else float("nan"),
        mps_width=config.mps_width,
        final_delta=analysis.final_delta,
        sdp_solves=analysis.sdp_solves,
        sdp_cache_hits=analysis.sdp_cache_hits,
        mps_walks=analysis.mps_walks,
    )


def run_table2_row(
    spec: BenchmarkSpec,
    *,
    mps_width: int = 128,
    bit_flip_probability: float = DEFAULT_BIT_FLIP_PROBABILITY,
    config: AnalysisConfig | None = None,
    include_lqr: bool = True,
    session: AnalysisSession | None = None,
) -> Table2Row:
    """Run one benchmark through Gleipnir (via ``repro.api``) and the baselines."""
    circuit = spec.build()
    noise_model = _noise_model(bit_flip_probability)
    config = (config or AnalysisConfig()).replace(mps_width=mps_width)
    with resolve_session(session) as active:
        outcome = active.analyze(circuit, noise_model, config=config, name=spec.name)
    return _assemble_row(
        spec, circuit, outcome, noise_model, config, include_lqr=include_lqr
    )


def run_table2(
    *,
    scale: str = "reduced",
    mps_width: int | None = None,
    bit_flip_probability: float = DEFAULT_BIT_FLIP_PROBABILITY,
    benchmarks: Sequence[str] | None = None,
    config: AnalysisConfig | None = None,
    include_lqr: bool = True,
    session: AnalysisSession | None = None,
    progress=None,
) -> Table2Result:
    """Regenerate Table 2 at the requested scale.

    The Gleipnir analyses run through the :mod:`repro.api` facade as one
    batch of content-addressed jobs; the baselines (worst case, LQR) stay
    inline because they are either trivial or deliberately report timeouts.

    Args:
        scale: ``"full"`` for paper-scale circuits, ``"reduced"`` for the CI suite.
        mps_width: MPS bond dimension (defaults: 128 at full scale, 16 reduced).
        bit_flip_probability: the per-gate bit-flip probability of the noise model.
        benchmarks: optional subset of benchmark names to run.
        config: analysis configuration overrides.
        include_lqr: also run the LQR + full-simulation baseline.
        session: the :class:`~repro.api.AnalysisSession` to run through (local
            or remote); an ephemeral inline session is created when omitted.
        progress: a callable receiving one line per finished job as results
            land (completion order); None keeps the silent batch behaviour.
    """
    if mps_width is None:
        mps_width = 128 if scale == "full" else 16
    specs = table2_benchmarks(scale)
    if benchmarks is not None:
        wanted = set(benchmarks)
        specs = [spec for spec in specs if spec.name in wanted]
        missing = wanted - {spec.name for spec in specs}
        if missing:
            raise ExperimentError(f"unknown benchmarks requested: {sorted(missing)}")

    noise_model = _noise_model(bit_flip_probability)
    run_config = (config or AnalysisConfig()).replace(mps_width=mps_width)
    circuits = [spec.build() for spec in specs]
    with resolve_session(session) as active:
        jobs = [
            active.job(circuit, noise_model, config=run_config, name=spec.name)
            for spec, circuit in zip(specs, circuits)
        ]
        outcomes = stream_batch(active, jobs, progress)
    rows = [
        _assemble_row(
            spec, circuit, analysis, noise_model, run_config, include_lqr=include_lqr
        )
        for spec, circuit, analysis in zip(specs, circuits, outcomes)
    ]
    return Table2Result(
        rows=rows,
        scale=scale,
        mps_width=mps_width,
        bit_flip_probability=bit_flip_probability,
    )
