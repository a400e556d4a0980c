"""Baseline error analyses the paper compares Gleipnir against (Section 7.1).

Three baselines are provided:

* :func:`worst_case_bound` — the unconstrained diamond norm summed over all
  noisy gates (the larger branch of each measurement fork).  For the paper's
  bit-flip model with probability p this equals ``num_gates * p`` exactly
  (last column of Table 2).
* :func:`lqr_full_simulation_bound` — the LQR-style bound where the quantum
  predicate before every gate is obtained by *exact* density-matrix
  simulation (the strongest predicate possible).  Its cost is exponential in
  the number of qubits: the resource guard raises
  :class:`~repro.errors.ResourceLimitExceeded` for programs beyond the dense
  budget, which the experiment harness reports as the paper's "timed out".
* :func:`exact_error` — the true output error obtained by simulating both the
  noisy and ideal semantics (also exponential); used to validate soundness on
  small programs and as the "full simulation" reference.
"""

from __future__ import annotations

import dataclasses
import time
from collections.abc import Iterator, Sequence

import numpy as np

from ..circuits.circuit import Circuit
from ..circuits.program import GateOp, IfMeasure, Program, Seq
from ..config import AnalysisConfig, ResourceGuard
from ..errors import NoiseModelError, ResourceLimitExceeded
from ..linalg.channels import QuantumChannel, identity_channel
from ..linalg.partial_trace import partial_trace_keep
from ..linalg.states import basis_state
from ..noise.model import NoiseModel
from ..sdp.closed_form import closed_form_value
from ..sdp.diamond import (
    closed_form_channel,
    constrained_diamond_norms_batch,
    gate_error_bounds_batch,
)
from ..semantics.density import apply_gate_to_density
from ..semantics.noisy import exact_program_error
from .rules import absorb_continuations

__all__ = [
    "BaselineOutcome",
    "worst_case_bound",
    "lqr_full_simulation_bound",
    "exact_error",
]


@dataclasses.dataclass(frozen=True)
class BaselineOutcome:
    """Result of a baseline computation (value or a recorded failure)."""

    name: str
    value: float | None
    elapsed_seconds: float
    timed_out: bool = False
    detail: str = ""

    @property
    def available(self) -> bool:
        return self.value is not None


def _as_ast(program: Program | Circuit) -> tuple[Program, int]:
    if isinstance(program, Circuit):
        return program.to_program(), program.num_qubits
    return program, program.num_qubits


def _gate_ops(program: Program) -> Iterator[GateOp]:
    """Every gate of ``program``, then-branches before else-branches."""
    if isinstance(program, GateOp):
        yield program
    elif isinstance(program, Seq):
        for part in program.parts:
            yield from _gate_ops(part)
    elif isinstance(program, IfMeasure):
        yield from _gate_ops(program.then_branch)
        yield from _gate_ops(program.else_branch)


def _fold_worst_case(program: Program, terms: Iterator[float]) -> float:
    """Fold per-gate terms, taken in :func:`_gate_ops` order, over the tree.

    A sequence sums its parts, a measurement fork takes its larger branch
    and a skip gives 0: the outcomes of a measurement weight the branch
    errors convexly, so the larger one bounds their mixture.
    """
    if isinstance(program, GateOp):
        return next(terms)
    if isinstance(program, Seq):
        return sum(_fold_worst_case(part, terms) for part in program.parts)
    if isinstance(program, IfMeasure):
        then_value = _fold_worst_case(program.then_branch, terms)
        return max(then_value, _fold_worst_case(program.else_branch, terms))
    return 0.0


def worst_case_bound(
    program: Program | Circuit,
    noise_model: NoiseModel,
    *,
    config: AnalysisConfig | None = None,
) -> BaselineOutcome:
    """Unconstrained diamond distances of the noisy gates, folded over the program.

    A sequence sums its parts and a measurement fork takes its larger
    branch (:func:`_fold_worst_case`); on a branch-free program this is the
    sum over every noisy gate.  The value is independent of the input
    state, which is exactly its weakness.  For a unitary ``U``,
    ``||N∘U - U||◇ = ||U∘N - U||◇ = ||N - id||◇``, so a gate's term depends
    only on its noise channel.  A single-unitary-error channel's term is
    its probability p, from the closed form the analysis bounds its gates
    with, at ``m = 0``; every other channel gets one SDP, all solved as one
    batch.  The fold runs over the program as the analysis normalises it
    (:func:`~repro.core.rules.absorb_continuations`), so that both add
    their terms in the same order and a bound never exceeds this one by
    rounding.
    """
    config = config or AnalysisConfig()
    start = time.perf_counter()
    ast, _ = _as_ast(program)
    ast = absorb_continuations(ast)
    by_channel: dict[QuantumChannel, int] = {}
    by_choi: dict[bytes, int] = {}
    differences: list[np.ndarray] = []
    values: list[float] = []
    pending: list[tuple[int, int]] = []  # (term, SDP request)
    for op in _gate_ops(ast):
        channel = noise_model.channel_for(op.gate, op.qubits)
        if channel is None:
            values.append(0.0)
            continue
        if channel.dim_in != op.gate.matrix.shape[0]:
            raise NoiseModelError(
                f"noise channel dimension {channel.dim_in} does not match gate "
                f"{op.gate.name!r} of dimension {op.gate.matrix.shape[0]}"
            )
        recognised = closed_form_channel(channel)
        if recognised is not None:
            values.append(float(closed_form_value(recognised[0], 0.0)))
            continue
        if channel not in by_channel:
            difference = channel.choi() - identity_channel(channel.num_qubits).choi()
            key = difference.tobytes()
            if key not in by_choi:
                by_choi[key] = len(differences)
                differences.append(difference)
            by_channel[channel] = by_choi[key]
        pending.append((len(values), by_channel[channel]))
        values.append(0.0)
    if differences:
        bounds = constrained_diamond_norms_batch(
            [(difference, None, 0.0) for difference in differences], config=config.sdp
        )
        for term, request in pending:
            values[term] = bounds[request].value
    total = _fold_worst_case(ast, iter(values))
    elapsed = time.perf_counter() - start
    return BaselineOutcome(name="worst_case", value=total, elapsed_seconds=elapsed)


def lqr_full_simulation_bound(
    program: Program | Circuit,
    noise_model: NoiseModel,
    *,
    initial_bits: str | Sequence[int] | None = None,
    config: AnalysisConfig | None = None,
    guard: ResourceGuard | None = None,
) -> BaselineOutcome:
    """LQR-style bound with predicates from exact (full) simulation.

    The exact intermediate state before every gate yields the strongest
    possible predicate (δ = 0), so on programs small enough to simulate this
    bound coincides with Gleipnir's (Table 2, 10-qubit rows).  Beyond the
    dense-simulation budget it reports a timeout, like the paper's 24-hour
    limit for programs with 20 or more qubits.  The simulation collects every
    gate's predicate first; the SDPs are then solved as one batch.
    """
    config = config or AnalysisConfig()
    guard = guard or config.guard
    start = time.perf_counter()
    ast, num_qubits = _as_ast(program)
    try:
        guard.check_dense_qubits(num_qubits, what="LQR full-simulation baseline")
    except ResourceLimitExceeded as exc:
        return BaselineOutcome(
            name="lqr_full_simulation",
            value=None,
            elapsed_seconds=time.perf_counter() - start,
            timed_out=True,
            detail=str(exc),
        )

    bits = [0] * num_qubits if initial_bits is None else [int(b) for b in initial_bits]
    rho = np.outer(basis_state(bits), basis_state(bits).conj())
    instances = []
    for op in ast.operations():
        channel = noise_model.channel_for(op.gate, op.qubits)
        if channel is not None:
            rho_local = partial_trace_keep(rho, op.qubits)
            instances.append((op.gate.matrix, channel, rho_local, 0.0))
        rho = apply_gate_to_density(rho, op.gate.matrix, op.qubits, num_qubits)
    bounds = gate_error_bounds_batch(
        instances, noise_after_gate=noise_model.noise_after_gate, config=config.sdp
    )
    total = sum(bound.value for bound in bounds)
    elapsed = time.perf_counter() - start
    return BaselineOutcome(name="lqr_full_simulation", value=total, elapsed_seconds=elapsed)


def exact_error(
    program: Program | Circuit,
    noise_model: NoiseModel,
    *,
    initial_bits: str | Sequence[int] | None = None,
    guard: ResourceGuard | None = None,
) -> BaselineOutcome:
    """True output trace distance between noisy and ideal runs (exponential)."""
    start = time.perf_counter()
    ast, num_qubits = _as_ast(program)
    guard = guard or ResourceGuard()
    try:
        guard.check_dense_qubits(num_qubits, what="exact error computation")
        initial_state = None
        if initial_bits is not None:
            initial_state = basis_state([int(b) for b in initial_bits])
        value = exact_program_error(
            ast,
            noise_model,
            initial_state=initial_state,
            num_qubits=num_qubits,
            guard=guard,
        )
    except ResourceLimitExceeded as exc:
        return BaselineOutcome(
            name="exact_error",
            value=None,
            elapsed_seconds=time.perf_counter() - start,
            timed_out=True,
            detail=str(exc),
        )
    return BaselineOutcome(
        name="exact_error", value=value, elapsed_seconds=time.perf_counter() - start
    )
