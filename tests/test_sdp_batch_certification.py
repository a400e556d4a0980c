"""Property tests: batched certification is bit-identical to per-gate.

The single-pass pipeline solves and certifies all SDP instances of a solve
class in one fused batch (`gate_error_bounds_batch`).  Its contract is that
every per-element result is *exactly* what the per-gate entry point
(`gate_error_bound`) produces — same certified value, same dual certificate,
bit for bit — because both run the identical batched primitives and those
primitives are independent of the batch composition.

The property is exercised across the whole reduced Table 2 program library
(the real solve classes each benchmark generates) and on random circuits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit

from repro.config import AnalysisConfig, SDPConfig
from repro.core.analyzer import GleipnirAnalyzer
from repro.core.rules import absorb_continuations
from repro.core.scheduler import BoundScheduler
from repro.noise import NoiseModel
from repro.programs.library import table2_benchmarks
from repro.sdp import gate_error_bound, gate_error_bounds_batch

#: Identity between the batch and per-gate paths does not depend on solver
#: convergence, so a reduced iteration cap keeps the sweep fast.
FAST_SDP = SDPConfig(max_iterations=200, tolerance=1e-5)

#: Instances checked per benchmark (the classes are deduped, so the head of
#: the list already spans the program's distinct gate/predicate shapes).
MAX_CLASSES_PER_PROGRAM = 10


def solve_classes(circuit_or_program, *, num_qubits=None, mps_width=8):
    """The unique solve classes the scheduler pre-pass collects."""
    model = NoiseModel.uniform_bit_flip(1e-3)
    config = AnalysisConfig(mps_width=mps_width, sdp=FAST_SDP)
    analyzer = GleipnirAnalyzer(model, config)
    scheduler = BoundScheduler(model, analyzer.cache, config)
    program = (
        circuit_or_program.to_program()
        if hasattr(circuit_or_program, "to_program")
        else circuit_or_program
    )
    if num_qubits is None:
        num_qubits = program.num_qubits
    scheduler.collect(absorb_continuations(program), [0] * num_qubits)
    return [
        (c.gate_matrix, c.noise_channel, c.rho_rounded, c.delta_effective)
        for c in scheduler._classes.values()
    ]


def assert_bit_identical(batch, singles):
    assert len(batch) == len(singles)
    for batched, single in zip(batch, singles):
        assert batched.value == single.value
        assert batched.method == single.method
        assert batched.certificate.y == single.certificate.y
        assert batched.certificate.value == single.certificate.value
        assert np.array_equal(batched.certificate.z, single.certificate.z)


@pytest.mark.parametrize(
    "spec", table2_benchmarks("reduced"), ids=lambda spec: spec.name
)
def test_batch_certification_matches_per_gate_across_library(spec):
    """Batch-certified bounds == per-gate certification, bit for bit."""
    instances = solve_classes(spec.build())[:MAX_CLASSES_PER_PROGRAM]
    assert instances, f"benchmark {spec.name} produced no noisy gate instances"
    batch = gate_error_bounds_batch(instances, config=FAST_SDP)
    singles = [gate_error_bound(*instance, config=FAST_SDP) for instance in instances]
    assert_bit_identical(batch, singles)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 1000))
def test_batch_certification_matches_per_gate_random_circuits(seed):
    circuit = random_circuit(4, 12, seed=seed)
    instances = solve_classes(circuit)[:MAX_CLASSES_PER_PROGRAM]
    batch = gate_error_bounds_batch(instances, config=FAST_SDP)
    singles = [gate_error_bound(*instance, config=FAST_SDP) for instance in instances]
    assert_bit_identical(batch, singles)


def test_batch_composition_independence():
    """An instance certifies identically alone, in a pair, or in the full set."""
    instances = solve_classes(random_circuit(4, 16, seed=11))[:6]
    assert len(instances) >= 3
    full = gate_error_bounds_batch(instances, config=FAST_SDP)
    alone = gate_error_bounds_batch([instances[0]], config=FAST_SDP)
    pair = gate_error_bounds_batch([instances[0], instances[2]], config=FAST_SDP)
    assert full[0].value == alone[0].value == pair[0].value
    assert np.array_equal(full[0].certificate.z, alone[0].certificate.z)
    assert full[2].value == pair[1].value
