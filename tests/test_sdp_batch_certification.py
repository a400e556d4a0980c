"""Property tests: batched certification is bit-identical to per-gate.

The single-pass pipeline solves and certifies the SDPs of all noisy gates
in one fused batch (`gate_error_bounds_batch`).  Its contract is that
every per-element result is *exactly* what the per-gate entry point
(`gate_error_bound`) produces — same certified value, same dual certificate,
bit for bit — because both run the identical batched primitives and those
primitives are independent of the batch composition.

The property is exercised across the whole reduced Table 2 program library
(the real gate instances each benchmark generates) and on random circuits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import first_operand_model, noisy_gate_instances, random_circuit

from repro.config import AnalysisConfig, SDPConfig
from repro.noise import depolarizing
from repro.programs.library import table2_benchmarks
from repro.sdp import gate_error_bound, gate_error_bounds_batch

#: Identity between the batch and per-gate paths does not depend on solver
#: convergence, so a reduced iteration cap keeps the sweep fast.
FAST_SDP = SDPConfig(max_iterations=200, tolerance=1e-5)

#: Instances checked per benchmark (the instances are deduped, so the head of
#: the list already spans the program's distinct gate/predicate shapes).
MAX_INSTANCES_PER_PROGRAM = 10


def gate_instances(circuit_or_program, *, num_qubits=None, mps_width=8):
    """The distinct quantised noisy-gate instances of the scheduler's walk,
    under depolarizing noise placed like the paper's bit flip: bit flip is
    bounded in closed form, depolarizing noise needs the certified SDP."""
    return noisy_gate_instances(
        circuit_or_program,
        first_operand_model(depolarizing(1e-3)),
        AnalysisConfig(mps_width=mps_width, sdp=FAST_SDP),
        num_qubits=num_qubits,
    )


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
    instances = gate_instances(spec.build())[:MAX_INSTANCES_PER_PROGRAM]
    assert instances, f"benchmark {spec.name} produced no noisy gate instances"
    batch = gate_error_bounds_batch(instances, config=FAST_SDP)
    singles = [gate_error_bound(*instance, config=FAST_SDP) for instance in instances]
    assert_bit_identical(batch, singles)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 1000))
def test_batch_certification_matches_per_gate_random_circuits(seed):
    circuit = random_circuit(4, 12, seed=seed)
    instances = gate_instances(circuit)[:MAX_INSTANCES_PER_PROGRAM]
    batch = gate_error_bounds_batch(instances, config=FAST_SDP)
    singles = [gate_error_bound(*instance, config=FAST_SDP) for instance in instances]
    assert_bit_identical(batch, singles)


def test_batch_composition_independence():
    """An instance certifies identically alone, in a pair, or in the full set."""
    instances = gate_instances(random_circuit(4, 16, seed=11))[:6]
    assert len(instances) >= 3
    full = gate_error_bounds_batch(instances, config=FAST_SDP)
    alone = gate_error_bounds_batch([instances[0]], config=FAST_SDP)
    pair = gate_error_bounds_batch([instances[0], instances[2]], config=FAST_SDP)
    assert full[0].value == alone[0].value == pair[0].value
    assert np.array_equal(full[0].certificate.z, alone[0].certificate.z)
    assert full[2].value == pair[1].value
