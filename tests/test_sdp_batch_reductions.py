"""Property tests: batched structural reductions are bit-identical to per-gate.

The batched front door of `gate_error_bounds_batch`
(`_reduced_gate_problems_batch`) replaces the per-instance Python of
`_reduced_gate_problem` — Choi construction, unitary conjugation of the
predicate, and the 2-qubit trivial-spectator reduction — with whole-stack
numpy work.  Its contract mirrors the batch-certification contract
(tests/test_sdp_batch_certification.py): every per-element output is
*exactly* what the per-instance entry point produces, bit for bit, because
the per-instance path is a batch of one through the same code and every
batched primitive is independent of the batch composition.

The property is exercised across the whole reduced Table 2 program library
(the real solve classes each benchmark generates) and on random circuits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_circuit

from repro.linalg.partial_trace import partial_trace_keep
from repro.noise import channels as noise_channels
from repro.programs.library import table2_benchmarks
from repro.sdp.diamond import (
    _reduced_gate_problem,
    _reduced_gate_problems_batch,
)
from test_sdp_batch_certification import solve_classes


def reduction_problems(circuit_or_program, **kwargs):
    """The (gate, channel, predicate) triples the scheduler pre-pass collects."""
    return [
        (gate, channel, rho)
        for gate, channel, rho, _delta in solve_classes(circuit_or_program, **kwargs)
    ]


def assert_reductions_bit_identical(batch, singles):
    assert len(batch) == len(singles)
    for (batch_choi, batch_sigma), (single_choi, single_sigma) in zip(batch, singles):
        assert np.array_equal(batch_choi, single_choi)
        assert np.array_equal(batch_sigma, single_sigma)


@pytest.mark.parametrize(
    "spec", table2_benchmarks("reduced"), ids=lambda spec: spec.name
)
def test_batched_reductions_match_per_instance_across_library(spec):
    """Batched structural reductions == per-instance reductions, bit for bit."""
    problems = reduction_problems(spec.build())
    assert problems, f"benchmark {spec.name} produced no noisy gate instances"
    batch = _reduced_gate_problems_batch(problems)
    singles = [_reduced_gate_problem(*problem) for problem in problems]
    assert_reductions_bit_identical(batch, singles)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 1000))
def test_batched_reductions_match_per_instance_random_circuits(seed):
    problems = reduction_problems(random_circuit(4, 12, seed=seed))
    batch = _reduced_gate_problems_batch(problems)
    singles = [_reduced_gate_problem(*problem) for problem in problems]
    assert_reductions_bit_identical(batch, singles)


def test_batched_reductions_composition_independence():
    """A reduction is identical alone, in a pair, or in the full set."""
    problems = reduction_problems(random_circuit(4, 16, seed=11))
    assert len(problems) >= 3
    full = _reduced_gate_problems_batch(problems)
    alone = _reduced_gate_problems_batch([problems[0]])
    pair = _reduced_gate_problems_batch([problems[0], problems[2]])
    assert np.array_equal(full[0][0], alone[0][0])
    assert np.array_equal(full[0][1], alone[0][1])
    assert np.array_equal(full[2][0], pair[1][0])
    assert np.array_equal(full[2][1], pair[1][1])


def test_batched_reductions_noise_before_gate():
    """With noise before the gate the predicate is not conjugated."""
    problems = reduction_problems(random_circuit(3, 8, seed=3))
    batch = _reduced_gate_problems_batch(problems, noise_after_gate=False)
    singles = [
        _reduced_gate_problem(*problem, noise_after_gate=False)
        for problem in problems
    ]
    assert_reductions_bit_identical(batch, singles)


def test_spectator_reduction_fires_for_factoring_two_qubit_noise():
    """N ⊗ id noise on a 2-qubit gate reduces to the 1-qubit problem."""
    channel = noise_channels.bit_flip(1e-3).tensor(
        noise_channels.identity_noise(1)
    )
    gate = np.eye(4, dtype=np.complex128)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(np.complex128)
    ((diff_choi, sigma),) = _reduced_gate_problems_batch([(gate, channel, rho)])
    assert diff_choi.shape == (4, 4)  # 1-qubit difference map
    assert sigma.shape == (2, 2)
    assert np.array_equal(sigma, partial_trace_keep(rho, [0]))


def test_non_factoring_noise_keeps_full_dimension():
    channel = noise_channels.two_qubit_depolarizing(1e-2)
    gate = np.eye(4, dtype=np.complex128)
    rho = np.eye(4, dtype=np.complex128) / 4
    ((diff_choi, sigma),) = _reduced_gate_problems_batch([(gate, channel, rho)])
    assert diff_choi.shape == (16, 16)
    assert sigma.shape == (4, 4)
