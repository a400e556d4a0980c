"""Ablation benchmark: the (ρ̂, δ)-constrained gate bound vs the vacuous predicate.

The predicate is what makes Gleipnir's bounds tighter than the worst case.
This benchmark certifies each representative (gate, noise, predicate)
combination twice — under its own predicate and under the vacuous one
(δ = 2, which admits every state and reduces the SDP to the unconstrained
diamond norm) — and checks the expected relationships:

* both are sound (they dominate a brute-force feasible lower bound);
* the constrained bound is never looser than the vacuous one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SDPConfig
from repro.core.predicate import VACUOUS_DELTA
from repro.linalg import CNOT, HADAMARD, identity_channel, maximally_mixed, plus_state, pure_density, zero_state
from repro.noise import amplitude_damping, bit_flip, depolarizing, two_qubit_depolarizing
from repro.sdp import constrained_diamond_lower_bound, gate_error_bound

_CASES = {
    "h_bitflip_plus_state": (
        HADAMARD,
        bit_flip(1e-3),
        pure_density(zero_state(1)),
        0.0,
    ),
    "h_depolarizing_mixed": (
        HADAMARD,
        depolarizing(1e-3),
        maximally_mixed(1),
        0.05,
    ),
    "h_amplitude_damping": (
        HADAMARD,
        amplitude_damping(5e-3),
        pure_density(plus_state(1)),
        0.01,
    ),
    "cnot_single_qubit_bitflip": (
        CNOT,
        bit_flip(1e-3).tensor(identity_channel(1)),
        pure_density(np.kron(plus_state(1), zero_state(1))),
        0.02,
    ),
    "cnot_two_qubit_depolarizing": (
        CNOT,
        two_qubit_depolarizing(5e-3),
        maximally_mixed(2),
        0.05,
    ),
}

_RESULTS: dict[str, dict[str, float]] = {}


@pytest.mark.parametrize("predicate", ["constrained", "vacuous"])
@pytest.mark.parametrize("case", sorted(_CASES), ids=sorted(_CASES))
def test_gate_bound_predicates(benchmark, case, predicate):
    gate, noise, rho, delta = _CASES[case]
    if predicate == "vacuous":
        delta = VACUOUS_DELTA
    config = SDPConfig()

    def run():
        return gate_error_bound(gate, noise, rho, delta, config=config)

    bound = benchmark.pedantic(run, rounds=1, iterations=3)
    benchmark.extra_info["value"] = bound.value
    _RESULTS.setdefault(case, {})[predicate] = bound.value
    assert bound.value >= 0.0


def test_predicates_relationship():
    if not _RESULTS:
        pytest.skip("predicate benchmarks did not run")
    for case, values in _RESULTS.items():
        if {"constrained", "vacuous"} <= set(values):
            assert values["constrained"] <= values["vacuous"] + 1e-9, case


@pytest.mark.parametrize("case", ["h_bitflip_plus_state", "cnot_single_qubit_bitflip"])
def test_certified_bound_dominates_brute_force(case):
    gate, noise, rho, delta = _CASES[case]
    config = SDPConfig(max_iterations=1000, tolerance=1e-5)
    bound = gate_error_bound(gate, noise, rho, delta, config=config)
    from repro.linalg import unitary_channel

    lower = constrained_diamond_lower_bound(
        noise.compose(unitary_channel(gate)),
        unitary_channel(gate),
        rho,
        delta,
        num_samples=16,
        rng=np.random.default_rng(0),
    )
    assert bound.value >= lower - 1e-7
