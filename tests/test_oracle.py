"""Differential oracles: certified bounds against exact simulation.

On small programs the exact output error is computable by dense
density-matrix simulation, and the worst case by unconstrained diamond
norms, so every certified bound must satisfy
``exact_error <= bound <= worst_case_bound``.  The noise model alone orders
noise and gate, so the analysis and the exact semantics always model the
same channel; both orderings are covered.
"""

import numpy as np
import pytest

from helpers import random_circuit

from repro.circuits import Circuit
from repro.circuits.program import IfMeasure, seq
from repro.config import AnalysisConfig
from repro.core.analyzer import GleipnirAnalyzer
from repro.core.baselines import exact_error, worst_case_bound
from repro.noise import NoiseModel, amplitude_damping, bit_flip, depolarizing, identity_noise

FAMILIES = {
    "bit_flip": bit_flip(0.05),
    "depolarizing": depolarizing(0.1),
    "amplitude_damping": amplitude_damping(0.2),
}

MPS_WIDTHS = (1, 2, 16)


def _model(family: str, noise_after_gate: bool) -> NoiseModel:
    """``family`` after (or before) every gate, on the first operand of a 2-qubit gate."""
    channel = FAMILIES[family]
    model = NoiseModel(name=family, noise_after_gate=noise_after_gate)
    return model.set_default(1, channel).set_default(2, channel.tensor(identity_noise(1)))


def _programs(seed: int) -> list[tuple[object, object, list[int]]]:
    """``(program, every_gate, initial_bits)`` for one branch-free and one
    branching random program.

    ``every_gate`` is branch-free and holds every gate of ``program``, so its
    worst case sums both branches of the fork: at δ = 0 that dominates the
    Meas rule's maximum over the branches.  The fork's prefix is a product
    state, so δ is 0 there at every MPS width.
    """
    rng = np.random.default_rng(seed)
    straight = random_circuit(4, 10, seed=seed).to_program()
    prefix = Circuit(3)
    for qubit in range(3):
        prefix.rx(float(rng.uniform(0, 2 * np.pi)), qubit)
    then_branch = random_circuit(3, 4, seed=seed + 1).to_program()
    else_branch = random_circuit(3, 4, seed=seed + 2).to_program()
    branching = seq(prefix.to_program(), IfMeasure(0, then_branch, else_branch))
    every_gate = seq(prefix.to_program(), then_branch, else_branch)
    return [
        (straight, straight, [int(b) for b in rng.integers(0, 2, size=4)]),
        (branching, every_gate, [int(b) for b in rng.integers(0, 2, size=3)]),
    ]


class TestNoiseOrdering:
    @pytest.mark.parametrize("noise_after_gate", [True, False])
    @pytest.mark.parametrize("bits", ["0", "1"])
    def test_bound_covers_the_exact_error(self, noise_after_gate, bits):
        """H under amplitude damping 0.3: with noise before the gate and
        input 1 the exact error is 0.3.  The analysis reads the ordering
        from the noise model, as the exact semantics do, so the default
        config certifies it."""
        model = NoiseModel(noise_after_gate=noise_after_gate).set_default(
            1, amplitude_damping(0.3)
        )
        circuit = Circuit(1).h(0)
        result = GleipnirAnalyzer(model, AnalysisConfig()).analyze(circuit, initial_bits=bits)
        exact = exact_error(circuit, model, initial_bits=bits).value
        assert exact <= result.error_bound
        result.derivation.check()


class TestDifferentialOracle:
    @pytest.mark.parametrize("noise_after_gate", [True, False], ids=["after", "before"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_exact_error_le_bound_le_worst_case(self, family, noise_after_gate):
        model = _model(family, noise_after_gate)
        seed = sorted(FAMILIES).index(family) * 10 + noise_after_gate
        for program, every_gate, bits in _programs(seed):
            exact = exact_error(program, model, initial_bits=bits).value
            worst = worst_case_bound(every_gate, model).value
            for width in MPS_WIDTHS:
                result = GleipnirAnalyzer(model, AnalysisConfig(mps_width=width)).analyze(
                    program, initial_bits=bits
                )
                assert exact <= result.error_bound <= worst, (width, program)
