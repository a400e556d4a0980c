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
from repro.linalg import QuantumChannel, pure_density
from repro.linalg.operators import random_unitary
from repro.noise import NoiseModel, amplitude_damping, bit_flip, depolarizing, identity_noise
from repro.sdp import constrained_diamond_lower_bound, gate_error_bound

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


def _programs(seed: int) -> list[tuple[object, list[int]]]:
    """``(program, initial_bits)`` for one branch-free and one branching
    random program."""
    rng = np.random.default_rng(seed)
    straight = random_circuit(4, 10, seed=seed).to_program()
    prefix = Circuit(3)
    for qubit in range(3):
        prefix.rx(float(rng.uniform(0, 2 * np.pi)), qubit)
    then_branch = random_circuit(3, 4, seed=seed + 1).to_program()
    else_branch = random_circuit(3, 4, seed=seed + 2).to_program()
    branching = seq(prefix.to_program(), IfMeasure(0, then_branch, else_branch))
    return [
        (straight, [int(b) for b in rng.integers(0, 2, size=4)]),
        (branching, [int(b) for b in rng.integers(0, 2, size=3)]),
    ]


def _unitary_program(seed: int) -> Circuit:
    """A random program whose 1-qubit gates are random unitaries that all
    carry ``Circuit.unitary``'s one default name, so gate names say nothing
    about which unitary a gate applies."""
    rng = np.random.default_rng(seed)
    circuit = Circuit(3)
    for _ in range(8):
        if rng.uniform() < 0.25:
            a, b = rng.choice(3, size=2, replace=False)
            circuit.cx(int(a), int(b))
        else:
            circuit.unitary(random_unitary(2, rng=rng), int(rng.integers(0, 3)))
    return circuit


#: The 2-qubit pairs of a 4-qubit chain at distance 2 or 3, in both operand orders.
DISTANT_PAIRS = [(0, 2), (2, 0), (0, 3), (3, 0), (1, 3), (3, 1)]


def _routed_program(seed: int) -> tuple[object, list[int]]:
    """A 4-qubit program whose 2-qubit gates act only on distant pairs, so
    the walk routes every one of them, forking on a measurement of qubit 0
    after a gate has routed it from site 0 to site 2.

    The routing gate's control, qubit 3, is still in its basis state, so
    the fork is reached with no truncation, as in the other branching
    family: the Meas rule adds min(δ, 1) to a fork's bound, which the
    worst-case fold does not, so a fork behind a truncated entangling gate
    can exceed the worst case whatever the routing does.  Both branches
    route, and at width 1 they truncate.
    """
    rng = np.random.default_rng(seed)

    def block(qubits, pairs) -> Circuit:
        circuit = Circuit(4)
        for qubit in qubits:
            circuit.rx(float(rng.uniform(0, 2 * np.pi)), qubit)
        for a, b in pairs:
            circuit.cx(a, b)
        return circuit

    def branch() -> Circuit:
        picks = rng.choice(len(DISTANT_PAIRS), size=3, replace=False)
        return block(range(4), [DISTANT_PAIRS[i] for i in picks])

    prefix = block(range(3), [(3, 0)])
    program = seq(prefix.to_program(), IfMeasure(0, branch().to_program(), branch().to_program()))
    return program, [int(b) for b in rng.integers(0, 2, size=4)]


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
        for program, bits in _programs(seed):
            exact = exact_error(program, model, initial_bits=bits).value
            worst = worst_case_bound(program, model).value
            for width in MPS_WIDTHS:
                result = GleipnirAnalyzer(model, AnalysisConfig(mps_width=width)).analyze(
                    program, initial_bits=bits
                )
                assert exact <= result.error_bound <= worst, (width, program)

    @pytest.mark.parametrize("noise_after_gate", [True, False], ids=["after", "before"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_routed_distant_pairs(self, family, noise_after_gate):
        """Every predicate of a routed gate carries its swaps' truncation."""
        model = _model(family, noise_after_gate)
        for seed in range(2):
            program, bits = _routed_program(50 + 10 * sorted(FAMILIES).index(family) + seed)
            exact = exact_error(program, model, initial_bits=bits).value
            worst = worst_case_bound(program, model).value
            for width in MPS_WIDTHS:
                result = GleipnirAnalyzer(model, AnalysisConfig(mps_width=width)).analyze(
                    program, initial_bits=bits
                )
                # A routing swap's rounding-level truncation (about 1e-16)
                # reaches the fork's δ, and (1 - δ)e + δ can round one ulp
                # above the worst case's fold.
                assert exact <= result.error_bound <= worst + 1e-12, (width, seed)
                result.derivation.check()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_same_named_unitaries(self, family):
        """Each gate is bounded for its own unitary, not for another gate
        that shares its name."""
        model = _model(family, True)
        circuit = _unitary_program(100 + sorted(FAMILIES).index(family))
        exact = exact_error(circuit, model).value
        worst = worst_case_bound(circuit, model).value
        for width in MPS_WIDTHS:
            result = GleipnirAnalyzer(model, AnalysisConfig(mps_width=width)).analyze(circuit)
            assert exact <= result.error_bound <= worst, width


class TestComplexChannel:
    """A channel whose Choi matrix has complex entries, on a state with a
    complex phase: the SDP's variable holds the transpose of the input
    state, so the predicate must reach it transposed."""

    @staticmethod
    def _channel():
        pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
        pauli_y = np.array([[0, -1j], [1j, 0]])
        pauli_z = np.diag([1.0, -1.0]).astype(complex)
        error = (pauli_x + pauli_y) / np.sqrt(2)  # not real, not symmetric
        p, q = 0.1, 0.003  # a little depolarizing keeps it off the closed form
        kraus = [np.sqrt(1 - p - q) * np.eye(2), np.sqrt(p) * error]
        kraus += [np.sqrt(q / 3) * pauli for pauli in (pauli_x, pauli_y, pauli_z)]
        return QuantumChannel(kraus)

    def test_gate_bound_covers_the_brute_force_lower_bound(self):
        channel = self._channel()
        rho = pure_density(np.array([1, np.exp(0.75j * np.pi)]) / np.sqrt(2))
        bound = gate_error_bound(np.eye(2), channel, rho, 0.0)
        assert bound.method == "certified"
        lower = constrained_diamond_lower_bound(
            channel, QuantumChannel([np.eye(2)]), rho, 0.0, num_samples=4
        )
        assert lower > 0.1
        assert bound.value >= lower - 1e-9

    @pytest.mark.parametrize("noise_after_gate", [True, False], ids=["after", "before"])
    def test_bound_covers_the_exact_error(self, noise_after_gate):
        model = NoiseModel(noise_after_gate=noise_after_gate).set_default(1, self._channel())
        circuit = Circuit(1).h(0).rz(0.75 * np.pi, 0).rz(0.0, 0)
        exact = exact_error(circuit, model).value
        worst = worst_case_bound(circuit, model).value
        for width in MPS_WIDTHS:
            result = GleipnirAnalyzer(model, AnalysisConfig(mps_width=width)).analyze(circuit)
            assert exact <= result.error_bound <= worst + 1e-9, width
            result.derivation.check()
