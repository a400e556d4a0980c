"""End-to-end tests of the Gleipnir analyzer, including the key soundness property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit
from repro.circuits import gates as gate_lib
from repro.config import AnalysisConfig, SDPConfig
from repro.core import GleipnirAnalyzer, analyze_program, exact_error, worst_case_bound
from repro.errors import LogicError
from repro.noise import NoiseModel, depolarizing
from repro.semantics import exact_program_error

from helpers import random_circuit


FAST = AnalysisConfig(mps_width=8, sdp=SDPConfig(max_iterations=300, tolerance=1e-5))


class TestAnalyzerBasics:
    def test_ghz2_bound_structure(self, ghz2_circuit, bit_flip_model):
        result = GleipnirAnalyzer(bit_flip_model, FAST).analyze(ghz2_circuit)
        assert result.num_gates == 2
        assert result.num_branches == 1
        assert 0 < result.error_bound <= 2 * 1e-3 + 1e-6
        assert result.derivation is not None
        assert result.summary()

    def test_noiseless_model_gives_zero(self, ghz3_circuit):
        result = GleipnirAnalyzer(NoiseModel.noiseless(), FAST).analyze(ghz3_circuit)
        assert result.error_bound == 0.0

    def test_functional_wrapper(self, ghz2_circuit, bit_flip_model):
        result = analyze_program(ghz2_circuit, bit_flip_model, config=FAST)
        assert result.error_bound > 0

    def test_initial_bits(self, bit_flip_model):
        circuit = Circuit(2).cx(0, 1)
        result = GleipnirAnalyzer(bit_flip_model, FAST).analyze(circuit, initial_bits="10")
        assert result.error_bound > 0

    def test_invalid_inputs(self, bit_flip_model):
        analyzer = GleipnirAnalyzer(bit_flip_model, FAST)
        with pytest.raises(LogicError):
            analyzer.analyze(Circuit(2).h(0), initial_bits="0")

    def test_derivation_is_always_attached(self, ghz2_circuit, bit_flip_model):
        """The walk tree is folded whatever runs the analysis, so every
        result carries its derivation and its per-gate contributions."""
        result = GleipnirAnalyzer(bit_flip_model, FAST).analyze(ghz2_circuit)
        assert result.derivation.error_bound == result.error_bound
        assert len(result.gate_contributions()) == result.num_gates == 2

    def test_cache_reuse_across_layers(self, depolarizing_model):
        circuit = Circuit(4).h_layer()
        result = GleipnirAnalyzer(depolarizing_model, FAST).analyze(circuit)
        assert result.sdp_solves == 1
        # The four H gates on |0> pose one SDP: it is solved once and its
        # bound is read by all four gate applications.
        assert result.sdp_cache_hits == 4
        assert result.scheduled_solves == 1

    def test_bound_never_exceeds_worst_case(self, bit_flip_model):
        circuit = random_circuit(4, 12, seed=3)
        result = GleipnirAnalyzer(bit_flip_model, FAST).analyze(circuit)
        worst = worst_case_bound(circuit, bit_flip_model, config=FAST)
        assert result.error_bound <= worst.value + 1e-9


class TestSoundness:
    """Theorem A.1: the derived bound dominates the true error."""

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 50), width=st.integers(1, 4))
    def test_bound_dominates_exact_error_bit_flip(self, seed, width):
        circuit = random_circuit(4, 10, seed=seed)
        model = NoiseModel.uniform_bit_flip(5e-3)
        config = FAST.replace(mps_width=width)
        result = GleipnirAnalyzer(model, config).analyze(circuit)
        exact = exact_program_error(circuit, model)
        assert result.error_bound >= exact - 1e-9
        result.derivation.check()

    def test_bound_dominates_exact_error_depolarizing(self):
        circuit = random_circuit(3, 8, seed=11)
        model = NoiseModel.uniform_depolarizing(2e-3, 8e-3)
        result = GleipnirAnalyzer(model, FAST).analyze(circuit)
        exact = exact_program_error(circuit, model)
        assert result.error_bound >= exact - 1e-9

    def test_bound_dominates_for_position_dependent_noise(self):
        from repro.noise import two_qubit_depolarizing

        circuit = Circuit(3).h(0).cx(0, 1).cx(1, 2).rz(0.3, 2)
        model = NoiseModel()
        model.add_qubit_rule((1,), depolarizing(0.01))
        model.add_qubit_rule((2,), depolarizing(0.03))
        model.set_default(1, depolarizing(0.002))
        model.set_default(2, two_qubit_depolarizing(0.02))
        result = GleipnirAnalyzer(model, FAST).analyze(circuit)
        exact = exact_program_error(circuit, model)
        assert result.error_bound >= exact - 1e-9

    def test_branchy_program_soundness(self):
        circuit = Circuit(2).h(0)
        circuit.if_measure(0, lambda c: c.x(1), lambda c: c.z(1))
        circuit.h(1)
        model = NoiseModel.uniform_bit_flip(5e-3)
        result = GleipnirAnalyzer(model, FAST).analyze(circuit)
        exact = exact_program_error(circuit, model)
        assert result.error_bound >= exact - 1e-9
        assert result.num_branches >= 2
        result.derivation.check()

    @pytest.mark.parametrize(
        "circuit",
        [
            pytest.param(
                Circuit(2).unitary(gate_lib.h().matrix, 0).unitary(np.eye(2), 1),
                id="two-default-named-unitaries",
            ),
            pytest.param(
                Circuit(2).h(0).append(gate_lib.Gate("h", 1, (), gate_lib.x().matrix), 1),
                id="x-matrix-named-h",
            ),
        ],
    )
    def test_same_named_gates_get_their_own_bounds(self, circuit):
        """Gate equality ignores the matrix, so two different unitaries under
        one name must still be bounded each for its own unitary.  H on |0>
        commutes the bit flip away; the second gate leaves |0> or |1>, which
        the flip hits in full."""
        model = NoiseModel.uniform_bit_flip(1e-2)
        result = GleipnirAnalyzer(model, FAST.replace(mps_width=4)).analyze(circuit)
        result.derivation.check()
        first, second = result.derivation.gate_nodes()
        assert first.gate_label == second.gate_label
        assert first.bound is not second.bound
        assert exact_error(circuit, model).value <= result.error_bound

    def test_unreachable_branch_uses_trivial_predicate(self):
        # Measuring |0> deterministically: the else-branch is unreachable.
        circuit = Circuit(2)
        circuit.if_measure(0, lambda c: c.x(1), lambda c: c.x(1))
        model = NoiseModel.uniform_bit_flip(5e-3)
        result = GleipnirAnalyzer(model, FAST).analyze(circuit)
        exact = exact_program_error(circuit, model)
        assert result.error_bound >= exact - 1e-9


class TestMonotonicity:
    def test_wider_mps_is_at_least_as_tight(self):
        circuit = random_circuit(5, 16, seed=21)
        model = NoiseModel.uniform_bit_flip(1e-3)
        narrow = GleipnirAnalyzer(model, FAST.replace(mps_width=1)).analyze(circuit)
        wide = GleipnirAnalyzer(model, FAST.replace(mps_width=16)).analyze(circuit)
        assert wide.error_bound <= narrow.error_bound + 1e-9

    def test_more_noise_gives_larger_bound(self, ghz3_circuit):
        quiet = GleipnirAnalyzer(NoiseModel.uniform_bit_flip(1e-4), FAST).analyze(ghz3_circuit)
        loud = GleipnirAnalyzer(NoiseModel.uniform_bit_flip(1e-2), FAST).analyze(ghz3_circuit)
        assert loud.error_bound > quiet.error_bound
