"""Tests for configuration objects, resource guards, and the error hierarchy."""

import pytest

import repro
from repro.config import (
    AnalysisConfig,
    DEFAULT_BIT_FLIP_PROBABILITY,
    DEFAULT_MPS_WIDTH,
    ResourceGuard,
    SDPConfig,
    full_scale_requested,
)
from repro.errors import (
    CertificationError,
    CircuitError,
    DerivationCheckError,
    GateError,
    LogicError,
    MPSError,
    ReproError,
    ResourceLimitExceeded,
    SDPError,
    SimulationError,
)


class TestConfig:
    def test_defaults_match_paper(self):
        assert DEFAULT_MPS_WIDTH == 128
        assert DEFAULT_BIT_FLIP_PROBABILITY == 1e-4
        config = AnalysisConfig()
        assert config.mps_width == 128
        config.validate()

    def test_sdp_config_validation(self):
        SDPConfig().validate()
        with pytest.raises(ValueError):
            SDPConfig(max_iterations=0).validate()
        with pytest.raises(ValueError):
            SDPConfig(tolerance=2.0).validate()

    def test_analysis_config_validation(self):
        with pytest.raises(ValueError):
            AnalysisConfig(mps_width=0).validate()

    def test_replace(self):
        config = AnalysisConfig()
        other = config.replace(mps_width=4)
        assert other.mps_width == 4
        assert config.mps_width == 128

    def test_replace_deep_copies_nested_state(self):
        """Mutating a replaced copy must not leak into the original (or back).

        ``dataclasses.replace`` alone keeps the same ``SDPConfig`` and
        ``ResourceGuard`` instances in the copy; the engine mutates per-worker
        copies (budgets), so sharing would corrupt sibling jobs.
        """
        config = AnalysisConfig()
        copy = config.replace(mps_width=4)
        assert copy.sdp is not config.sdp
        assert copy.guard is not config.guard

        copy.sdp.cache_decimals = 3
        copy.guard.max_seconds = 0.5
        assert config.sdp.cache_decimals == 6
        assert config.guard.max_seconds is None

        # Explicit nested replacements are used as-is.
        sdp = SDPConfig(tolerance=1e-5)
        assert config.replace(sdp=sdp).sdp is sdp

    def test_resource_guard(self):
        guard = ResourceGuard(max_dense_qubits=5, max_statevector_qubits=8)
        guard.check_dense_qubits(5)
        with pytest.raises(ResourceLimitExceeded):
            guard.check_dense_qubits(6)
        with pytest.raises(ResourceLimitExceeded):
            guard.check_statevector_qubits(9)

    def test_full_scale_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not full_scale_requested()
        monkeypatch.setenv("REPRO_FULL", "1")
        assert full_scale_requested()
        monkeypatch.setenv("REPRO_FULL", "no")
        assert not full_scale_requested()


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            CircuitError,
            GateError,
            SimulationError,
            ResourceLimitExceeded,
            MPSError,
            SDPError,
            CertificationError,
            LogicError,
            DerivationCheckError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_gate_error_is_circuit_error(self):
        assert issubclass(GateError, CircuitError)

    def test_resource_limit_is_simulation_error(self):
        assert issubclass(ResourceLimitExceeded, SimulationError)


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        for name in (
            "Circuit",
            "NoiseModel",
            "GleipnirAnalyzer",
            "analyze_program",
            "MPS",
            "approximate_program",
            "diamond_distance",
            "rho_delta_diamond_norm",
            "worst_case_bound",
        ):
            assert hasattr(repro, name), name

    def test_quickstart_flow(self):
        """The README quickstart in one breath."""
        circuit = repro.Circuit(2, name="ghz").h(0).cx(0, 1)
        noise = repro.NoiseModel.uniform_bit_flip(1e-3)
        config = repro.AnalysisConfig(mps_width=4, sdp=repro.SDPConfig(max_iterations=200, tolerance=1e-4))
        result = repro.analyze_program(circuit, noise, config=config)
        assert 0 < result.error_bound < 2 * 1e-3 + 1e-5
