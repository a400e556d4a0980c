"""Shared fixtures for the test suite.

The SDP-heavy tests use ``fast_config`` (low iteration caps) whenever the
asserted property is soundness rather than tightness — certified bounds stay
valid at any solver accuracy, which keeps the suite quick.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from helpers import first_operand_model, random_circuit  # noqa: E402

from repro.circuits import Circuit  # noqa: E402
from repro.config import AnalysisConfig, ResourceGuard, SDPConfig  # noqa: E402
from repro.noise import NoiseModel, depolarizing  # noqa: E402


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def fast_sdp_config() -> SDPConfig:
    """A cheap SDP configuration: still certified, just potentially looser."""
    return SDPConfig(max_iterations=400, tolerance=1e-5)


@pytest.fixture
def fast_analysis_config(fast_sdp_config: SDPConfig) -> AnalysisConfig:
    return AnalysisConfig(mps_width=8, sdp=fast_sdp_config, guard=ResourceGuard(max_dense_qubits=10))


@pytest.fixture
def bit_flip_model() -> NoiseModel:
    """The paper's sample noise model with a visible error rate."""
    return NoiseModel.uniform_bit_flip(1e-3)


@pytest.fixture
def depolarizing_model() -> NoiseModel:
    """Depolarizing noise placed as the paper places its bit flip (on the
    first operand of a 2-qubit gate).  Bit flip has a closed-form bound;
    depolarizing does not, so every noisy gate still needs an SDP."""
    return first_operand_model(depolarizing(1e-3))


@pytest.fixture
def sdp_for_every_gate(monkeypatch):
    """Recognise no channel for a closed-form bound, so every gate — bit
    flip included — takes the Eq. (2) SDP it took before closed forms."""
    from repro.sdp import diamond

    monkeypatch.setattr(diamond, "closed_form_channel", lambda channel: None)


@pytest.fixture
def ghz2_circuit() -> Circuit:
    return Circuit(2, name="ghz2").h(0).cx(0, 1)


@pytest.fixture
def ghz3_circuit() -> Circuit:
    return Circuit(3, name="ghz3").h(0).cx(0, 1).cx(1, 2)


@pytest.fixture
def random_circuit_factory():
    return random_circuit
