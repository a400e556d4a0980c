"""Shared configuration for the benchmark harness.

``pytest benchmarks/ --benchmark-only`` runs a reduced but shape-preserving
configuration of every experiment in the paper's evaluation; setting
``REPRO_FULL=1`` switches to the paper-scale configuration (10–100 qubits,
MPS width 128).  At that width the QAOARandom20 row (20 qubits, 184 gates)
analyses in about 9 s on a 2-core x86 machine; rows grow with qubit and
gate count from there.
"""

from __future__ import annotations

import pytest

from repro.config import AnalysisConfig, full_scale_requested


def experiment_scale() -> str:
    return "full" if full_scale_requested() else "reduced"


def experiment_mps_width() -> int:
    return 128 if full_scale_requested() else 16


def experiment_config() -> AnalysisConfig:
    """The shipped SDP defaults at the experiment's MPS width."""
    return AnalysisConfig(mps_width=experiment_mps_width())


@pytest.fixture(scope="session")
def scale() -> str:
    return experiment_scale()


@pytest.fixture(scope="session")
def analysis_config() -> AnalysisConfig:
    return experiment_config()
