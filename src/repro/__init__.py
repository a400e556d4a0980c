"""Gleipnir: practical, verified error analysis for quantum programs.

A from-scratch reproduction of the PLDI 2021 paper *"Gleipnir: Toward
Practical Error Analysis for Quantum Programs"*.  See README.md for a tour
and DESIGN.md for the system inventory.
"""

from .version import __version__
from .config import AnalysisConfig, ResourceGuard, SDPConfig
from .circuits import Circuit
from .noise import NoiseModel
from .core import (
    AnalysisResult,
    Derivation,
    GleipnirAnalyzer,
    analyze_program,
    exact_error,
    lqr_full_simulation_bound,
    worst_case_bound,
)
from .engine import (
    AnalysisEngine,
    AnalysisJob,
    AnalysisService,
    JobResult,
)
from .api import AnalysisOutcome, AnalysisSession, Client
from .mps import MPS, MPSApproximator
from .sdp import (
    DiamondNormBound,
    constrained_diamond_norm,
    diamond_distance,
    gate_error_bound,
    rho_delta_diamond_norm,
)
from .errors import (
    CertificationError,
    CircuitError,
    DerivationCheckError,
    DeviceError,
    EngineError,
    ExperimentError,
    GateError,
    LogicError,
    MPSError,
    NoiseModelError,
    ReproError,
    ResourceLimitExceeded,
    SDPError,
    SimulationError,
    StorageBackendError,
)

__all__ = [
    "__version__",
    "AnalysisConfig",
    "ResourceGuard",
    "SDPConfig",
    "Circuit",
    "NoiseModel",
    "AnalysisResult",
    "Derivation",
    "GleipnirAnalyzer",
    "analyze_program",
    "exact_error",
    "lqr_full_simulation_bound",
    "worst_case_bound",
    "AnalysisEngine",
    "AnalysisJob",
    "AnalysisService",
    "JobResult",
    "AnalysisOutcome",
    "AnalysisSession",
    "Client",
    "MPS",
    "MPSApproximator",
    "DiamondNormBound",
    "constrained_diamond_norm",
    "diamond_distance",
    "gate_error_bound",
    "rho_delta_diamond_norm",
    "ReproError",
    "CircuitError",
    "GateError",
    "SimulationError",
    "ResourceLimitExceeded",
    "NoiseModelError",
    "MPSError",
    "SDPError",
    "CertificationError",
    "LogicError",
    "DerivationCheckError",
    "DeviceError",
    "EngineError",
    "ExperimentError",
    "StorageBackendError",
]
