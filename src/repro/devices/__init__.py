"""NISQ device models: coupling maps, calibration, qubit mapping, emulation."""

from .coupling import CouplingMap
from .boeblingen import boeblingen_calibration, lima_calibration, uniform_calibration
from .mapping import (
    MappedCircuit,
    best_path_mapping,
    estimate_mapping_cost,
    map_circuit,
    mapping_noise_model,
)
from .emulator import EmulationResult, HardwareEmulator

__all__ = [name for name in dir() if not name.startswith("_")]
