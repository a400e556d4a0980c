"""Unit tests for calibration data and calibration-driven noise models."""

import pytest

from repro.circuits import gates as gate_lib
from repro.devices import CouplingMap, boeblingen_calibration, lima_calibration, uniform_calibration
from repro.errors import NoiseModelError
from repro.noise import CalibrationData, noise_model_from_calibration


class TestCalibrationData:
    def test_basic_queries(self):
        calibration = CalibrationData(
            single_qubit_error={0: 1e-3, 1: 2e-3},
            two_qubit_error={(0, 1): 1e-2},
            readout_error={0: 0.02, 1: 0.03},
        )
        assert calibration.qubits() == [0, 1]
        assert calibration.edge_error(1, 0) == 1e-2
        assert calibration.has_edge(0, 1)
        assert not calibration.has_edge(1, 2)
        assert calibration.average_single_qubit_error() == pytest.approx(1.5e-3)
        assert calibration.average_two_qubit_error() == pytest.approx(1e-2)

    def test_validation(self):
        with pytest.raises(NoiseModelError):
            CalibrationData({0: 2.0}, {})
        with pytest.raises(NoiseModelError):
            CalibrationData({0: 0.1}, {(0, 1): -0.5})
        with pytest.raises(NoiseModelError):
            CalibrationData({0: 0.1}, {}, readout_error={0: 1.2})

    def test_missing_edge_raises(self):
        calibration = CalibrationData({0: 1e-3}, {})
        with pytest.raises(NoiseModelError):
            calibration.edge_error(0, 1)


class TestNoiseModelFromCalibration:
    def _calibration(self):
        return CalibrationData(
            single_qubit_error={0: 1e-3, 1: 5e-3},
            two_qubit_error={(0, 1): 2e-2},
            readout_error={0: 0.01, 1: 0.02},
            name="test",
        )

    def test_per_qubit_rules(self):
        model = noise_model_from_calibration(self._calibration())
        loud = model.channel_for(gate_lib.h(), (1,))
        quiet = model.channel_for(gate_lib.h(), (0,))
        assert loud.name != quiet.name

    def test_edge_rules_symmetric(self):
        model = noise_model_from_calibration(self._calibration())
        assert model.channel_for(gate_lib.cx(), (0, 1)) is not None
        assert model.channel_for(gate_lib.cx(), (1, 0)) is not None

    def test_bit_flip_kind(self):
        model = noise_model_from_calibration(self._calibration(), kind="bit_flip")
        assert model.channel_for(gate_lib.h(), (0,)).name.startswith("bit_flip")

    def test_unknown_kind(self):
        with pytest.raises(NoiseModelError):
            noise_model_from_calibration(self._calibration(), kind="bogus")

    def test_uncalibrated_qubit_falls_back_to_average(self):
        model = noise_model_from_calibration(self._calibration())
        assert model.channel_for(gate_lib.h(), (7,)) is not None


class TestSyntheticDeviceCalibrations:
    def test_boeblingen_covers_every_edge(self):
        calibration = boeblingen_calibration()
        coupling = CouplingMap.ibm_boeblingen()
        for a, b in coupling.edges():
            assert calibration.edge_error(a, b) > 0
        assert len(calibration.single_qubit_error) == 20
        assert len(calibration.readout_error) == 20

    def test_boeblingen_first_row_profile(self):
        calibration = boeblingen_calibration()
        # The intended ordering behind Table 3's ranking.
        assert calibration.edge_error(0, 1) > calibration.edge_error(3, 4)
        assert calibration.edge_error(3, 4) > calibration.edge_error(1, 2)

    def test_boeblingen_deterministic(self):
        a = boeblingen_calibration()
        b = boeblingen_calibration()
        assert a.single_qubit_error == b.single_qubit_error

    def test_lima_calibration(self):
        calibration = lima_calibration()
        assert sorted(calibration.single_qubit_error) == [0, 1, 2, 3, 4]

    def test_uniform_calibration(self):
        coupling = CouplingMap.linear(4)
        calibration = uniform_calibration(coupling, two_qubit_error=0.05)
        assert calibration.edge_error(1, 2) == 0.05
