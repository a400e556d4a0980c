"""Tests for job specs: canonical serialization and content addressing."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MALFORMED_JOB_FIELDS,
    RETIRED_CACHE_SWITCH_KEY,
    RETIRED_CONFIG_KEY,
    RETIRED_COUNTER_FIELDS,
    RETIRED_DOMINANCE_KEY,
    RETIRED_JOB_KIND,
    RETIRED_SDP_CONFIG_KEY,
    RETIRED_TAPE_MEMO_KEY,
)

from repro.circuits import Circuit
from repro.circuits.serialize import (
    _library_rebuilds,
    _rebuilt_matches,
    gate_from_json_dict,
    gate_to_json_dict,
    program_from_json_dict,
    program_to_json_dict,
)
from repro.circuits.gates import Gate, custom_gate, h, rz
from repro.circuits.program import GateOp, seq
from repro.config import DEFAULT_BIT_FLIP_PROBABILITY, AnalysisConfig, ResourceGuard, SDPConfig
from repro.engine import spec
from repro.engine.spec import (
    AnalysisJob,
    JobResult,
    canonical_json,
    config_from_json_dict,
    config_to_json_dict,
    job_from_json_dict,
)
from repro.errors import CircuitError, EngineError, NoiseModelError
from repro.linalg.channels import QuantumChannel
from repro.linalg.operators import HADAMARD, random_unitary
from repro.noise import NoiseModel, bit_flip, depolarizing
from repro.programs.library import table2_benchmarks

FIXTURES = Path(__file__).resolve().parent / "fixtures"
FINGERPRINT_FIXTURE = FIXTURES / "fingerprints_v1.json"
FINGERPRINT_FIXTURE_V2 = FIXTURES / "fingerprints_v2.json"
FINGERPRINT_FIXTURE_V3 = FIXTURES / "fingerprints_v3.json"

#: The solver identity and SDP defaults ``fingerprints_v1.json`` was written
#: under (the ADMM step rule, cap 600, tolerance 3e-6).
V1_SOLVER_VERSION = "wgy-step-1.6/balance-2x-every-20"
V1_SDP_CONFIG = SDPConfig(max_iterations=600, tolerance=3e-6)

#: The solver identity ``fingerprints_v2.json`` was written under (the
#: interior-point solver before it scaled thin predicate caps).
V2_SOLVER_VERSION = "mehrotra-hkm/identity-start/step-0.95"


def _branchy_circuit() -> Circuit:
    circuit = Circuit(3, name="branchy").h(0).cx(0, 1).rz(0.37, 2)
    circuit.if_measure(1, lambda c: c.x(0), lambda c: c.z(2))
    return circuit


class TestProgramSerialization:
    def test_branchy_round_trip(self):
        program = _branchy_circuit().to_program()
        payload = program_to_json_dict(program)
        rebuilt = program_from_json_dict(json.loads(json.dumps(payload)))
        assert rebuilt == program

    def test_custom_gate_embeds_matrix(self):
        matrix = np.diag([1, 1j]).astype(np.complex128)
        circuit = Circuit(1).unitary(matrix, 0, name="mygate")
        payload = program_to_json_dict(circuit)
        gate_payload = payload["gate"] if payload["kind"] == "gate" else payload["parts"][0]["gate"]
        assert "matrix" in gate_payload
        rebuilt = program_from_json_dict(payload)
        op = next(rebuilt.operations())
        assert np.allclose(op.gate.matrix, matrix)

    def test_standard_gates_omit_matrix(self):
        payload = gate_to_json_dict(Circuit(2).rzz(0.5, 0, 1).to_program().gate)
        assert "matrix" not in payload
        gate = gate_from_json_dict(payload)
        assert (gate.name, gate.num_qubits, gate.params) == ("rzz", 2, (0.5,))

    def test_dagger_gate_round_trips_via_matrix(self):
        gate = Circuit(1).t(0).to_program().gate.dagger()
        payload = gate_to_json_dict(gate)
        assert "matrix" in payload  # "t_dg" is not a library name
        rebuilt = gate_from_json_dict(payload)
        assert np.allclose(rebuilt.matrix, gate.matrix)

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        dim=st.sampled_from([1, 2, 4, 8]),
        shift=st.sampled_from([0.0, 5e-13, 1e-12, 2e-12, 1e-9, 1e-5]),
        direction=st.sampled_from([1, -1, 1j, -1j]),
        planted=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    )
    def test_rebuilt_match_means_allclose(self, seed, dim, shift, direction, planted):
        """The fused rebuild check is ``np.allclose(rebuilt, matrix, atol=1e-12)``.

        ``matrix`` is a gate's, so finite (Gate only holds unitaries); the
        rebuilt side is perturbed at and around both tolerances and may
        carry a planted non-finite entry.
        """
        rng = np.random.default_rng(seed)
        matrix = random_unitary(dim, rng=rng)
        rebuilt = matrix.copy()
        row, col = rng.integers(dim, size=2)
        rebuilt[row, col] += direction * shift
        if planted is not None:
            row, col = rng.integers(dim, size=2)
            rebuilt[row, col] = planted
        expected = np.allclose(rebuilt, matrix, atol=1e-12)
        assert _rebuilt_matches(rebuilt, matrix) == expected

    def test_fixed_gates_rebuild_by_identity(self):
        gate = h()
        assert gate_from_json_dict(gate_to_json_dict(gate)) is gate_from_json_dict({"name": "h"})
        assert _library_rebuilds(gate)
        assert not _library_rebuilds(Gate("h", 1, (), np.array([[0, 1], [1, 0]])))

    def test_library_checked_once_per_distinct_gate(self, monkeypatch):
        """One program's encoding rebuilds each distinct gate once; a gate
        that shares a library name but not its matrix is still told apart."""
        from repro.circuits import gates as gate_lib

        fake_h = Gate("h", 1, (), np.array([[0, 1], [1, 0]]))
        circuit = Circuit(2).h(0).h(1).cx(0, 1).h(0).rz(0.3, 1).rz(0.3, 0).rz(0.4, 0)
        program = seq(circuit.to_program(), GateOp(fake_h, (1,)), GateOp(fake_h, (0,)))
        expected = [gate_to_json_dict(op.gate) for op in program.operations()]
        calls = []
        rebuild = gate_lib.gate_by_name

        def counting(name, *params):
            calls.append((name, params))
            return rebuild(name, *params)

        monkeypatch.setattr(gate_lib, "gate_by_name", counting)
        payload = program_to_json_dict(program)
        assert len(calls) == 5  # h, cx, rz(0.3), rz(0.4) and the fake h
        assert [part["gate"] for part in payload["parts"]] == expected
        assert "matrix" in expected[-1] and "matrix" not in expected[0]
        decoded = [op.gate for op in program_from_json_dict(payload).operations()]
        assert np.array_equal(decoded[-1].matrix, fake_h.matrix)

    def test_malformed_payload_rejected(self):
        with pytest.raises(CircuitError):
            program_from_json_dict({"kind": "wat"})
        with pytest.raises(CircuitError):
            program_from_json_dict(["not", "a", "dict"])


class TestChannelAndModelSerialization:
    def test_channel_round_trip(self):
        channel = depolarizing(0.01)
        rebuilt = QuantumChannel.from_json_dict(channel.to_json_dict())
        assert rebuilt.name == channel.name
        assert np.allclose(rebuilt.choi(), channel.choi())

    def test_model_round_trip_preserves_resolution(self):
        model = NoiseModel(name="mixed")
        model.set_default(1, bit_flip(0.01))
        model.add_gate_rule("h", depolarizing(0.02))
        model.add_qubit_rule([1], bit_flip(0.03))
        model.add_rule("cx", [0, 1], bit_flip(0.04).tensor(bit_flip(0.0)))
        rebuilt = NoiseModel.from_json_dict(model.to_json_dict())
        circuit = Circuit(2)
        for gate, qubits in [
            (Circuit(1).h(0).to_program().gate, (0,)),
            (Circuit(1).x(0).to_program().gate, (1,)),
            (Circuit(2).cx(0, 1).to_program().gate, (0, 1)),
        ]:
            original = model.channel_for(gate, qubits)
            copied = rebuilt.channel_for(gate, qubits)
            assert np.allclose(original.choi(), copied.choi())

    def test_rule_registration_order_is_canonicalised(self):
        a = NoiseModel(name="m").add_gate_rule("h", bit_flip(0.01)).add_gate_rule("x", bit_flip(0.02))
        b = NoiseModel(name="m").add_gate_rule("x", bit_flip(0.02)).add_gate_rule("h", bit_flip(0.01))
        assert a.to_json_dict() == b.to_json_dict()

    def test_factory_model_rejected(self):
        model = NoiseModel.from_factory(lambda gate, qubits: None)
        with pytest.raises(NoiseModelError):
            model.to_json_dict()


class TestConfigSerialization:
    def test_round_trip(self):
        config = AnalysisConfig(
            mps_width=7,
            sdp=SDPConfig(tolerance=1e-5),
            guard=ResourceGuard(max_dense_qubits=9, max_seconds=1.5),
        )
        rebuilt = config_from_json_dict(config_to_json_dict(config))
        assert rebuilt == config

    @pytest.mark.parametrize("value", [True, False])
    def test_retired_scheduler_key_is_dropped(self, value):
        """Payloads from before the single analysis path carry ``scheduler``;
        it decodes to the one path and leaves the fingerprint unchanged."""
        job = _fast_job()
        payload = job.to_json_dict()
        payload["config"]["scheduler"] = value
        rebuilt = job_from_json_dict(payload)
        assert rebuilt.config == job.config
        assert rebuilt.fingerprint() == job.fingerprint()

    @pytest.mark.parametrize("value", [True, False])
    def test_retired_derivation_switch_is_dropped(self, value):
        """Every payload written so far carries ``collect_derivation``; the
        derivation is always built, so it decodes away and never entered a
        fingerprint."""
        job = _fast_job()
        payload = job.to_json_dict()
        payload["config"]["collect_derivation"] = value
        rebuilt = job_from_json_dict(payload)
        assert rebuilt.config == job.config
        assert rebuilt.fingerprint() == job.fingerprint()

    def test_retired_quantisation_grid_is_dropped(self):
        """Payloads from before the grid became a constant carry
        ``cache_decimals``; the one value left decodes away and keeps the
        fingerprint, which still carries it."""
        job = _fast_job()
        payload = job.to_json_dict()
        assert "cache_decimals" not in payload["config"]["sdp"]
        payload["config"]["sdp"]["cache_decimals"] = 6
        rebuilt = job_from_json_dict(payload)
        assert rebuilt.config == job.config
        assert rebuilt.fingerprint() == job.fingerprint()
        semantic = spec._semantic_config_dict(job.config, job.noise_model.noise_after_gate)
        assert semantic["sdp"]["cache_decimals"] == 6

    def test_retired_certified_mode_is_dropped(self):
        job = _fast_job()
        payload = job.to_json_dict()
        payload["config"]["sdp"]["mode"] = "certified"
        rebuilt = job_from_json_dict(payload)
        assert rebuilt.config == job.config
        assert rebuilt.fingerprint() == job.fingerprint()

    @pytest.mark.parametrize("after", [True, False])
    def test_retired_noise_ordering_decodes_when_it_agrees(self, after):
        job = _fast_job(noise_after_gate=after)
        payload = job.to_json_dict()
        payload["config"]["noise_after_gate"] = after
        rebuilt = job_from_json_dict(payload)
        assert rebuilt.noise_model.noise_after_gate is after
        assert rebuilt.fingerprint() == job.fingerprint()

    @pytest.mark.parametrize("after", [True, False])
    def test_retired_noise_ordering_refused_when_it_disagrees(self, after):
        """A config that ordered noise and gate against its own noise model
        was analysed unsoundly; such a payload is refused."""
        payload = _fast_job(noise_after_gate=after).to_json_dict()
        payload["config"]["noise_after_gate"] = not after
        with pytest.raises(EngineError, match="invalid config payload: noise_after_gate"):
            job_from_json_dict(payload)

    def test_malformed_rejected(self):
        with pytest.raises(EngineError):
            config_from_json_dict({"mps_width": 4, "nonsense": True})

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, RETIRED_CONFIG_KEY, 2),
            ("sdp", RETIRED_SDP_CONFIG_KEY, 16),
            (None, RETIRED_TAPE_MEMO_KEY, True),
            ("sdp", RETIRED_DOMINANCE_KEY, True),
            ("sdp", RETIRED_CACHE_SWITCH_KEY, False),
        ],
        ids=[
            "thread-split",
            "bound-cache-cap",
            "prefix-memo",
            "predicate-dominance",
            "cache-switch",
        ],
    )
    def test_retired_config_key_rejected(self, section, key, value):
        """Payloads written before a config field was retired are refused."""
        payload = config_to_json_dict(AnalysisConfig())
        (payload[section] if section else payload)[key] = value
        with pytest.raises(EngineError, match="malformed config payload"):
            config_from_json_dict(payload)

    @pytest.mark.parametrize(
        "section, field, value",
        [
            ("sdp", "mode", "bogus"),
            ("sdp", "mode", "auto"),
            ("sdp", "mode", "fast"),
            ("sdp", "cache_decimals", 4),
            ("sdp", "cache_decimals", "6"),
            ("sdp", "max_iterations", -5),
            ("sdp", "tolerance", 3),
            ("sdp", "tolerance", "tight"),
            (None, "mps_width", 0),
        ],
    )
    def test_out_of_range_values_rejected(self, section, field, value):
        """Values AnalysisConfig.validate refuses never reach a fingerprint."""
        payload = _fast_job().to_json_dict()
        target = payload["config"] if section is None else payload["config"][section]
        target[field] = value
        with pytest.raises(EngineError, match="invalid config payload"):
            job_from_json_dict(payload)


def _fast_job(name="job", *, noise_after_gate=True) -> AnalysisJob:
    model = NoiseModel.uniform_bit_flip(1e-3)
    if not noise_after_gate:
        model = NoiseModel.from_json_dict({**model.to_json_dict(), "noise_after_gate": False})
    return AnalysisJob.from_circuit(
        _branchy_circuit(),
        model,
        config=AnalysisConfig(mps_width=4, sdp=SDPConfig(max_iterations=100, tolerance=1e-3)),
        name=name,
    )


def _shuffle_keys(payload):
    """Recursively reverse dict key order (JSON object order is irrelevant)."""
    if isinstance(payload, dict):
        return {key: _shuffle_keys(payload[key]) for key in reversed(list(payload))}
    if isinstance(payload, list):
        return [_shuffle_keys(item) for item in payload]
    return payload


class TestAnalysisJob:
    def test_json_round_trip_preserves_fingerprint(self):
        job = _fast_job()
        rebuilt = AnalysisJob.from_json(job.to_json())
        assert rebuilt.fingerprint() == job.fingerprint()
        assert rebuilt.program == job.program
        assert rebuilt.num_qubits == job.num_qubits

    def test_to_json_encodes_once(self, monkeypatch):
        """The wire text is the canonical form, built by the first call only."""
        job = _fast_job()
        text = job.to_json()
        assert text == canonical_json(job.to_json_dict())

        def encode_again(self):
            raise AssertionError("to_json_dict called for a memoised job")

        monkeypatch.setattr(AnalysisJob, "to_json_dict", encode_again)
        assert job.to_json() == text

    def test_replaced_job_gets_its_own_encoding(self):
        job = _fast_job("first")
        text = job.to_json()
        renamed = dataclasses.replace(job, name="second")
        assert renamed.to_json() == canonical_json(renamed.to_json_dict())
        assert json.loads(renamed.to_json())["name"] == "second"
        assert job.to_json() == text
        assert renamed.fingerprint() == job.fingerprint()

    def test_fingerprint_insensitive_to_dict_ordering(self):
        job = _fast_job()
        shuffled = _shuffle_keys(job.to_json_dict())
        assert list(shuffled) != list(job.to_json_dict())
        assert AnalysisJob.from_json_dict(shuffled).fingerprint() == job.fingerprint()

    def test_fingerprint_ignores_execution_knobs(self):
        job = _fast_job()
        tweaked = AnalysisJob(
            program=job.program,
            noise_model=job.noise_model,
            config=job.config.replace(guard=ResourceGuard(max_seconds=0.5)),
            num_qubits=job.num_qubits,
            name="other-name",
        )
        assert tweaked.fingerprint() == job.fingerprint()

    def test_fingerprint_tracks_semantic_fields(self):
        job = _fast_job()
        for change in (
            {"mps_width": 8},
            {"sdp": SDPConfig(max_iterations=101, tolerance=1e-3)},
        ):
            other = AnalysisJob(
                program=job.program,
                noise_model=job.noise_model,
                config=job.config.replace(**change),
                num_qubits=job.num_qubits,
                name=job.name,
            )
            assert other.fingerprint() != job.fingerprint(), change

    def test_fingerprint_takes_noise_ordering_from_the_noise_model(self):
        """The ``noise_after_gate`` fingerprint key keeps its place in the
        config section and its value for every job whose retired config
        field agreed with its noise model; it follows the model."""
        job = _fast_job()
        before = _fast_job(noise_after_gate=False)
        assert before.fingerprint() != job.fingerprint()
        semantic = spec._semantic_config_dict(before.config, before.noise_model.noise_after_gate)
        assert semantic["noise_after_gate"] is False
        assert semantic["sdp"]["mode"] == "certified"

    def test_fingerprint_binds_admm_rule(self, monkeypatch):
        """Outcomes certified by another solver are other answers."""
        job = _fast_job()
        before = job.fingerprint()
        monkeypatch.setattr(spec, "SOLVER_VERSION", "some-other-rule")
        assert _fast_job().fingerprint() != before

    def test_fingerprint_stable_across_processes(self):
        job = _fast_job()
        script = (
            "import sys; from repro.engine.spec import AnalysisJob; "
            "print(AnalysisJob.from_json(sys.stdin.read()).fingerprint())"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run(
            [sys.executable, "-c", script],
            input=job.to_json(),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == job.fingerprint()

    def test_bad_payloads_rejected(self):
        with pytest.raises(EngineError):
            AnalysisJob.from_json("not json")
        with pytest.raises(EngineError):
            AnalysisJob.from_json_dict({"kind": "something_else"})
        payload = _fast_job().to_json_dict()
        payload["version"] = 999
        with pytest.raises(EngineError):
            AnalysisJob.from_json_dict(payload)

    def test_payload_without_kind_is_an_analysis(self):
        job = _fast_job()
        payload = job.to_json_dict()
        del payload["kind"]
        assert job_from_json_dict(payload).fingerprint() == job.fingerprint()

    @pytest.mark.parametrize(
        "field, value", [*MALFORMED_JOB_FIELDS, ("kind", RETIRED_JOB_KIND)]
    )
    def test_malformed_field_is_a_structured_error(self, field, value):
        """Bad fields and the removed comparison kind raise EngineError,
        never a bare TypeError or ValueError."""
        payload = {**_fast_job().to_json_dict(), field: value}
        with pytest.raises(EngineError):
            job_from_json_dict(payload)


def pinned_fingerprint_jobs(sdp: SDPConfig | None = None) -> dict[str, AnalysisJob]:
    """The jobs whose fingerprints the ``fixtures/fingerprints_v*.json`` pin.

    Every Table 2 row at both scales, plus one-gate programs that take each
    branch of gate serialization: embedded matrices (a custom gate, a
    dagger, a library name carrying a foreign unitary) and library names
    (an int parameter, a negative zero, and a Hadamard perturbed within
    ``allclose``'s relative tolerance).  ``sdp`` defaults to ``SDPConfig()``.
    """
    model = NoiseModel.uniform_bit_flip(DEFAULT_BIT_FLIP_PROBABILITY)
    config = AnalysisConfig(mps_width=16, sdp=sdp or SDPConfig())
    jobs = {}
    for scale in ("reduced", "full"):
        for bench in table2_benchmarks(scale):
            jobs[f"{scale}/{bench.name}"] = AnalysisJob.from_circuit(
                bench.build(), model, config=config, name=bench.name
            )
    one_gate = {
        "custom_gate": custom_gate("mygate", np.diag([1, 1j])),
        "h_dagger": h().dagger(),
        "rz_int_param": rz(3),
        "rz_negative_zero": rz(-0.0),
        "h_foreign_matrix": Gate("h", 1, (), np.array([[0, 1], [1, 0]])),
        "h_perturbed_1e-9": Gate("h", 1, (), HADAMARD + 1e-9),
    }
    for name, gate in one_gate.items():
        jobs[name] = AnalysisJob(
            program=GateOp(gate, (0,)), noise_model=model, config=config, num_qubits=1, name=name
        )
    return jobs


class TestPinnedFingerprints:
    """Fingerprints are the outcome store's keys: moving one orphans its outcome.

    The fixture was written once from :func:`pinned_fingerprint_jobs` and
    must never be regenerated to make this test pass.  It was written under
    the ADMM solver; rebuilding the jobs with that solver's identity and SDP
    settings proves that the spec encoding itself has not moved.
    """

    @pytest.fixture(autouse=True)
    def v1_solver(self, monkeypatch):
        monkeypatch.setattr(spec, "SOLVER_VERSION", V1_SOLVER_VERSION)

    @pytest.fixture(scope="class")
    def jobs(self):
        return pinned_fingerprint_jobs(V1_SDP_CONFIG)

    def test_fixture_covers_every_pinned_job(self, jobs):
        pinned = json.loads(FINGERPRINT_FIXTURE.read_text())
        assert sorted(pinned) == sorted(jobs)

    def test_fingerprints_match_fixture(self, jobs):
        pinned = json.loads(FINGERPRINT_FIXTURE.read_text())
        moved = [name for name, job in jobs.items() if job.fingerprint() != pinned[name]]
        assert not moved

    def test_decoded_jobs_keep_pinned_fingerprints(self, jobs):
        pinned = json.loads(FINGERPRINT_FIXTURE.read_text())
        moved = [
            name
            for name, job in jobs.items()
            if AnalysisJob.from_json(job.to_json()).fingerprint() != pinned[name]
        ]
        assert not moved

    def test_serialization_branches(self, jobs):
        def gate_payload(name):
            return jobs[name].to_json_dict()["program"]["gate"]

        for name in ("custom_gate", "h_dagger", "h_foreign_matrix"):
            assert "matrix" in gate_payload(name), name
        for name in ("rz_int_param", "rz_negative_zero", "h_perturbed_1e-9"):
            assert "matrix" not in gate_payload(name), name


class TestPinnedFingerprintsV2:
    """The same jobs under the first interior-point solver and the defaults.

    ``fixtures/fingerprints_v2.json`` was written once when the interior-point
    solver replaced ADMM and, like the v1 file, must never be regenerated to
    make this test pass.  Rebuilding the jobs under that solver's identity
    proves that the spec encoding itself has not moved.
    """

    @pytest.fixture(autouse=True)
    def v2_solver(self, monkeypatch):
        monkeypatch.setattr(spec, "SOLVER_VERSION", V2_SOLVER_VERSION)

    @pytest.fixture(scope="class")
    def jobs(self):
        return pinned_fingerprint_jobs()

    def test_fixture_covers_every_pinned_job(self, jobs):
        pinned = json.loads(FINGERPRINT_FIXTURE_V2.read_text())
        assert sorted(pinned) == sorted(jobs)

    def test_fingerprints_match_fixture(self, jobs):
        pinned = json.loads(FINGERPRINT_FIXTURE_V2.read_text())
        moved = [name for name, job in jobs.items() if job.fingerprint() != pinned[name]]
        assert not moved

    def test_decoded_jobs_keep_pinned_fingerprints(self, jobs):
        pinned = json.loads(FINGERPRINT_FIXTURE_V2.read_text())
        moved = [
            name
            for name, job in jobs.items()
            if AnalysisJob.from_json(job.to_json()).fingerprint() != pinned[name]
        ]
        assert not moved

    def test_differs_from_v1_everywhere(self):
        v1 = json.loads(FINGERPRINT_FIXTURE.read_text())
        v2 = json.loads(FINGERPRINT_FIXTURE_V2.read_text())
        assert all(v1[name] != v2[name] for name in v1)


class TestPinnedFingerprintsV3:
    """The same jobs under the shipped solver, which scales thin predicate caps.

    ``fixtures/fingerprints_v3.json`` was written once when cap scaling
    changed the answers for the same jobs and, like the older files, must
    never be regenerated to make this test pass.
    """

    @pytest.fixture(scope="class")
    def jobs(self):
        return pinned_fingerprint_jobs()

    def test_fixture_covers_every_pinned_job(self, jobs):
        pinned = json.loads(FINGERPRINT_FIXTURE_V3.read_text())
        assert sorted(pinned) == sorted(jobs)

    def test_fingerprints_match_fixture(self, jobs):
        pinned = json.loads(FINGERPRINT_FIXTURE_V3.read_text())
        moved = [name for name, job in jobs.items() if job.fingerprint() != pinned[name]]
        assert not moved

    def test_decoded_jobs_keep_pinned_fingerprints(self, jobs):
        pinned = json.loads(FINGERPRINT_FIXTURE_V3.read_text())
        moved = [
            name
            for name, job in jobs.items()
            if AnalysisJob.from_json(job.to_json()).fingerprint() != pinned[name]
        ]
        assert not moved

    def test_differs_from_v2_everywhere(self):
        v2 = json.loads(FINGERPRINT_FIXTURE_V2.read_text())
        v3 = json.loads(FINGERPRINT_FIXTURE_V3.read_text())
        assert all(v2[name] != v3[name] for name in v2)


class TestJobResult:
    def test_round_trip(self):
        result = JobResult(fingerprint="abc", name="j", error_bound=0.25, num_gates=3)
        rebuilt = JobResult.from_json_dict(json.loads(json.dumps(result.to_json_dict())))
        assert rebuilt == result
        assert rebuilt.ok

    def test_retired_counter_is_dropped_on_load(self):
        """Records stored while the dominance counter existed reload without it."""
        result = JobResult(fingerprint="abc", name="j", error_bound=0.25)
        stored = {**result.to_json_dict(), **{key: 0 for key in RETIRED_COUNTER_FIELDS}}
        rebuilt = JobResult.from_json_dict(stored)
        assert rebuilt == result
        assert not set(RETIRED_COUNTER_FIELDS) & set(rebuilt.to_json_dict())

    def test_unknown_fields_ignored_missing_required_rejected(self):
        rebuilt = JobResult.from_json_dict(
            {"fingerprint": "abc", "name": "j", "future_field": 1}
        )
        assert rebuilt.fingerprint == "abc"
        with pytest.raises(EngineError):
            JobResult.from_json_dict({"name": "missing fingerprint"})
