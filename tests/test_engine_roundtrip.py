"""Property tests: serialized jobs reproduce direct analysis exactly.

For every benchmark program in :mod:`repro.programs.library` (reduced scale),
the bound computed by ``serialize(job) → deserialize → analyze`` must equal
the bound of a direct :func:`analyze_program` call bit for bit, and the job
fingerprint must be a stable content address (insensitive to JSON object
ordering, reproducible in a fresh process).

The analyses run in the cheap ``fast`` SDP mode at a tiny MPS width — the
property under test is *determinism of the serialization boundary*, not
tightness, and certified bounds stay sound at any accuracy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import AnalysisConfig
from repro.core.analyzer import analyze_program
from repro.engine.pool import execute_job
from repro.engine.spec import AnalysisJob
from repro.noise import NoiseModel
from repro.programs.library import table2_benchmarks

CONFIG = AnalysisConfig(mps_width=2)
MODEL = NoiseModel.uniform_bit_flip(1e-4)

_SPECS = table2_benchmarks("reduced")


def _reordered(payload):
    if isinstance(payload, dict):
        return {key: _reordered(payload[key]) for key in reversed(list(payload))}
    if isinstance(payload, list):
        return [_reordered(item) for item in payload]
    return payload


@pytest.mark.parametrize("spec", _SPECS, ids=[spec.name for spec in _SPECS])
def test_serialized_job_reproduces_direct_bound(spec):
    circuit = spec.build()
    direct = analyze_program(
        circuit, MODEL, config=CONFIG, program_name=spec.name
    )

    job = AnalysisJob.from_circuit(circuit, MODEL, config=CONFIG, name=spec.name)
    rebuilt = AnalysisJob.from_json(job.to_json())
    result = execute_job(rebuilt)

    assert result.ok
    assert result.error_bound == direct.error_bound  # bit-identical, not approx
    assert result.final_delta == direct.final_delta
    assert result.num_gates == direct.num_gates


@pytest.mark.parametrize("spec", _SPECS, ids=[spec.name for spec in _SPECS])
def test_fingerprint_stable_under_reserialization_and_reordering(spec):
    circuit = spec.build()
    job = AnalysisJob.from_circuit(circuit, MODEL, config=CONFIG, name=spec.name)
    fingerprint = job.fingerprint()

    # Round trip through text (fresh floats, fresh dicts).
    assert AnalysisJob.from_json(job.to_json()).fingerprint() == fingerprint
    # JSON object order must not matter.
    shuffled = _reordered(json.loads(json.dumps(job.to_json_dict())))
    assert AnalysisJob.from_json_dict(shuffled).fingerprint() == fingerprint
    # A rebuild of the same deterministic benchmark is the same job.
    assert (
        AnalysisJob.from_circuit(spec.build(), MODEL, config=CONFIG, name=spec.name).fingerprint()
        == fingerprint
    )


def test_library_fingerprint_stable_across_processes():
    spec = _SPECS[0]
    job = AnalysisJob.from_circuit(spec.build(), MODEL, config=CONFIG, name=spec.name)
    script = (
        "import sys; from repro.engine.spec import AnalysisJob; "
        "print(AnalysisJob.from_json(sys.stdin.read()).fingerprint())"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
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


def test_fingerprints_distinguish_all_benchmarks():
    fingerprints = {
        AnalysisJob.from_circuit(spec.build(), MODEL, config=CONFIG).fingerprint()
        for spec in _SPECS
    }
    assert len(fingerprints) == len(_SPECS)
