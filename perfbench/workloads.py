"""The benchmark's three workloads, each dominated by a different layer.

* ``reference-cold`` — random 5-qubit/65-gate circuits analysed in-process
  with ``analyze_program``, the tape memo cleared before every analysis and
  no persistent cache.  The ADMM solve (``repro.sdp``) dominates.
* ``table2-paper`` — the paper-scale Table 2 rows up to 45 qubits plus two
  prefix truncations of one row, run cold as one ``analyze_batch`` on a
  fresh outcome store.  The MPS walk (``repro.mps``) dominates.
* ``serve-repeat`` — a closed loop of client threads replaying a seeded
  Zipf trace over the reduced Table 2 jobs against a ``gleipnir-serve``
  whose outcome store already holds every answer.  Nothing executes: job
  spec encoding/decoding/hashing (``repro.engine``) and HTTP (``repro.api``)
  dominate.

The seed only shapes the inputs (which circuits, where the truncations cut,
the request trace); the program under test receives the generated jobs.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import itertools
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro.api import AnalysisSession, Client
from repro.circuits.program import Seq
from repro.config import DEFAULT_BIT_FLIP_PROBABILITY, AnalysisConfig
from repro.core import analyzer
from repro.core.baselines import exact_error, worst_case_bound
from repro.core.scheduler import clear_tape_memo
from repro.engine.outcomes import OutcomeStore
from repro.engine.pool import AnalysisEngine
from repro.engine.spec import AnalysisJob, job_from_json_dict
from repro.noise import NoiseModel
from repro.programs.library import table2_benchmarks

#: MPS width of every workload.  The paper's width 128 makes the 20-qubit
#: random-graph QAOA row alone run for minutes, beyond one benchmark run.
MPS_WIDTH = 16

#: Terminal service statuses (``repro.engine.service.TERMINAL_STATUSES``).
TERMINAL = ("done", "failed")


@dataclasses.dataclass
class Measurement:
    """What the timed phase of one run observed.

    ``intervals`` holds the ``(start, end)`` clock readings of each latency
    sample and ``windows`` those of the stretches of the timed phase that
    count towards its wall time, so times can be normalised by the machine
    speed measured over the same interval.
    """

    intervals: list[tuple[float, float]]
    windows: list[tuple[float, float]]
    passes: float
    operations: int
    completed: int
    attempted: int
    busy: float
    failures: list[str] = dataclasses.field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(end - start for start, end in self.windows)


def _timed(function) -> tuple[float, float]:
    """``(start, end)`` clock readings around ``function()``."""
    start = time.perf_counter()
    function()
    return start, time.perf_counter()


def peak_rss_mb_self() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of another process in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _random_circuit(root: Path):
    """``tests/helpers.random_circuit``, the generator the test suite uses."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_test_helpers", root / "tests" / "helpers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.random_circuit


class ReferenceCold:
    """The ROADMAP reference analysis, cold, over circuits drawn from the seed.

    The first circuit is ``random_circuit(5, 65, seed)``; seed 7 is the
    ROADMAP reference.  One circuit's latency depends on how many of its ADMM
    problems stall at the iteration cap (±17% across seeds), so each run
    analyses ``CIRCUITS`` distinct circuits and reports over all of them.
    """

    name = "reference-cold"
    CIRCUITS = 24
    #: Probe-normalised seconds of one pass over the circuits; a run makes
    #: ``round(seconds / PASS_S)`` passes, so its work is fixed by --seconds.
    PASS_S = 11.0
    sampled_run = True

    def __init__(self, root: Path, seed: int, smoke: bool = False):
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self._results: list = []
        self._warmup_bounds: list[float] = []

    def set_up(self, repeats: int) -> list[list[tuple[float, float]]]:
        """Set up ``repeats`` times; each set-up is one timed interval."""
        return [[_timed(self._setup)] for _ in range(repeats)]

    def _setup(self) -> None:
        random_circuit = _random_circuit(self.root)
        count, qubits, gates = (1, 3, 12) if self.smoke else (self.CIRCUITS, 5, 65)
        self.circuits = [
            random_circuit(qubits, gates, seed=self.seed + 1000 * index)
            for index in range(count)
        ]
        self.model = NoiseModel.uniform_bit_flip(1e-3)
        self.config = AnalysisConfig(mps_width=MPS_WIDTH)
        # Pays the process's lazy set-up (SDP templates, numpy dispatch) once.
        clear_tape_memo()
        warmup = analyzer.analyze_program(self.circuits[0], self.model, config=self.config)
        self._warmup_bounds.append(warmup.error_bound)

    def run(self, seconds: float, pause=None) -> Measurement:
        intervals: list[tuple[float, float]] = []
        failures: list[str] = []
        results: list = [None] * len(self.circuits)
        attempted = 0
        passes = max(1, round(seconds / self.PASS_S))
        start = time.perf_counter()
        for _ in range(passes):
            for index, circuit in enumerate(self.circuits):
                attempted += 1
                clear_tape_memo()
                began = time.perf_counter()
                try:
                    result = analyzer.analyze_program(circuit, self.model, config=self.config)
                except Exception as exc:  # a failed analysis is counted, not fatal
                    failures.append(f"circuit {index}: {type(exc).__name__}: {exc}")
                    continue
                intervals.append((began, time.perf_counter()))
                first = results[index]
                if first is not None and first.error_bound != result.error_bound:
                    failures.append(
                        f"circuit {index}: bound {result.error_bound!r} != {first.error_bound!r}"
                    )
                results[index] = first or result
        end = time.perf_counter()
        if results[0] is not None and {results[0].error_bound} != set(self._warmup_bounds):
            failures.append("circuit 0: bound differs from the set-up analyses")
        self._results = results
        return Measurement(
            intervals=intervals,
            windows=[(start, end)],
            passes=passes,
            operations=attempted,
            completed=len(intervals),
            attempted=attempted,
            busy=end - start,
            failures=failures,
        )

    def check(self) -> tuple[int, list[str]]:
        """``exact ≤ bound ≤ worst case`` and a sound derivation, per circuit."""
        failures = []
        checks = 0
        for index, (circuit, result) in enumerate(zip(self.circuits, self._results)):
            checks += 2
            if result is None:
                failures.append(f"circuit {index}: no successful analysis to check")
                continue
            exact = exact_error(circuit, self.model).value
            worst = worst_case_bound(circuit, self.model, config=self.config).value
            if not exact <= result.error_bound <= worst:
                failures.append(
                    f"circuit {index}: exact {exact!r} <= bound {result.error_bound!r} "
                    f"<= worst case {worst!r} does not hold"
                )
            try:
                result.derivation.check()
            except Exception as exc:
                failures.append(f"circuit {index}: derivation check failed: {exc}")
        return checks, failures

    def bound_sum(self) -> float:
        return sum(result.error_bound for result in self._results if result is not None)

    def details(self) -> dict:
        first = self._results[0] if self._results else None
        return {
            "circuits": len(self.circuits),
            "first_circuit_bound": first.error_bound if first is not None else None,
        }

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_self()

    def layer_extra(self, measurement: Measurement) -> dict:
        return {}

    def close(self) -> None:
        pass


class Table2Paper:
    """Paper-scale Table 2 rows up to 45 qubits, one cold batch at a time.

    Two prefix truncations of ``PREFIX_ROW`` (cut points drawn from the
    seed) are distinct jobs that share a walk prefix and most solve classes:
    the tape memo can reuse the walk, and a bound cache shared across the
    batch could skip their solves.  QAOA50 (15 s, as long as the other rows
    together), QAOA75 and QAOA100 are left out so that a run stays within
    the time one benchmark run may take on a loaded 2-core machine.
    """

    name = "table2-paper"
    ROWS = (
        "QAOA_line_10",
        "Isingmodel10",
        "QAOARandom20",
        "QAOA4reg_20",
        "QAOA4reg_30",
        "Isingmodel45",
    )
    SMOKE_ROWS = ("QAOA_line_10", "Isingmodel10")
    PREFIX_ROW = "QAOA_line_10"
    #: Probe-normalised seconds of one batch, which sizes a run's work.
    BATCH_S = 18.0
    sampled_run = True

    def __init__(self, root: Path, seed: int, smoke: bool = False):
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self._work: str | None = None
        self._outcomes: list = []
        self._store_path: str | None = None

    def set_up(self, repeats: int) -> list[list[tuple[float, float]]]:
        """Set up ``repeats`` times; each set-up is one timed interval."""
        return [[_timed(self._setup)] for _ in range(repeats)]

    def _setup(self) -> None:
        scale, wanted = ("reduced", self.SMOKE_ROWS) if self.smoke else ("full", self.ROWS)
        specs = {spec.name: spec for spec in table2_benchmarks(scale)}
        self.model = NoiseModel.uniform_bit_flip(DEFAULT_BIT_FLIP_PROBABILITY)
        self.config = AnalysisConfig(mps_width=MPS_WIDTH)
        # (name, program, qubits) for every job of the batch.
        self.programs = []
        for name in wanted:
            circuit = specs[name].build()
            self.programs.append((name, circuit.to_program(), circuit.num_qubits))
        rng = np.random.default_rng(self.seed)
        base_name, base_program, qubits = next(
            item for item in self.programs if item[0] == self.PREFIX_ROW
        )
        parts = list(base_program.parts) if isinstance(base_program, Seq) else [base_program]
        cuts = sorted({max(1, int(len(parts) * f)) for f in rng.uniform(0.5, 0.9, size=2)})
        for keep in cuts:
            self.programs.append((f"{base_name}_prefix{keep}", Seq(tuple(parts[:keep])), qubits))
        if self._work is not None:
            shutil.rmtree(self._work, ignore_errors=True)
        work_root = self.root / ".perfbench_work"
        work_root.mkdir(exist_ok=True)
        self._work = tempfile.mkdtemp(prefix="table2-", dir=work_root)

    def _jobs(self) -> list[AnalysisJob]:
        return [
            AnalysisJob(
                program=program,
                noise_model=self.model,
                config=self.config,
                num_qubits=qubits,
                name=name,
            )
            for name, program, qubits in self.programs
        ]

    def run(self, seconds: float, pause=None) -> Measurement:
        """``round(seconds / BATCH_S)`` cold batches (at least one); one sample each.

        A job's own time is no latency sample: the jobs differ tenfold in
        size, so their median is whichever job the seed's truncations rank
        in the middle.
        """
        intervals: list[tuple[float, float]] = []
        failures: list[str] = []
        attempted = 0
        completed = 0
        first_bounds = None
        start = time.perf_counter()
        for _ in range(max(1, round(seconds / self.BATCH_S))):
            store_path = os.path.join(self._work, f"outcomes-{len(intervals)}.jsonl")
            clear_tape_memo()
            began = time.perf_counter()
            with AnalysisSession(workers=1, outcomes=store_path) as session:
                outcomes = session.analyze_batch(self._jobs())
            intervals.append((began, time.perf_counter()))
            attempted += len(outcomes)
            for outcome in outcomes:
                completed += outcome.ok
                if not outcome.ok:
                    failures.append(f"{outcome.name}: {outcome.status}: {outcome.error}")
            bounds = [outcome.bound for outcome in outcomes]
            if first_bounds is not None and bounds != first_bounds:
                failures.append(f"batch {len(intervals)}: bounds differ from the first batch")
            first_bounds = first_bounds or bounds
            self._outcomes = outcomes
            self._store_path = store_path
        end = time.perf_counter()
        return Measurement(
            intervals=intervals,
            windows=[(start, end)],
            passes=len(intervals),
            operations=len(intervals),
            completed=completed,
            attempted=attempted,
            busy=end - start,
            failures=failures,
        )

    def check(self) -> tuple[int, list[str]]:
        """``bound ≤ worst case`` per job; every stored certificate re-verifies."""
        failures = []
        checks = 0
        store = OutcomeStore(self._store_path)
        try:
            for (name, program, _qubits), outcome in zip(self.programs, self._outcomes):
                checks += 2
                worst = worst_case_bound(program, self.model, config=self.config).value
                if not (outcome.ok and outcome.bound <= worst):
                    failures.append(f"{name}: bound {outcome.bound!r} > worst case {worst!r}")
                stored = store.get(outcome.fingerprint, verify=True)
                if stored is None or stored.error_bound != outcome.bound:
                    failures.append(f"{name}: stored outcome missing or fails re-verification")
        finally:
            store.close()
        return checks, failures

    def bound_sum(self) -> float:
        return sum(outcome.bound for outcome in self._outcomes if outcome.ok)

    def details(self) -> dict:
        shared = sum(outcome.tape_steps_reused > 0 for outcome in self._outcomes)
        return {
            "jobs": [name for name, _program, _qubits in self.programs],
            "prefix_shared_share": shared / len(self._outcomes) if self._outcomes else 0.0,
        }

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_self()

    def layer_extra(self, measurement: Measurement) -> dict:
        return {}

    def close(self) -> None:
        if self._work is not None:
            shutil.rmtree(self._work, ignore_errors=True)
            self._work = None


def _zipf_trace(count: int, length: int, seed: int, exponent: float = 1.1) -> list[int]:
    """Job indices ``0..count-1`` drawn from a Zipf law, index 0 the most popular.

    The ranking is fixed and only the draws come from the seed: requests
    for the larger jobs cost twice as much, so a seeded ranking would make
    one seed's trace twice as expensive as another's.
    """
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, count + 1) ** exponent
    return [int(draw) for draw in rng.choice(count, size=length, p=weights / weights.sum())]


def _prometheus_samples(text: str) -> dict[tuple[str, tuple], float]:
    """``(metric, sorted label pairs) -> value`` from Prometheus exposition text."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = re.match(r"^([a-zA-Z_:][\w:]*)(?:\{(.*)\})? (\S+)$", line)
        if match:
            labels = tuple(sorted(re.findall(r'(\w+)="([^"]*)"', match.group(2) or "")))
            samples[(match.group(1), labels)] = float(match.group(3))
    return samples


def _sample_sum(samples: dict, metric: str, **labels) -> float:
    wanted = set(labels.items())
    return sum(
        value
        for (name, pairs), value in samples.items()
        if name == metric and wanted <= set(pairs)
    )


class ServeRepeat:
    """Warm repeat traffic through ``gleipnir-serve``: nothing executes.

    Set-up executes the reduced Table 2 jobs in-process into a fresh outcome
    store and starts a fresh server on it.  The timed phase is a closed loop
    of ``CLIENTS`` threads; each sends ``Client.submit`` and, if the entry is
    not finished, ``Client.wait``, for jobs drawn from a seeded Zipf trace.
    """

    name = "serve-repeat"
    CLIENTS = 2
    #: Requests per second of --seconds: a run sends a fixed number of
    #: requests, so its latency percentiles stay comparable across commits.
    REQUESTS_PER_S = 40
    ROUND_REQUESTS = 20
    TRACE_LENGTH = 50000
    SMOKE_ROWS = ("QAOA_line_10", "Isingmodel10")
    HTTP_ENDPOINTS = ("/v1/batches", "/v1/jobs/{fingerprint}")
    #: Client threads hold the GIL the speed probe would need; probe in the
    #: pauses between rounds of requests instead.
    sampled_run = False

    def __init__(self, root: Path, seed: int, smoke: bool = False):
        self.root = root
        self.seed = seed
        self.smoke = smoke
        self._process: subprocess.Popen | None = None
        self._log = None
        self._work: str | None = None
        self._server_rss = 0.0
        self._trace_used: list[int] = []

    # -- set-up ------------------------------------------------------------
    def set_up(self, repeats: int) -> list[list[tuple[float, float]]]:
        """One set-up is filling the store plus starting a server on it.

        Filling executes every job (seconds); it runs once, and each of the
        ``repeats`` set-ups counts it together with one fresh server start.
        """
        fill = _timed(self._fill_store)
        starts = []
        for _ in range(repeats):
            self._stop_server()
            starts.append(_timed(self._start_server))
        return [[fill, start] for start in starts]

    def _fill_store(self) -> None:
        work_root = self.root / ".perfbench_work"
        work_root.mkdir(exist_ok=True)
        self._work = tempfile.mkdtemp(prefix="serve-", dir=work_root)
        model = NoiseModel.uniform_bit_flip(DEFAULT_BIT_FLIP_PROBABILITY)
        config = AnalysisConfig(mps_width=MPS_WIDTH)
        specs = table2_benchmarks("reduced")
        if self.smoke:
            specs = [spec for spec in specs if spec.name in self.SMOKE_ROWS]
        self.jobs = [
            AnalysisJob.from_circuit(spec.build(), model, config=config, name=spec.name)
            for spec in specs
        ]
        self.store_path = os.path.join(self._work, "outcomes.jsonl")
        clear_tape_memo()
        engine = AnalysisEngine(workers=1, outcomes=self.store_path)
        report = engine.run(self.jobs)
        engine.outcomes.close()
        if not report.ok:
            raise RuntimeError(f"filling the outcome store failed: {report.failures()}")
        self.expected = {
            result.fingerprint: result.to_json_dict() for result in report.results
        }
        self.fingerprints = [job.fingerprint() for job in self.jobs]
        self.trace = _zipf_trace(len(self.jobs), self.TRACE_LENGTH, self.seed)

    def _start_server(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self._log = open(os.path.join(self._work, "server.log"), "w+", encoding="utf-8")
        self._process = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.engine.service import main; sys.exit(main(sys.argv[1:]))",
                "--port", "0",
                "--workers", "1",
                "--outcomes", self.store_path,
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=env,
            cwd=self._work,
        )
        deadline = time.monotonic() + 60
        while True:
            self._log.seek(0)
            match = re.search(r"listening on (http://[\d.]+:\d+)", self._log.read())
            if match:
                self.base_url = match.group(1)
                break
            if self._process.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("gleipnir-serve did not start")
            time.sleep(0.02)
        while True:
            try:
                with urllib.request.urlopen(f"{self.base_url}/v1/healthz", timeout=5):
                    return
            except OSError:
                if time.monotonic() > deadline:
                    raise RuntimeError("gleipnir-serve did not answer /v1/healthz") from None
                time.sleep(0.02)

    def _stop_server(self) -> None:
        process, self._process = self._process, None
        if process is not None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self._log is not None:
            self._log.close()
            self._log = None

    def _scrape(self) -> dict:
        with urllib.request.urlopen(f"{self.base_url}/v1/metrics", timeout=30) as response:
            return _prometheus_samples(response.read().decode("utf-8"))

    # -- timed phase ---------------------------------------------------------
    def run(self, seconds: float, pause=None) -> Measurement:
        """A fixed number of requests in rounds of ``ROUND_REQUESTS``.

        Between rounds the clients are idle and ``pause()`` runs on the main
        thread (the end-to-end run takes its speed probes there); the pauses
        are not part of the wall time.
        """
        self._before = self._scrape()
        requests = max(2 * self.CLIENTS, round(seconds * self.REQUESTS_PER_S))
        per_thread = [
            {"intervals": [], "failures": [], "attempted": 0, "used": [], "busy": 0.0, "sent": 0}
            for _ in range(self.CLIENTS)
        ]
        clients = [Client(self.base_url, timeout=60.0) for _ in range(self.CLIENTS)]

        def client_loop(state: dict, client: Client, counter, limit: int) -> None:
            began = time.perf_counter()
            while (position := next(counter)) < limit:
                index = self.trace[position % len(self.trace)]
                job = self.jobs[index]
                fingerprint = self.fingerprints[index]
                state["attempted"] += 1
                state["used"].append(index)
                sent = time.perf_counter()
                try:
                    entry = client.submit([job])[0]
                    if entry["status"] not in TERMINAL:
                        entry = client.wait(fingerprint, timeout=60.0)
                except Exception as exc:  # a failed request is counted, not fatal
                    state["failures"].append(f"{job.name}: {type(exc).__name__}: {exc}")
                    continue
                state["intervals"].append((sent, time.perf_counter()))
                if entry["status"] != "done" or entry["result"] != self.expected[fingerprint]:
                    state["failures"].append(f"{job.name}: HTTP result differs from in-process")
            state["busy"] += time.perf_counter() - began

        windows = []
        for limit in range(0, requests, self.ROUND_REQUESTS):
            if pause is not None:
                pause()
            counter = itertools.count(limit)
            threads = [
                threading.Thread(
                    target=client_loop,
                    args=(state, client, counter, min(limit + self.ROUND_REQUESTS, requests)),
                    name=f"client-{number}",
                )
                for number, (state, client) in enumerate(zip(per_thread, clients))
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            windows.append((start, time.perf_counter()))
        if pause is not None:
            pause()
        for state, client in zip(per_thread, clients):
            state["sent"] = client.requests_sent
        self._after = self._scrape()
        self._server_rss = peak_rss_mb_of(self._process.pid)

        intervals = [value for state in per_thread for value in state["intervals"]]
        failures = [message for state in per_thread for message in state["failures"]]
        attempted = sum(state["attempted"] for state in per_thread)
        self._trace_used = [index for state in per_thread for index in state["used"]]
        self._requests_sent = sum(state["sent"] for state in per_thread)
        return Measurement(
            intervals=intervals,
            windows=windows,
            passes=attempted / len(self.jobs),
            operations=attempted,
            completed=len(intervals),
            attempted=attempted,
            busy=sum(state["busy"] for state in per_thread),
            failures=failures,
        )

    def check(self) -> tuple[int, list[str]]:
        """Every request already compared its HTTP result with the in-process one."""
        return 0, []

    def bound_sum(self) -> float:
        return sum(result["error_bound"] for result in self.expected.values())

    def details(self) -> dict:
        return {
            "jobs": [job.name for job in self.jobs],
            "clients": self.CLIENTS,
            "distinct_fingerprints_requested": len(set(self._trace_used)),
        }

    def peak_rss_mb(self) -> float:
        return self._server_rss

    def layer_extra(self, measurement: Measurement) -> dict:
        """Server-side per-layer numbers, per request.

        ``/v1/metrics`` before and after the timed phase gives the server's
        own HTTP handling time and outcome-store hits.  The per-submission
        spec decoding, fingerprinting and store reads happen in the server
        process, so the same public calls are timed here on the same payloads
        and store file, weighted by how often the run requested each job.
        """
        requests = max(1, measurement.operations)

        def delta(metric: str, **labels) -> float:
            return _sample_sum(self._after, metric, **labels) - _sample_sum(
                self._before, metric, **labels
            )

        http_seconds = sum(
            delta("repro_http_request_seconds_sum", endpoint=endpoint)
            for endpoint in self.HTTP_ENDPOINTS
        )
        hits = delta("repro_outcome_store_lookups_total", outcome="hit")

        frequency = {index: self._trace_used.count(index) for index in set(self._trace_used)}
        decode = fingerprint = read = 0.0
        store = OutcomeStore(self.store_path)
        try:
            for index, count in frequency.items():
                payload = json.loads(json.dumps(self.jobs[index].to_json_dict()))
                decode_samples, fingerprint_samples = [], []
                for _ in range(3):
                    began = time.perf_counter()
                    job = job_from_json_dict(payload)
                    decoded = time.perf_counter()
                    job.fingerprint()
                    decode_samples.append(decoded - began)
                    fingerprint_samples.append(time.perf_counter() - decoded)
                decode += statistics.median(decode_samples) * count
                fingerprint += statistics.median(fingerprint_samples) * count
                began = time.perf_counter()
                store.get(self.fingerprints[index])
                read += time.perf_counter() - began
        finally:
            store.close()
        return {
            "engine.http_server_s": http_seconds / requests,
            "engine.outcome_hits": hits / requests,
            "engine.dedup_ratio": 1.0 - len(frequency) / requests,
            "engine.spec_decode_s": decode / requests,
            "engine.fingerprint_s": fingerprint / requests,
            "engine.outcomes_get_s": read / requests,
            "api.requests_per_op": self._requests_sent / requests,
        }

    def close(self) -> None:
        self._stop_server()
        if self._work is not None:
            shutil.rmtree(self._work, ignore_errors=True)
            self._work = None


WORKLOADS = {workload.name: workload for workload in (ReferenceCold, Table2Paper, ServeRepeat)}
