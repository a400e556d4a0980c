"""The analysis engine: declarative jobs, a process-pool executor, a
resumable result store, and an HTTP serving front-end.

The engine turns one-shot :func:`repro.core.analyzer.analyze_program` calls
into first-class, addressable requests:

* :class:`AnalysisJob` (``spec``) — a content-addressed description of one
  analysis (program + noise model + configuration) with canonical JSON
  serialization, so jobs can be fingerprinted, deduped, persisted, and sent
  across process boundaries;
* :class:`AnalysisEngine` (``pool``) — executes batches of jobs across a
  process pool with per-job resource budgets, failure isolation, and a
  shared on-disk bound cache;
* :class:`ResultStore` (``store``) — a JSONL store keyed by job fingerprint
  that makes sweeps resumable;
* :class:`OutcomeStore` (``outcomes``) — a content-addressed store of whole
  outcomes (result + dual certificates), so warm traffic answers from one
  lookup and stays re-verifiable on demand;
* :class:`AnalysisService` (``service``) — a stdlib-HTTP front-end
  (``gleipnir-serve``) that coalesces submissions into engine batches.
"""

from .spec import AnalysisJob, JobResult, job_from_json_dict
from .store import ResultStore
from .outcomes import OutcomeCertificate, OutcomeStore
from .pool import AnalysisEngine, BatchReport, execute_job
from .service import AnalysisService

__all__ = [
    "AnalysisJob",
    "JobResult",
    "ResultStore",
    "OutcomeStore",
    "OutcomeCertificate",
    "AnalysisEngine",
    "BatchReport",
    "execute_job",
    "job_from_json_dict",
    "AnalysisService",
]
