"""The analysis engine: declarative jobs, a process-pool executor, an
outcome store, and an HTTP serving front-end.

The engine turns one-shot :func:`repro.core.analyzer.analyze_program` calls
into first-class, addressable requests:

* :class:`AnalysisJob` (``spec``) — a content-addressed description of one
  analysis (program + noise model + configuration) with canonical JSON
  serialization, so jobs can be fingerprinted, deduped, persisted, and sent
  across process boundaries;
* :class:`AnalysisEngine` (``pool``) — executes batches of jobs across a
  process pool with per-job resource budgets and failure isolation, and
  streams each job's result as it finishes;
* :class:`OutcomeStore` (``outcomes``) — a content-addressed JSONL store of
  whole outcomes (result + dual certificates), so warm traffic answers from
  one lookup, sweeps resume, and answers stay re-verifiable on demand;
* :class:`AnalysisService` (``service``) — a stdlib-HTTP front-end
  (``gleipnir-serve``) that runs each submission as one engine batch and
  publishes each job's result as it lands.
"""

from .spec import AnalysisJob, JobResult, job_from_json_dict
from .outcomes import OutcomeCertificate, OutcomeStore
from .pool import AnalysisEngine, BatchReport, execute_job
from .service import AnalysisService

__all__ = [
    "AnalysisJob",
    "JobResult",
    "OutcomeStore",
    "OutcomeCertificate",
    "AnalysisEngine",
    "BatchReport",
    "execute_job",
    "job_from_json_dict",
    "AnalysisService",
]
