"""repro.service — campaigns as a durable benchmark farm.

The campaign machinery (:mod:`repro.campaign`) runs a sweep as one process's
one-shot job.  This package wraps it in a *service*: a sqlite-backed durable
job queue with atomic time-limited leases (:mod:`repro.service.queue`), a
worker fleet pulling scenarios through the existing runner, stage registry and
shared stage cache (:mod:`repro.service.worker`), and a stdlib HTTP control
plane with Prometheus metrics (:mod:`repro.service.api`), all operated
through ``impressions service ...`` (:mod:`repro.service.cli`).

Design invariants the tests hold the package to:

- **Durability** — every queue mutation is one sqlite transaction; killing
  any process at any instant leaves the queue consistent.
- **Crash recovery** — a worker that dies mid-job stops extending its lease;
  the job is reclaimed on expiry and retried (with exponential backoff) up
  to its budget, then dead-lettered with the captured error.
- **Idempotence** — jobs are keyed by scenario fingerprint (UNIQUE), so
  concurrent duplicate submissions execute each scenario exactly once, and
  re-execution after a crash appends a bit-identical result row.
"""

from repro.service.queue import (
    DEAD,
    DONE,
    LEASED,
    PENDING,
    Job,
    JobQueue,
    QueueError,
    SubmitResult,
)
from repro.service.worker import Worker, WorkerOptions, WorkerResult, run_worker

__all__ = [
    "PENDING",
    "LEASED",
    "DONE",
    "DEAD",
    "Job",
    "JobQueue",
    "QueueError",
    "SubmitResult",
    "Worker",
    "WorkerOptions",
    "WorkerResult",
    "run_worker",
]
