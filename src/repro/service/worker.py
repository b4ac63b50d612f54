"""Farm workers: lease scenarios, run them, heartbeat, append results.

A worker is a loop around :meth:`~repro.service.queue.JobQueue.lease`: claim
a job, execute its scenario payload through the existing campaign machinery
(:func:`repro.campaign.runner.run_scenario` — the pipeline, the step
registry, the shared stage cache), append the result row to the campaign's
JSONL store, and ack.  While a job runs, a background thread keeps the lease
alive and upserts a heartbeat row; a worker that dies simply stops doing
both, and the queue reclaims the job after the lease expires.

Stage-cache coexistence: all workers of a farm share one ``cache_dir``
(knob-sharing scenarios restore each other's pipeline prefixes).  Each job is
executed under :func:`repro.pipeline.cache.cache_lock` so two lease holders
generating at once surface as :class:`~repro.pipeline.cache.CacheBusyError`;
the worker retries with exponential backoff plus deterministic jitter, and
after :data:`CACHE_BUSY_RETRIES` attempts proceeds in shared mode
(``on_busy="ignore"``) — safe because cache writes are atomic and
content-addressed, just redundant.

Crash-safety contract (what the tests SIGKILL workers to prove): the result
row is appended to the store *before* the ack, and rows are deterministic
functions of the scenario — so every interleaving of crash, reclaim and
re-execution converges to a store whose latest row per fingerprint is
bit-identical (modulo ``wall``/``cache``) to an uninterrupted run, and
``store.compact()`` collapses any benign duplicates.
"""

from __future__ import annotations

import contextlib
import math
import os
import random
import sqlite3
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Sequence

from repro.campaign.runner import TELEMETRY_KEY, run_scenario
from repro.campaign.store import ResultStore
from repro.faults import plan as fault_plan
from repro.obs import core as obs_core
from repro.pipeline.cache import CacheBusyError, cache_lock
from repro.service.queue import DURATION_BUCKETS, Job, JobQueue

__all__ = [
    "WorkerOptions",
    "WorkerResult",
    "Worker",
    "run_worker",
    "derived_lock_max_age",
]

#: CacheBusyError retries before falling back to shared-cache mode, and the
#: base of their exponential backoff (seconds).
CACHE_BUSY_RETRIES = 4
CACHE_BUSY_BACKOFF = 0.25
#: stage-cache locks older than this are stale (recycled-pid insurance); it
#: must exceed the farm's worst-case single-job wall time.  Once the queue
#: holds enough completed-job durations this acts as the *ceiling*: the
#: effective max-age is derived per job from the duration p99 (see
#: :func:`derived_lock_max_age`).
CACHE_LOCK_MAX_AGE = 3600.0
#: multiplier over the observed p99 job duration when deriving the lock
#: max-age, and the completed-job durations required before trusting it.
LOCK_AGE_SAFETY_FACTOR = 20.0
LOCK_AGE_MIN_SAMPLES = 8
#: transient queue I/O errors (EIO on the sqlite file, a full disk) are
#: retried this many times with exponential backoff before the worker gives
#: up and lets the error surface.
QUEUE_RETRY_ATTEMPTS = 3


def derived_lock_max_age(durations: Sequence[float], fallback: float) -> float:
    """A stage-cache lock max-age learned from observed job durations.

    A lock's max-age must exceed the worst-case single-job wall time (else a
    slow-but-healthy holder gets its lock stolen mid-run) while staying small
    enough that a recycled-pid zombie lock cannot wedge the farm for the
    fixed worst-case default.  The p99 of the queue's recorded
    ``duration_seconds`` × :data:`LOCK_AGE_SAFETY_FACTOR` tracks the actual
    workload: second-long smoke scenarios get minute-scale reclaim, hour-long
    generation keeps the conservative bound.  Below
    :data:`LOCK_AGE_MIN_SAMPLES` completions there is no telemetry worth
    trusting, so ``fallback`` applies; the derived value is clamped to
    ``[60 s, fallback]`` so it only ever *tightens* the fallback.
    """
    if len(durations) < LOCK_AGE_MIN_SAMPLES:
        return fallback
    ordered = sorted(durations)
    p99 = ordered[min(len(ordered) - 1, max(0, math.ceil(0.99 * len(ordered)) - 1))]
    return min(max(p99 * LOCK_AGE_SAFETY_FACTOR, 60.0), fallback)


@dataclass
class WorkerOptions:
    """Everything one worker needs to run (mirrors the CLI flags)."""

    queue_path: str
    store_path: str
    worker_id: str = ""
    lease_ttl: float = 60.0
    poll_interval: float = 0.5
    cache_dir: str | None = None
    obs_dir: str | None = None
    #: exit when the queue has no runnable work (otherwise poll forever).
    drain: bool = False
    #: stop after this many completed jobs (None = unbounded).
    max_jobs: int | None = None
    #: base (seconds) of the backoff between :data:`QUEUE_RETRY_ATTEMPTS`.
    queue_retry_backoff: float = 0.2


@dataclass
class WorkerResult:
    """What one worker loop did before exiting."""

    worker_id: str
    jobs_done: int = 0
    jobs_failed: int = 0
    acks_lost: int = 0
    cache_busy_retries: int = 0
    executed: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "worker": self.worker_id,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "acks_lost": self.acks_lost,
            "cache_busy_retries": self.cache_busy_retries,
            "executed": list(self.executed),
        }


class _LeaseKeeper:
    """Background thread extending one job's lease and heartbeating."""

    def __init__(self, queue: JobQueue, job: Job, worker_id: str, ttl: float, jobs_done: int):
        self._queue = queue
        self._job = job
        self._worker_id = worker_id
        self._ttl = ttl
        self._jobs_done = jobs_done
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        interval = max(0.05, self._ttl / 3.0)
        while not self._stop.wait(interval):
            if not self._queue.extend_lease(self._job.job_id, self._worker_id, self._ttl):
                # Reclaimed under us (we hung past the ttl once): stop burning
                # heartbeats; the executing thread notices via ``lost``.
                self.lost = True
                return
            self._queue.record_heartbeat(
                self._worker_id, job_id=self._job.job_id, jobs_done=self._jobs_done
            )

    def __enter__(self) -> "_LeaseKeeper":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class Worker:
    """One farm worker; ``run()`` blocks until drained, capped, or stopped."""

    def __init__(self, options: WorkerOptions, *, queue: JobQueue | None = None) -> None:
        self.options = options
        self.worker_id = options.worker_id or f"worker-{os.getpid()}"
        self.queue = queue if queue is not None else JobQueue(options.queue_path)
        self.store = ResultStore(options.store_path)
        self.telemetry = obs_core.Telemetry(run_id=f"service-{self.worker_id}")
        self._stop = threading.Event()

    def stop(self) -> None:
        """Ask the loop to exit after the in-flight job (if any) completes."""
        self._stop.set()

    # Job execution ----------------------------------------------------------

    def _queue_io(self, label: str, operation):
        """Run a queue operation, retrying transient I/O errors with backoff.

        EIO on the sqlite file or a momentarily full disk should not kill a
        worker that has healthy jobs in flight; each retry is counted as a
        heal.  :class:`~repro.faults.plan.InjectedCrash` is process death and
        is never retried.
        """
        for attempt in range(QUEUE_RETRY_ATTEMPTS + 1):
            try:
                return operation()
            except (OSError, sqlite3.OperationalError):
                if attempt >= QUEUE_RETRY_ATTEMPTS:
                    raise
                fault_plan.count_heal("queue", f"{label}_retry")
                self.telemetry.counter(
                    "service_queue_io_retries_total",
                    "transient queue I/O errors retried by workers",
                    ("op",),
                ).inc(op=label)
                time.sleep(self.options.queue_retry_backoff * (2.0 ** attempt))
        raise AssertionError("unreachable")

    def _lock_max_age(self) -> float:
        """The effective stage-cache lock max-age for the next job.

        Derived from the queue's observed job durations (p99 × safety
        factor); :data:`CACHE_LOCK_MAX_AGE` is the fallback below the
        sample threshold and the ceiling above it.  Telemetry being
        unreadable is never a reason not to run a job.
        """
        try:
            durations = self.queue.durations()
        except (OSError, sqlite3.OperationalError):
            return CACHE_LOCK_MAX_AGE
        derived = derived_lock_max_age(durations, CACHE_LOCK_MAX_AGE)
        self.telemetry.gauge(
            "service_cache_lock_max_age_seconds",
            "effective stage-cache lock max-age (derived from job durations)",
        ).set(derived)
        return derived

    def _execute_payload(self, payload: dict, attempt: int, result: WorkerResult) -> dict:
        """Run one scenario payload, negotiating the shared stage cache.

        The per-job ``cache_lock`` makes concurrent generation visible as
        :class:`CacheBusyError`; retries back off with jitter derived
        deterministically from (worker, fingerprint, attempt), and the final
        fallback shares the directory (atomic writes make that benign).
        """
        cache_dir = self.options.cache_dir
        if not cache_dir:
            return run_scenario(payload)
        lock_max_age = self._lock_max_age()
        rng = random.Random(f"{self.worker_id}:{payload['fingerprint']}:{attempt}")
        for busy_try in range(CACHE_BUSY_RETRIES + 1):
            on_busy = "error" if busy_try < CACHE_BUSY_RETRIES else "ignore"
            try:
                with cache_lock(
                    cache_dir,
                    owner=self.worker_id,
                    on_busy=on_busy,
                    max_age_seconds=lock_max_age,
                ):
                    return run_scenario(payload)
            except CacheBusyError:
                result.cache_busy_retries += 1
                self.telemetry.counter(
                    "service_cache_busy_retries_total",
                    "CacheBusyError retries while negotiating the shared stage cache",
                ).inc()
                delay = CACHE_BUSY_BACKOFF * (2.0 ** busy_try)
                time.sleep(delay + rng.uniform(0.0, delay))
        raise AssertionError("unreachable: final cache attempt shares the directory")

    def _run_job(self, job: Job, result: WorkerResult) -> None:
        options = self.options
        payload = dict(job.payload)
        if options.cache_dir:
            payload["cache_dir"] = options.cache_dir
        payload["telemetry"] = True
        keeper = _LeaseKeeper(
            self.queue, job, self.worker_id, options.lease_ttl, result.jobs_done
        )
        with keeper, self.telemetry.span("job", job=job.job_id) as span:
            try:
                fault_plan.check("worker.after_lease")
                row = self._execute_payload(payload, job.attempts, result)
            except (KeyboardInterrupt, fault_plan.InjectedCrash):
                # Process death (real or simulated) runs no failure handler:
                # the lease simply expires and the queue reclaims the job.
                raise
            except BaseException:
                error = traceback.format_exc()
                outcome = self.queue.fail(job.job_id, self.worker_id, error)
                result.jobs_failed += 1
                self.telemetry.counter(
                    "service_jobs_failed_total", "jobs whose scenario raised", ("outcome",)
                ).inc(outcome=outcome)
                return
        duration = span.wall_seconds
        snapshot = row.pop(TELEMETRY_KEY, None)
        if snapshot is not None:
            # Per-job telemetry folds into the worker's own snapshot (spans
            # keep their recording pid, counters/histograms add).
            self.telemetry.merge(snapshot)
        if keeper.lost:
            # The lease expired while we executed (e.g. a stall outlived the
            # ttl).  The job was reclaimed and will be — or already was —
            # re-executed; our row is the same deterministic row, so appending
            # it would only create a benign duplicate.  Drop it.
            result.acks_lost += 1
            return
        # Append before ack: a crash between the two leaves a done row in the
        # store and a reclaimable lease — the retry appends a duplicate of an
        # identical row, never loses one.  Skip the append only when the store
        # already holds this fingerprint (duplicate submission already run).
        summary = {
            "scenario": row["scenario"],
            "fingerprint": row["fingerprint"],
            "metrics": len(row.get("metrics", {})),
        }
        if row["fingerprint"] not in self.store.fingerprints():
            self.store.append(row)
        if self._queue_io(
            "ack",
            lambda: self.queue.ack(
                job.job_id, self.worker_id, duration_seconds=duration, result=summary
            ),
        ):
            result.jobs_done += 1
            result.executed.append(job.scenario_id)
            self.telemetry.counter(
                "service_jobs_done_total", "jobs completed by this worker"
            ).inc()
            self.telemetry.histogram(
                "service_job_duration_seconds",
                "wall-clock seconds per completed job",
                buckets=DURATION_BUCKETS,
                unit="seconds",
            ).observe(duration)
        else:
            result.acks_lost += 1

    # Main loop --------------------------------------------------------------

    def run(self) -> WorkerResult:
        options = self.options
        result = WorkerResult(worker_id=self.worker_id)
        with obs_core.use(self.telemetry):
            self.queue.record_heartbeat(self.worker_id, jobs_done=0)
            while not self._stop.is_set():
                if options.max_jobs is not None and result.jobs_done >= options.max_jobs:
                    break
                job = self._queue_io(
                    "lease", lambda: self.queue.lease(self.worker_id, options.lease_ttl)
                )
                if job is None:
                    if options.drain:
                        # Back off only if undone work exists but is not yet
                        # runnable (backoff windows / other workers' leases).
                        stats = self.queue.stats()
                        if stats["depth"] == 0:
                            break
                    self.queue.record_heartbeat(
                        self.worker_id, jobs_done=result.jobs_done
                    )
                    if self._stop.wait(options.poll_interval):
                        break
                    continue
                self._run_job(job, result)
            self.queue.record_heartbeat(self.worker_id, jobs_done=result.jobs_done)
        if options.obs_dir:
            from repro import obs

            obs.save(
                self.telemetry, os.path.join(options.obs_dir, self.worker_id)
            )
        return result


def run_worker(options: WorkerOptions, *, queue: JobQueue | None = None) -> WorkerResult:
    """Run one worker loop to completion (the ``service worker`` CLI body)."""
    worker = Worker(options, queue=queue)
    with contextlib.ExitStack() as stack:
        if queue is None:
            stack.callback(worker.queue.close)
        return worker.run()
