"""The sqlite-backed durable job queue: atomic leases, backoff, dead letters.

One :class:`JobQueue` database is the farm's source of truth.  Campaign
submissions expand to one *job* per scenario, keyed — and deduplicated — by
the scenario's spec+seed fingerprint (:func:`repro.campaign.spec.scenario_fingerprint`):
a ``UNIQUE`` index on the fingerprint means two clients racing to submit the
same sweep enqueue every scenario exactly once, and a campaign whose
scenarios are already in the result store is born complete.

Jobs move through a small state machine::

    pending ──lease──▶ leased ──ack──▶ done
       ▲                 │
       │   reclaim /     ├──fail──▶ pending (retry, exponential backoff)
       └── lease expiry ─┘             │ attempts exhausted
                                       ▼
                                     dead  (parked with the captured traceback)

Leases are *time-limited*: a worker that crashes or hangs simply stops
extending its lease, and the next :meth:`JobQueue.reclaim_expired` (run by
every ``lease`` call, so the queue is self-healing) returns the job to
``pending`` with an exponential-backoff ``not_before``.  After
``max_attempts`` the job is parked in the ``dead`` state with its last error
so a hopeless scenario can never wedge the farm.

Everything is a single sqlite file in WAL mode; every mutation runs inside a
``BEGIN IMMEDIATE`` transaction, which is what makes lease handoff atomic
across worker processes and HTTP server threads.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.campaign.spec import CampaignSpec
from repro.faults import plan as fault_plan

__all__ = [
    "QUEUE_FORMAT_VERSION",
    "PENDING",
    "LEASED",
    "DONE",
    "DEAD",
    "STATES",
    "DURATION_BUCKETS",
    "QueueError",
    "Job",
    "SubmitResult",
    "JobQueue",
]

#: Bumped when the queue schema changes incompatibly.
QUEUE_FORMAT_VERSION = 1

PENDING = "pending"
LEASED = "leased"
DONE = "done"
DEAD = "dead"
STATES = (PENDING, LEASED, DONE, DEAD)

#: Histogram buckets (seconds) for recorded job durations, shared by the
#: ``/metrics`` snapshot and each worker's own telemetry.
DURATION_BUCKETS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 300.0, 1800.0)

#: Counter rows maintained by the queue (exposed by stats() and /metrics).
_COUNTERS = (
    "lease_reclaims",
    "job_retries",
    "jobs_dead",
    "jobs_leased",
    "jobs_done",
    "jobs_failed",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS campaigns (
    rowid_alias INTEGER PRIMARY KEY AUTOINCREMENT,
    campaign_id TEXT NOT NULL UNIQUE,
    name TEXT NOT NULL,
    spec TEXT NOT NULL,
    store TEXT NOT NULL,
    created REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id INTEGER PRIMARY KEY AUTOINCREMENT,
    fingerprint TEXT NOT NULL UNIQUE,
    campaign_id TEXT NOT NULL,
    scenario_id TEXT NOT NULL,
    payload TEXT NOT NULL,
    state TEXT NOT NULL DEFAULT 'pending',
    attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL,
    not_before REAL NOT NULL DEFAULT 0,
    lease_expires REAL,
    worker TEXT,
    error TEXT,
    result TEXT,
    duration_seconds REAL,
    created REAL NOT NULL,
    updated REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, not_before);
CREATE TABLE IF NOT EXISTS campaign_jobs (
    campaign_id TEXT NOT NULL,
    job_id INTEGER NOT NULL,
    PRIMARY KEY (campaign_id, job_id)
);
CREATE TABLE IF NOT EXISTS counters (
    name TEXT PRIMARY KEY,
    value REAL NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS heartbeats (
    worker TEXT PRIMARY KEY,
    beat REAL NOT NULL,
    job_id INTEGER,
    jobs_done INTEGER NOT NULL DEFAULT 0
);
"""


class QueueError(RuntimeError):
    """Raised on invalid queue operations (unknown ids, bad submissions)."""


@dataclass(frozen=True)
class Job:
    """One scenario's row in the queue (a snapshot, not a live handle)."""

    job_id: int
    fingerprint: str
    campaign_id: str
    scenario_id: str
    payload: dict
    state: str
    attempts: int
    max_attempts: int
    not_before: float
    lease_expires: float | None
    worker: str | None
    error: str | None
    result: dict | None
    duration_seconds: float | None
    created: float
    updated: float

    def as_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "fingerprint": self.fingerprint,
            "campaign_id": self.campaign_id,
            "scenario_id": self.scenario_id,
            "state": self.state,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "not_before": self.not_before,
            "lease_expires": self.lease_expires,
            "worker": self.worker,
            "error": self.error,
            "result": self.result,
            "duration_seconds": self.duration_seconds,
            "created": self.created,
            "updated": self.updated,
        }


@dataclass
class SubmitResult:
    """What one campaign submission did to the queue."""

    campaign_id: str
    name: str
    total: int
    enqueued: list[str] = field(default_factory=list)
    deduped: list[str] = field(default_factory=list)
    already_done: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "campaign": self.campaign_id,
            "name": self.name,
            "total": self.total,
            "enqueued": len(self.enqueued),
            "deduped": len(self.deduped),
            "already_done": len(self.already_done),
        }


def _row_to_job(row: sqlite3.Row) -> Job:
    return Job(
        job_id=int(row["job_id"]),
        fingerprint=str(row["fingerprint"]),
        campaign_id=str(row["campaign_id"]),
        scenario_id=str(row["scenario_id"]),
        payload=json.loads(row["payload"]),
        state=str(row["state"]),
        attempts=int(row["attempts"]),
        max_attempts=int(row["max_attempts"]),
        not_before=float(row["not_before"]),
        lease_expires=(None if row["lease_expires"] is None else float(row["lease_expires"])),
        worker=(None if row["worker"] is None else str(row["worker"])),
        error=(None if row["error"] is None else str(row["error"])),
        result=(None if row["result"] is None else json.loads(row["result"])),
        duration_seconds=(
            None if row["duration_seconds"] is None else float(row["duration_seconds"])
        ),
        created=float(row["created"]),
        updated=float(row["updated"]),
    )


class JobQueue:
    """A durable, multi-process job queue over one sqlite database file.

    Args:
        path: the sqlite database file (created with WAL journaling).
        default_max_attempts: retry budget for jobs submitted without an
            explicit one; a job's *last* attempt failing parks it ``dead``.
        backoff_base: seconds of ``not_before`` delay after the first
            failure; doubles per subsequent attempt (``base * 2**(n-1)``).
        backoff_cap: upper bound on the computed backoff delay.
        clock: injectable epoch clock (tests pass a fake to step time).

    The queue object is safe to share across threads (one connection guarded
    by a lock); separate *processes* each open their own ``JobQueue`` on the
    same path and coordinate purely through sqlite's locking.
    """

    def __init__(
        self,
        path: str,
        *,
        default_max_attempts: int = 3,
        backoff_base: float = 1.0,
        backoff_cap: float = 60.0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if default_max_attempts < 1:
            raise QueueError("default_max_attempts must be at least 1")
        self.path = path
        self.default_max_attempts = default_max_attempts
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self._clock = clock or time.time
        self._lock = threading.RLock()
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._conn = sqlite3.connect(path, timeout=30.0, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            # Connections opening a fresh file at once can deadlock on the WAL
            # switch; sqlite then fails one of them instead of waiting.
            for attempt in range(20):
                try:
                    self._conn.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError:
                    if attempt == 19:
                        raise
                    time.sleep(0.05)
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.executescript(_SCHEMA)
            self._conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('format', ?)",
                (str(QUEUE_FORMAT_VERSION),),
            )
            for name in _COUNTERS:
                self._conn.execute(
                    "INSERT OR IGNORE INTO counters (name, value) VALUES (?, 0)", (name,)
                )
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # Transaction plumbing ---------------------------------------------------

    def _tx(self) -> "sqlite3.Cursor":
        """A cursor inside a fresh IMMEDIATE transaction (caller commits)."""
        cursor = self._conn.cursor()
        cursor.execute("BEGIN IMMEDIATE")
        return cursor

    def _bump(self, cursor: sqlite3.Cursor, counter: str, amount: float = 1.0) -> None:
        cursor.execute(
            "UPDATE counters SET value = value + ? WHERE name = ?", (amount, counter)
        )

    def now(self) -> float:
        return float(self._clock())

    # Submission -------------------------------------------------------------

    def submit(
        self,
        spec: "CampaignSpec | Mapping[str, object]",
        store_path: str,
        *,
        max_attempts: int | None = None,
        completed_fingerprints: "set[str] | None" = None,
    ) -> SubmitResult:
        """Expand ``spec`` into jobs, deduplicating by scenario fingerprint.

        Every scenario either (a) enqueues a fresh ``pending`` job, (b) joins
        an existing job with the same fingerprint — submitted by this or any
        other campaign, in any state — or (c) is recorded ``done`` on arrival
        because its fingerprint appears in ``completed_fingerprints``
        (typically :meth:`repro.campaign.store.ResultStore.fingerprints`).
        The campaign tracks all three through the ``campaign_jobs`` link
        table, so its progress counts deduped work it never enqueued.
        """
        if not isinstance(spec, CampaignSpec):
            spec = CampaignSpec.from_dict(spec)
        budget = self.default_max_attempts if max_attempts is None else int(max_attempts)
        if budget < 1:
            raise QueueError("max_attempts must be at least 1")
        scenarios = spec.expand()
        completed = completed_fingerprints or set()
        now = self.now()
        with self._lock:
            cursor = self._tx()
            try:
                cursor.execute(
                    "INSERT INTO campaigns (campaign_id, name, spec, store, created) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (
                        "",  # placeholder; the id embeds the rowid assigned below
                        spec.name,
                        json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":")),
                        store_path,
                        now,
                    ),
                )
                campaign_id = f"c{cursor.lastrowid}"
                cursor.execute(
                    "UPDATE campaigns SET campaign_id = ? WHERE rowid_alias = ?",
                    (campaign_id, cursor.lastrowid),
                )
                result = SubmitResult(
                    campaign_id=campaign_id, name=spec.name, total=len(scenarios)
                )
                for scenario in scenarios:
                    payload = scenario.payload()
                    state = DONE if scenario.fingerprint in completed else PENDING
                    cursor.execute(
                        "INSERT OR IGNORE INTO jobs (fingerprint, campaign_id, "
                        "scenario_id, payload, state, max_attempts, created, updated) "
                        "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                        (
                            scenario.fingerprint,
                            campaign_id,
                            scenario.scenario_id,
                            json.dumps(payload, sort_keys=True, separators=(",", ":")),
                            state,
                            budget,
                            now,
                            now,
                        ),
                    )
                    if cursor.rowcount:
                        if state == DONE:
                            result.already_done.append(scenario.scenario_id)
                        else:
                            result.enqueued.append(scenario.scenario_id)
                        job_id = cursor.lastrowid
                    else:
                        result.deduped.append(scenario.scenario_id)
                        job_id = cursor.execute(
                            "SELECT job_id FROM jobs WHERE fingerprint = ?",
                            (scenario.fingerprint,),
                        ).fetchone()["job_id"]
                    cursor.execute(
                        "INSERT OR IGNORE INTO campaign_jobs (campaign_id, job_id) "
                        "VALUES (?, ?)",
                        (campaign_id, job_id),
                    )
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return result

    # Lease / ack / fail -----------------------------------------------------

    def lease(self, worker_id: str, ttl_seconds: float) -> Job | None:
        """Atomically claim the oldest runnable pending job, or None.

        Expired leases are reclaimed first (the queue heals itself on every
        lease attempt), then the oldest ``pending`` job whose ``not_before``
        has passed flips to ``leased`` with a ``lease_expires`` deadline this
        worker must keep extending (:meth:`extend_lease`) while it runs.
        """
        if ttl_seconds <= 0:
            raise QueueError("lease ttl must be positive")
        fault_plan.check("queue.lease")
        self.reclaim_expired()
        now = self.now()
        with self._lock:
            cursor = self._tx()
            try:
                row = cursor.execute(
                    "SELECT * FROM jobs WHERE state = ? AND not_before <= ? "
                    "ORDER BY job_id LIMIT 1",
                    (PENDING, now),
                ).fetchone()
                if row is None:
                    self._conn.commit()
                    return None
                cursor.execute(
                    "UPDATE jobs SET state = ?, worker = ?, lease_expires = ?, "
                    "attempts = attempts + 1, updated = ? WHERE job_id = ?",
                    (LEASED, worker_id, now + ttl_seconds, now, row["job_id"]),
                )
                self._bump(cursor, "jobs_leased")
                fresh = cursor.execute(
                    "SELECT * FROM jobs WHERE job_id = ?", (row["job_id"],)
                ).fetchone()
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return _row_to_job(fresh)

    def extend_lease(self, job_id: int, worker_id: str, ttl_seconds: float) -> bool:
        """Push the lease deadline out; False if this worker lost the lease."""
        now = self.now()
        with self._lock:
            cursor = self._tx()
            try:
                cursor.execute(
                    "UPDATE jobs SET lease_expires = ?, updated = ? "
                    "WHERE job_id = ? AND worker = ? AND state = ?",
                    (now + ttl_seconds, now, job_id, worker_id, LEASED),
                )
                extended = bool(cursor.rowcount)
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return extended

    def ack(
        self,
        job_id: int,
        worker_id: str,
        *,
        duration_seconds: float,
        result: Mapping[str, object] | None = None,
    ) -> bool:
        """Complete a leased job; False if the lease was lost in the meantime.

        A late ack after a lease reclaim is not an error: determinism means
        the re-executed job produced the identical result row, so the loser
        simply discards its copy (the caller must treat ``False`` as "someone
        else owns this now", not as a failure).
        """
        fault_plan.check("queue.ack")
        now = self.now()
        with self._lock:
            cursor = self._tx()
            try:
                cursor.execute(
                    "UPDATE jobs SET state = ?, lease_expires = NULL, error = NULL, "
                    "result = ?, duration_seconds = ?, updated = ? "
                    "WHERE job_id = ? AND worker = ? AND state = ?",
                    (
                        DONE,
                        None if result is None else json.dumps(result, sort_keys=True),
                        float(duration_seconds),
                        now,
                        job_id,
                        worker_id,
                        LEASED,
                    ),
                )
                acked = bool(cursor.rowcount)
                if acked:
                    self._bump(cursor, "jobs_done")
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return acked

    def fail(self, job_id: int, worker_id: str, error: str) -> str:
        """Record a failed attempt: retry with backoff or park dead.

        Returns ``"retried"``, ``"dead"``, or ``"lost"`` (the lease was
        already reclaimed — the captured error is recorded anyway so the
        traceback is not thrown away, but the job's state is untouched).
        """
        now = self.now()
        with self._lock:
            cursor = self._tx()
            try:
                row = cursor.execute(
                    "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
                ).fetchone()
                if row is None:
                    self._conn.commit()
                    raise QueueError(f"no such job {job_id}")
                if row["state"] != LEASED or row["worker"] != worker_id:
                    cursor.execute(
                        "UPDATE jobs SET error = COALESCE(error, ?) WHERE job_id = ?",
                        (error, job_id),
                    )
                    self._conn.commit()
                    return "lost"
                outcome = self._retry_or_park(
                    cursor, row, now, error=error, counter="jobs_failed"
                )
                self._conn.commit()
            except QueueError:
                raise
            except BaseException:
                self._conn.rollback()
                raise
        return outcome

    def _retry_or_park(
        self,
        cursor: sqlite3.Cursor,
        row: sqlite3.Row,
        now: float,
        *,
        error: str,
        counter: str,
    ) -> str:
        """Shared fail/reclaim tail: backoff retry or dead-letter parking."""
        self._bump(cursor, counter)
        attempts = int(row["attempts"])
        if attempts >= int(row["max_attempts"]):
            cursor.execute(
                "UPDATE jobs SET state = ?, lease_expires = NULL, error = ?, "
                "updated = ? WHERE job_id = ?",
                (DEAD, error, now, row["job_id"]),
            )
            self._bump(cursor, "jobs_dead")
            return "dead"
        backoff = min(self.backoff_cap, self.backoff_base * (2.0 ** (attempts - 1)))
        cursor.execute(
            "UPDATE jobs SET state = ?, lease_expires = NULL, worker = NULL, "
            "error = ?, not_before = ?, updated = ? WHERE job_id = ?",
            (PENDING, error, now + backoff, now, row["job_id"]),
        )
        self._bump(cursor, "job_retries")
        return "retried"

    def reclaim_expired(self) -> int:
        """Return every expired lease to the queue (or park it dead).

        A crashed or hung worker stops extending its lease; once
        ``lease_expires`` passes, the job is handed back with exponential
        backoff exactly as if the worker had reported a failure — except the
        recorded error notes the expiry, since the worker kept no appointment
        to report anything.
        """
        now = self.now()
        reclaimed = 0
        with self._lock:
            cursor = self._tx()
            try:
                rows = cursor.execute(
                    "SELECT * FROM jobs WHERE state = ? AND lease_expires IS NOT NULL "
                    "AND lease_expires < ?",
                    (LEASED, now),
                ).fetchall()
                for row in rows:
                    error = (
                        f"lease expired (worker {row['worker']!r}, attempt "
                        f"{row['attempts']}/{row['max_attempts']}): worker crashed "
                        "or stopped heartbeating"
                    )
                    self._retry_or_park(
                        cursor, row, now, error=error, counter="lease_reclaims"
                    )
                    reclaimed += 1
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        for _ in range(reclaimed):
            fault_plan.count_heal("queue", "lease_reclaim")
        return reclaimed

    def retry_dead(self, job_id: int) -> Job:
        """Manually resurrect a dead-lettered job with a fresh retry budget."""
        now = self.now()
        with self._lock:
            cursor = self._tx()
            try:
                cursor.execute(
                    "UPDATE jobs SET state = ?, attempts = 0, not_before = 0, "
                    "worker = NULL, updated = ? WHERE job_id = ? AND state = ?",
                    (PENDING, now, job_id, DEAD),
                )
                if not cursor.rowcount:
                    self._conn.commit()
                    raise QueueError(f"job {job_id} is not dead-lettered")
                row = cursor.execute(
                    "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
                ).fetchone()
                self._conn.commit()
            except QueueError:
                raise
            except BaseException:
                self._conn.rollback()
                raise
        return _row_to_job(row)

    # Heartbeats -------------------------------------------------------------

    def record_heartbeat(
        self, worker_id: str, job_id: int | None = None, jobs_done: int = 0
    ) -> None:
        """Upsert this worker's liveness row (what ``status`` and ETA read)."""
        now = self.now()
        with self._lock:
            cursor = self._tx()
            try:
                cursor.execute(
                    "INSERT INTO heartbeats (worker, beat, job_id, jobs_done) "
                    "VALUES (?, ?, ?, ?) ON CONFLICT(worker) DO UPDATE SET "
                    "beat = excluded.beat, job_id = excluded.job_id, "
                    "jobs_done = excluded.jobs_done",
                    (worker_id, now, job_id, jobs_done),
                )
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise

    def heartbeats(self, max_age_seconds: float | None = None) -> list[dict]:
        """Worker liveness rows, optionally only those beating recently."""
        now = self.now()
        with self._lock:
            rows = self._conn.execute(
                "SELECT worker, beat, job_id, jobs_done FROM heartbeats ORDER BY worker"
            ).fetchall()
        out = []
        for row in rows:
            age = now - float(row["beat"])
            if max_age_seconds is not None and age > max_age_seconds:
                continue
            out.append(
                {
                    "worker": str(row["worker"]),
                    "age_seconds": age,
                    "job_id": (None if row["job_id"] is None else int(row["job_id"])),
                    "jobs_done": int(row["jobs_done"]),
                }
            )
        return out

    # Introspection ----------------------------------------------------------

    def job(self, job_id: int) -> Job:
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM jobs WHERE job_id = ?", (job_id,)
            ).fetchone()
        if row is None:
            raise QueueError(f"no such job {job_id}")
        return _row_to_job(row)

    def jobs(self, *, state: str | None = None, campaign_id: str | None = None) -> list[Job]:
        query = "SELECT jobs.* FROM jobs"
        params: list[object] = []
        clauses = []
        if campaign_id is not None:
            query += " JOIN campaign_jobs USING (job_id)"
            clauses.append("campaign_jobs.campaign_id = ?")
            params.append(campaign_id)
        if state is not None:
            clauses.append("jobs.state = ?")
            params.append(state)
        if clauses:
            query += " WHERE " + " AND ".join(clauses)
        query += " ORDER BY jobs.job_id"
        with self._lock:
            rows = self._conn.execute(query, params).fetchall()
        return [_row_to_job(row) for row in rows]

    def campaign(self, campaign_id: str) -> dict:
        """Campaign progress: per-state counts, completeness, rate and ETA."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM campaigns WHERE campaign_id = ?", (campaign_id,)
            ).fetchone()
        if row is None:
            raise QueueError(f"no such campaign {campaign_id}")
        jobs = self.jobs(campaign_id=campaign_id)
        by_state = {state: 0 for state in STATES}
        for job in jobs:
            by_state[job.state] += 1
        done = by_state[DONE]
        total = len(jobs)
        now = self.now()
        # Completion rate over this campaign's recently finished jobs; their
        # `updated` stamps are completion times.
        finished = sorted(
            job.updated for job in jobs if job.state == DONE and job.duration_seconds is not None
        )
        recent = [stamp for stamp in finished if now - stamp <= 300.0][-20:]
        rate = 0.0
        if len(recent) >= 2 and recent[-1] > recent[0]:
            rate = (len(recent) - 1) / (recent[-1] - recent[0])
        remaining = by_state[PENDING] + by_state[LEASED]
        eta = remaining / rate if rate > 0 and remaining else None
        state = "complete" if done == total else ("failed" if by_state[DEAD] else "running")
        return {
            "campaign": campaign_id,
            "name": str(row["name"]),
            "store": str(row["store"]),
            "created": float(row["created"]),
            "state": state,
            "total": total,
            "jobs": by_state,
            "done": done,
            "progress": (done / total if total else 1.0),
            "rate_per_second": rate,
            "eta_seconds": eta,
        }

    def campaigns(self) -> list[dict]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT campaign_id FROM campaigns ORDER BY rowid_alias"
            ).fetchall()
        return [self.campaign(str(row["campaign_id"])) for row in rows]

    def counters(self) -> dict[str, float]:
        with self._lock:
            rows = self._conn.execute("SELECT name, value FROM counters").fetchall()
        return {str(row["name"]): float(row["value"]) for row in rows}

    def durations(self, limit: int = 1000) -> list[float]:
        """Recent completed-job durations (newest first), for /metrics."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT duration_seconds FROM jobs WHERE duration_seconds IS NOT NULL "
                "ORDER BY updated DESC LIMIT ?",
                (int(limit),),
            ).fetchall()
        return [float(row["duration_seconds"]) for row in rows]

    def stats(self) -> dict:
        """One queue-health snapshot: depths, counters, workers, staleness."""
        self.reclaim_expired()
        now = self.now()
        with self._lock:
            state_rows = self._conn.execute(
                "SELECT state, COUNT(*) AS n FROM jobs GROUP BY state"
            ).fetchall()
            oldest = self._conn.execute(
                "SELECT MIN(created) AS t FROM jobs WHERE state = ?", (PENDING,)
            ).fetchone()
            campaigns = self._conn.execute(
                "SELECT COUNT(*) AS n FROM campaigns"
            ).fetchone()
        by_state = {state: 0 for state in STATES}
        for row in state_rows:
            by_state[str(row["state"])] = int(row["n"])
        oldest_age = None
        if oldest["t"] is not None:
            oldest_age = now - float(oldest["t"])
        return {
            "format": QUEUE_FORMAT_VERSION,
            "path": self.path,
            "jobs": by_state,
            "depth": by_state[PENDING] + by_state[LEASED],
            "campaigns": int(campaigns["n"]),
            "counters": self.counters(),
            "workers": self.heartbeats(max_age_seconds=60.0),
            "oldest_pending_age_seconds": oldest_age,
        }

    # Garbage collection -----------------------------------------------------

    def gc(self, *, older_than_seconds: float = 0.0, dry_run: bool = False) -> dict:
        """Drop finished (``done``) jobs and stale heartbeats.

        Only terminal successes are collected — ``dead`` jobs are kept until
        an operator inspects them (``retry_dead`` or a manual purge), and
        pending/leased jobs are never touched.  The result-store row is the
        durable record of a done job, so dropping the queue row loses
        nothing.
        """
        cutoff = self.now() - max(0.0, older_than_seconds)
        with self._lock:
            cursor = self._tx()
            try:
                doomed = cursor.execute(
                    "SELECT COUNT(*) AS n FROM jobs WHERE state = ? AND updated <= ?",
                    (DONE, cutoff),
                ).fetchone()
                stale = cursor.execute(
                    "SELECT COUNT(*) AS n FROM heartbeats WHERE beat <= ?", (cutoff,)
                ).fetchone()
                report = {
                    "dry_run": dry_run,
                    "jobs_collected": int(doomed["n"]),
                    "heartbeats_collected": int(stale["n"]),
                }
                if not dry_run:
                    cursor.execute(
                        "DELETE FROM campaign_jobs WHERE job_id IN "
                        "(SELECT job_id FROM jobs WHERE state = ? AND updated <= ?)",
                        (DONE, cutoff),
                    )
                    cursor.execute(
                        "DELETE FROM jobs WHERE state = ? AND updated <= ?",
                        (DONE, cutoff),
                    )
                    cursor.execute("DELETE FROM heartbeats WHERE beat <= ?", (cutoff,))
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                raise
        return report
