"""Crash-safety proof: SIGKILL a worker mid-job, recover, converge bit-identically.

The acceptance criterion for the farm: killing a worker at the worst moment
(holding a lease, before producing a result) must leave the queue
consistent; the lease expires, the job is reclaimed and retried on another
worker, and the final result row is bit-identical — same scenario
fingerprint, same metrics keys and values — to a run that was never
interrupted.

The killed worker runs as a real subprocess under ``--fault-plan``: a
:class:`~repro.faults.plan.FaultPlan` schedules ``slow_io`` (60 s) at the
``worker.after_lease`` injection point, so the worker leases the job, then
stalls (while heartbeating) in a window the test can SIGKILL
deterministically — exactly the shape of a worker that dies
mid-generation, without racing the generator's wall clock.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.campaign.runner import run_scenario
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore, deterministic_view
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service.queue import DONE, LEASED, PENDING, JobQueue
from repro.service.worker import WorkerOptions, run_worker

SPEC_DOC = {
    "name": "crash",
    "base": {"num_directories": 6, "fs_size_bytes": 8 * 1024 * 1024, "seed": 11},
    "sweep": {"num_files": [30]},
    "steps": [{"step": "summary"}],
}

LEASE_TTL = 1.0

#: Stall the victim for 60 s between lease and execution.
STALL_AFTER_LEASE = FaultPlan(
    (FaultSpec("worker.after_lease", "slow_io", delay_seconds=60.0),)
)


def _wait_for(predicate, *, timeout: float, what: str):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    pytest.fail(f"timed out after {timeout}s waiting for {what}")


def _spawn_victim(tmp_path: Path, queue_path: str, store_path: str):
    plan_path = tmp_path / "stall-after-lease.json"
    plan_path.write_text(json.dumps(STALL_AFTER_LEASE.to_dict()))
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    command = [
        sys.executable,
        "-m",
        "repro.core.cli",
        "service",
        "worker",
        "--queue",
        queue_path,
        "--store",
        store_path,
        "--worker-id",
        "victim",
        "--lease-ttl",
        str(LEASE_TTL),
        "--poll-interval",
        "0.05",
        "--fault-plan",
        str(plan_path),
    ]
    return subprocess.Popen(env=env, args=command)


class TestWorkerCrashRecovery:
    def test_sigkill_mid_job_recovers_bit_identically(self, tmp_path):
        queue_path = str(tmp_path / "q.sqlite")
        store_path = str(tmp_path / "r.jsonl")
        spec = CampaignSpec.from_dict(SPEC_DOC)
        (scenario,) = spec.expand()
        with JobQueue(queue_path, backoff_base=0.05, backoff_cap=0.1) as queue:
            queue.submit(spec, store_path, max_attempts=3)

            # A worker leases the job, stalls in the fault window... and dies.
            victim = _spawn_victim(tmp_path, queue_path, store_path)
            try:
                _wait_for(
                    lambda: queue.job(1).state == LEASED,
                    timeout=30.0,
                    what="the victim worker to lease the job",
                )
                assert queue.job(1).worker == "victim"
                os.kill(victim.pid, signal.SIGKILL)
                victim.wait(timeout=10.0)
            finally:
                if victim.poll() is None:  # pragma: no cover - cleanup
                    victim.kill()
                    victim.wait()

            # Nobody extends the lease now; it expires and is reclaimed.
            _wait_for(
                lambda: queue.reclaim_expired() or queue.job(1).state == PENDING,
                timeout=LEASE_TTL * 10,
                what="the lease to expire and the job to be reclaimed",
            )
            job = queue.job(1)
            assert job.state == PENDING
            assert job.attempts == 1
            assert "lease expired" in job.error
            assert "victim" in job.error
            assert queue.counters()["lease_reclaims"] == 1.0
            # The store saw nothing from the killed attempt.
            assert not ResultStore(store_path).exists()

            # A second worker (no fault) retries and completes the job.
            result = run_worker(
                WorkerOptions(
                    queue_path=queue_path,
                    store_path=store_path,
                    worker_id="recovery",
                    drain=True,
                    lease_ttl=30.0,
                    poll_interval=0.05,
                )
            )
            assert result.jobs_done == 1
            job = queue.job(1)
            assert job.state == DONE
            assert job.worker == "recovery"
            assert job.attempts == 2  # the crashed attempt plus the retry

        # The recovered row is bit-identical to an uninterrupted run.
        (stored,) = ResultStore(store_path).rows()
        assert stored["fingerprint"] == scenario.fingerprint
        clean = json.loads(json.dumps(run_scenario(scenario.payload()), sort_keys=True))
        assert set(stored["metrics"]) == set(clean["metrics"])
        canon = lambda row: json.dumps(
            deterministic_view(row), sort_keys=True, separators=(",", ":")
        )
        assert canon(stored) == canon(clean)

    def test_repeated_crashes_exhaust_budget_to_dead_letter(self, tmp_path):
        """Lease expiry consumes the retry budget like any other failure."""
        queue_path = str(tmp_path / "q.sqlite")
        store_path = str(tmp_path / "r.jsonl")
        with JobQueue(queue_path, backoff_base=0.05, backoff_cap=0.1) as queue:
            queue.submit(SPEC_DOC, store_path, max_attempts=2)
            for _ in range(2):
                victim = _spawn_victim(tmp_path, queue_path, store_path)
                try:
                    _wait_for(
                        lambda: queue.job(1).state == LEASED,
                        timeout=30.0,
                        what="a victim worker to lease the job",
                    )
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.wait(timeout=10.0)
                finally:
                    if victim.poll() is None:  # pragma: no cover - cleanup
                        victim.kill()
                        victim.wait()
                _wait_for(
                    lambda: bool(queue.reclaim_expired())
                    or queue.job(1).state != LEASED,
                    timeout=LEASE_TTL * 10,
                    what="the expired lease to be reclaimed",
                )
            job = queue.job(1)
            assert job.state == "dead"
            assert job.attempts == 2
            assert queue.counters()["lease_reclaims"] == 2.0
