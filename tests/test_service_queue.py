"""JobQueue semantics: atomic leases, backoff retries, reclaim, dead letters.

Everything here runs against a fake clock so lease expiry and backoff
windows are stepped deterministically instead of slept through.
"""

from __future__ import annotations

import sqlite3
import threading

import pytest

from repro.campaign.spec import CampaignSpec
from repro.service.queue import (
    DEAD,
    DONE,
    LEASED,
    PENDING,
    JobQueue,
    QueueError,
)

SPEC_DOC = {
    "name": "queue",
    "base": {"num_directories": 6, "fs_size_bytes": 8 * 1024 * 1024},
    "sweep": {"num_files": [30, 40], "seed": [1]},
    "steps": [{"step": "summary"}],
}


class FakeClock:
    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture()
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture()
def queue(tmp_path, clock) -> JobQueue:
    with JobQueue(
        str(tmp_path / "q.sqlite"), backoff_base=2.0, backoff_cap=60.0, clock=clock
    ) as q:
        yield q


@pytest.fixture()
def spec() -> CampaignSpec:
    return CampaignSpec.from_dict(SPEC_DOC)


class TestSubmit:
    def test_expands_spec_into_pending_jobs(self, queue, spec):
        result = queue.submit(spec, "r.jsonl")
        assert result.campaign_id == "c1"
        assert result.total == 2
        assert len(result.enqueued) == 2
        jobs = queue.jobs()
        assert [job.state for job in jobs] == [PENDING, PENDING]
        assert {job.fingerprint for job in jobs} == {
            scenario.fingerprint for scenario in spec.expand()
        }

    def test_duplicate_submission_dedupes_by_fingerprint(self, queue, spec):
        queue.submit(spec, "r.jsonl")
        result = queue.submit(spec, "r.jsonl")
        assert result.campaign_id == "c2"
        assert len(result.deduped) == 2
        assert len(result.enqueued) == 0
        assert len(queue.jobs()) == 2
        # The second campaign still tracks the shared jobs.
        assert queue.campaign("c2")["total"] == 2

    def test_completed_fingerprints_are_born_done(self, queue, spec):
        done_fp = spec.expand()[0].fingerprint
        result = queue.submit(spec, "r.jsonl", completed_fingerprints={done_fp})
        assert len(result.already_done) == 1
        assert len(result.enqueued) == 1
        states = {job.fingerprint: job.state for job in queue.jobs()}
        assert states[done_fp] == DONE

    def test_accepts_plain_dict_documents(self, queue):
        result = queue.submit(SPEC_DOC, "r.jsonl")
        assert result.total == 2

    def test_rejects_nonpositive_retry_budget(self, queue, spec):
        with pytest.raises(QueueError, match="max_attempts"):
            queue.submit(spec, "r.jsonl", max_attempts=0)


class TestLeaseAckFail:
    def test_lease_claims_oldest_pending(self, queue, spec):
        queue.submit(spec, "r.jsonl")
        job = queue.lease("w1", ttl_seconds=30.0)
        assert job is not None
        assert job.state == LEASED
        assert job.worker == "w1"
        assert job.attempts == 1
        assert job.job_id == 1

    def test_leased_job_is_not_double_claimed(self, queue, spec):
        queue.submit(spec, "r.jsonl")
        first = queue.lease("w1", ttl_seconds=30.0)
        second = queue.lease("w2", ttl_seconds=30.0)
        assert first.job_id != second.job_id
        assert queue.lease("w3", ttl_seconds=30.0) is None

    def test_ack_completes(self, queue, spec):
        queue.submit(spec, "r.jsonl")
        job = queue.lease("w1", ttl_seconds=30.0)
        assert queue.ack(job.job_id, "w1", duration_seconds=1.5, result={"ok": True})
        fresh = queue.job(job.job_id)
        assert fresh.state == DONE
        assert fresh.duration_seconds == 1.5
        assert fresh.result == {"ok": True}

    def test_ack_from_wrong_worker_is_rejected(self, queue, spec):
        queue.submit(spec, "r.jsonl")
        job = queue.lease("w1", ttl_seconds=30.0)
        assert not queue.ack(job.job_id, "w2", duration_seconds=1.0)
        assert queue.job(job.job_id).state == LEASED

    def test_fail_retries_with_exponential_backoff(self, queue, spec, clock):
        queue.submit(spec, "r.jsonl", max_attempts=3)
        job = queue.lease("w1", ttl_seconds=30.0)
        assert queue.fail(job.job_id, "w1", "boom") == "retried"
        fresh = queue.job(job.job_id)
        assert fresh.state == PENDING
        assert fresh.error == "boom"
        # backoff_base * 2**(attempts-1) = 2.0 after the first attempt
        assert fresh.not_before == pytest.approx(clock.now + 2.0)
        # Not runnable until the backoff window passes (job 2 leases instead).
        assert queue.lease("w1", ttl_seconds=30.0).job_id == 2
        clock.advance(2.1)
        assert queue.lease("w1", ttl_seconds=30.0).job_id == job.job_id

    def test_exhausted_retries_park_dead_with_error(self, queue, spec, clock):
        queue.submit(spec, "r.jsonl", max_attempts=2)
        for attempt in range(2):
            clock.advance(60.0)
            job = queue.lease("w1", ttl_seconds=30.0)
            outcome = queue.fail(job.job_id, "w1", f"traceback {attempt}")
        assert outcome == "dead"
        fresh = queue.job(job.job_id)
        assert fresh.state == DEAD
        assert fresh.error == "traceback 1"
        assert queue.counters()["jobs_dead"] == 1.0

    def test_retry_dead_resurrects_with_fresh_budget(self, queue, spec, clock):
        queue.submit(spec, "r.jsonl", max_attempts=1)
        job = queue.lease("w1", ttl_seconds=30.0)
        queue.fail(job.job_id, "w1", "boom")
        resurrected = queue.retry_dead(job.job_id)
        assert resurrected.state == PENDING
        assert resurrected.attempts == 0
        with pytest.raises(QueueError, match="not dead-lettered"):
            queue.retry_dead(job.job_id)


class TestLeaseExpiry:
    def test_expired_lease_is_reclaimed_on_next_lease(self, queue, spec, clock):
        queue.submit(spec, "r.jsonl", max_attempts=3)
        crashed = queue.lease("w1", ttl_seconds=10.0)
        clock.advance(11.0)
        # w2's lease call heals the queue, then claims the younger job first
        # (the reclaimed one is in its backoff window).
        queue.lease("w2", ttl_seconds=10.0)
        fresh = queue.job(crashed.job_id)
        assert fresh.state == PENDING
        assert "lease expired" in fresh.error
        assert "w1" in fresh.error
        assert queue.counters()["lease_reclaims"] == 1.0

    def test_extend_lease_keeps_job_alive(self, queue, spec, clock):
        queue.submit(spec, "r.jsonl")
        job = queue.lease("w1", ttl_seconds=10.0)
        clock.advance(8.0)
        assert queue.extend_lease(job.job_id, "w1", 10.0)
        clock.advance(8.0)
        assert queue.reclaim_expired() == 0
        assert queue.job(job.job_id).state == LEASED

    def test_lost_lease_cannot_be_extended(self, queue, spec, clock):
        queue.submit(spec, "r.jsonl")
        job = queue.lease("w1", ttl_seconds=10.0)
        clock.advance(11.0)
        queue.reclaim_expired()
        assert not queue.extend_lease(job.job_id, "w1", 10.0)

    def test_expiry_past_budget_parks_dead(self, queue, spec, clock):
        queue.submit(spec, "r.jsonl", max_attempts=1)
        job = queue.lease("w1", ttl_seconds=10.0)
        clock.advance(11.0)
        queue.reclaim_expired()
        assert queue.job(job.job_id).state == DEAD


class TestIntrospection:
    def test_campaign_progress_and_state(self, queue, spec, clock):
        campaign_id = queue.submit(spec, "r.jsonl").campaign_id
        info = queue.campaign(campaign_id)
        assert info["state"] == "running"
        assert info["done"] == 0
        job = queue.lease("w1", ttl_seconds=30.0)
        queue.ack(job.job_id, "w1", duration_seconds=1.0)
        job = queue.lease("w1", ttl_seconds=30.0)
        queue.ack(job.job_id, "w1", duration_seconds=1.0)
        info = queue.campaign(campaign_id)
        assert info["state"] == "complete"
        assert info["progress"] == 1.0

    def test_stats_depth_and_workers(self, queue, spec, clock):
        queue.submit(spec, "r.jsonl")
        queue.record_heartbeat("w1", jobs_done=3)
        stats = queue.stats()
        assert stats["depth"] == 2
        assert stats["jobs"][PENDING] == 2
        assert [worker["worker"] for worker in stats["workers"]] == ["w1"]
        assert stats["oldest_pending_age_seconds"] == 0.0

    def test_unknown_ids_raise(self, queue):
        with pytest.raises(QueueError, match="no such job"):
            queue.job(99)
        with pytest.raises(QueueError, match="no such campaign"):
            queue.campaign("c99")

    def test_gc_collects_done_jobs_only(self, queue, spec, clock):
        queue.submit(spec, "r.jsonl")
        job = queue.lease("w1", ttl_seconds=30.0)
        queue.ack(job.job_id, "w1", duration_seconds=1.0)
        report = queue.gc(dry_run=True)
        assert report["jobs_collected"] == 1
        assert len(queue.jobs()) == 2  # dry run changed nothing
        report = queue.gc()
        assert report["jobs_collected"] == 1
        states = [j.state for j in queue.jobs()]
        assert states == [PENDING]


class TestCrossConnection:
    """Separate JobQueue objects on one path model separate processes."""

    def test_lease_handoff_is_atomic_across_connections(self, tmp_path, clock, spec):
        path = str(tmp_path / "q.sqlite")
        with JobQueue(path, clock=clock) as first, JobQueue(path, clock=clock) as second:
            first.submit(spec, "r.jsonl")
            jobs = [first.lease("w1", 30.0), second.lease("w2", 30.0)]
            assert {job.job_id for job in jobs} == {1, 2}
            assert second.lease("w3", 30.0) is None

    def test_concurrent_submitters_enqueue_each_scenario_once(self, tmp_path, spec):
        path = str(tmp_path / "q.sqlite")
        results = []
        barrier = threading.Barrier(2)

        def client(name: str) -> None:
            with JobQueue(path) as q:
                barrier.wait()
                results.append(q.submit(spec, "r.jsonl"))

        threads = [threading.Thread(target=client, args=(f"t{i}",)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        enqueued = sum(len(result.enqueued) for result in results)
        deduped = sum(len(result.deduped) for result in results)
        assert enqueued == 2
        assert deduped == 2
        with JobQueue(path) as q:
            assert len(q.jobs()) == 2

    def test_connections_opening_a_fresh_file_at_once_all_succeed(self, tmp_path):
        """Racing WAL switches on a new file must not fail a connection."""
        errors = []
        for round_index in range(20):
            path = str(tmp_path / f"q{round_index}.sqlite")
            barrier = threading.Barrier(4)

            def open_queue() -> None:
                barrier.wait()
                try:
                    JobQueue(path).close()
                except sqlite3.OperationalError as error:
                    errors.append(error)

            threads = [threading.Thread(target=open_queue) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert errors == []
