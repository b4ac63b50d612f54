"""Farm workers end to end: drain a queue, dedupe, fail, share the cache."""

from __future__ import annotations

import json

import pytest

from repro.campaign.runner import run_scenario
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore, deterministic_view
from repro.pipeline.cache import cache_lock
from repro.pipeline.registry import PostGenerationStage, register_stage
from repro.service import worker as worker_module
from repro.service.queue import DEAD, DONE, JobQueue
from repro.service.worker import Worker, WorkerOptions, run_worker

SPEC_DOC = {
    "name": "farm",
    "base": {"num_directories": 6, "fs_size_bytes": 8 * 1024 * 1024},
    "sweep": {"num_files": [30, 40], "seed": [1]},
    "steps": [{"step": "summary"}],
}


@register_stage
class _ExplodeStage(PostGenerationStage):
    name = "service_test_explode"

    def execute(self, image, config):
        raise RuntimeError("scenario exploded on purpose")


FAILING_DOC = {
    "name": "doomed",
    "base": {"num_directories": 6, "fs_size_bytes": 8 * 1024 * 1024, "num_files": 30},
    "steps": [{"step": "service_test_explode"}],
}


@pytest.fixture()
def paths(tmp_path):
    return str(tmp_path / "q.sqlite"), str(tmp_path / "r.jsonl")


def _drain(queue_path: str, store_path: str, **overrides):
    options = WorkerOptions(
        queue_path=queue_path,
        store_path=store_path,
        drain=True,
        lease_ttl=30.0,
        poll_interval=0.05,
        **overrides,
    )
    return run_worker(options)


class TestWorkerDrain:
    def test_drains_queue_and_appends_rows(self, paths):
        queue_path, store_path = paths
        with JobQueue(queue_path) as queue:
            queue.submit(SPEC_DOC, store_path)
        result = _drain(queue_path, store_path)
        assert result.jobs_done == 2
        assert result.jobs_failed == 0
        store = ResultStore(store_path)
        assert len(store.latest_rows()) == 2
        with JobQueue(queue_path) as queue:
            assert all(job.state == DONE for job in queue.jobs())
            assert queue.counters()["jobs_done"] == 2.0

    def test_rows_match_direct_run_scenario(self, paths):
        queue_path, store_path = paths
        spec = CampaignSpec.from_dict(SPEC_DOC)
        with JobQueue(queue_path) as queue:
            queue.submit(spec, store_path)
        _drain(queue_path, store_path)
        stored = {
            row["fingerprint"]: deterministic_view(row)
            for row in ResultStore(store_path)
        }
        for scenario in spec.expand():
            clean = run_scenario(scenario.payload())
            # The store's rows crossed a JSON round-trip; canonicalize both.
            canon = lambda row: json.loads(
                json.dumps(deterministic_view(row), sort_keys=True)
            )
            assert canon(clean) == canon(stored[scenario.fingerprint])

    def test_duplicate_submissions_execute_once(self, paths):
        queue_path, store_path = paths
        with JobQueue(queue_path) as queue:
            queue.submit(SPEC_DOC, store_path)
            queue.submit(SPEC_DOC, store_path)  # second tenant, same sweep
        result = _drain(queue_path, store_path)
        assert result.jobs_done == 2  # not 4
        assert len(ResultStore(store_path).rows()) == 2

    def test_max_jobs_caps_the_loop(self, paths):
        queue_path, store_path = paths
        with JobQueue(queue_path) as queue:
            queue.submit(SPEC_DOC, store_path)
        result = _drain(queue_path, store_path, max_jobs=1)
        assert result.jobs_done == 1
        with JobQueue(queue_path) as queue:
            assert queue.stats()["depth"] == 1

    def test_worker_telemetry_counts_jobs(self, paths):
        queue_path, store_path = paths
        with JobQueue(queue_path) as queue:
            queue.submit(SPEC_DOC, store_path)
        worker = Worker(
            WorkerOptions(
                queue_path=queue_path,
                store_path=store_path,
                drain=True,
                poll_interval=0.05,
            )
        )
        try:
            worker.run()
            family = worker.telemetry.counter(
                "service_jobs_done_total", "jobs completed by this worker"
            )
            assert [state.value for _, state in family.series_items()] == [2.0]
        finally:
            worker.queue.close()


class TestWorkerFailure:
    def test_failing_scenario_retries_then_dead_letters(self, paths):
        queue_path, store_path = paths
        with JobQueue(queue_path, backoff_base=0.05, backoff_cap=0.1) as queue:
            queue.submit(FAILING_DOC, store_path, max_attempts=2)
        result = _drain(queue_path, store_path)
        assert result.jobs_done == 0
        assert result.jobs_failed == 2
        with JobQueue(queue_path) as queue:
            (job,) = queue.jobs()
            assert job.state == DEAD
            assert job.attempts == 2
            assert "scenario exploded on purpose" in job.error
            assert queue.counters()["jobs_dead"] == 1.0
        assert not ResultStore(store_path).exists()


class TestCacheNegotiation:
    def test_busy_cache_retries_then_shares(self, paths, tmp_path, monkeypatch):
        queue_path, store_path = paths
        cache_dir = str(tmp_path / "cache")
        with JobQueue(queue_path) as queue:
            queue.submit(SPEC_DOC, store_path)
        monkeypatch.setattr(worker_module, "CACHE_BUSY_RETRIES", 2)
        monkeypatch.setattr(worker_module, "CACHE_BUSY_BACKOFF", 0.01)
        # Another process-alike holds the lock for the whole drain: the
        # worker must retry with jitter, then fall back to sharing.
        with cache_lock(cache_dir, owner="squatter"):
            result = _drain(queue_path, store_path, cache_dir=cache_dir)
        assert result.jobs_done == 2
        assert result.cache_busy_retries == 2 * 2  # per job: retries before sharing
        assert len(ResultStore(store_path).latest_rows()) == 2

    def test_free_cache_is_used_and_released(self, paths, tmp_path):
        queue_path, store_path = paths
        cache_dir = str(tmp_path / "cache")
        with JobQueue(queue_path) as queue:
            queue.submit(SPEC_DOC, store_path)
        result = _drain(queue_path, store_path, cache_dir=cache_dir)
        assert result.jobs_done == 2
        assert result.cache_busy_retries == 0
        import os

        assert not os.path.exists(os.path.join(cache_dir, ".lock"))
