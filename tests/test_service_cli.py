"""``impressions service ...`` verbs through the real top-level CLI."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core.cli import main
from repro.faults.plan import FaultPlan, FaultSpec
from repro.service.api import DRAINING_REFUSAL, FarmService, serve_forever
from repro.service.queue import PENDING, JobQueue

SPEC_DOC = {
    "name": "svc-cli",
    "base": {"num_directories": 6, "fs_size_bytes": 8 * 1024 * 1024},
    "sweep": {"num_files": [30], "seed": [1]},
    "steps": [{"step": "summary"}],
}


@pytest.fixture()
def farm_dir(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(SPEC_DOC))
    return {
        "spec": str(spec_path),
        "queue": str(tmp_path / "q.sqlite"),
        "store": str(tmp_path / "r.jsonl"),
    }


def _submit(farm_dir) -> dict:
    return [
        "service",
        "submit",
        farm_dir["spec"],
        "--queue",
        farm_dir["queue"],
        "--store",
        farm_dir["store"],
    ]


class TestServiceCli:
    def test_submit_then_worker_then_status(self, farm_dir, capsys):
        assert main(_submit(farm_dir) + ["--json"]) == 0
        submitted = json.loads(capsys.readouterr().out)
        assert submitted["enqueued"] == 1

        code = main(
            [
                "service",
                "worker",
                "--queue",
                farm_dir["queue"],
                "--store",
                farm_dir["store"],
                "--drain",
                "--poll-interval",
                "0.05",
                "--json",
            ]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["jobs_done"] == 1

        assert main(["service", "status", "--queue", farm_dir["queue"], "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["stats"]["jobs"]["done"] == 1
        assert status["campaigns"][0]["state"] == "complete"

    def test_watch_exits_zero_on_complete_campaign(self, farm_dir, capsys):
        main(_submit(farm_dir))
        main(
            [
                "service",
                "worker",
                "--queue",
                farm_dir["queue"],
                "--store",
                farm_dir["store"],
                "--drain",
                "--poll-interval",
                "0.05",
            ]
        )
        capsys.readouterr()
        code = main(
            ["service", "watch", "c1", "--queue", farm_dir["queue"], "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["state"] == "complete"

    def test_submit_wait_blocks_until_worker_finishes(self, farm_dir, capsys):
        """--wait with a worker draining in a thread completes end to end."""
        import threading

        def drain_soon() -> None:
            main(
                [
                    "service",
                    "worker",
                    "--queue",
                    farm_dir["queue"],
                    "--store",
                    farm_dir["store"],
                    "--poll-interval",
                    "0.05",
                    "--max-jobs",
                    "1",
                ]
            )

        thread = threading.Thread(target=drain_soon)
        thread.start()
        try:
            code = main(
                _submit(farm_dir)
                + ["--wait", "--poll-interval", "0.05", "--timeout", "60", "--json"]
            )
        finally:
            thread.join(timeout=60.0)
        assert code == 0
        # stdout interleaves the worker thread's summary with submit's JSON
        # payload (the only line with a "failed" key), in either order.
        (payload,) = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("{") and '"failed"' in line
        ]
        assert payload["failed"] is False
        assert payload["campaign"]["state"] == "complete"

    def test_gc_reports_collected_rows(self, farm_dir, capsys):
        main(_submit(farm_dir))
        main(
            [
                "service",
                "worker",
                "--queue",
                farm_dir["queue"],
                "--store",
                farm_dir["store"],
                "--drain",
                "--poll-interval",
                "0.05",
            ]
        )
        capsys.readouterr()
        code = main(["service", "gc", "--queue", farm_dir["queue"], "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["jobs_collected"] == 1

    def test_endpointless_verbs_fail_clearly(self, farm_dir):
        with pytest.raises(SystemExit, match="--url|--queue"):
            main(["service", "status"])

    def test_drain_requires_a_server(self, farm_dir):
        with pytest.raises(SystemExit, match="running service"):
            main(["service", "drain", "--queue", farm_dir["queue"]])


def _drain_worker(farm_dir, *extra: str) -> list[str]:
    return [
        "service",
        "worker",
        "--queue",
        farm_dir["queue"],
        "--store",
        farm_dir["store"],
        "--drain",
        "--poll-interval",
        "0.05",
        *extra,
    ]


#: Fields that change with the wall clock between two reads of one queue.
_TIME_VARYING = {"age_seconds", "eta_seconds", "rate_per_second", "oldest_pending_age_seconds"}


def _steady(value):
    if isinstance(value, dict):
        return {k: _steady(v) for k, v in value.items() if k not in _TIME_VARYING}
    if isinstance(value, (list, tuple)):
        return [_steady(item) for item in value]
    return value


class TestOneFarmSurface:
    """``--queue`` and ``--url`` reach the same FarmService and print the same state."""

    def test_status_and_watch_agree_across_transports(self, farm_dir, capsys):
        main(_submit(farm_dir))
        main(_drain_worker(farm_dir))
        capsys.readouterr()
        outputs = {}
        with JobQueue(farm_dir["queue"]) as queue:
            service = FarmService(queue, farm_dir["store"])
            with serve_forever(service) as (host, port):
                endpoints = {
                    "queue": ["--queue", farm_dir["queue"]],
                    "url": ["--url", f"http://{host}:{port}"],
                }
                for transport, endpoint in endpoints.items():
                    assert main(["service", "status", *endpoint, "--json"]) == 0
                    status = json.loads(capsys.readouterr().out)
                    assert main(["service", "watch", "c1", *endpoint, "--json"]) == 0
                    watched = json.loads(capsys.readouterr().out)
                    outputs[transport] = (status, watched)
        direct, remote = outputs["queue"], outputs["url"]
        assert direct[0]["stats"]["jobs"] == remote[0]["stats"]["jobs"]
        assert direct[0]["stats"]["jobs"]["done"] == 1
        assert [c["state"] for c in direct[0]["campaigns"]] == ["complete"]
        assert [c["state"] for c in remote[0]["campaigns"]] == ["complete"]
        assert _steady(direct) == _steady(remote)


class TestWorkerFaultPlan:
    def _assert_nothing_leased(self, farm_dir):
        with JobQueue(farm_dir["queue"]) as queue:
            (job,) = queue.jobs()
            assert job.state == PENDING
            assert job.attempts == 0
            assert queue.counters()["jobs_leased"] == 0.0

    @pytest.mark.parametrize(
        ("plan_text", "message"),
        [
            ("{not json", "JSONDecodeError"),
            (json.dumps(["worker.after_lease"]), "only 'seed' and 'specs'"),
            (json.dumps({"specs": [{"kind": "slow_io"}]}), "KeyError: 'point'"),
            (
                json.dumps({"specs": [{"point": "worker.after_lease", "kind": "slow_io", "delay_seconds": "x"}]}),
                "could not convert",
            ),
            # `faults plan --json` output wraps the plan; it is not a plan.
            (
                json.dumps({"fingerprint": "0" * 64, "plan": {"seed": 3, "specs": []}}),
                "only 'seed' and 'specs'",
            ),
            (
                json.dumps({"specs": [{"point": "worker.nowhere", "kind": "slow_io"}]}),
                "unknown injection point 'worker.nowhere'",
            ),
        ],
        ids=["not-json", "not-an-object", "missing-point", "bad-delay", "envelope", "unknown-point"],
    )
    def test_bad_plan_exits_before_leasing(self, farm_dir, tmp_path, plan_text, message):
        main(_submit(farm_dir))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(plan_text)
        with pytest.raises(SystemExit, match="impressions service worker: error:") as info:
            main(_drain_worker(farm_dir, "--fault-plan", str(plan_path)))
        assert message in str(info.value)
        with JobQueue(farm_dir["queue"]) as queue:
            (job,) = queue.jobs()
            assert job.state == PENDING
            assert job.attempts == 0
            assert queue.counters()["jobs_leased"] == 0.0

    def test_plan_is_bound_around_the_worker_loop(self, farm_dir, tmp_path, capsys):
        """An EIO scheduled after the first lease fails that attempt."""
        main(_submit(farm_dir) + ["--max-attempts", "1"])
        plan = FaultPlan((FaultSpec("worker.after_lease", "eio"),))
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan.to_dict()))
        capsys.readouterr()
        assert main(_drain_worker(farm_dir, "--fault-plan", str(plan_path), "--json")) == 0
        result = json.loads(capsys.readouterr().out)
        assert (result["jobs_done"], result["jobs_failed"]) == (0, 1)
        with JobQueue(farm_dir["queue"]) as queue:
            (job,) = queue.jobs()
            assert job.state == "dead"
            assert "injected EIO at worker.after_lease" in job.error


def _live_workers_of(farm_pid: int) -> list[int]:
    """Pids of running (not zombie) ``service worker`` processes a farm spawned."""
    marker = f"worker-{farm_pid}-".encode()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes()
            state = (entry / "stat").read_text().rsplit(")", 1)[1].split()[0]
        except OSError:  # exited while we looked
            continue
        if marker in cmdline and state != "Z":
            pids.append(int(entry.name))
    return pids


class TestFarmLifecycle:
    @pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="needs /proc")
    def test_sigterm_stops_the_fleet(self, farm_dir):
        src_dir = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src_dir + os.pathsep + os.environ.get("PYTHONPATH", ""))
        farm = subprocess.Popen(
            [sys.executable, "-m", "repro.core.cli", "service", "start",
             "--queue", farm_dir["queue"], "--store", farm_dir["store"],
             "--workers", "2", "--port", "0", "--poll-interval", "0.1", "--json"],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        try:
            assert json.loads(farm.stdout.readline())["url"].startswith("http://")
            deadline = time.monotonic() + 30.0
            while len(_live_workers_of(farm.pid)) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            workers = _live_workers_of(farm.pid)
            assert len(workers) == 2
            farm.send_signal(signal.SIGTERM)
            farm.wait(timeout=15.0)
            assert _live_workers_of(farm.pid) == []
            assert farm.returncode == 0
        finally:
            if farm.poll() is None:
                farm.kill()
                farm.wait()
            farm.stdout.close()
            for pid in _live_workers_of(farm.pid):
                os.kill(pid, signal.SIGKILL)

    def test_draining_farm_refuses_submit_without_retrying(self, farm_dir):
        with JobQueue(farm_dir["queue"]) as queue:
            service = FarmService(queue, farm_dir["store"])
            service.drain()
            with serve_forever(service) as (host, port):
                start = time.monotonic()
                with pytest.raises(SystemExit, match="HTTP 503") as info:
                    main(["service", "submit", farm_dir["spec"], "--url", f"http://{host}:{port}"])
                elapsed = time.monotonic() - start
        assert DRAINING_REFUSAL in str(info.value)
        assert elapsed < 1.0
