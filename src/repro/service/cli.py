"""``impressions service`` subcommands — operate the benchmark farm.

Verbs::

    impressions service start --queue farm.sqlite --store results.jsonl \\
        --port 8080 --workers 4 --cache-dir /tmp/stage-cache
    impressions service submit sweep.json --url http://127.0.0.1:8080 --wait
    impressions service submit sweep.json --queue farm.sqlite
    impressions service status --url http://127.0.0.1:8080
    impressions service watch c1 --url http://127.0.0.1:8080
    impressions service drain --url http://127.0.0.1:8080 --wait
    impressions service gc --queue farm.sqlite --older-than 3600
    impressions service worker --queue farm.sqlite --store results.jsonl

``start`` runs the HTTP control plane in the foreground and (optionally)
spawns a local worker fleet as subprocesses; kill it with Ctrl-C.  Every
other verb talks to a farm either over HTTP (``--url``) or directly through
the shared sqlite queue file (``--queue``).  Both transports reach the same
:class:`~repro.service.api.FarmService`: ``--queue`` builds one in-process,
``--url`` reaches the server's through :class:`HttpClient`.

``submit --wait`` blocks until the campaign completes (exit 1 if any job
dead-letters), and ``--against-git REV`` then runs the existing
``impressions campaign compare --against-git`` regression gate on the
campaign's result store, so a farm submission can gate CI exactly like a
one-shot ``campaign run``.

``worker`` is the loop ``start`` spawns; it is also a public verb so a fleet
can span processes (or hosts sharing a filesystem) started independently.
``worker --fault-plan PLAN.json`` binds a :class:`~repro.faults.plan.FaultPlan`
around the loop — e.g. ``slow_io`` at ``worker.after_lease`` holds a leased
job long enough for a crash-safety test to SIGKILL the worker mid-job.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Sequence

from repro.campaign.spec import CampaignSpec, SpecError
from repro.campaign.store import StoreError
from repro.faults import plan as fault_plan
from repro.service.api import DRAINING_REFUSAL, FarmService, serve_forever
from repro.service.queue import DEAD, JobQueue, QueueError

__all__ = ["main", "build_parser"]


class ServiceCliError(RuntimeError):
    """User-facing CLI failures (bad endpoints, HTTP errors)."""


# ---------------------------------------------------------------------------
# Farm clients: one FarmService, reached in-process or over HTTP.

#: Request retry policy: transient failures (connection refused while the
#: server binds, timeouts, HTTP 5xx) back off exponentially from
#: ``_HTTP_BACKOFF_BASE`` capped at ``_HTTP_BACKOFF_CAP``, plus jitter drawn
#: deterministically from (url, attempt) so two clients hammering one
#: endpoint desynchronise the same way every run.  4xx responses are the
#: caller's fault and never retried, nor is a draining farm's 503.
_HTTP_RETRIES = 4
_HTTP_BACKOFF_BASE = 0.25
_HTTP_BACKOFF_CAP = 5.0


def _http_json(
    url: str,
    payload: object = None,
    *,
    method: str | None = None,
    timeout: float = 30.0,
    retries: int = _HTTP_RETRIES,
) -> dict:
    data = None
    headers = {"Accept": "application/json"}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    request = urllib.request.Request(
        url, data=data, headers=headers, method=method or ("POST" if data else "GET")
    )
    last_error = ""
    for attempt in range(max(0, retries) + 1):
        if attempt:
            delay = min(_HTTP_BACKOFF_CAP, _HTTP_BACKOFF_BASE * (2.0 ** (attempt - 1)))
            time.sleep(delay + random.Random(f"{url}:{attempt}").uniform(0.0, delay))
        try:
            fault_plan.check("client.request")
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            body = error.read().decode("utf-8", "replace")
            try:
                message = json.loads(body).get("error", body)
            except (ValueError, AttributeError):
                message = body
            # A draining farm's refusal is its state, not a transient fault.
            if error.code >= 500 and attempt < retries and message != DRAINING_REFUSAL:
                last_error = f"HTTP {error.code}: {message}"
                continue
            raise ServiceCliError(f"{url}: HTTP {error.code}: {message}")
        except OSError as error:  # URLError, timeouts, connection resets
            reason = getattr(error, "reason", error)
            if attempt < retries:
                last_error = str(reason)
                continue
            raise ServiceCliError(f"{url}: {reason}")
    raise ServiceCliError(f"{url}: {last_error or 'request failed'}")


class HttpClient:
    """Farm verbs over HTTP, with a retrying transport.

    Every verb is safe to retry: reads are pure, ``drain`` is a latch, and
    ``submit`` is *idempotent by construction* — scenarios are keyed by their
    spec+seed fingerprint behind a sqlite ``UNIQUE`` index, so a resubmission
    after a lost response re-enqueues nothing and simply returns the dedupe
    counts.
    """

    def __init__(self, url: str, *, timeout: float = 30.0, retries: int = _HTTP_RETRIES) -> None:
        self.base = url.rstrip("/")
        self.timeout = timeout
        self.retries = retries

    def _call(self, path: str, payload: object = None, *, method: str | None = None) -> dict:
        return _http_json(
            f"{self.base}{path}",
            payload,
            method=method,
            timeout=self.timeout,
            retries=self.retries,
        )

    def submit(self, document: dict) -> dict:
        return self._call("/campaigns", document)

    def campaign(self, campaign_id: str) -> dict:
        return self._call(f"/campaigns/{campaign_id}")

    def campaigns(self) -> list[dict]:
        return self._call("/campaigns")["campaigns"]

    def stats(self) -> dict:
        return self._call("/queue/stats")

    def drain(self) -> dict:
        return self._call("/drain", method="POST")


@contextlib.contextmanager
def _client(args: argparse.Namespace):
    """The farm the verb addresses: an :class:`HttpClient` or a :class:`FarmService`."""
    if args.url:
        yield HttpClient(args.url, timeout=args.http_timeout, retries=args.http_retries)
    elif args.queue:
        with JobQueue(args.queue) as queue:
            yield FarmService(queue, getattr(args, "store", None) or "campaign-results.jsonl")
    else:
        raise ServiceCliError("pass --url http://HOST:PORT or --queue PATH")


def _add_endpoint_arguments(parser: argparse.ArgumentParser, *, store: bool = True) -> None:
    parser.add_argument(
        "--url", metavar="URL", default=None, help="control-plane endpoint (http://host:port)"
    )
    parser.add_argument(
        "--queue", metavar="PATH", default=None, help="queue database file (direct access)"
    )
    parser.add_argument(
        "--http-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-request timeout for --url transports (default: %(default)s)",
    )
    parser.add_argument(
        "--http-retries",
        type=int,
        default=_HTTP_RETRIES,
        metavar="N",
        help="transient-failure retries with capped backoff (default: %(default)s)",
    )
    if store:
        parser.add_argument(
            "--store",
            metavar="PATH",
            default=None,
            help="result store for direct --queue submissions (default: campaign-results.jsonl)",
        )


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impressions service",
        description="Run campaigns as a durable benchmark farm: queue, workers, HTTP API.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    start = commands.add_parser("start", help="run the control plane (and a worker fleet)")
    start.add_argument("--queue", default="service-queue.sqlite", metavar="PATH")
    start.add_argument("--store", default="campaign-results.jsonl", metavar="PATH")
    start.add_argument("--host", default="127.0.0.1")
    start.add_argument("--port", type=int, default=8765)
    start.add_argument(
        "--workers", type=int, default=1, help="local worker subprocesses (default: %(default)s; 0 = API only)"
    )
    start.add_argument("--cache-dir", default=None, metavar="PATH", help="shared stage cache for the fleet")
    start.add_argument("--obs-dir", default=None, metavar="PATH", help="per-worker telemetry snapshot directory")
    start.add_argument("--lease-ttl", type=float, default=60.0, metavar="SECONDS")
    start.add_argument("--poll-interval", type=float, default=0.5, metavar="SECONDS")
    start.add_argument("--max-attempts", type=int, default=None, help="retry budget for submitted jobs")
    start.add_argument(
        "--run-for",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long (smoke tests; default: run until interrupted)",
    )
    start.add_argument("--json", action="store_true", help="print the endpoint as JSON once bound")

    submit = commands.add_parser("submit", help="submit a campaign spec to the farm")
    submit.add_argument("spec", help="campaign spec (JSON file)")
    _add_endpoint_arguments(submit)
    submit.add_argument("--max-attempts", type=int, default=None)
    submit.add_argument("--wait", action="store_true", help="block until the campaign completes")
    submit.add_argument(
        "--against-git",
        metavar="REV",
        default=None,
        help="after completion (implies --wait), gate the store against REV with campaign compare",
    )
    submit.add_argument("--tolerance", type=float, default=0.05, help="compare tolerance (default: %(default)s)")
    submit.add_argument("--poll-interval", type=float, default=1.0, metavar="SECONDS")
    submit.add_argument("--timeout", type=float, default=None, metavar="SECONDS", help="give up waiting after this long")
    submit.add_argument("--json", action="store_true")

    status = commands.add_parser("status", help="queue stats and campaign progress")
    _add_endpoint_arguments(status, store=False)
    status.add_argument("--campaign", metavar="ID", default=None, help="show one campaign")
    status.add_argument("--json", action="store_true")

    watch = commands.add_parser("watch", help="follow a campaign until it completes")
    watch.add_argument("campaign", metavar="ID")
    _add_endpoint_arguments(watch, store=False)
    watch.add_argument("--poll-interval", type=float, default=1.0, metavar="SECONDS")
    watch.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    watch.add_argument("--json", action="store_true", help="print the final campaign state as JSON")

    drain = commands.add_parser("drain", help="close submissions; optionally wait for empty")
    _add_endpoint_arguments(drain, store=False)
    drain.add_argument("--wait", action="store_true", help="block until queue depth reaches zero")
    drain.add_argument("--poll-interval", type=float, default=1.0, metavar="SECONDS")
    drain.add_argument("--timeout", type=float, default=None, metavar="SECONDS")
    drain.add_argument("--json", action="store_true")

    gc = commands.add_parser("gc", help="collect finished jobs and stale heartbeats")
    gc.add_argument("--queue", required=True, metavar="PATH")
    gc.add_argument(
        "--older-than", type=float, default=0.0, metavar="SECONDS", help="only rows idle at least this long"
    )
    gc.add_argument("--dry-run", action="store_true", help="report what would be collected")
    gc.add_argument("--json", action="store_true")

    worker = commands.add_parser("worker", help="run one worker loop against a queue")
    worker.add_argument("--queue", required=True, metavar="PATH")
    worker.add_argument("--store", required=True, metavar="PATH")
    worker.add_argument("--worker-id", default="", metavar="NAME")
    worker.add_argument("--lease-ttl", type=float, default=60.0, metavar="SECONDS")
    worker.add_argument("--poll-interval", type=float, default=0.5, metavar="SECONDS")
    worker.add_argument("--cache-dir", default=None, metavar="PATH")
    worker.add_argument("--obs-dir", default=None, metavar="PATH")
    worker.add_argument("--drain", action="store_true", help="exit once the queue has no runnable work")
    worker.add_argument("--max-jobs", type=int, default=None)
    worker.add_argument(
        "--fault-plan",
        default=None,
        metavar="PATH",
        help="bind this FaultPlan JSON (see `impressions faults plan`) around the loop",
    )
    worker.add_argument("--json", action="store_true")
    return parser


# ---------------------------------------------------------------------------
# Verbs


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def _run_start(args: argparse.Namespace) -> int:
    queue = JobQueue(args.queue)
    service = FarmService(queue, args.store, default_max_attempts=args.max_attempts)
    fleet: list[subprocess.Popen] = []
    with contextlib.closing(queue), serve_forever(service, args.host, args.port) as address:
        url = f"http://{address[0]}:{address[1]}"
        # `kill PID` stops the fleet the same way Ctrl-C does.  Installed before
        # the URL is printed, so a caller that reads it may signal at once.
        previous_sigterm = signal.signal(signal.SIGTERM, _interrupt)
        try:
            if args.json:
                print(json.dumps({"url": url, "queue": args.queue, "store": args.store, "workers": args.workers}))
            else:
                print(f"service listening on {url} (queue {args.queue}, store {args.store})")
            sys.stdout.flush()
            for index in range(args.workers):
                command = [
                    sys.executable,
                    "-m",
                    "repro.core.cli",
                    "service",
                    "worker",
                    "--queue",
                    args.queue,
                    "--store",
                    args.store,
                    "--worker-id",
                    f"worker-{os.getpid()}-{index}",
                    "--lease-ttl",
                    str(args.lease_ttl),
                    "--poll-interval",
                    str(args.poll_interval),
                ]
                if args.cache_dir:
                    command += ["--cache-dir", args.cache_dir]
                if args.obs_dir:
                    command += ["--obs-dir", args.obs_dir]
                fleet.append(subprocess.Popen(command))
            deadline = None if args.run_for is None else time.monotonic() + args.run_for
            while deadline is None or time.monotonic() < deadline:
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            signal.signal(signal.SIGTERM, previous_sigterm)
            for process in fleet:
                if process.poll() is None:
                    process.send_signal(signal.SIGTERM)
            for process in fleet:
                try:
                    process.wait(timeout=10.0)
                except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
                    process.kill()
                    process.wait()
    return 0


def _wait_for_campaign(
    client: "HttpClient | FarmService",
    campaign_id: str,
    *,
    poll_interval: float,
    timeout: float | None,
    echo: bool,
) -> dict:
    deadline = None if timeout is None else time.monotonic() + timeout
    last_line = ""
    while True:
        info = client.campaign(campaign_id)
        if echo:
            eta = info.get("eta_seconds")
            line = (
                f"{campaign_id}: {info['done']}/{info['total']} done "
                f"({100.0 * info['progress']:.0f}%), {info['jobs'][DEAD]} dead"
                + (f", eta {eta:.0f}s" if eta else "")
            )
            if line != last_line:
                print(line, file=sys.stderr, flush=True)
                last_line = line
        if info["state"] != "running":
            return info
        if deadline is not None and time.monotonic() >= deadline:
            raise ServiceCliError(
                f"timed out after {timeout:.0f}s waiting for campaign {campaign_id} "
                f"({info['done']}/{info['total']} done)"
            )
        time.sleep(poll_interval)


def _run_submit(args: argparse.Namespace) -> int:
    spec = CampaignSpec.load(args.spec)
    document: dict = {"spec": spec.to_dict()}
    if args.max_attempts is not None:
        document["max_attempts"] = args.max_attempts
    if args.store:
        document["store"] = args.store
    with _client(args) as client:
        submitted = client.submit(document)
        wait = args.wait or args.against_git is not None
        if not wait:
            if args.json:
                print(json.dumps(submitted, sort_keys=True))
            else:
                print(
                    f"campaign {submitted['campaign']} ({submitted['name']}): "
                    f"{submitted['enqueued']} enqueued, {submitted['deduped']} deduped, "
                    f"{submitted['already_done']} already done of {submitted['total']}"
                )
            return 0
        info = _wait_for_campaign(
            client,
            submitted["campaign"],
            poll_interval=args.poll_interval,
            timeout=args.timeout,
            echo=not args.json,
        )
        failed = info["state"] != "complete"
        payload = {"submitted": submitted, "campaign": info, "failed": failed}
        if failed:
            if args.json:
                print(json.dumps(payload, sort_keys=True))
            else:
                print(f"campaign {submitted['campaign']} {info['state']}: {info['jobs']}")
            return 1
        if args.against_git:
            from repro.campaign.cli import main as campaign_main

            # The completed store is the candidate; the baseline comes from git.
            code = campaign_main(
                [
                    "compare",
                    info["store"],
                    "--against-git",
                    args.against_git,
                    "--tolerance",
                    str(args.tolerance),
                ]
                + (["--json"] if args.json else [])
            )
            return code
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            print(f"campaign {submitted['campaign']} complete: {info['done']}/{info['total']} in store {info['store']}")
        return 0


def _run_status(args: argparse.Namespace) -> int:
    with _client(args) as client:
        if args.campaign:
            info = client.campaign(args.campaign)
            if args.json:
                print(json.dumps(info, sort_keys=True))
            else:
                print(
                    f"campaign {info['campaign']} ({info['name']}): {info['state']}, "
                    f"{info['done']}/{info['total']} done, jobs {info['jobs']}"
                )
            return 0
        stats = client.stats()
        campaigns = client.campaigns()
        if args.json:
            print(json.dumps({"stats": stats, "campaigns": campaigns}, sort_keys=True))
            return 0
        jobs = stats["jobs"]
        print(
            f"queue {stats['path']}: depth {stats['depth']} "
            f"(pending {jobs['pending']}, leased {jobs['leased']}, "
            f"done {jobs['done']}, dead {jobs['dead']})"
        )
        counters = stats["counters"]
        print(
            f"counters: reclaims {counters['lease_reclaims']:.0f}, "
            f"retries {counters['job_retries']:.0f}, dead {counters['jobs_dead']:.0f}"
        )
        for worker in stats["workers"]:
            print(
                f"worker {worker['worker']}: beat {worker['age_seconds']:.1f}s ago, "
                f"{worker['jobs_done']} done"
            )
        for info in campaigns:
            print(
                f"campaign {info['campaign']} ({info['name']}): {info['state']}, "
                f"{info['done']}/{info['total']} done"
            )
        return 0


def _run_watch(args: argparse.Namespace) -> int:
    with _client(args) as client:
        info = _wait_for_campaign(
            client,
            args.campaign,
            poll_interval=args.poll_interval,
            timeout=args.timeout,
            echo=True,
        )
        if args.json:
            print(json.dumps(info, sort_keys=True))
        else:
            print(f"campaign {args.campaign} {info['state']}: {info['done']}/{info['total']} done")
        return 0 if info["state"] == "complete" else 1


def _run_drain(args: argparse.Namespace) -> int:
    with _client(args) as client:
        if isinstance(client, FarmService):
            raise ServiceCliError(
                "drain needs a running service (--url): a bare queue file has no "
                "submission endpoint to close"
            )
        result = client.drain()
        if args.wait:
            deadline = None if args.timeout is None else time.monotonic() + args.timeout
            while True:
                stats = client.stats()
                result = {"draining": True, "depth": stats["depth"]}
                if stats["depth"] == 0:
                    break
                if deadline is not None and time.monotonic() >= deadline:
                    raise ServiceCliError(
                        f"timed out after {args.timeout:.0f}s draining (depth {stats['depth']})"
                    )
                time.sleep(args.poll_interval)
        if args.json:
            print(json.dumps(result, sort_keys=True))
        else:
            print(f"draining; queue depth {result['depth']}")
        return 0


def _run_gc(args: argparse.Namespace) -> int:
    with JobQueue(args.queue) as queue:
        report = queue.gc(older_than_seconds=args.older_than, dry_run=args.dry_run)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        verb = "would collect" if args.dry_run else "collected"
        print(
            f"{verb} {report['jobs_collected']} done job(s) and "
            f"{report['heartbeats_collected']} stale heartbeat(s)"
        )
    return 0


def _load_fault_plan(path: str) -> fault_plan.FaultPlan:
    """A ``FaultPlan.to_dict`` JSON file; anything else is a CLI error."""
    with open(path, encoding="utf-8") as handle:
        try:
            document = json.load(handle)
            if set(document) - {"seed", "specs"}:
                raise ValueError("a plan has only 'seed' and 'specs' keys")
            return fault_plan.FaultPlan.from_dict(document)
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ServiceCliError(f"fault plan {path}: {type(error).__name__}: {error}") from None


def _run_worker(args: argparse.Namespace) -> int:
    from repro.service.worker import WorkerOptions, run_worker

    plan = _load_fault_plan(args.fault_plan) if args.fault_plan else None
    options = WorkerOptions(
        queue_path=args.queue,
        store_path=args.store,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        poll_interval=args.poll_interval,
        cache_dir=args.cache_dir,
        obs_dir=args.obs_dir,
        drain=args.drain,
        max_jobs=args.max_jobs,
    )
    with fault_plan.use(plan):
        result = run_worker(options)
    if args.json:
        print(json.dumps(result.as_dict(), sort_keys=True))
    else:
        print(
            f"worker {result.worker_id}: {result.jobs_done} done, "
            f"{result.jobs_failed} failed, {result.acks_lost} acks lost"
        )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``impressions service ...``."""
    args = build_parser().parse_args(argv)
    handlers = {
        "start": _run_start,
        "submit": _run_submit,
        "status": _run_status,
        "watch": _run_watch,
        "drain": _run_drain,
        "gc": _run_gc,
        "worker": _run_worker,
    }
    try:
        return handlers[args.command](args)
    except (ServiceCliError, QueueError, SpecError, StoreError, ValueError) as error:
        raise SystemExit(f"impressions service {args.command}: error: {error}")
    except OSError as error:
        raise SystemExit(f"impressions service {args.command}: error: {error}")
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
