"""The farm's HTTP control plane: a stdlib JSON API over the job queue.

Endpoints (all JSON unless noted)::

    POST /campaigns        submit a campaign spec; returns the campaign id,
                           enqueued/deduped/already-done counts
    GET  /campaigns        list campaigns with progress
    GET  /campaigns/{id}   one campaign's progress, rate and ETA
    GET  /jobs/{id}        one job: state, attempts, lease, error, result
    GET  /queue/stats      queue depths, counters, worker heartbeats
    GET  /metrics          Prometheus text exposition (reuses repro.obs.export)
    GET  /healthz          {"ok": true}
    POST /drain            stop accepting submissions (503 on POST /campaigns)

The server is a :class:`ThreadingHTTPServer`; every request handler calls
one :class:`FarmService`, the same operations interface the CLI's
``--queue`` verbs use, over one :class:`~repro.service.queue.JobQueue`
(thread-safe — a lock around one sqlite connection), so the API can run in
the same process as the queue's owner or standalone against the database
file.

``POST /campaigns`` accepts either a bare campaign-spec document or an
envelope ``{"spec": {...}, "max_attempts": N, "store": "path"}``.  The
response's ``deduped`` count is the concurrency story: two clients racing to
submit the same sweep each get their own campaign id, but every scenario
fingerprint is enqueued exactly once — the loser's campaign simply tracks
the winner's jobs.

``GET /metrics`` renders the queue's state as a Prometheus snapshot through
:func:`repro.obs.export.prometheus_text`: queue depth per state, lease
reclaims, retries, dead letters, campaign count, live workers, and a
histogram over recent per-job durations.
"""

from __future__ import annotations

import contextlib
import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

from repro.campaign.spec import SpecError
from repro.campaign.store import ResultStore
from repro.obs.core import Telemetry
from repro.obs.export import prometheus_text
from repro.service.queue import DURATION_BUCKETS, STATES, JobQueue, QueueError

__all__ = ["DRAINING_REFUSAL", "metrics_telemetry", "FarmService", "make_server", "serve_forever"]

#: :meth:`FarmService.submit`'s refusal once the farm drains; HTTP answers it
#: with a 503 that clients must not retry.
DRAINING_REFUSAL = "service is draining; submissions are closed"


def metrics_telemetry(queue: JobQueue) -> Telemetry:
    """A one-shot telemetry snapshot of the queue, for Prometheus export."""
    stats = queue.stats()
    tele = Telemetry(run_id="service-metrics")
    depth = tele.gauge(
        "service_queue_jobs", "jobs currently in each queue state", ("state",)
    )
    for state in STATES:
        depth.set(stats["jobs"][state], state=state)
    tele.gauge("service_queue_depth", "pending plus leased jobs").set(stats["depth"])
    for key, name, help_text in (
        ("lease_reclaims", "service_lease_reclaims_total", "expired leases returned to the queue"),
        ("job_retries", "service_job_retries_total", "failed attempts re-enqueued"),
        ("jobs_dead", "service_jobs_dead_total", "jobs parked in the dead-letter state"),
        ("jobs_done", "service_jobs_done_total", "jobs acked complete"),
        ("jobs_leased", "service_jobs_leased_total", "lease grants"),
    ):
        tele.counter(name, help_text).inc(stats["counters"].get(key, 0.0))
    tele.gauge("service_campaigns", "campaigns submitted").set(stats["campaigns"])
    tele.gauge("service_workers_alive", "workers heartbeating in the last minute").set(
        len(stats["workers"])
    )
    durations = tele.histogram(
        "service_job_duration_seconds",
        "wall-clock seconds per completed job",
        buckets=DURATION_BUCKETS,
        unit="seconds",
    )
    for value in queue.durations():
        durations.observe(value)
    return tele


class FarmService:
    """The farm's one operations interface, behind both transports: the HTTP
    handler and the CLI's ``--queue`` verbs call it directly, and
    :class:`~repro.service.cli.HttpClient` carries its five verbs over HTTP.
    """

    def __init__(
        self,
        queue: JobQueue,
        store_path: str,
        *,
        default_max_attempts: int | None = None,
    ) -> None:
        self.queue = queue
        self.store_path = store_path
        self.default_max_attempts = default_max_attempts
        self.draining = False

    def submit(self, document: Mapping[str, object]) -> dict:
        if self.draining:
            raise QueueError(DRAINING_REFUSAL)
        if "spec" in document:
            spec_doc = document["spec"]
            max_attempts = document.get("max_attempts", self.default_max_attempts)
            store_path = str(document.get("store") or self.store_path)
        else:
            spec_doc = document
            max_attempts = self.default_max_attempts
            store_path = self.store_path
        if not isinstance(spec_doc, Mapping):
            raise SpecError("campaign spec must be a JSON object")
        # Scenarios whose fingerprint already has a result row are born done:
        # duplicate submissions dedupe through the store for free.
        completed = ResultStore(store_path).fingerprints()
        result = self.queue.submit(
            spec_doc,
            store_path,
            max_attempts=(None if max_attempts is None else int(max_attempts)),
            completed_fingerprints=completed,
        )
        return result.as_dict()

    def campaign(self, campaign_id: str) -> dict:
        return self.queue.campaign(campaign_id)

    def campaigns(self) -> list[dict]:
        return self.queue.campaigns()

    def stats(self) -> dict:
        return self.queue.stats()

    def drain(self) -> dict:
        self.draining = True
        return {"draining": True, "depth": self.stats()["depth"]}

    def job(self, job_id: int) -> dict:
        return self.queue.job(job_id).as_dict()

    def metrics(self) -> str:
        """The queue's state as Prometheus text exposition."""
        return prometheus_text(metrics_telemetry(self.queue))


class _Handler(BaseHTTPRequestHandler):
    # Set by make_server on the handler class.
    service: FarmService
    quiet = True

    # Framing ---------------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if not self.quiet:  # pragma: no cover - debug aid
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, payload: object, status: int = 200) -> None:
        self._send(
            status,
            json.dumps(payload, sort_keys=True).encode("utf-8"),
            "application/json",
        )

    def _error(self, status: int, message: str) -> None:
        self._json({"error": message}, status=status)

    def _read_json(self) -> object:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body (expected a JSON document)")
        return json.loads(raw.decode("utf-8"))

    # Routes ----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        service = self.service
        try:
            if path == "/healthz":
                self._json({"ok": True, "draining": service.draining})
            elif path == "/queue/stats":
                self._json(service.stats())
            elif path == "/metrics":
                self._send(
                    200,
                    service.metrics().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path == "/campaigns":
                self._json({"campaigns": service.campaigns()})
            elif path.startswith("/campaigns/"):
                self._json(service.campaign(path.split("/", 2)[2]))
            elif path.startswith("/jobs/"):
                job_id = path.split("/", 2)[2]
                if not job_id.isdigit():
                    raise QueueError(f"job ids are integers, got {job_id!r}")
                self._json(service.job(int(job_id)))
            else:
                self._error(404, f"no such resource {path!r}")
        except QueueError as error:
            self._error(404, str(error))
        # detlint: ignore[broad-except] HTTP boundary: any leak becomes a 500, never a dead handler thread
        except Exception as error:  # pragma: no cover - defensive
            self._error(500, f"{type(error).__name__}: {error}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/")
        service = self.service
        try:
            if path == "/campaigns":
                document = self._read_json()
                if not isinstance(document, dict):
                    raise SpecError("campaign submission must be a JSON object")
                self._json(service.submit(document), status=201)
            elif path == "/drain":
                self._json(service.drain())
            else:
                self._error(404, f"no such resource {path!r}")
        except (SpecError, QueueError, ValueError) as error:
            # FarmService.submit refuses while draining: that is the server's
            # state, not a bad request.
            self._error(503 if service.draining else 400, str(error))
        # detlint: ignore[broad-except] HTTP boundary: any leak becomes a 500, never a dead handler thread
        except Exception as error:  # pragma: no cover - defensive
            self._error(500, f"{type(error).__name__}: {error}")


def make_server(
    service: FarmService, host: str = "127.0.0.1", port: int = 0
) -> ThreadingHTTPServer:
    """Build (but do not start) the control-plane HTTP server.

    ``port=0`` binds an ephemeral port; read it back from
    ``server.server_address`` — tests and the in-process example rely on
    that.
    """
    handler = type("FarmHandler", (_Handler,), {"service": service})
    server = ThreadingHTTPServer((host, port), handler)
    server.daemon_threads = True
    return server


@contextlib.contextmanager
def serve_forever(service: FarmService, host: str = "127.0.0.1", port: int = 0):
    """Context manager running the API on a background thread (tests, examples).

    Yields the bound ``(host, port)`` tuple; the server is shut down and
    joined on exit.
    """
    server = make_server(service, host, port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
