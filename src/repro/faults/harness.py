"""The chaos harness behind ``impressions faults sweep``.

A sweep takes a seed, derives a :class:`~repro.faults.plan.FaultPlan` from it
(bit-for-bit reproducibly — the report records the plan fingerprint twice,
generated independently, to prove it), and then runs every scheduled fault as
its own single-fault experiment in a fresh workspace.  Each injection point
maps to the *flow* that exercises it end to end:

========================  =====================================================
point                     flow
========================  =====================================================
``cache.entry.write``     generate a scenario against a stage cache, fault the
``cache.entry.read``      entry write/read, restart on crash, re-run warm
``store.append``          append result rows, crash mid-append, recover by
                          fingerprint and re-read
``queue.lease``           submit a tiny campaign to a real :class:`JobQueue`
``queue.ack``             and drain it with a real worker, restarting the
``worker.after_lease``    worker whenever the fault "kills" it
``sink.add_file``         materialize a tiny image through a tar sink; verify
``sink.finalize``         failed runs abort clean and recovery runs digest-
                          identical
``client.request``        call a live in-process control plane through the
                          retrying HTTP client
========================  =====================================================

Every experiment ends in a **verdict**:

* ``healed`` — the flow recovered on its own and its recovered output is
  fingerprint-identical to the fault-free baseline;
* ``dead_letter`` — the fault was correctly surfaced as a parked job with a
  captured reason (farm flow only — nothing silently lost).

Anything else (a corrupt row surfacing, a digest mismatch, a partial
artifact surviving an abort) is an invariant violation: the outcome verdict
becomes ``violated`` and the sweep fails.  The sweep runs under one
:class:`repro.obs.Telemetry`, so the report carries the
``faults_injected_total`` / ``corruption_detected_total`` /
``quarantine_total`` / ``heal_total`` counters for the whole run.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import tempfile
import threading
import traceback
from dataclasses import dataclass, field

from repro.faults.plan import FaultInjector, FaultPlan, FaultSpec, InjectedCrash, use
from repro.obs import core as obs_core

__all__ = ["SWEEP_FORMAT_VERSION", "FaultOutcome", "SweepReport", "run_sweep", "flow_for_point"]

SWEEP_FORMAT_VERSION = 1

#: Scenario every flow runs — tiny on purpose (a sweep runs it dozens of
#: times) but through the full production path: pipeline, stage cache,
#: campaign steps, queue, worker, sinks.
SPEC_DOC = {
    "name": "chaos",
    "base": {"num_directories": 6, "fs_size_bytes": 8 * 1024 * 1024, "seed": 17},
    "sweep": {"num_files": [30]},
    "steps": [{"step": "summary"}],
}

#: How many times a flow restarts after an injected crash before giving up.
MAX_RESTARTS = 3

_POINT_FLOWS = {
    "cache.entry.write": "cache",
    "cache.entry.read": "cache",
    "store.append": "store",
    "queue.lease": "farm",
    "queue.ack": "farm",
    "worker.after_lease": "farm",
    "sink.add_file": "sink",
    "sink.finalize": "sink",
    "client.request": "client",
}


def flow_for_point(point: str) -> str:
    """Which end-to-end flow exercises an injection point."""
    return _POINT_FLOWS[point]


@dataclass
class FaultOutcome:
    """The verdict of one single-fault experiment."""

    spec: FaultSpec
    flow: str
    verdict: str  # healed | dead_letter | violated
    detail: str = ""
    restarts: int = 0
    fired: bool = True
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.verdict in ("healed", "dead_letter")

    def as_dict(self) -> dict:
        return {
            **self.spec.as_dict(),
            "flow": self.flow,
            "verdict": self.verdict,
            "detail": self.detail,
            "restarts": self.restarts,
            "fired": self.fired,
            "error": self.error,
        }


@dataclass
class SweepReport:
    """Everything one seeded sweep did, JSON-serializable for CI artifacts."""

    seed: int
    plan_fingerprint: str
    regenerated_fingerprint: str
    outcomes: list[FaultOutcome] = field(default_factory=list)
    counters: dict = field(default_factory=dict)

    @property
    def deterministic(self) -> bool:
        return self.plan_fingerprint == self.regenerated_fingerprint

    @property
    def passed(self) -> bool:
        return self.deterministic and all(outcome.ok for outcome in self.outcomes)

    def as_dict(self) -> dict:
        verdicts: dict[str, int] = {}
        for outcome in self.outcomes:
            verdicts[outcome.verdict] = verdicts.get(outcome.verdict, 0) + 1
        return {
            "format": SWEEP_FORMAT_VERSION,
            "seed": self.seed,
            "passed": self.passed,
            "plan_fingerprint": self.plan_fingerprint,
            "regenerated_fingerprint": self.regenerated_fingerprint,
            "deterministic": self.deterministic,
            "faults": len(self.outcomes),
            "verdicts": verdicts,
            "outcomes": [outcome.as_dict() for outcome in self.outcomes],
            "counters": self.counters,
        }


# Shared fixtures --------------------------------------------------------------


def _scenario_payload() -> dict:
    from repro.campaign.spec import CampaignSpec

    spec = CampaignSpec.from_dict(SPEC_DOC)
    return spec.expand()[0].payload()


def _row_digest(row: dict) -> str:
    """Canonical digest of a result row's deterministic view."""
    import hashlib

    from repro.campaign.store import deterministic_view

    canonical = json.dumps(deterministic_view(row), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class _Baselines:
    """Fault-free reference outputs, computed once per sweep, on demand."""

    def __init__(self) -> None:
        self._cache: dict[str, object] = {}

    def scenario_digest(self) -> str:
        if "scenario" not in self._cache:
            from repro.campaign.runner import run_scenario

            self._cache["scenario"] = _row_digest(run_scenario(_scenario_payload()))
        return self._cache["scenario"]  # type: ignore[return-value]

    def image(self):
        if "image" not in self._cache:
            from repro.core.config import ImpressionsConfig
            from repro.pipeline.runner import default_pipeline

            knobs = _scenario_payload()["knobs"]
            config = ImpressionsConfig.from_knobs(knobs)
            self._cache["image"] = default_pipeline().run(config).image
        return self._cache["image"]

    def sink_digest(self) -> str:
        if "sink" not in self._cache:
            from repro.materialize import TarSink, materialize_image

            with tempfile.TemporaryDirectory(prefix="faults-baseline-") as tmp:
                result = materialize_image(
                    self.image(), TarSink(os.path.join(tmp, "image.tar"))
                )
            self._cache["sink"] = result.content_digest
        return self._cache["sink"]  # type: ignore[return-value]


def _store_rows() -> list[dict]:
    """Three deterministic rows the store flow appends."""
    return [
        {"fingerprint": f"fp-{index:02d}", "scenario": f"s{index}", "metrics": {"n": index}}
        for index in range(3)
    ]


# Flows ------------------------------------------------------------------------


def _run_cache_flow(
    injector: FaultInjector, workspace: str, baselines: _Baselines
) -> tuple[str, str, int]:
    """Generate through a faulted stage cache; heal by restart + regeneration."""
    from repro.campaign.runner import run_scenario

    payload = _scenario_payload()
    payload["cache_dir"] = os.path.join(workspace, "stage-cache")
    restarts = 0
    row = None
    for _ in range(MAX_RESTARTS + 1):
        try:
            row = run_scenario(dict(payload))
            break
        except InjectedCrash:
            restarts += 1  # "restart the process" and try again
    if row is None:
        return "violated", "never survived its restarts", restarts
    if _row_digest(row) != baselines.scenario_digest():
        return "violated", "recovered row differs from fault-free baseline", restarts
    # Warm re-run: read-side detection must either hit clean entries or
    # quarantine damage and regenerate — never surface a wrong restore.
    warm = run_scenario(dict(payload))
    if _row_digest(warm) != baselines.scenario_digest():
        return "violated", "warm cache re-run differs from baseline", restarts
    return "healed", "row and warm re-run digest-identical to baseline", restarts


def _run_store_flow(injector: FaultInjector, workspace: str, baselines: _Baselines) -> tuple[str, str, int]:
    """Append rows through a faulted store; recover by fingerprint re-append."""
    from repro.campaign.store import ResultStore, deterministic_view

    rows = _store_rows()
    store = ResultStore(os.path.join(workspace, "results.jsonl"))
    restarts = 0
    for row in rows:
        for _ in range(MAX_RESTARTS + 1):
            try:
                if row["fingerprint"] not in store.fingerprints():
                    store.append(row)
                break
            except InjectedCrash:
                restarts += 1  # crashed mid-append; the torn tail persists
            except OSError:
                restarts += 1  # ENOSPC/EIO: nothing persisted, retry
    # Reconcile by fingerprint: a lying fsync (``fsync_loss``) reports
    # success while dropping the tail, so the append loop alone cannot see
    # the loss — exactly the recovery a resumed campaign performs.
    persisted = store.fingerprints()
    for row in rows:
        if row["fingerprint"] not in persisted:
            restarts += 1
            store.append(row)
    # A reconciled row re-appends at the tail, so compare as sets: every
    # appended row present exactly once, nothing corrupt surfaced.
    def canon(view: dict) -> str:
        return json.dumps(view, sort_keys=True, separators=(",", ":"))

    recovered = sorted(canon(deterministic_view(row)) for row in store.rows())
    expected = sorted(canon(deterministic_view(row)) for row in rows)
    if recovered != expected:
        return "violated", f"recovered rows {recovered!r} != appended rows", restarts
    return "healed", "all rows recovered exactly; damage quarantined", restarts


def _run_sink_flow(injector: FaultInjector, workspace: str, baselines: _Baselines) -> tuple[str, str, int]:
    """Materialize through a faulted sink; failed runs must abort clean."""
    from repro.materialize import SinkWriteError, TarSink, materialize_image

    image = baselines.image()
    archive = os.path.join(workspace, "image.tar")
    restarts = 0
    result = None
    for _ in range(MAX_RESTARTS + 1):
        try:
            result = materialize_image(image, TarSink(archive))
            break
        except SinkWriteError:
            restarts += 1
            if os.path.exists(archive):
                return "violated", "partial artifact survived a sink abort", restarts
        except InjectedCrash:
            restarts += 1
            # A crash aborts nothing; a fresh run must still converge.
            with contextlib.suppress(OSError):
                os.remove(archive)
    if result is None:
        return "violated", "materialization never recovered", restarts
    if result.content_digest != baselines.sink_digest():
        return "violated", "recovered archive digest differs from baseline", restarts
    return "healed", "aborts left no partial artifact; recovery digest-identical", restarts


def _run_farm_flow(injector: FaultInjector, workspace: str, baselines: _Baselines) -> tuple[str, str, int]:
    """Drain a real queue with a real worker, restarting it on every crash."""
    from repro.service.api import FarmService
    from repro.service.queue import DEAD, JobQueue
    from repro.service.worker import WorkerOptions, run_worker

    queue_path = os.path.join(workspace, "queue.sqlite")
    store_path = os.path.join(workspace, "results.jsonl")
    queue = JobQueue(queue_path)
    try:
        service = FarmService(queue, store_path)
        submitted = service.submit({"spec": SPEC_DOC, "max_attempts": 2})
        campaign_id = submitted["campaign"]
        options = WorkerOptions(
            queue_path=queue_path,
            store_path=store_path,
            worker_id="chaos-worker",
            lease_ttl=1.0,
            poll_interval=0.05,
            cache_dir=os.path.join(workspace, "stage-cache"),
            drain=True,
            queue_retry_backoff=0.05,
        )
        restarts = 0
        for _ in range(MAX_RESTARTS + 1):
            try:
                run_worker(options, queue=queue)
                break
            except InjectedCrash:
                restarts += 1  # the worker "died"; a fresh one takes over
        info = queue.campaign(campaign_id)
        dead = queue.jobs(state=DEAD, campaign_id=campaign_id)
        if dead:
            reasons = [job.error for job in dead]
            if not all(reasons):
                return "violated", "dead-lettered job without a captured reason", restarts
            return "dead_letter", f"{len(dead)} job(s) parked with reasons", restarts
        if info["state"] != "complete":
            return "violated", f"campaign ended {info['state']!r} with no dead letters", restarts
        from repro.campaign.store import ResultStore

        digests = sorted(_row_digest(row) for row in ResultStore(store_path).rows())
        if baselines.scenario_digest() not in digests:
            return "violated", "farm row differs from fault-free baseline", restarts
        return "healed", "campaign completed; rows digest-identical to baseline", restarts
    finally:
        queue.close()


def _run_client_flow(injector: FaultInjector, workspace: str, baselines: _Baselines) -> tuple[str, str, int]:
    """Exercise the retrying HTTP client against a live control plane."""
    from repro.service.api import FarmService, make_server
    from repro.service.cli import HttpClient
    from repro.service.queue import JobQueue

    queue = JobQueue(os.path.join(workspace, "queue.sqlite"))
    server = make_server(FarmService(queue, os.path.join(workspace, "results.jsonl")), "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = HttpClient(f"http://{host}:{port}", timeout=10.0, retries=4)
        restarts = 0
        stats = None
        # Two requests so occurrence-2 schedules reach their arrival too.
        for call in (client.campaigns, client.stats):
            for _ in range(MAX_RESTARTS + 1):
                try:
                    stats = call()
                    break
                except InjectedCrash:
                    restarts += 1  # the client "died"; re-requesting is safe
        if not isinstance(stats, dict) or "jobs" not in stats:
            return "violated", "client never recovered a stats response", restarts
        return "healed", "request retried/resubmitted to success", restarts
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        queue.close()


_FLOWS = {
    "cache": _run_cache_flow,
    "store": _run_store_flow,
    "sink": _run_sink_flow,
    "farm": _run_farm_flow,
    "client": _run_client_flow,
}


# The sweep --------------------------------------------------------------------


def run_one_fault(
    spec: FaultSpec, baselines: _Baselines | None = None, workspace: str | None = None
) -> FaultOutcome:
    """One single-fault experiment in a fresh workspace."""
    flow = flow_for_point(spec.point)
    baselines = baselines if baselines is not None else _Baselines()
    owns_workspace = workspace is None
    if owns_workspace:
        workspace = tempfile.mkdtemp(prefix=f"faults-{flow}-")
    try:
        injector = FaultInjector(FaultPlan(specs=(spec,), seed=None))
        with use(injector):
            try:
                verdict, detail, restarts = _FLOWS[flow](injector, workspace, baselines)
            # detlint: ignore[broad-except] terminal verdict capture: any leak is the "violated" verdict
            except Exception:
                return FaultOutcome(
                    spec=spec,
                    flow=flow,
                    verdict="violated",
                    detail="flow raised instead of healing or dead-lettering",
                    error=traceback.format_exc(),
                )
        return FaultOutcome(
            spec=spec,
            flow=flow,
            verdict=verdict,
            detail=detail,
            restarts=restarts,
            fired=bool(injector.fired),
        )
    finally:
        if owns_workspace:
            shutil.rmtree(workspace, ignore_errors=True)


def run_sweep(
    seed: int,
    *,
    points: list[str] | None = None,
    kinds: list[str] | None = None,
    faults_per_point: int = 1,
    max_occurrence: int = 2,
    log=None,
) -> SweepReport:
    """Run the full seeded sweep and return its report.

    ``log`` (optional callable) receives one line per experiment as it
    completes, for CLI progress.
    """
    plan = FaultPlan.generate(
        seed,
        points=points,
        kinds=kinds,
        faults_per_point=faults_per_point,
        max_occurrence=max_occurrence,
    )
    regenerated = FaultPlan.generate(
        seed,
        points=points,
        kinds=kinds,
        faults_per_point=faults_per_point,
        max_occurrence=max_occurrence,
    )
    telemetry = obs_core.Telemetry(run_id=f"faults-sweep-{seed}")
    report = SweepReport(
        seed=seed,
        plan_fingerprint=plan.fingerprint(),
        regenerated_fingerprint=regenerated.fingerprint(),
    )
    with obs_core.use(telemetry):
        baselines = _Baselines()
        for spec in plan:
            outcome = run_one_fault(spec, baselines)
            report.outcomes.append(outcome)
            if log is not None:
                log(
                    f"[{outcome.verdict:>11}] {spec.point} {spec.kind} "
                    f"(occurrence {spec.occurrence}): {outcome.detail}"
                )
    report.counters = {
        "faults_injected_total": _counter_total(telemetry, "faults_injected_total"),
        "corruption_detected_total": _counter_total(telemetry, "corruption_detected_total"),
        "quarantine_total": _counter_total(telemetry, "quarantine_total"),
        "heal_total": _counter_total(telemetry, "heal_total"),
    }
    report._telemetry = telemetry  # type: ignore[attr-defined]  # for obs export
    return report


def _counter_total(telemetry: "obs_core.Telemetry", name: str) -> float:
    for metric in telemetry.metrics():
        if metric.name == name and metric.kind == "counter":
            return metric.total()
    return 0.0


def save_report(report: SweepReport, out_dir: str) -> dict[str, str]:
    """Write ``report.json`` (+ obs exports when available); return the paths."""
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report.as_dict(), handle, sort_keys=True, indent=2)
        handle.write("\n")
    paths = {"report": report_path}
    telemetry = getattr(report, "_telemetry", obs_core.NULL)
    if telemetry.enabled:
        from repro import obs

        paths.update(obs.save(telemetry, os.path.join(out_dir, "obs")))
    return paths
