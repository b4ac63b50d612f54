"""Campaign execution: scenario workers and the parallel runner.

Each scenario is an independent unit of work — generate the image described
by its knobs, run its steps, collect metrics — so the runner fans scenarios
out across a :class:`concurrent.futures.ProcessPoolExecutor` (image
generation is CPU-bound; processes sidestep the GIL).  :func:`run_scenario`
is a module-level function of a plain dict payload so it pickles cleanly.

Determinism contract: everything in a result row except the ``wall`` and
``cache`` sections is a pure function of the scenario (fingerprint, knobs,
steps, simulated metrics) — the stage cache restores bit-identical state, so
a cache-hit scenario reports the same metrics as a regenerated one.  Rows
are appended to the store in *scenario order*, not completion order, so two
runs of one spec yield byte-identical stores modulo ``wall``/``cache``
regardless of worker scheduling.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable

from repro.campaign.spec import CampaignSpec, Scenario
from repro.campaign.store import CACHE_KEY, ResultStore
from repro.core.config import ImpressionsConfig
from repro.obs import core as obs_core
from repro.pipeline.cache import StageCache
from repro.pipeline.registry import run_post_stage
from repro.pipeline.runner import default_pipeline

__all__ = [
    "run_scenario",
    "run_campaign",
    "CampaignRunResult",
    "HeartbeatEvent",
    "RESULT_FORMAT_VERSION",
    "TELEMETRY_KEY",
]

#: Version stamp written into every result row.
RESULT_FORMAT_VERSION = 1

#: Transport key for the worker's telemetry snapshot; the runner pops it off
#: the row before the store append, so stored rows keep the determinism
#: contract (byte-identical modulo ``wall``/``cache``).
TELEMETRY_KEY = "_telemetry"


def run_scenario(payload: dict) -> dict:
    """Execute one scenario payload (see :meth:`Scenario.payload`).

    Returns the complete result row: scenario identity, resolved knobs,
    per-step metrics namespaced as ``<label>.<metric>``, a ``wall`` section
    with wall-clock seconds for generation and each step, and — when the
    payload names a ``cache_dir`` — a ``cache`` section with the stage-cache
    counters of the generation pipeline (scenarios sharing generation knobs
    restore the image from the cache instead of regenerating it).

    With ``payload["telemetry"]`` truthy the scenario runs under a fresh
    :class:`repro.obs.Telemetry` (so the pipeline, replayers and sinks it
    drives are observed) and its picklable snapshot rides back to the parent
    under :data:`TELEMETRY_KEY`.
    """
    tele = (
        obs_core.Telemetry(run_id=str(payload["scenario"]))
        if payload.get("telemetry")
        else obs_core.NULL
    )
    with obs_core.use(tele), tele.span(
        "scenario", scenario=str(payload["scenario"]), campaign=str(payload["campaign"])
    ):
        config = ImpressionsConfig.from_knobs(payload["knobs"])
        cache_dir = payload.get("cache_dir")
        cache = StageCache(cache_dir) if cache_dir else None
        wall: dict[str, float] = {}
        with tele.span("generate") as record:
            pipeline_result = default_pipeline().run(config, cache=cache)
        image = pipeline_result.image
        wall["generate_seconds"] = record.wall_seconds

        metrics: dict[str, object] = {}
        for step_spec in payload["steps"]:
            params = dict(step_spec)
            name = params.pop("step")
            label = params.pop("label", name)
            with tele.span("step", step=name, label=label) as record:
                step_metrics = run_post_stage(name, image, config, params)
            wall[f"{label}_seconds"] = record.wall_seconds
            for key, value in step_metrics.items():
                metrics[f"{label}.{key}"] = value

    row = {
        "format": RESULT_FORMAT_VERSION,
        "campaign": payload["campaign"],
        "scenario": payload["scenario"],
        "fingerprint": payload["fingerprint"],
        "params": dict(payload["params"]),
        "knobs": dict(payload["knobs"]),
        "steps": [dict(step) for step in payload["steps"]],
        "metrics": metrics,
        "wall": wall,
    }
    if cache is not None:
        row[CACHE_KEY] = pipeline_result.cache_summary()
    if tele.enabled:
        row[TELEMETRY_KEY] = tele.snapshot()
    return row


@dataclass(frozen=True)
class HeartbeatEvent:
    """One live-progress beat of a campaign run.

    Emitted by :func:`run_campaign` through its ``heartbeat`` callback —
    on a steady interval while scenarios execute and once per completion —
    so the CLI can show scenarios done/total, what is in flight (ids and
    short fingerprints), a rolling completion rate and an ETA.
    """

    campaign: str
    done: int
    total: int
    skipped: int
    #: ``(scenario_id, short_fingerprint)`` pairs believed in flight.
    running: tuple[tuple[str, str], ...]
    elapsed_seconds: float
    #: completions per second over the recent window (0.0 before the first).
    rate_per_second: float
    #: estimated seconds to finish the pending set; None until a rate exists.
    eta_seconds: float | None

    def render(self) -> str:
        pct = 100.0 * self.done / self.total if self.total else 100.0
        parts = [f"[{self.campaign}] {self.done}/{self.total} scenarios ({pct:.0f}%)"]
        if self.skipped:
            parts.append(f"{self.skipped} skipped")
        if self.rate_per_second > 0:
            parts.append(f"{self.rate_per_second * 60.0:.1f}/min")
        if self.eta_seconds is not None:
            minutes, seconds = divmod(int(round(self.eta_seconds)), 60)
            parts.append(f"eta {minutes:d}:{seconds:02d}")
        line = ", ".join(parts)
        if self.running:
            shown = ", ".join(f"{sid}@{fp}" for sid, fp in self.running[:3])
            if len(self.running) > 3:
                shown += f", +{len(self.running) - 3} more"
            line += f" | running: {shown}"
        return line


class _Heartbeat:
    """Throttled heartbeat emitter with a rolling completion-rate window."""

    def __init__(
        self,
        emit: Callable[[HeartbeatEvent], None],
        interval: float,
        campaign: str,
        total: int,
        skipped: int,
    ) -> None:
        self.emit = emit
        self.interval = max(float(interval), 0.05)
        self.campaign = campaign
        self.total = total
        self.skipped = skipped
        self._start = time.perf_counter()
        self._last_emit = float("-inf")
        self._marks: list[float] = []

    def completed(self) -> None:
        self._marks.append(time.perf_counter())

    def beat(
        self,
        done: int,
        running: list[tuple[str, str]],
        *,
        force: bool = False,
    ) -> None:
        now = time.perf_counter()
        if not force and now - self._last_emit < self.interval:
            return
        self._last_emit = now
        # Rolling rate over the last few completions, measured from just
        # before the window starts (run start for the first few) — robust to
        # in-order appends clustering several completions into one instant.
        window = self._marks[-6:]
        if window:
            t0 = self._marks[-7] if len(self._marks) > 6 else self._start
            span = window[-1] - t0
            rate = len(window) / span if span > 0 else 0.0
        else:
            rate = 0.0
        remaining = max(0, self.total - done)
        eta = remaining / rate if rate > 0 else None
        self.emit(
            HeartbeatEvent(
                campaign=self.campaign,
                done=done,
                total=self.total,
                skipped=self.skipped,
                running=tuple(running),
                elapsed_seconds=now - self._start,
                rate_per_second=rate,
                eta_seconds=eta,
            )
        )


@dataclass
class CampaignRunResult:
    """What one ``run_campaign`` invocation did."""

    campaign: str
    store_path: str
    total_scenarios: int
    executed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    wall_seconds: float = 0.0

    def as_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "store": self.store_path,
            "scenarios": self.total_scenarios,
            "executed": len(self.executed),
            "skipped_existing": len(self.skipped),
            "wall_seconds": self.wall_seconds,
        }


def run_campaign(
    spec: CampaignSpec,
    store_path: str,
    *,
    workers: int = 1,
    force: bool = False,
    cache_dir: str | None = None,
    progress: Callable[[str], None] | None = None,
    telemetry: "obs_core.Telemetry | None" = None,
    heartbeat: Callable[[HeartbeatEvent], None] | None = None,
    heartbeat_interval: float = 2.0,
) -> CampaignRunResult:
    """Expand ``spec`` and execute every scenario not already in the store.

    Args:
        spec: the campaign to run.
        store_path: JSONL result store to append to (created if missing).
        workers: worker processes; ``1`` runs scenarios in-process (no pool),
            which is also the fallback when only one scenario is pending.
        force: re-run scenarios whose fingerprints are already stored
            (appending fresh rows) instead of skipping them.
        cache_dir: optional stage-cache directory shared by every scenario
            (and safe to share across campaigns): scenarios with the same
            generation knobs generate the image once and restore it from the
            cache afterwards.  Workers race benignly — cache writes are
            atomic and content-addressed.
        progress: optional callback receiving one human-readable line per
            scenario scheduled or skipped.
        telemetry: optional :class:`repro.obs.Telemetry` (defaults to the
            context-bound one).  When one is bound, every scenario runs
            observed in its worker and the per-worker snapshots merge back
            into this object — counters add, latency histograms merge
            bucket-wise — so one parent snapshot covers the whole sweep.
        heartbeat: optional callback receiving :class:`HeartbeatEvent` beats
            while scenarios execute (progress, rolling rate, ETA).
        heartbeat_interval: seconds between steady-state beats.

    Returns:
        A :class:`CampaignRunResult`; rows land in the store as a side effect.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    tele = obs_core.resolve(telemetry)
    store = ResultStore(store_path)
    scenarios = spec.expand()
    completed = store.fingerprints() if not force else set()

    pending: list[Scenario] = []
    result = CampaignRunResult(
        campaign=spec.name, store_path=store_path, total_scenarios=len(scenarios)
    )
    for scenario in scenarios:
        if scenario.fingerprint in completed:
            result.skipped.append(scenario.scenario_id)
            if progress:
                progress(f"skip {scenario.scenario_id} (already in store)")
        else:
            pending.append(scenario)
            if progress:
                progress(f"run  {scenario.scenario_id}")

    # Rows are appended as they complete (in scenario order, no matter which
    # worker finishes first), so a failure partway through keeps every
    # finished scenario in the store and the next run resumes from the crash
    # point via fingerprints.
    payloads = [scenario.payload() for scenario in pending]
    for payload in payloads:
        if cache_dir:
            payload["cache_dir"] = cache_dir
        if tele.enabled:
            payload["telemetry"] = True

    hb = (
        _Heartbeat(heartbeat, heartbeat_interval, spec.name, len(pending), len(result.skipped))
        if heartbeat is not None
        else None
    )

    def consume(row: dict) -> dict:
        tele.merge(row.pop(TELEMETRY_KEY, {}))
        return row

    with tele.span("campaign_run", campaign=spec.name, scenarios=str(len(pending))) as record:
        if hb is not None:
            hb.beat(0, [_running_pair(s) for s in pending[:workers]], force=True)
        if len(payloads) <= 1 or workers == 1:
            for index, (scenario, payload) in enumerate(zip(pending, payloads)):
                if hb is not None:
                    hb.beat(index, [_running_pair(scenario)])
                store.append(consume(run_scenario(payload)))
                result.executed.append(scenario.scenario_id)
                if hb is not None:
                    hb.completed()
                    hb.beat(
                        index + 1,
                        [_running_pair(s) for s in pending[index + 1 : index + 1 + workers]],
                        force=index + 1 == len(pending),
                    )
        else:
            with ProcessPoolExecutor(max_workers=min(workers, len(payloads))) as pool:
                futures = [pool.submit(run_scenario, payload) for payload in payloads]
                for index, (scenario, future) in enumerate(zip(pending, futures)):
                    if hb is None:
                        row = future.result()
                    else:
                        while True:
                            try:
                                row = future.result(timeout=hb.interval)
                                break
                            except FutureTimeoutError:
                                hb.beat(*_pool_progress(pending, futures, workers))
                    store.append(consume(row))
                    result.executed.append(scenario.scenario_id)
                    if hb is not None:
                        hb.completed()
                        done, running = _pool_progress(pending, futures, workers)
                        hb.beat(done, running, force=index + 1 == len(pending))

    result.wall_seconds = record.wall_seconds
    return result


def _running_pair(scenario: Scenario) -> tuple[str, str]:
    return (scenario.scenario_id, scenario.fingerprint[:12])


def _pool_progress(
    pending: list[Scenario], futures: list, workers: int
) -> tuple[int, list[tuple[str, str]]]:
    """(completed count, in-flight id/fingerprint pairs) for a future list."""
    done = 0
    running: list[tuple[str, str]] = []
    for scenario, future in zip(pending, futures):
        if future.done():
            done += 1
        elif len(running) < workers:
            running.append(_running_pair(scenario))
    return done, running
