"""Telemetry emitters: JSONL event log, Chrome trace, Prometheus text, summary.

The append-only JSONL event log (:func:`write_events_jsonl`) is the canonical
artifact — :func:`read_events_jsonl` rebuilds a full
:class:`~repro.obs.core.Telemetry` from it, so the other formats can be
re-derived offline (``impressions obs export``):

* :func:`chrome_trace` — a ``trace_event`` JSON document with one complete
  (``"ph": "X"``) event per span, loadable in ``chrome://tracing`` and
  Perfetto; span labels (including ``cached=true`` pipeline-stage marks)
  land in each event's ``args``.
* :func:`prometheus_text` — a Prometheus text-exposition snapshot of every
  metric series (histograms as cumulative ``_bucket{le=...}`` plus ``_sum``
  and ``_count``).
* :func:`render_text` / :func:`summary_dict` — the human summary folded into
  the :class:`~repro.core.report.ReproducibilityReport` and printed by
  ``impressions obs summarize``.

:func:`save` writes all four artifacts into one ``--obs-dir`` directory;
:func:`compare_rows` turns a telemetry object into rows shaped like campaign
result rows so :func:`repro.campaign.report.compare` can diff two runs'
metric snapshots with the same tolerance/direction machinery it applies to
campaign metrics.
"""

from __future__ import annotations

import json
import math
import os
from typing import IO, Mapping

from repro.obs.core import Counter, Gauge, Histogram, Telemetry, TelemetryError

__all__ = [
    "EVENTS_FILENAME",
    "CHROME_TRACE_FILENAME",
    "PROMETHEUS_FILENAME",
    "SUMMARY_FILENAME",
    "write_events_jsonl",
    "read_events_jsonl",
    "chrome_trace",
    "prometheus_text",
    "summary_dict",
    "render_text",
    "save",
    "compare_rows",
    "resolve_events_path",
]

EVENTS_FILENAME = "events.jsonl"
CHROME_TRACE_FILENAME = "trace.json"
PROMETHEUS_FILENAME = "metrics.prom"
SUMMARY_FILENAME = "summary.txt"


# JSONL event log --------------------------------------------------------------


def write_events_jsonl(telemetry: Telemetry, target: str | IO[str]) -> int:
    """Write the canonical event log; returns the number of events written."""
    events = telemetry.to_events()

    def _write(handle: IO[str]) -> None:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True, separators=(",", ":")))
            handle.write("\n")

    if isinstance(target, str):
        with open(target, "w", encoding="utf-8") as handle:
            _write(handle)
    else:
        _write(target)
    return len(events)


def resolve_events_path(path: str) -> str:
    """Accept either an obs directory or a direct event-log path."""
    if os.path.isdir(path):
        return os.path.join(path, EVENTS_FILENAME)
    return path


def read_events_jsonl(source: str | IO[str]) -> Telemetry:
    """Rebuild a telemetry object from a JSONL event log (path, dir, or handle)."""

    def _read(handle: IO[str]) -> Telemetry:
        events = []
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                raise TelemetryError(f"line {number}: malformed event: {error}") from error
            if not isinstance(event, dict):
                raise TelemetryError(f"line {number}: event must be a JSON object")
            events.append(event)
        return Telemetry.from_events(events)

    if isinstance(source, str):
        with open(resolve_events_path(source), "r", encoding="utf-8") as handle:
            return _read(handle)
    return _read(source)


# Chrome trace_event -----------------------------------------------------------


def chrome_trace(telemetry: Telemetry) -> dict:
    """A ``chrome://tracing`` / Perfetto-loadable trace document.

    Spans become complete events (``ph: "X"``) with microsecond timestamps
    relative to the telemetry epoch; the recording process id keeps merged
    worker snapshots on separate tracks.  Counter/gauge final values are
    appended as Chrome counter (``ph: "C"``) samples so cache hit totals and
    throughput gauges show up alongside the span timeline.
    """
    events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": int(telemetry.meta.get("pid", 0)),
            "tid": 0,
            "args": {"name": f"impressions:{telemetry.meta.get('run_id') or 'run'}"},
        }
    ]
    last_ts: dict[int, float] = {}
    for span in sorted(telemetry.spans, key=lambda s: (s.start, s.pid, s.span_id)):
        end = span.end if span.end is not None else span.start
        args: dict = dict(span.labels)
        args["cpu_ms"] = round(span.cpu_seconds * 1e3, 6)
        if span.error:
            args["error"] = span.error
        events.append(
            {
                "ph": "X",
                "cat": "span",
                "name": span.name,
                "ts": span.start * 1e6,
                "dur": max(0.0, (end - span.start)) * 1e6,
                "pid": span.pid,
                "tid": span.pid,
                "args": args,
            }
        )
        last_ts[span.pid] = max(last_ts.get(span.pid, 0.0), end * 1e6)
    pid = int(telemetry.meta.get("pid", 0))
    for metric in telemetry.metrics():
        if not isinstance(metric, (Counter, Gauge)):
            continue
        for labels, state in metric.series_items():
            series_name = _series_name(metric.name, labels)
            events.append(
                {
                    "ph": "C",
                    "cat": metric.kind,
                    "name": series_name,
                    "ts": last_ts.get(pid, 0.0),
                    "pid": pid,
                    "tid": pid,
                    "args": {"value": state.value},  # type: ignore[union-attr]
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# Prometheus text exposition ---------------------------------------------------


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _series_name(name: str, labels: Mapping[str, str]) -> str:
    return name + _label_str(labels)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def prometheus_text(telemetry: Telemetry) -> str:
    """A Prometheus text-format snapshot of every metric series."""
    lines: list[str] = []
    for metric in telemetry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for labels, state in metric.series_items():
            if isinstance(metric, Histogram):
                cumulative = 0
                for bound, count in zip(metric.buckets, state.counts):  # type: ignore[union-attr]
                    cumulative += count
                    bucket_labels = dict(labels)
                    bucket_labels["le"] = _format_value(bound)
                    lines.append(
                        f"{metric.name}_bucket{_label_str(bucket_labels)} {cumulative}"
                    )
                cumulative += state.counts[-1]  # type: ignore[union-attr]
                inf_labels = dict(labels)
                inf_labels["le"] = "+Inf"
                lines.append(f"{metric.name}_bucket{_label_str(inf_labels)} {cumulative}")
                lines.append(
                    f"{metric.name}_sum{_label_str(labels)} {_format_value(state.sum)}"  # type: ignore[union-attr]
                )
                lines.append(f"{metric.name}_count{_label_str(labels)} {state.count}")  # type: ignore[union-attr]
            else:
                lines.append(
                    f"{metric.name}{_label_str(labels)} {_format_value(state.value)}"  # type: ignore[union-attr]
                )
    return "\n".join(lines) + ("\n" if lines else "")


# Human summary ----------------------------------------------------------------


def summary_dict(telemetry: Telemetry) -> dict:
    """Compact numeric summary: per-span-name totals and per-series values.

    Empty for :data:`~repro.obs.core.NULL`, so an unobserved run's report
    carries no telemetry section.
    """
    if not telemetry.enabled:
        return {}
    span_totals: dict[str, dict] = {}
    for span in telemetry.spans:
        entry = span_totals.setdefault(
            span.name, {"count": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0, "errors": 0}
        )
        entry["count"] += 1
        entry["wall_seconds"] += span.wall_seconds
        entry["cpu_seconds"] += span.cpu_seconds
        if span.error:
            entry["errors"] += 1
    metrics: dict[str, dict] = {}
    for metric in telemetry.metrics():
        series_out = {}
        for labels, state in metric.series_items():
            key = _label_str(labels) or "{}"
            if isinstance(metric, Histogram):
                series_out[key] = {
                    "count": state.count,  # type: ignore[union-attr]
                    "sum": state.sum,  # type: ignore[union-attr]
                    "mean": state.mean,  # type: ignore[union-attr]
                    "p50": state.quantile(0.50),  # type: ignore[union-attr]
                    "p95": state.quantile(0.95),  # type: ignore[union-attr]
                }
            else:
                series_out[key] = state.value  # type: ignore[union-attr]
        metrics[metric.name] = {"kind": metric.kind, "unit": getattr(metric, "unit", ""),
                                "series": series_out}
    return {
        "run_id": telemetry.meta.get("run_id", ""),
        "spans": span_totals,
        "metrics": metrics,
    }


def render_text(telemetry: Telemetry) -> str:
    """Multi-line human summary: span tree, then metric tables."""
    lines = [
        f"telemetry summary (run {telemetry.meta.get('run_id') or '-'}, "
        f"{len(telemetry.spans)} spans)",
        "=" * 40,
    ]
    children: dict[int | None, list] = {}
    for span in sorted(telemetry.spans, key=lambda s: (s.pid, s.start, s.span_id)):
        children.setdefault((span.pid, span.parent_id), []).append(span)

    def _walk(pid: int, parent_id: int | None, indent: int) -> None:
        for span in children.get((pid, parent_id), []):
            label_str = _label_str(span.labels)
            error = f"  ERROR={span.error}" if span.error else ""
            lines.append(
                f"{'  ' * indent}{span.name}{label_str}: "
                f"{span.wall_seconds * 1e3:.2f} ms wall, "
                f"{span.cpu_seconds * 1e3:.2f} ms cpu{error}"
            )
            _walk(pid, span.span_id, indent + 1)

    pids = sorted({span.pid for span in telemetry.spans})
    for pid in pids:
        if len(pids) > 1:
            lines.append(f"process {pid}:")
        _walk(pid, None, 1 if len(pids) > 1 else 0)

    for metric in telemetry.metrics():
        lines.append("")
        unit = getattr(metric, "unit", "")
        suffix = f" ({unit})" if unit else ""
        lines.append(f"{metric.kind} {metric.name}{suffix}: {metric.help}".rstrip(": "))
        for labels, state in metric.series_items():
            key = _label_str(labels) or "(no labels)"
            if isinstance(metric, Histogram):
                lines.append(
                    f"  {key}: count={state.count} mean={state.mean:.4g} "  # type: ignore[union-attr]
                    f"p50={state.quantile(0.5):.4g} p95={state.quantile(0.95):.4g}"  # type: ignore[union-attr]
                )
            else:
                lines.append(f"  {key}: {_format_value(state.value)}")  # type: ignore[union-attr]
    return "\n".join(lines)


# Artifact bundle --------------------------------------------------------------


def save(telemetry: Telemetry, obs_dir: str) -> dict[str, str]:
    """Write all four artifacts into ``obs_dir``; returns name → path."""
    os.makedirs(obs_dir, exist_ok=True)
    paths = {
        "events": os.path.join(obs_dir, EVENTS_FILENAME),
        "chrome_trace": os.path.join(obs_dir, CHROME_TRACE_FILENAME),
        "prometheus": os.path.join(obs_dir, PROMETHEUS_FILENAME),
        "summary": os.path.join(obs_dir, SUMMARY_FILENAME),
    }
    write_events_jsonl(telemetry, paths["events"])
    with open(paths["chrome_trace"], "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(telemetry), handle, sort_keys=True)
    with open(paths["prometheus"], "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(telemetry))
    with open(paths["summary"], "w", encoding="utf-8") as handle:
        handle.write(render_text(telemetry))
        handle.write("\n")
    return paths


# Comparison rows --------------------------------------------------------------


def compare_rows(telemetry: Telemetry) -> dict[str, dict]:
    """Telemetry as campaign-compare rows: one row per metric series.

    Row ids are ``name{label="value",...}``; each row's ``metrics`` dict uses
    the real metric name as key (histograms expand to ``.count`` /
    ``.mean_<unit>`` / ``.p95_<unit>`` leaves), so
    :func:`repro.campaign.report.metric_direction` classifies latency and
    throughput changes exactly as it does campaign step metrics.
    """
    rows: dict[str, dict] = {}
    for metric in telemetry.metrics():
        for labels, state in metric.series_items():
            series = _series_name(metric.name, labels)
            if isinstance(metric, Histogram):
                unit = metric.unit or "value"
                rows[series] = {
                    "scenario": series,
                    "metrics": {
                        f"{metric.name}.count": state.count,  # type: ignore[union-attr]
                        f"{metric.name}.mean_{unit}": state.mean,  # type: ignore[union-attr]
                        f"{metric.name}.p95_{unit}": state.quantile(0.95),  # type: ignore[union-attr]
                    },
                }
            else:
                rows[series] = {
                    "scenario": series,
                    "metrics": {metric.name: state.value},  # type: ignore[union-attr]
                }
    return rows
