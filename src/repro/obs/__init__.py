"""``repro.obs`` — telemetry for the whole generation stack.

A dependency-free observability core: hierarchical :meth:`Telemetry.span`
context managers with monotonic wall/CPU timing, typed counters / gauges /
histograms with labeled series, picklable snapshots that merge across
process-pool workers, and pluggable emitters — an append-only JSONL event
log, a Chrome ``trace_event`` export (``chrome://tracing`` / Perfetto), a
Prometheus text-exposition snapshot, and a human summary folded into the
reproducibility report.

Instrumented subsystems (the pipeline runner, the trace replayer, the
materializer, the campaign runner) pick the active telemetry up from the
:func:`current` context binding.  With nothing bound that is :data:`NULL`,
whose spans still time their block (every phase timing in the results is
read from a span) but keep nothing::

    from repro import obs

    telemetry = obs.Telemetry(run_id="demo")
    with obs.use(telemetry):
        Impressions(config).generate()
    obs.save(telemetry, "out/obs")     # events.jsonl, trace.json, metrics.prom, summary.txt

or pass ``--obs-dir out/obs`` to ``impressions`` / ``impressions trace
replay`` / ``impressions materialize`` / ``impressions campaign run`` and
inspect the artifacts with ``impressions obs summarize|export|compare``.
"""

from repro.obs.core import (
    DEFAULT_LATENCY_BUCKETS_MS,
    EVENT_FORMAT_VERSION,
    Counter,
    Gauge,
    Histogram,
    NULL,
    NullTelemetry,
    SpanRecord,
    Telemetry,
    TelemetryError,
    current,
    resolve,
    use,
)
from repro.obs.export import (
    CHROME_TRACE_FILENAME,
    EVENTS_FILENAME,
    PROMETHEUS_FILENAME,
    SUMMARY_FILENAME,
    chrome_trace,
    compare_rows,
    prometheus_text,
    read_events_jsonl,
    render_text,
    resolve_events_path,
    save,
    summary_dict,
    write_events_jsonl,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "EVENT_FORMAT_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "SpanRecord",
    "Telemetry",
    "TelemetryError",
    "NULL",
    "NullTelemetry",
    "current",
    "resolve",
    "use",
    "EVENTS_FILENAME",
    "CHROME_TRACE_FILENAME",
    "PROMETHEUS_FILENAME",
    "SUMMARY_FILENAME",
    "chrome_trace",
    "compare_rows",
    "prometheus_text",
    "read_events_jsonl",
    "render_text",
    "resolve_events_path",
    "save",
    "summary_dict",
    "write_events_jsonl",
]
