"""The dependency-free telemetry core: spans, metrics, snapshots.

One :class:`Telemetry` object accompanies one run (a pipeline execution, a
trace replay, a campaign scenario).  It records two kinds of data:

* **spans** — hierarchical wall/CPU timed regions opened with
  :meth:`Telemetry.span`; nesting is tracked automatically, exceptions close
  the span and tag it with the error class, and a fixed clock can be injected
  so tests get deterministic timestamps;
* **metrics** — typed counters, gauges and histograms registered by name with
  declared label names; each ``(metric, label values)`` pair is an
  independent series (``stage=...``, ``op_class=...``, ``sink=...``,
  ``worker=...``).

Everything is plain data underneath: :meth:`Telemetry.snapshot` returns a
picklable/JSON-able dict, :meth:`Telemetry.merge` folds another process's
snapshot into this one (counters and histogram buckets add, gauges take the
incoming value), and :meth:`Telemetry.to_events` /
:meth:`Telemetry.from_events` round-trip through the append-only JSONL event
log that the exporters in :mod:`repro.obs.export` consume.

Instrumented subsystems find the active telemetry through a
:mod:`contextvars` binding: ``with use(telemetry): ...`` makes
:func:`current` return it for everything on the call path (the pipeline, the
trace replayer, the materializer), so campaign workers instrument the whole
stack by binding once.  When nothing is bound, :func:`current` returns
:data:`NULL`, a :class:`NullTelemetry` whose spans still time their block
but keep nothing and whose metrics are no-ops.  Instrumentation is therefore
always on and branch-free: every layer opens spans unconditionally and reads
its phase timings from the span records, observed or not.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import os
import re
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "EVENT_FORMAT_VERSION",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "TelemetryError",
    "SpanRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "Telemetry",
    "NullTelemetry",
    "NULL",
    "current",
    "resolve",
    "use",
]

#: Bumped when the JSONL event-log schema changes incompatibly.
EVENT_FORMAT_VERSION = 1

#: Default histogram buckets for simulated/measured latencies in milliseconds.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Snapshot keys of a metric family and of one of its series (event-log fields).
_FAMILY_KEYS = ("kind", "help", "label_names", "buckets", "unit")
_SERIES_KEYS = ("labels", "value", "counts", "sum", "count")


class TelemetryError(ValueError):
    """Raised on invalid metric/span usage (bad names, kind clashes, …)."""


def _check_name(name: str, what: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise TelemetryError(
            f"invalid {what} {name!r}: must match [a-zA-Z_][a-zA-Z0-9_]*"
        )
    return name


@dataclass
class SpanRecord:
    """One timed region: name, labels, wall/CPU interval, hierarchy."""

    span_id: int
    parent_id: int | None
    name: str
    labels: dict[str, str]
    start: float
    cpu_start: float
    end: float | None = None
    cpu_end: float | None = None
    error: str | None = None
    #: process the span was recorded in (distinguishes merged worker spans).
    pid: int = 0

    @property
    def wall_seconds(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def cpu_seconds(self) -> float:
        return (self.cpu_end - self.cpu_start) if self.cpu_end is not None else 0.0

    def as_dict(self) -> dict:
        out = {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "labels": dict(self.labels),
            "start": self.start,
            "end": self.end,
            "cpu_start": self.cpu_start,
            "cpu_end": self.cpu_end,
            "pid": self.pid,
        }
        if self.error is not None:
            out["error"] = self.error
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpanRecord":
        return cls(
            span_id=int(data["span_id"]),
            parent_id=(None if data.get("parent_id") is None else int(data["parent_id"])),
            name=str(data["name"]),
            labels={str(k): str(v) for k, v in dict(data.get("labels", {})).items()},
            start=float(data["start"]),
            cpu_start=float(data.get("cpu_start", 0.0)),
            end=(None if data.get("end") is None else float(data["end"])),
            cpu_end=(None if data.get("cpu_end") is None else float(data["cpu_end"])),
            error=(None if data.get("error") is None else str(data["error"])),
            pid=int(data.get("pid", 0)),
        )


# Metrics ----------------------------------------------------------------------


class _Metric:
    """Shared series bookkeeping for the three metric kinds."""

    kind = ""

    def __init__(self, name: str, help: str, label_names: Sequence[str]) -> None:
        self.name = _check_name(name, "metric name")
        self.help = help
        self.label_names = tuple(_check_name(label, "label name") for label in label_names)
        self._series: dict[tuple[str, ...], object] = {}

    def _key(self, labels: Mapping[str, object]) -> tuple[str, ...]:
        given = set(labels)
        declared = set(self.label_names)
        if given != declared:
            raise TelemetryError(
                f"metric {self.name!r} declares labels {sorted(declared)}, "
                f"got {sorted(given)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _widen(self, label_names: Sequence[str]) -> None:
        """Add the missing ``label_names``; existing series take ``""`` for them."""
        added = tuple(label for label in label_names if label not in self.label_names)
        if added:
            self.label_names += added
            padding = ("",) * len(added)
            self._series = {key + padding: state for key, state in self._series.items()}

    def series_items(self) -> list[tuple[dict[str, str], object]]:
        """``(labels, state)`` per series, sorted by label values."""
        return [
            (dict(zip(self.label_names, key)), self._series[key])
            for key in sorted(self._series)
        ]


class Counter(_Metric):
    """A monotonically increasing sum per label series."""

    kind = "counter"

    def labels(self, **labels: object) -> "_CounterSeries":
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = _CounterSeries()
            self._series[key] = series
        return series  # type: ignore[return-value]

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: object) -> float:
        return self.labels(**labels).value

    def total(self) -> float:
        return float(sum(series.value for series in self._series.values()))  # type: ignore[union-attr]


class _CounterSeries:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise TelemetryError("counters only go up; use a gauge for signed values")
        self.value += amount


class Gauge(_Metric):
    """A point-in-time value per label series (set/inc/dec)."""

    kind = "gauge"

    def labels(self, **labels: object) -> "_GaugeSeries":
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = _GaugeSeries()
            self._series[key] = series
        return series  # type: ignore[return-value]

    def set(self, value: float, **labels: object) -> None:
        self.labels(**labels).set(value)

    def value(self, **labels: object) -> float:
        return self.labels(**labels).value


class _GaugeSeries:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram(_Metric):
    """Bucketed distribution per label series (Prometheus-style ``le`` buckets).

    ``buckets`` are the finite upper bounds; an implicit ``+Inf`` bucket
    catches the tail.  ``unit`` names the observed quantity's unit (``ms``,
    ``seconds``, ``bytes``) and is used by summaries and the comparison rows.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: Sequence[str],
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        unit: str = "",
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(bound) for bound in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError("histogram buckets must be strictly increasing and non-empty")
        self.buckets = bounds
        self.unit = unit

    def labels(self, **labels: object) -> "_HistogramSeries":
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(self.buckets)
            self._series[key] = series
        return series  # type: ignore[return-value]

    def observe(self, value: float, **labels: object) -> None:
        self.labels(**labels).observe(value)


class _HistogramSeries:
    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        # counts[i] observations <= bounds[i]; counts[-1] is the +Inf bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Bulk observation, bucketed in numpy.

        The replayer collects per-op latencies into plain lists in its hot
        loop and buckets them here afterwards, as one array per op class, so
        per-op instrumentation cost stays a single ``list.append``.
        """
        import numpy as np

        if not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)
        array = np.asarray(values, dtype=float)
        if not array.size:
            return
        # counts[i] holds bounds[i-1] < value <= bounds[i], as bisect_left buckets.
        at_or_below = [int(np.count_nonzero(array <= bound)) for bound in self.bounds]
        edges = [0, *at_or_below, array.size]
        for index in range(len(self.counts)):
            self.counts[index] += edges[index + 1] - edges[index]
        self.sum += float(array.sum())
        self.count += array.size

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket)."""
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= target:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.bounds[-1] if self.bounds else 0.0
        return self.bounds[-1] if self.bounds else 0.0


# Telemetry --------------------------------------------------------------------

class Telemetry:
    """Per-run telemetry: a span log plus registered metric families.

    Args:
        run_id: free-form identifier recorded in the event-log meta line.
        clock: monotonic wall clock (seconds); ``time.perf_counter`` by
            default.  Tests inject a fixed/stepping clock for deterministic
            event ordering.
        cpu_clock: process CPU clock; ``time.process_time`` by default.
        wall_time: absolute epoch clock recorded once in the meta line
            (``time.time`` by default).
    """

    #: Whether what is recorded here is kept (see :class:`NullTelemetry`).
    enabled = True

    def __init__(
        self,
        run_id: str = "",
        *,
        clock: Callable[[], float] | None = None,
        cpu_clock: Callable[[], float] | None = None,
        wall_time: Callable[[], float] | None = None,
    ) -> None:
        self._clock = clock or time.perf_counter
        self._cpu_clock = cpu_clock or time.process_time
        self._epoch = self._clock()
        self._cpu_epoch = self._cpu_clock()
        self.meta: dict = {
            "format": EVENT_FORMAT_VERSION,
            "run_id": run_id,
            "pid": os.getpid(),
            "created_unix": float((wall_time or time.time)()),
        }
        self.spans: list[SpanRecord] = []
        self._stack: list[SpanRecord] = []
        self._next_span_id = 0
        self._metrics: dict[str, _Metric] = {}

    # Spans ------------------------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._epoch

    def _cpu_now(self) -> float:
        return self._cpu_clock() - self._cpu_epoch

    @contextlib.contextmanager
    def span(self, name: str, **labels: object) -> Iterator[SpanRecord]:
        """Open a timed span; nests under the innermost open span.

        The span is closed (end timestamps set) whether the block exits
        normally or by exception; an exception additionally records the
        exception class name on the span's ``error`` field before
        propagating.
        """
        record = SpanRecord(
            span_id=self._next_span_id,
            parent_id=self._stack[-1].span_id if self._stack else None,
            name=str(name),
            labels={str(key): str(value) for key, value in labels.items()},
            start=self._now(),
            cpu_start=self._cpu_now(),
            pid=int(self.meta["pid"]),
        )
        self._next_span_id += 1
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        except BaseException as error:
            record.error = type(error).__name__
            raise
        finally:
            self._stack.pop()
            record.end = self._now()
            record.cpu_end = self._cpu_now()

    # Metric registration ----------------------------------------------------

    def _register(self, metric: _Metric) -> _Metric:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if existing.kind != metric.kind or existing.label_names != metric.label_names:
                raise TelemetryError(
                    f"metric {metric.name!r} already registered as {existing.kind} "
                    f"with labels {list(existing.label_names)}"
                )
            return existing
        self._metrics[metric.name] = metric
        return metric

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return self._register(Counter(name, help, labels))  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return self._register(Gauge(name, help, labels))  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        unit: str = "",
    ) -> Histogram:
        return self._register(Histogram(name, help, labels, buckets, unit))  # type: ignore[return-value]

    def metrics(self) -> list[_Metric]:
        """Registered metric families, sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    # Snapshot / merge -------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable, JSON-able view of everything recorded so far."""
        metrics: dict[str, dict] = {}
        for metric in self.metrics():
            family: dict = {
                "kind": metric.kind,
                "help": metric.help,
                "label_names": list(metric.label_names),
                "series": [],
            }
            if isinstance(metric, Histogram):
                family["buckets"] = list(metric.buckets)
                family["unit"] = metric.unit
            for labels, state in metric.series_items():
                if isinstance(state, _HistogramSeries):
                    family["series"].append(
                        {
                            "labels": labels,
                            "counts": list(state.counts),
                            "sum": state.sum,
                            "count": state.count,
                        }
                    )
                else:
                    family["series"].append({"labels": labels, "value": state.value})  # type: ignore[union-attr]
            metrics[metric.name] = family
        return {
            "meta": dict(self.meta),
            "spans": [span.as_dict() for span in self.spans],
            "metrics": metrics,
        }

    def merge(self, snapshot: Mapping, extra_labels: Mapping[str, object] | None = None) -> None:
        """Fold a child :meth:`snapshot` (e.g. from a worker process) into this.

        Counters and histogram bucket counts/sums add; gauges take the
        incoming value (give workers distinguishing labels when that is not
        what you want).  Spans are appended verbatim — their recorded ``pid``
        keeps worker timelines apart in the Chrome trace.  ``extra_labels``
        are added to every merged metric series (the campaign runner tags
        worker snapshots with ``scenario=...`` spans already; pass e.g.
        ``{"worker": 3}`` to keep per-worker series separate instead).  A
        family registered here and in ``snapshot`` under different label
        names merges under the union of both.
        """
        extra = {str(k): str(v) for k, v in (extra_labels or {}).items()}
        base_id = self._next_span_id
        id_map: dict[int, int] = {}
        for index, span_data in enumerate(snapshot.get("spans", [])):
            record = SpanRecord.from_dict(span_data)
            id_map[record.span_id] = base_id + index
        for span_data in snapshot.get("spans", []):
            record = SpanRecord.from_dict(span_data)
            record.span_id = id_map[record.span_id]
            record.parent_id = (
                id_map.get(record.parent_id) if record.parent_id is not None else None
            )
            self.spans.append(record)
        self._next_span_id = base_id + len(id_map)

        for name, family in snapshot.get("metrics", {}).items():
            kind = family.get("kind")
            label_names = list(family.get("label_names", []))
            label_names += [label for label in sorted(extra) if label not in label_names]
            # A family this telemetry already holds under other labels (the
            # parent's own unlabelled ``image_bytes`` meeting a ``shard=N``
            # merge) widens to the union; missing label values are ``""``.
            existing = self._metrics.get(name)
            if existing is not None and existing.kind == kind:
                existing._widen(label_names)
                label_names = list(existing.label_names)
            if kind == "counter":
                metric: _Metric = self.counter(name, family.get("help", ""), label_names)
            elif kind == "gauge":
                metric = self.gauge(name, family.get("help", ""), label_names)
            elif kind == "histogram":
                metric = self.histogram(
                    name,
                    family.get("help", ""),
                    label_names,
                    buckets=family.get("buckets", DEFAULT_LATENCY_BUCKETS_MS),
                    unit=family.get("unit", ""),
                )
            else:
                raise TelemetryError(f"cannot merge metric {name!r} of unknown kind {kind!r}")
            for entry in family.get("series", []):
                labels = {**dict.fromkeys(label_names, ""), **dict(entry.get("labels", {})), **extra}
                if kind == "counter":
                    metric.labels(**labels).inc(float(entry.get("value", 0.0)))  # type: ignore[union-attr]
                elif kind == "gauge":
                    metric.labels(**labels).set(float(entry.get("value", 0.0)))  # type: ignore[union-attr]
                else:
                    series = metric.labels(**labels)  # type: ignore[union-attr]
                    counts = list(entry.get("counts", []))
                    if len(counts) != len(series.counts):
                        raise TelemetryError(
                            f"histogram {name!r}: bucket count mismatch on merge "
                            f"({len(counts)} vs {len(series.counts)})"
                        )
                    for index, count in enumerate(counts):
                        series.counts[index] += int(count)
                    series.sum += float(entry.get("sum", 0.0))
                    series.count += int(entry.get("count", 0))

    # Event-log round trip ---------------------------------------------------

    def to_events(self) -> list[dict]:
        """The canonical, deterministic event list of this telemetry.

        One ``meta`` event, then every span (sorted by start time then span
        id), then one ``metric`` event per series (sorted by metric name then
        label values).  Two runs under an identical injected clock produce an
        identical event list.
        """
        events: list[dict] = [{"type": "meta", **self.meta}]
        for span in sorted(self.spans, key=lambda s: (s.start, s.pid, s.span_id)):
            events.append({"type": "span", **span.as_dict()})
        snapshot = self.snapshot()
        for name in sorted(snapshot["metrics"]):
            family = snapshot["metrics"][name]
            for entry in family["series"]:
                event = {
                    "type": "metric",
                    "name": name,
                    "kind": family["kind"],
                    "help": family["help"],
                    "label_names": family["label_names"],
                    **entry,
                }
                if family["kind"] == "histogram":
                    event["buckets"] = family["buckets"]
                    event["unit"] = family["unit"]
                events.append(event)
        return events

    @classmethod
    def from_events(cls, events: Iterable[Mapping]) -> "Telemetry":
        """Rebuild a telemetry object from :meth:`to_events` output."""
        telemetry = cls()
        max_span_id = -1
        for event in events:
            event_type = event.get("type")
            if event_type == "meta":
                meta = {key: value for key, value in event.items() if key != "type"}
                fmt = int(meta.get("format", -1))
                if fmt != EVENT_FORMAT_VERSION:
                    raise TelemetryError(
                        f"unsupported event-log format {fmt} (expected {EVENT_FORMAT_VERSION})"
                    )
                telemetry.meta = meta
            elif event_type == "span":
                record = SpanRecord.from_dict(event)
                telemetry.spans.append(record)
                max_span_id = max(max_span_id, record.span_id)
            elif event_type == "metric":
                # One series is a one-family, one-series snapshot to merge.
                family = {key: event[key] for key in _FAMILY_KEYS if key in event}
                family["series"] = [{key: event[key] for key in _SERIES_KEYS if key in event}]
                telemetry.merge({"metrics": {str(event.get("name")): family}})
            else:
                raise TelemetryError(f"unknown event type {event_type!r}")
        telemetry._next_span_id = max_span_id + 1
        return telemetry


class _NullSeries:
    """The one series every :class:`NullTelemetry` family hands out."""

    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    dec = inc
    set = inc
    observe = inc

    def observe_many(self, values: Iterable[float]) -> None:
        pass


class _NullMetric:
    """The family every :class:`NullTelemetry` registration returns."""

    def labels(self, **labels: object) -> _NullSeries:
        return _NULL_SERIES

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        pass

    set = inc
    observe = inc

    def value(self, **labels: object) -> float:
        return 0.0

    def total(self) -> float:
        return 0.0


_NULL_SERIES = _NullSeries()
_NULL_METRIC = _NullMetric()


class NullTelemetry(Telemetry):
    """The telemetry :func:`current` returns when nothing is bound.

    :meth:`span` still times its block and yields a :class:`SpanRecord`, so
    callers read phase durations from spans whether or not anyone observes;
    the record is not kept.  Metric families are shared no-ops, :meth:`merge`
    drops the snapshot, and :meth:`snapshot` is always empty.  It holds no
    mutable state, so the one :data:`NULL` instance is safe to share across
    threads.
    """

    #: False only here: a bound :class:`Telemetry` keeps what it records.
    enabled = False

    @contextlib.contextmanager
    def span(self, name: str, **labels: object) -> Iterator[SpanRecord]:
        record = SpanRecord(0, None, str(name), {}, self._now(), self._cpu_now())
        try:
            yield record
        except BaseException as error:
            record.error = type(error).__name__
            raise
        finally:
            record.end = self._now()
            record.cpu_end = self._cpu_now()

    def counter(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Counter:
        return _NULL_METRIC  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", labels: Sequence[str] = ()) -> Gauge:
        return _NULL_METRIC  # type: ignore[return-value]

    def histogram(self, name: str, help: str = "", labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
                  unit: str = "") -> Histogram:
        return _NULL_METRIC  # type: ignore[return-value]

    def merge(self, snapshot: Mapping, extra_labels: Mapping[str, object] | None = None) -> None:
        pass


#: The shared null telemetry: bound whenever nothing else is.
NULL = NullTelemetry()

_CURRENT: contextvars.ContextVar[Telemetry] = contextvars.ContextVar(
    "impressions_telemetry", default=NULL
)


def current() -> Telemetry:
    """The telemetry bound on this call path; :data:`NULL` when none is."""
    return _CURRENT.get()


def resolve(telemetry: Telemetry | None = None) -> Telemetry:
    """``telemetry`` when given, else the bound one (the ``telemetry=None`` idiom)."""
    return telemetry if telemetry is not None else _CURRENT.get()


@contextlib.contextmanager
def use(telemetry: Telemetry | None) -> Iterator[Telemetry]:
    """Bind ``telemetry`` (``None`` binds :data:`NULL`) as :func:`current`."""
    bound = telemetry or NULL
    token = _CURRENT.set(bound)
    try:
        yield bound
    finally:
        _CURRENT.reset(token)
