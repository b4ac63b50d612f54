"""Telemetry core: spans, metrics, snapshots, merge, context binding."""

from __future__ import annotations

import concurrent.futures
import pickle

import pytest

from repro.obs.core import (
    DEFAULT_LATENCY_BUCKETS_MS,
    EVENT_FORMAT_VERSION,
    NULL,
    Telemetry,
    TelemetryError,
    current,
    resolve,
    use,
)


class SteppingClock:
    """Deterministic clock: every call advances by a fixed step."""

    def __init__(self, step: float = 1.0, start: float = 0.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        value = self.now
        self.now += self.step
        return value


def fixed_telemetry(run_id: str = "test") -> Telemetry:
    return Telemetry(
        run_id,
        clock=SteppingClock(),
        cpu_clock=SteppingClock(0.5),
        wall_time=lambda: 1_000_000.0,
    )


class TestSpans:
    def test_nesting_parent_ids(self):
        tele = fixed_telemetry()
        with tele.span("outer") as outer:
            with tele.span("middle") as middle:
                with tele.span("inner") as inner:
                    pass
            with tele.span("sibling") as sibling:
                pass
        assert outer.parent_id is None
        assert middle.parent_id == outer.span_id
        assert inner.parent_id == middle.span_id
        assert sibling.parent_id == outer.span_id
        assert [span.name for span in tele.spans] == ["outer", "middle", "inner", "sibling"]

    def test_span_closed_on_exception_and_error_recorded(self):
        tele = fixed_telemetry()
        with pytest.raises(RuntimeError):
            with tele.span("outer"):
                with tele.span("failing"):
                    raise RuntimeError("boom")
        outer, failing = tele.spans
        assert failing.error == "RuntimeError"
        assert failing.end is not None and failing.cpu_end is not None
        # The outer span also closed (the exception propagated through it).
        assert outer.error == "RuntimeError"
        assert outer.end is not None
        # The stack unwound: a new span is a root again, not a child of the
        # crashed one.
        with tele.span("after") as after:
            pass
        assert after.parent_id is None

    def test_span_timing_from_injected_clock(self):
        tele = fixed_telemetry()
        with tele.span("timed") as span:
            pass
        # clock: epoch=0, span start=1, end=2 -> wall 1.0; cpu step 0.5.
        assert span.wall_seconds == pytest.approx(1.0)
        assert span.cpu_seconds == pytest.approx(0.5)

    def test_open_span_reports_zero_wall(self):
        tele = fixed_telemetry()
        ctx = tele.span("open")
        ctx.__enter__()
        assert tele.spans[0].wall_seconds == 0.0
        ctx.__exit__(None, None, None)
        assert tele.spans[0].wall_seconds > 0.0

    def test_labels_coerced_to_strings(self):
        tele = fixed_telemetry()
        with tele.span("s", stage=3, cached=True) as span:
            pass
        assert span.labels == {"stage": "3", "cached": "True"}


class TestMetrics:
    def test_counter_accumulates_per_series(self):
        tele = fixed_telemetry()
        ops = tele.counter("ops_total", "ops", labels=("kind",))
        ops.inc(kind="read")
        ops.inc(2, kind="read")
        ops.inc(5, kind="write")
        assert ops.value(kind="read") == 3
        assert ops.value(kind="write") == 5
        assert ops.total() == 8

    def test_counter_rejects_negative(self):
        tele = fixed_telemetry()
        with pytest.raises(TelemetryError):
            tele.counter("c").inc(-1)

    def test_gauge_takes_last_value(self):
        tele = fixed_telemetry()
        gauge = tele.gauge("depth")
        gauge.set(4)
        gauge.set(2)
        assert gauge.value() == 2

    def test_histogram_observe_and_quantiles(self):
        tele = fixed_telemetry()
        hist = tele.histogram("lat_ms", buckets=(1.0, 10.0, 100.0), unit="ms")
        series = hist.labels()
        for value in (0.5, 0.5, 5.0, 50.0):
            series.observe(value)
        assert series.count == 4
        assert series.sum == pytest.approx(56.0)
        assert series.quantile(0.5) == 1.0  # two of four observations <= 1.0
        assert series.quantile(1.0) == 100.0

    def test_observe_many_matches_observe(self):
        values = [0.0005, 0.003, 0.4, 2.0, 80.0, 5000.0]
        tele = fixed_telemetry()
        one = tele.histogram("one").labels()
        many = tele.histogram("many").labels()
        for value in values:
            one.observe(value)
        many.observe_many(values)
        assert one.counts == many.counts
        assert one.sum == pytest.approx(many.sum)
        assert one.count == many.count

    def test_reregistration_returns_same_family(self):
        tele = fixed_telemetry()
        first = tele.counter("hits", labels=("stage",))
        second = tele.counter("hits", labels=("stage",))
        assert first is second

    def test_kind_clash_rejected(self):
        tele = fixed_telemetry()
        tele.counter("metric_x")
        with pytest.raises(TelemetryError):
            tele.gauge("metric_x")

    def test_label_mismatch_rejected(self):
        tele = fixed_telemetry()
        counter = tele.counter("labelled", labels=("a",))
        with pytest.raises(TelemetryError):
            counter.inc(b="nope")

    def test_invalid_names_rejected(self):
        tele = fixed_telemetry()
        with pytest.raises(TelemetryError):
            tele.counter("bad name")
        with pytest.raises(TelemetryError):
            tele.counter("ok", labels=("bad-label",))


class TestDeterministicEvents:
    def _record(self) -> Telemetry:
        tele = fixed_telemetry()
        with tele.span("pipeline", stages="2"):
            with tele.span("stage", stage="a"):
                pass
            with tele.span("stage", stage="b"):
                pass
        tele.counter("ops_total", "ops", labels=("kind",)).inc(3, kind="read")
        tele.gauge("files").set(42)
        tele.histogram("lat_ms", unit="ms").labels().observe_many([0.1, 0.2, 5.0])
        return tele

    def test_same_clock_same_events(self):
        events_a = self._record().to_events()
        events_b = self._record().to_events()
        assert events_a == events_b
        assert events_a[0]["type"] == "meta"
        assert events_a[0]["format"] == EVENT_FORMAT_VERSION

    def test_event_ordering(self):
        events = self._record().to_events()
        types = [event["type"] for event in events]
        # meta first, then all spans, then all metric series.
        assert types[0] == "meta"
        span_part = [t for t in types if t == "span"]
        metric_part = [t for t in types if t == "metric"]
        assert types == ["meta"] + span_part + metric_part
        metric_names = [e["name"] for e in events if e["type"] == "metric"]
        assert metric_names == sorted(metric_names)

    def test_events_round_trip(self):
        tele = self._record()
        rebuilt = Telemetry.from_events(tele.to_events())
        assert rebuilt.to_events()[1:] == tele.to_events()[1:]  # meta pid/epoch aside
        assert rebuilt.meta["run_id"] == "test"

    def test_unknown_format_rejected(self):
        events = self._record().to_events()
        events[0]["format"] = EVENT_FORMAT_VERSION + 1
        with pytest.raises(TelemetryError):
            Telemetry.from_events(events)


class TestSnapshotMerge:
    def test_snapshot_is_picklable(self):
        tele = fixed_telemetry()
        with tele.span("s"):
            pass
        tele.counter("c").inc()
        snapshot = tele.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot

    def test_merge_semantics(self):
        parent = fixed_telemetry("parent")
        parent.counter("ops").inc(2)
        parent.gauge("files").set(10)
        parent.histogram("lat", buckets=(1.0, 10.0)).labels().observe_many([0.5, 5.0])

        child = fixed_telemetry("child")
        with child.span("worker"):
            pass
        child.counter("ops").inc(3)
        child.gauge("files").set(99)
        child.histogram("lat", buckets=(1.0, 10.0)).labels().observe_many([0.5, 50.0])

        parent.merge(child.snapshot())
        assert parent.counter("ops").value() == 5  # counters add
        assert parent.gauge("files").value() == 99  # gauges take incoming
        series = parent.histogram("lat", buckets=(1.0, 10.0)).labels()
        assert series.count == 4  # buckets add
        assert series.counts == [2, 1, 1]
        assert [span.name for span in parent.spans] == ["worker"]

    def test_merge_remaps_span_ids(self):
        parent = fixed_telemetry()
        with parent.span("local"):
            pass
        child = fixed_telemetry()
        with child.span("outer"):
            with child.span("inner"):
                pass
        parent.merge(child.snapshot())
        by_name = {span.name: span for span in parent.spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        ids = [span.span_id for span in parent.spans]
        assert len(ids) == len(set(ids))

    def test_merge_extra_labels(self):
        parent = fixed_telemetry()
        child = fixed_telemetry()
        child.counter("ops", labels=("kind",)).inc(4, kind="read")
        parent.merge(child.snapshot(), extra_labels={"worker": 3})
        merged = parent.counter("ops", labels=("kind", "worker"))
        assert merged.value(kind="read", worker="3") == 4

    def test_merge_extra_labels_widen_existing_family(self):
        parent = fixed_telemetry()
        parent.gauge("image_bytes").set(100)
        for shard, value in ((0, 40), (1, 60)):
            child = fixed_telemetry()
            child.gauge("image_bytes").set(value)
            parent.merge(child.snapshot(), extra_labels={"shard": shard})
        merged = parent.gauge("image_bytes", labels=("shard",))
        assert merged.value(shard="") == 100  # the parent's own series survives
        assert merged.value(shard="0") == 40
        assert merged.value(shard="1") == 60

    def test_merge_pads_incoming_series_missing_a_label(self):
        parent = fixed_telemetry()
        parent.counter("ops", labels=("kind", "shard")).inc(1, kind="read", shard="0")
        child = fixed_telemetry()
        child.counter("ops", labels=("kind",)).inc(2, kind="read")
        parent.merge(child.snapshot())
        merged = parent.counter("ops", labels=("kind", "shard"))
        assert merged.value(kind="read", shard="0") == 1
        assert merged.value(kind="read", shard="") == 2

    def test_merge_label_already_declared_is_not_duplicated(self):
        parent = fixed_telemetry()
        child = fixed_telemetry()
        child.counter("files", labels=("shard",)).inc(7, shard="2")
        parent.merge(child.snapshot(), extra_labels={"shard": 2})
        assert parent.counter("files", labels=("shard",)).value(shard="2") == 7

    def test_merge_kind_clash_still_rejected(self):
        parent = fixed_telemetry()
        parent.gauge("x").set(1)
        child = fixed_telemetry()
        child.counter("x").inc()
        with pytest.raises(TelemetryError):
            parent.merge(child.snapshot(), extra_labels={"shard": 0})

    def test_merge_bucket_mismatch_rejected(self):
        parent = fixed_telemetry()
        parent.histogram("lat", buckets=(1.0, 10.0)).labels().observe(0.5)
        child = fixed_telemetry()
        child.histogram("lat", buckets=(1.0, 10.0, 100.0)).labels().observe(0.5)
        snapshot = child.snapshot()
        # Same declared buckets would be required; the family re-registers
        # with the child's buckets but the existing series has fewer counts.
        with pytest.raises(TelemetryError):
            parent.merge(snapshot)


def _worker_snapshot(args: tuple[int, list[float]]) -> dict:
    """Process-pool worker: observe a latency batch, return the snapshot."""
    worker_id, values = args
    tele = Telemetry(run_id=f"worker-{worker_id}")
    with tele.span("chunk", worker=str(worker_id)):
        tele.histogram(
            "replay_op_latency_ms", labels=("op_class",), unit="ms"
        ).labels(op_class="read").observe_many(values)
        tele.counter("ops_total").inc(len(values))
    return tele.snapshot()


class TestProcessPoolMerge:
    def test_histogram_merge_across_workers(self):
        batches = [
            (0, [0.004, 0.2, 1.5]),
            (1, [0.04, 30.0]),
            (2, [0.5, 0.6, 0.7, 2000.0]),
        ]
        with concurrent.futures.ProcessPoolExecutor(max_workers=2) as pool:
            snapshots = list(pool.map(_worker_snapshot, batches))

        parent = Telemetry(run_id="parent")
        for snapshot in snapshots:
            parent.merge(snapshot)

        all_values = [value for _, values in batches for value in values]
        series = parent.histogram(
            "replay_op_latency_ms", labels=("op_class",), unit="ms"
        ).labels(op_class="read")
        assert series.count == len(all_values)
        assert series.sum == pytest.approx(sum(all_values))
        # The merged distribution equals observing everything in one process.
        reference = Telemetry().histogram("ref").labels()
        reference.observe_many(all_values)
        assert series.counts == reference.counts
        assert parent.counter("ops_total").value() == len(all_values)
        # Worker spans kept their origin pid; at least one differs from ours.
        pids = {span.pid for span in parent.spans}
        assert len(pids) >= 1
        assert all(span.name == "chunk" for span in parent.spans)


class TestContextBinding:
    def test_use_binds_and_restores(self):
        assert current() is NULL
        tele = fixed_telemetry()
        with use(tele):
            assert current() is tele
            inner = fixed_telemetry()
            with use(inner):
                assert current() is inner
            assert current() is tele
        assert current() is NULL

    def test_use_none_disables(self):
        tele = fixed_telemetry()
        with use(tele):
            with use(None) as bound:
                assert bound is NULL
                assert current() is NULL
            assert current() is tele

    def test_resolve_prefers_explicit_telemetry(self):
        tele = fixed_telemetry()
        assert resolve() is NULL
        assert resolve(tele) is tele
        with use(tele):
            assert resolve() is tele
            assert resolve(NULL) is NULL


class TestNullTelemetry:
    def test_current_is_never_none(self):
        assert current() is not None
        with use(None):
            assert current() is not None
        assert NULL.enabled is False
        assert Telemetry().enabled is True

    def test_span_times_its_block_and_keeps_nothing(self):
        with NULL.span("outer", stage="x") as outer:
            with NULL.span("inner") as inner:
                sum(range(10_000))
        assert outer.wall_seconds > 0.0
        assert inner.wall_seconds > 0.0
        assert outer.wall_seconds >= inner.wall_seconds
        assert outer.name == "outer"
        assert NULL.spans == []
        assert NULL.snapshot()["spans"] == []

    def test_span_records_error_and_propagates(self):
        with pytest.raises(KeyError):
            with NULL.span("boom") as record:
                raise KeyError("x")
        assert record.error == "KeyError"
        assert record.end is not None
        assert NULL.spans == []

    def test_metrics_merge_and_snapshot_are_noops(self):
        counter = NULL.counter("c_total", "help", labels=("kind",))
        counter.inc(5, kind="a")
        counter.labels(kind="a").inc()
        NULL.gauge("g").set(3.0)
        NULL.gauge("g").labels().inc()
        histogram = NULL.histogram("h_ms", labels=("op",), unit="ms")
        histogram.observe(1.0, op="read")
        histogram.labels(op="read").observe_many([1.0, 2.0])
        assert counter.value(kind="a") == 0.0
        assert NULL.metrics() == []

        source = fixed_telemetry()
        source.counter("merged_total").inc(7)
        with source.span("child"):
            pass
        NULL.merge(source.snapshot(), extra_labels={"shard": 0})
        snapshot = NULL.snapshot()
        assert snapshot["spans"] == []
        assert snapshot["metrics"] == {}
        assert NULL.to_events()[1:] == []

    def test_summary_dict_is_empty(self):
        from repro.obs.export import summary_dict

        NULL.counter("anything_total").inc()
        assert summary_dict(NULL) == {}

    def test_null_is_shareable_across_threads(self):
        def work(index: int) -> float:
            with NULL.span("t", index=index) as record:
                NULL.counter("x_total").inc()
            return record.wall_seconds

        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            walls = list(pool.map(work, range(32)))
        assert all(wall >= 0.0 for wall in walls)
        assert NULL.spans == []


class TestDefaults:
    def test_default_buckets_strictly_increasing(self):
        assert list(DEFAULT_LATENCY_BUCKETS_MS) == sorted(DEFAULT_LATENCY_BUCKETS_MS)
        assert len(set(DEFAULT_LATENCY_BUCKETS_MS)) == len(DEFAULT_LATENCY_BUCKETS_MS)

    def test_bad_buckets_rejected(self):
        tele = Telemetry()
        with pytest.raises(TelemetryError):
            tele.histogram("h", buckets=())
        with pytest.raises(TelemetryError):
            tele.histogram("h2", buckets=(1.0, 1.0))
