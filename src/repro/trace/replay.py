"""Trace replay engine.

Executes an :class:`~repro.trace.ops.OperationTrace` against the triple the
rest of the repo already models — :class:`~repro.namespace.tree.FileSystemTree`
namespace, :class:`~repro.layout.disk.SimulatedDisk` allocator, and
:class:`~repro.workloads.cache.BufferCache` — and reports per-op-class
simulated latency and byte counts derived from the disk's
:class:`~repro.layout.disk.DiskGeometry` cost model.

Two ways to drive it:

* :meth:`TraceReplayer.replay` runs a whole trace and returns a
  :class:`ReplayResult`;
* :meth:`TraceReplayer.execute` applies a single operation, for callers (like
  the trace-driven ager) that interleave replay with measurement.

All simulated statistics are a pure function of the trace and the initial
disk/cache state: replaying the same trace twice yields identical
:meth:`ReplayResult.as_dict` output.  Wall-clock throughput is reported
separately (:attr:`ReplayResult.wall_seconds`) so determinism checks are not
polluted by timing noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.image import FileSystemImage
from repro.layout.disk import AllocationError, DiskGeometry, DoubleFreeError, SimulatedDisk
from repro.obs import core as obs_core
from repro.trace.ops import Operation, OperationTrace
from repro.workloads.cache import BufferCache

__all__ = ["ReplayCostModel", "OpClassStats", "ReplayResult", "TraceReplayer"]

# Indices into the per-kind accumulator rows (kept as plain lists so the hot
# loop does no attribute lookups).
_COUNT, _SKIPPED, _TOTAL, _MIN, _MAX, _BYTES = range(6)


@dataclass(frozen=True)
class ReplayCostModel:
    """CPU-side cost constants of the replayer (milliseconds).

    Disk-side costs all come from the :class:`DiskGeometry` of the disk being
    replayed against; these constants only cover what never leaves memory.
    """

    #: processing a metadata access served from the buffer cache.
    cached_metadata_cpu_ms: float = 0.005
    #: per-block cost of a data read served from the buffer cache.
    cached_read_cpu_ms_per_block: float = 0.001
    #: namespace bookkeeping on create/delete/rename/mkdir, on top of the
    #: metadata write the disk charges.
    namespace_update_cpu_ms: float = 0.01


@dataclass
class OpClassStats:
    """Aggregated statistics for one operation kind."""

    count: int = 0
    skipped: int = 0
    total_ms: float = 0.0
    min_ms: float = 0.0
    max_ms: float = 0.0
    bytes_moved: int = 0

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "skipped": self.skipped,
            "total_ms": self.total_ms,
            "mean_ms": self.mean_ms,
            "min_ms": self.min_ms,
            "max_ms": self.max_ms,
            "bytes": self.bytes_moved,
        }


@dataclass
class ReplayResult:
    """Outcome of replaying one trace.

    ``as_dict`` contains only simulated, deterministic values; wall-clock
    figures live in :attr:`wall_seconds` / :attr:`ops_per_second`.
    """

    per_kind: dict[str, OpClassStats] = field(default_factory=dict)
    #: per-client aggregates, keyed by client tag; empty unless the trace
    #: carried client tags (see :func:`repro.trace.ops.merge_traces`).
    per_client: dict[str, OpClassStats] = field(default_factory=dict)
    executed: int = 0
    skipped: int = 0
    batches: int = 0
    simulated_ms: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    layout_score_before: float | None = None
    layout_score_after: float | None = None
    wall_seconds: float = 0.0

    @property
    def total_operations(self) -> int:
        return self.executed + self.skipped

    @property
    def ops_per_second(self) -> float:
        """Wall-clock replay throughput (how fast the engine itself runs)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.total_operations / self.wall_seconds

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def simulated_throughput_ops_s(self) -> float:
        """Throughput of the *simulated* disk (ops per simulated second)."""
        if self.simulated_ms <= 0.0:
            return 0.0
        return 1000.0 * self.executed / self.simulated_ms

    def as_dict(self) -> dict:
        out: dict = {
            "operations": self.total_operations,
            "executed": self.executed,
            "skipped": self.skipped,
            "batches": self.batches,
            "simulated_ms": self.simulated_ms,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_ratio": self.cache_hit_ratio,
            "per_kind": {kind: stats.as_dict() for kind, stats in sorted(self.per_kind.items())},
        }
        if self.per_client:
            out["per_client"] = {
                client: stats.as_dict() for client, stats in sorted(self.per_client.items())
            }
        if self.layout_score_before is not None:
            out["layout_score_before"] = self.layout_score_before
        if self.layout_score_after is not None:
            out["layout_score_after"] = self.layout_score_after
        return out


class TraceReplayer:
    """Replays operation traces against a namespace + disk + cache.

    Args:
        image: image whose disk and namespace the trace runs against.  The
            image's files are reachable under their tree paths.  When omitted,
            a standalone disk of ``disk_blocks`` blocks is created — the mode
            storm/churn traces (which build their own namespace) use.
        cache: buffer cache; a fresh unbounded cache by default (cold start).
        cost_model: CPU-side cost constants.
        disk_blocks: size of the standalone disk when ``image`` is None.
        strict: raise on inconsistent operations (create of an existing path,
            delete/read of a missing one) instead of counting them as skipped.
        telemetry: optional :class:`repro.obs.Telemetry`; when omitted,
            :meth:`replay` picks up the context-bound one
            (:func:`repro.obs.current`) at call time.  Either way the replay
            loop runs inside a ``trace_replay`` span whose duration is
            :attr:`ReplayResult.wall_seconds`.  A bound telemetry adds a
            per-op-class latency histogram, op/byte/cache counters and
            throughput gauges; under :data:`repro.obs.NULL` the plain loop
            runs, with no per-op work beyond ``execute``.
    """

    def __init__(
        self,
        image: FileSystemImage | None = None,
        *,
        cache: BufferCache | None = None,
        cost_model: ReplayCostModel | None = None,
        disk_blocks: int = 262_144,
        strict: bool = False,
        telemetry: "obs_core.Telemetry | None" = None,
    ) -> None:
        if image is not None and image.disk is not None:
            self._disk = image.disk
        else:
            self._disk = SimulatedDisk(num_blocks=disk_blocks)
        self._image = image
        self._cache = cache if cache is not None else BufferCache()
        self._costs = cost_model or ReplayCostModel()
        self._strict = strict
        self._geometry: DiskGeometry = self._disk.geometry
        # (runs, blocks) per on-disk file, maintained incrementally so read
        # costs stay O(1) after the first access.
        self._run_stats: dict[str, tuple[int, int]] = {}
        self._directories: set[str] = set()
        self._rows: dict[str, list] = {}
        self._client_rows: dict[str, list] = {}
        self._executed = 0
        self._skipped = 0
        self._simulated_ms = 0.0
        self._max_batch = -1
        self._telemetry = telemetry

    @property
    def disk(self) -> SimulatedDisk:
        return self._disk

    @property
    def cache(self) -> BufferCache:
        return self._cache

    def warm_cache(self) -> None:
        """Pre-load metadata and data of every existing on-disk file."""
        block_size = self._geometry.block_size
        items: dict[str, int] = {}
        for name in self._disk.file_names():
            items["meta:" + name] = 256
            items["data:" + name] = self._disk.block_count(name) * block_size
        self._cache.warm(items)

    # Replay -----------------------------------------------------------------

    def replay(self, trace: OperationTrace) -> ReplayResult:
        """Execute every operation of ``trace`` and return the statistics."""
        tele = obs_core.resolve(self._telemetry)
        score_before = self._image_layout_score()
        if tele.enabled:
            return self._replay_observed(trace, tele, score_before)
        # The plain loop: one span around it, so the per-op cost is the call
        # to ``execute`` alone.
        execute = self.execute
        with tele.span("trace_replay") as record:
            for operation in trace:
                execute(operation)
        return self._finish(record.wall_seconds, score_before)

    def _replay_observed(
        self, trace: OperationTrace, tele: "obs_core.Telemetry", score_before: float | None
    ) -> ReplayResult:
        """Replay under a bound telemetry and fold the per-op data into it.

        The timed region is a single C-level ``list(map(execute, ...))`` —
        the only per-op cost over the plain loop is building the latency
        list — and everything per-kind (samples, skipped counts, byte totals)
        is reconstructed afterwards from the latency list plus the
        accumulator-row deltas ``execute`` maintains anyway.
        """
        metadata = getattr(trace, "metadata", None) or {}
        trace_label = str(metadata.get("synthesizer") or metadata.get("name") or "trace")
        rows_before = {kind: (row[_SKIPPED], row[_BYTES]) for kind, row in self._rows.items()}
        hits_before = self._cache.hits
        misses_before = self._cache.misses
        with tele.span("trace_replay", trace=trace_label) as record:
            latencies = list(map(self.execute, trace))
        samples, skipped_by_kind, bytes_by_kind = self._regroup_samples(
            trace, latencies, rows_before
        )
        result = self._finish(record.wall_seconds, score_before)
        self._record_telemetry(
            tele,
            result,
            samples,
            skipped_by_kind,
            bytes_by_kind,
            hits=self._cache.hits - hits_before,
            misses=self._cache.misses - misses_before,
        )
        return result

    def _finish(self, wall_seconds: float, score_before: float | None) -> ReplayResult:
        result = self.result()
        result.wall_seconds = wall_seconds
        result.layout_score_before = score_before
        result.layout_score_after = self._image_layout_score()
        self._record_image_timing(wall_seconds)
        return result

    def _regroup_samples(
        self,
        trace: OperationTrace,
        latencies: list[float],
        rows_before: dict[str, tuple[int, int]],
    ) -> tuple[dict[str, list[float]], dict[str, int], dict[str, int]]:
        """Split the flat latency list into executed per-kind samples.

        ``execute`` returns 0.0 for (and only assigns a latency to) executed
        operations, so the executed sample multiset for a kind is its latency
        list minus one 0.0 entry per skipped operation — and zeros are
        interchangeable, so dropping *any* ``skipped`` zeros is exact even if
        a custom cost model priced some executed operation at 0.0.  Skipped
        and byte tallies come from the accumulator-row deltas.
        """
        samples: dict[str, list[float]] = {}
        for operation, latency in zip(trace, latencies):
            kind = operation.kind
            bucket = samples.get(kind)
            if bucket is None:
                bucket = samples[kind] = []
            bucket.append(latency)
        skipped_by_kind: dict[str, int] = {}
        bytes_by_kind: dict[str, int] = {}
        for kind, row in self._rows.items():
            skipped_before, bytes_before = rows_before.get(kind, (0, 0))
            skipped = row[_SKIPPED] - skipped_before
            if skipped:
                skipped_by_kind[kind] = skipped
            moved = row[_BYTES] - bytes_before
            if moved:
                bytes_by_kind[kind] = moved
        for kind, skipped in skipped_by_kind.items():
            values = samples.get(kind)
            if not values:
                continue
            kept: list[float] = []
            to_drop = skipped
            for value in values:
                if to_drop and value == 0.0:
                    to_drop -= 1
                else:
                    kept.append(value)
            if kept:
                samples[kind] = kept
            else:
                del samples[kind]
        return samples, skipped_by_kind, bytes_by_kind

    def _record_telemetry(
        self,
        tele: "obs_core.Telemetry",
        result: ReplayResult,
        samples: dict[str, list[float]],
        skipped_by_kind: dict[str, int],
        bytes_by_kind: dict[str, int],
        *,
        hits: int,
        misses: int,
    ) -> None:
        """Fold one observed replay into the telemetry object."""
        histogram = tele.histogram(
            "replay_op_latency_ms",
            "simulated per-operation latency",
            labels=("op_class",),
            unit="ms",
        )
        for kind in sorted(samples):
            histogram.labels(op_class=kind).observe_many(samples[kind])
        ops = tele.counter(
            "replay_ops_total",
            "replayed operations by class and outcome",
            labels=("op_class", "outcome"),
        )
        for kind in sorted(samples):
            ops.inc(len(samples[kind]), op_class=kind, outcome="executed")
        for kind in sorted(skipped_by_kind):
            ops.inc(skipped_by_kind[kind], op_class=kind, outcome="skipped")
        moved = tele.counter(
            "replay_bytes_total",
            "bytes moved by executed operations",
            labels=("op_class",),
        )
        for kind in sorted(bytes_by_kind):
            moved.inc(bytes_by_kind[kind], op_class=kind)
        cache_events = tele.counter(
            "replay_cache_events_total",
            "buffer cache hits/misses during replay",
            labels=("event",),
        )
        if hits:
            cache_events.inc(hits, event="hit")
        if misses:
            cache_events.inc(misses, event="miss")
        tele.gauge(
            "replay_ops_per_second", "wall-clock replay engine throughput"
        ).set(result.ops_per_second)
        tele.gauge(
            "replay_simulated_throughput_ops_s", "simulated disk throughput"
        ).set(result.simulated_throughput_ops_s)
        tele.gauge(
            "replay_cache_hit_ratio", "buffer cache hit ratio at snapshot time"
        ).set(result.cache_hit_ratio)

    def execute(self, operation: Operation) -> float:
        """Apply one operation; returns its simulated latency in ms."""
        kind = operation.kind
        path = operation.path
        size = operation.size
        disk = self._disk
        cache = self._cache
        costs = self._costs
        geometry = self._geometry

        skipped = False
        latency = 0.0
        if kind == "read":
            stats = self._run_stats.get(path)
            if stats is None:
                stats = self._compute_run_stats(path)
            if stats is None:
                skipped = True
                self._fail_if_strict(operation, "read of unknown file")
            else:
                runs, blocks = stats
                read_blocks = blocks
                if size and size < blocks * geometry.block_size:
                    read_blocks = max(1, (size + geometry.block_size - 1) // geometry.block_size)
                if cache.access("data:" + path, blocks * geometry.block_size):
                    latency = costs.cached_read_cpu_ms_per_block * max(read_blocks, 1)
                elif blocks == 0:
                    latency = geometry.access_time_ms(1, 1)
                else:
                    latency = geometry.access_time_ms(runs, read_blocks)
        elif kind == "stat":
            if cache.access("meta:" + path, 256):
                latency = costs.cached_metadata_cpu_ms
            else:
                latency = geometry.access_time_ms(1, 1)
        elif kind == "write":
            if disk.has_file(path):
                if operation.append:
                    try:
                        new_extents = disk.extend_extents(path, size)
                    except AllocationError:
                        skipped = True
                        self._fail_if_strict(operation, "disk full")
                    else:
                        latency = self._write_latency(new_extents)
                        self._refresh_run_stats(path)
                        cache.discard("data:" + path)
                else:
                    # In-place overwrite of the first `size` bytes; only the
                    # part past EOF (if any) allocates new blocks.
                    stats = self._run_stats.get(path) or self._compute_run_stats(path)
                    runs, blocks = stats
                    needed = disk.blocks_needed(size)
                    covered = min(blocks, needed) if blocks else 0
                    overflow = needed - blocks
                    if overflow > 0:
                        try:
                            new_extents = disk.extend_extents(
                                path, overflow * geometry.block_size
                            )
                        except AllocationError:
                            new_extents = []
                        self._refresh_run_stats(path)
                        covered += sum(length for _, length in new_extents)
                    if covered:
                        covered_runs = max(1, round(runs * covered / blocks)) if blocks else 1
                        latency = geometry.access_time_ms(covered_runs, covered)
                    else:
                        latency = costs.namespace_update_cpu_ms
                    cache.discard("data:" + path)
            else:
                # Write to a path never created: an implicit create, the way
                # O_CREAT|O_WRONLY behaves.
                skipped = not self._create(path, size)
                if skipped:
                    self._fail_if_strict(operation, "disk full")
                else:
                    runs, blocks = self._run_stats[path]
                    write_cost = (
                        geometry.access_time_ms(runs, blocks)
                        if blocks
                        else costs.namespace_update_cpu_ms
                    )
                    latency = write_cost + (
                        geometry.access_time_ms(1, 1) + costs.namespace_update_cpu_ms
                    )
        elif kind == "create":
            if disk.has_file(path):
                skipped = True
                self._fail_if_strict(operation, "create of existing file")
            elif self._create(path, size):
                latency = (
                    geometry.access_time_ms(1, 1)
                    + geometry.transfer_time_ms(disk.blocks_needed(size))
                    + costs.namespace_update_cpu_ms
                )
            else:
                skipped = True
                self._fail_if_strict(operation, "disk full")
        elif kind == "delete":
            try:
                disk.free(path)
            except DoubleFreeError:
                if path in self._directories:
                    self._directories.discard(path)
                    cache.discard("meta:" + path)
                    latency = geometry.access_time_ms(1, 1) + costs.namespace_update_cpu_ms
                else:
                    skipped = True
                    self._fail_if_strict(operation, "delete of unknown file")
            else:
                self._run_stats.pop(path, None)
                cache.discard("data:" + path)
                cache.discard("meta:" + path)
                latency = geometry.access_time_ms(1, 1) + costs.namespace_update_cpu_ms
        elif kind == "rename":
            dest = operation.dest
            try:
                disk.rename(path, dest)
            except (KeyError, ValueError):
                skipped = True
                self._fail_if_strict(operation, "rename of unknown or colliding file")
            else:
                stats = self._run_stats.pop(path, None)
                if stats is not None:
                    self._run_stats[dest] = stats
                cache.discard("data:" + path)
                cache.discard("meta:" + path)
                latency = geometry.access_time_ms(1, 1) + costs.namespace_update_cpu_ms
        elif kind == "mkdir":
            if path in self._directories:
                skipped = True
                self._fail_if_strict(operation, "mkdir of existing directory")
            else:
                self._directories.add(path)
                cache.access("meta:" + path, 4096)
                latency = geometry.access_time_ms(1, 1) + costs.namespace_update_cpu_ms
        else:  # pragma: no cover - Operation validates kinds
            raise ValueError(f"unknown operation kind {kind!r}")

        row = self._rows.get(kind)
        if row is None:
            row = [0, 0, 0.0, math.inf, 0.0, 0]
            self._rows[kind] = row
        rows = [row]
        if operation.client:
            client_row = self._client_rows.get(operation.client)
            if client_row is None:
                client_row = [0, 0, 0.0, math.inf, 0.0, 0]
                self._client_rows[operation.client] = client_row
            rows.append(client_row)
        moved = size if kind in ("read", "write", "create") else 0
        for row in rows:
            if skipped:
                row[_SKIPPED] += 1
            else:
                row[_COUNT] += 1
                row[_TOTAL] += latency
                if latency < row[_MIN]:
                    row[_MIN] = latency
                if latency > row[_MAX]:
                    row[_MAX] = latency
                row[_BYTES] += moved
        if skipped:
            self._skipped += 1
        else:
            self._executed += 1
            self._simulated_ms += latency
        if operation.batch > self._max_batch:
            self._max_batch = operation.batch
        return latency

    def result(self) -> ReplayResult:
        """Snapshot the statistics accumulated so far."""
        return ReplayResult(
            per_kind={kind: _stats_from_row(row) for kind, row in self._rows.items()},
            per_client={
                client: _stats_from_row(row) for client, row in self._client_rows.items()
            },
            executed=self._executed,
            skipped=self._skipped,
            batches=self._max_batch + 1,
            simulated_ms=self._simulated_ms,
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
        )

    # Internal helpers --------------------------------------------------------

    def _create(self, path: str, size: int) -> bool:
        try:
            extents = self._disk.allocate_extents(path, size)
        except AllocationError:
            return False
        self._run_stats[path] = (
            len(extents),
            sum(length for _, length in extents),
        )
        self._cache.access("meta:" + path, 256)
        return True

    def _write_latency(self, new_extents: list[tuple[int, int]]) -> float:
        if not new_extents:
            return self._costs.namespace_update_cpu_ms
        blocks = sum(length for _, length in new_extents)
        return self._geometry.access_time_ms(len(new_extents), blocks)

    def _compute_run_stats(self, path: str) -> tuple[int, int] | None:
        if not self._disk.has_file(path):
            return None
        stats = (self._disk.run_count(path), self._disk.block_count(path))
        self._run_stats[path] = stats
        return stats

    def _refresh_run_stats(self, path: str) -> None:
        # The disk caches (runs, blocks) per file, so an exact refresh after
        # an extend is O(1) — the historical approximation (count appended
        # extents as fresh runs even when one merged with the file's tail) is
        # no longer needed.
        self._run_stats[path] = (self._disk.run_count(path), self._disk.block_count(path))

    def _fail_if_strict(self, operation: Operation, reason: str) -> None:
        if self._strict:
            raise ValueError(f"strict replay failed on {operation}: {reason}")

    def _image_layout_score(self) -> float | None:
        if self._image is None:
            return None
        return self._image.achieved_layout_score()

    def _record_image_timing(self, wall_seconds: float) -> None:
        if self._image is None:
            return
        timings = self._image.extras.get("timings")
        if timings is not None:
            extras = timings.extras
            extras["trace_replay"] = extras.get("trace_replay", 0.0) + wall_seconds


def _stats_from_row(row: list) -> OpClassStats:
    return OpClassStats(
        count=row[_COUNT],
        skipped=row[_SKIPPED],
        total_ms=row[_TOTAL],
        min_ms=0.0 if math.isinf(row[_MIN]) else row[_MIN],
        max_ms=row[_MAX],
        bytes_moved=row[_BYTES],
    )
