"""Trace replay engine.

Executes an :class:`~repro.trace.ops.OperationTrace` against the triple the
rest of the repo already models — :class:`~repro.namespace.tree.FileSystemTree`
namespace, :class:`~repro.layout.disk.SimulatedDisk` allocator, and
:class:`~repro.workloads.cache.BufferCache` — and reports per-op-class
simulated latency and byte counts derived from the disk's
:class:`~repro.layout.disk.DiskGeometry` cost model.

Three ways to drive it:

* :meth:`TraceReplayer.replay` runs a whole trace and returns a
  :class:`ReplayResult`;
* :meth:`TraceReplayer.execute_trace` applies a trace from some index on, for
  callers (like the trace-driven ager) that append to a trace as they replay;
* :meth:`TraceReplayer.execute` applies a single operation.

All three run one loop over the trace's columns, building no ``Operation``.

All simulated statistics are a pure function of the trace and the initial
disk/cache state: replaying the same trace twice yields identical
:meth:`ReplayResult.as_dict` output.  Wall-clock throughput is reported
separately (:attr:`ReplayResult.wall_seconds`) so determinism checks are not
polluted by timing noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.core.image import FileSystemImage
from repro.layout.disk import AllocationError, DiskGeometry, DoubleFreeError, SimulatedDisk
from repro.obs import core as obs_core
from repro.trace.ops import OP_KINDS, Operation, OperationTrace
from repro.workloads.cache import BufferCache

__all__ = ["ReplayCostModel", "OpClassStats", "ReplayResult", "TraceReplayer"]

#: Kind codes (indices into ``OP_KINDS``) whose ``size`` counts as bytes moved.
_DATA_CODES = frozenset(OP_KINDS.index(kind) for kind in ("read", "write", "create"))


class _Tally:
    """Running statistics of one operation class or client.

    Slotted, so the hot loop's updates are plain attribute stores.
    """

    __slots__ = ("count", "skipped", "total", "min", "max", "bytes")

    def __init__(self) -> None:
        self.count = 0
        self.skipped = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self.bytes = 0

    def add(self, skipped: bool, latency: float, moved: int) -> None:
        if skipped:
            self.skipped += 1
            return
        self.count += 1
        self.total += latency
        if latency < self.min:
            self.min = latency
        if latency > self.max:
            self.max = latency
        self.bytes += moved

    def stats(self) -> "OpClassStats":
        return OpClassStats(
            count=self.count,
            skipped=self.skipped,
            total_ms=self.total,
            min_ms=0.0 if math.isinf(self.min) else self.min,
            max_ms=self.max,
            bytes_moved=self.bytes,
        )


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
            runs, with no per-op work beyond the handler call.
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
        # The geometry is frozen, so these are read once.
        self._block_size = self._geometry.block_size
        self._one_block_ms = self._geometry.access_time_ms(1, 1)
        # (runs, blocks) per on-disk file, maintained incrementally so read
        # costs stay O(1) after the first access.
        self._run_stats: dict[str, tuple[int, int]] = {}
        self._directories: set[str] = set()
        # Per kind in first-seen order, and the same tallies by kind code.
        self._tallies: dict[str, _Tally] = {}
        self._code_tallies: list[_Tally | None] = [None] * len(OP_KINDS)
        self._client_tallies: dict[str, _Tally] = {}
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

    def replay(self, trace: Iterable[Operation]) -> ReplayResult:
        """Execute every operation of ``trace`` (any iterable of them) and return the statistics."""
        if not isinstance(trace, OperationTrace):
            trace = OperationTrace(trace)
        tele = obs_core.resolve(self._telemetry)
        score_before = self._image_layout_score()
        if tele.enabled:
            return self._replay_observed(trace, tele, score_before)
        # The plain loop: one span around it, so the per-op cost is the
        # handler call alone.
        with tele.span("trace_replay") as record:
            self.execute_trace(trace)
        return self._finish(record.wall_seconds, score_before)

    def execute_trace(self, trace: OperationTrace, start: int = 0) -> None:
        """Apply operations ``start`` onward of ``trace``, as :meth:`execute` would."""
        self._run(trace.columns(start), None)

    def _replay_observed(
        self, trace: OperationTrace, tele: "obs_core.Telemetry", score_before: float | None
    ) -> ReplayResult:
        """Replay under a bound telemetry and fold the per-op data into it.

        The timed region is the plain loop, which also appends each latency
        to a list; everything per-kind (samples, skipped counts, byte totals)
        is reconstructed afterwards from that list plus the deltas of the
        per-kind tallies the loop maintains anyway.
        """
        metadata = trace.metadata
        trace_label = str(metadata.get("synthesizer") or metadata.get("name") or "trace")
        tallies_before = {
            kind: (tally.skipped, tally.bytes) for kind, tally in self._tallies.items()
        }
        hits_before = self._cache.hits
        misses_before = self._cache.misses
        latencies: list[float] = []
        with tele.span("trace_replay", trace=trace_label) as record:
            self._run(trace.columns(), latencies.append)
        samples, skipped_by_kind, bytes_by_kind = self._regroup_samples(
            trace, latencies, tallies_before
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
        tallies_before: dict[str, tuple[int, int]],
    ) -> tuple[dict[str, np.ndarray], dict[str, int], dict[str, int]]:
        """Split the flat latency list into executed per-kind samples.

        The loop records 0.0 for skipped operations (and a latency only for
        executed ones), so the executed sample multiset for a kind is its latency
        list minus one 0.0 entry per skipped operation — and zeros are
        interchangeable, so dropping *any* ``skipped`` zeros is exact even if
        a custom cost model priced some executed operation at 0.0.  The first
        ones are dropped, so each kind's samples stay in trace order.  Skipped
        and byte tallies come from the per-kind tally deltas.
        """
        codes = trace.kind_codes()
        values = np.fromiter(latencies, dtype=float, count=len(latencies))
        present = np.flatnonzero(np.bincount(codes, minlength=len(OP_KINDS)))
        samples = {
            OP_KINDS[code]: values[np.flatnonzero(codes == code)] for code in present.tolist()
        }
        skipped_by_kind: dict[str, int] = {}
        bytes_by_kind: dict[str, int] = {}
        for kind, tally in self._tallies.items():
            skipped_before, bytes_before = tallies_before.get(kind, (0, 0))
            skipped = tally.skipped - skipped_before
            if skipped:
                skipped_by_kind[kind] = skipped
            moved = tally.bytes - bytes_before
            if moved:
                bytes_by_kind[kind] = moved
        for kind, skipped in skipped_by_kind.items():
            if kind not in samples:
                continue
            kept = np.delete(samples[kind], np.flatnonzero(samples[kind] == 0.0)[:skipped])
            if kept.size:
                samples[kind] = kept
            else:
                del samples[kind]
        return samples, skipped_by_kind, bytes_by_kind

    def _record_telemetry(
        self,
        tele: "obs_core.Telemetry",
        result: ReplayResult,
        samples: dict[str, np.ndarray],
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
        latencies: list[float] = []
        fields = list(map(operation.__getattribute__, Operation.__match_args__))
        fields[0] = OP_KINDS.index(operation.kind)
        self._run([[value] for value in fields], latencies.append)
        return latencies[0]

    def _run(self, columns: tuple[Iterable, ...], record: Callable[[float], object] | None) -> None:
        """The replay loop over ``columns``, laid out as :meth:`OperationTrace.columns`.

        Each operation's fields go straight to its kind's handler.  ``record``,
        when given, receives every latency (0.0 for a skipped operation).
        """
        kinds, paths, sizes, dests, appends, batches, clients = columns
        handlers, data_codes = _HANDLERS, _DATA_CODES
        code_tallies, client_tallies = self._code_tallies, self._client_tallies
        for code, path, size, dest, append, client in zip(
            kinds, paths, sizes, dests, appends, clients
        ):
            # A handler returns the operation's latency, or None when it skipped.
            latency = handlers[code](self, path, size, dest, append)
            tally = code_tallies[code]
            if tally is None:
                tally = code_tallies[code] = self._tallies[OP_KINDS[code]] = _Tally()
            skipped = latency is None
            if skipped:
                latency = 0.0
                tally.skipped += 1
                moved = 0
            else:
                moved = size if code in data_codes else 0
                tally.count += 1
                tally.total += latency
                if latency < tally.min:
                    tally.min = latency
                if latency > tally.max:
                    tally.max = latency
                tally.bytes += moved
                self._simulated_ms += latency
            if client:
                client_tally = client_tallies.get(client)
                if client_tally is None:
                    client_tally = client_tallies[client] = _Tally()
                client_tally.add(skipped, latency, moved)
            if record is not None:
                record(latency)
        self._max_batch = max(self._max_batch, int(np.asarray(batches).max(initial=-1)))

    def result(self) -> ReplayResult:
        """Snapshot the statistics accumulated so far."""
        return ReplayResult(
            per_kind={kind: tally.stats() for kind, tally in self._tallies.items()},
            per_client={
                client: tally.stats() for client, tally in self._client_tallies.items()
            },
            executed=sum(tally.count for tally in self._tallies.values()),
            skipped=sum(tally.skipped for tally in self._tallies.values()),
            batches=self._max_batch + 1,
            simulated_ms=self._simulated_ms,
            cache_hits=self._cache.hits,
            cache_misses=self._cache.misses,
        )

    # Operation handlers ------------------------------------------------------

    def _read(self, path: str, size: int, dest: str, append: int) -> float | None:
        stats = self._run_stats.get(path) or self._compute_run_stats(path)
        if stats is None:
            return self._skip(path, "read of unknown file")
        runs, blocks = stats
        block_size = self._block_size
        file_bytes = blocks * block_size
        read_blocks = blocks
        if size and size < file_bytes:
            # size > 0 here, so this is at least one block.
            read_blocks = (size + block_size - 1) // block_size
        if self._cache.access("data:" + path, file_bytes):
            return self._costs.cached_read_cpu_ms_per_block * (read_blocks or 1)
        if blocks == 0:
            return self._one_block_ms
        return self._geometry.access_time_ms(runs, read_blocks)

    def _stat(self, path: str, size: int, dest: str, append: int) -> float:
        if self._cache.access("meta:" + path, 256):
            return self._costs.cached_metadata_cpu_ms
        return self._one_block_ms

    def _write(self, path: str, size: int, dest: str, append: int) -> float | None:
        disk = self._disk
        if not disk.has_file(path):
            # Write to a path never created: an implicit create, the way
            # O_CREAT|O_WRONLY behaves.
            stats = self._allocate(path, size)
            if stats is None:
                return self._skip(path, "disk full")
            runs, blocks = stats
            update_ms = self._costs.namespace_update_cpu_ms
            write_cost = self._geometry.access_time_ms(runs, blocks) if blocks else update_ms
            return write_cost + (self._one_block_ms + update_ms)
        block_size = self._block_size
        needed = (size + block_size - 1) // block_size if size > 0 else 0
        if append:
            try:
                new_extents = disk.extend_extents(path, size)
            except AllocationError:
                return self._skip(path, "disk full")
            self._run_stats[path] = disk.run_stats(path)
            self._cache.discard("data:" + path)
            if not needed:
                return self._costs.namespace_update_cpu_ms
            return self._geometry.access_time_ms(len(new_extents), needed)
        # In-place overwrite of the first `size` bytes; only the part past
        # EOF (if any) allocates new blocks.
        runs, blocks = self._run_stats.get(path) or self._compute_run_stats(path)
        covered = min(blocks, needed) if blocks else 0
        overflow = needed - blocks
        if overflow > 0:
            try:
                disk.extend_extents(path, overflow * block_size)
            except AllocationError:
                pass
            else:
                covered += overflow
            self._run_stats[path] = disk.run_stats(path)
        self._cache.discard("data:" + path)
        if covered:
            covered_runs = max(1, round(runs * covered / blocks)) if blocks else 1
            return self._geometry.access_time_ms(covered_runs, covered)
        return self._costs.namespace_update_cpu_ms

    def _create(self, path: str, size: int, dest: str, append: int) -> float | None:
        if self._disk.has_file(path):
            return self._skip(path, "create of existing file")
        stats = self._allocate(path, size)
        if stats is None:
            return self._skip(path, "disk full")
        return (
            self._one_block_ms
            + self._geometry.transfer_time_ms(stats[1])
            + self._costs.namespace_update_cpu_ms
        )

    def _delete(self, path: str, size: int, dest: str, append: int) -> float | None:
        cache = self._cache
        try:
            self._disk.free(path)
        except DoubleFreeError:
            if path not in self._directories:
                return self._skip(path, "delete of unknown file")
            self._directories.discard(path)
        else:
            self._run_stats.pop(path, None)
            cache.discard("data:" + path)
        cache.discard("meta:" + path)
        return self._one_block_ms + self._costs.namespace_update_cpu_ms

    def _rename(self, path: str, size: int, dest: str, append: int) -> float | None:
        try:
            self._disk.rename(path, dest)
        except (KeyError, ValueError):
            return self._skip(path, "rename of unknown or colliding file")
        stats = self._run_stats.pop(path, None)
        if stats is not None:
            self._run_stats[dest] = stats
        self._cache.discard("data:" + path)
        self._cache.discard("meta:" + path)
        return self._one_block_ms + self._costs.namespace_update_cpu_ms

    def _mkdir(self, path: str, size: int, dest: str, append: int) -> float | None:
        if path in self._directories:
            return self._skip(path, "mkdir of existing directory")
        self._directories.add(path)
        self._cache.access("meta:" + path, 4096)
        return self._one_block_ms + self._costs.namespace_update_cpu_ms

    # Internal helpers --------------------------------------------------------

    def _allocate(self, path: str, size: int) -> tuple[int, int] | None:
        """Allocate ``path``; its ``(runs, blocks)``, or None when the disk is full."""
        try:
            self._disk.allocate_extents(path, size)
        except AllocationError:
            return None
        stats = self._run_stats[path] = self._disk.run_stats(path)
        self._cache.access("meta:" + path, 256)
        return stats

    def _compute_run_stats(self, path: str) -> tuple[int, int] | None:
        if not self._disk.has_file(path):
            return None
        stats = self._run_stats[path] = self._disk.run_stats(path)
        return stats

    def _skip(self, path: str, reason: str) -> None:
        """Skip the operation on ``path`` (a handler returns this None); raise when strict."""
        if self._strict:
            raise ValueError(f"strict replay failed on {path!r}: {reason}")

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



#: Handler per kind code, in ``OP_KINDS`` order.  A module table of plain
#: functions: a table of bound methods on the instance would make every
#: replayer a reference cycle.
_HANDLERS = tuple(getattr(TraceReplayer, "_" + kind) for kind in OP_KINDS)
