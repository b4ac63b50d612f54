"""Content-addressed on-disk cache of stage artifacts.

Entries are keyed by stage fingerprint (:func:`repro.pipeline.stage.stage_fingerprint`):
the digest covers the stage's knob values, its params, the pipeline format
version and the whole upstream chain, so a key can only ever map to one
semantic artifact — the cache needs no invalidation, only garbage collection.

Each entry is the pickled context snapshot *after* that stage
(:meth:`~repro.pipeline.context.GenerationContext.snapshot`).  The pipeline
probes from the deepest generation stage backwards and resumes from the first
hit; campaign scenarios that share generation knobs but differ only in steps
therefore generate the image once and restore it everywhere else.

Writes are atomic with a checksum trailer (temp file + SHA-256 seal +
``fsync`` + ``os.replace`` via :mod:`repro.faults.atomic`), so concurrent
campaign workers sharing one cache directory race benignly: both compute the
same artifact and the last rename wins with identical bytes.  Reads verify
the trailer; a torn, truncated, or bit-flipped entry is *detected* (counted
as ``corruption_detected_total{layer="cache"}``), *quarantined* into the
cache's ``.quarantine/`` sidecar with a reason record, and *self-healed* by
treating it as a miss — the pipeline regenerates and re-stores it.

Transient I/O errors (EIO, ENOSPC) never fail the run: a
:class:`CacheCircuitBreaker` counts consecutive failures and, past its
threshold, opens for a cooldown during which ``load``/``store`` degrade to
cache-bypass no-ops.  The cache is an accelerator, not a dependency.
"""

from __future__ import annotations

import contextlib
import json
import os
import pickle
import time
from dataclasses import dataclass, field

from repro.core.config import ImpressionsConfig
from repro.faults import atomic as fault_atomic
from repro.faults import plan as fault_plan
from repro.metadata.extensions import DEFAULT_EXTENSION_MODEL

__all__ = [
    "CacheBusyError",
    "CacheCircuitBreaker",
    "CacheStats",
    "StageCache",
    "cache_lock",
    "config_cache_safe",
]


class CacheBusyError(RuntimeError):
    """Raised when another live process holds a stage-cache directory's lock."""


@dataclass
class CacheStats:
    """Hit/miss/store counters for one pipeline run (or one cache lifetime)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evicted_corrupt: int = 0
    io_errors: int = 0
    bypassed: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evicted_corrupt": self.evicted_corrupt,
            "io_errors": self.io_errors,
            "bypassed": self.bypassed,
        }


@dataclass
class CacheCircuitBreaker:
    """Degrade to cache-bypass after repeated I/O failures.

    ``failure_threshold`` *consecutive* ``OSError`` failures open the
    breaker for ``cooldown_seconds``; while open, cache reads and writes are
    no-ops (every load a miss, every store skipped) so a sick disk slows
    nothing down and fails no jobs.  One success — or the cooldown elapsing —
    closes it again.  Corruption does not trip the breaker: a corrupt entry
    is quarantined and healed by regeneration, which is the cache working,
    not failing.
    """

    failure_threshold: int = 3
    cooldown_seconds: float = 30.0
    consecutive_failures: int = 0
    opened_at: float | None = field(default=None, repr=False)
    times_opened: int = 0

    def is_open(self) -> bool:
        if self.opened_at is None:
            return False
        if time.monotonic() - self.opened_at >= self.cooldown_seconds:
            self.opened_at = None
            self.consecutive_failures = 0
            return False
        return True

    def record_failure(self) -> bool:
        """Count one I/O failure; True if this one opened the breaker."""
        self.consecutive_failures += 1
        if self.opened_at is None and self.consecutive_failures >= self.failure_threshold:
            self.opened_at = time.monotonic()
            self.times_opened += 1
            fault_plan.count_heal("cache", "breaker_open")
            return True
        return False

    def record_success(self) -> None:
        self.consecutive_failures = 0


class StageCache:
    """A directory of fingerprint-addressed, checksum-sealed stage snapshots."""

    def __init__(self, root: str, breaker: CacheCircuitBreaker | None = None) -> None:
        self.root = root
        self.stats = CacheStats()
        self.breaker = breaker if breaker is not None else CacheCircuitBreaker()

    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.root, fingerprint[:2], f"{fingerprint}.pkl")

    def has(self, fingerprint: str) -> bool:
        """Whether an entry exists (no counters touched — probe only)."""
        return os.path.exists(self._path(fingerprint))

    def _quarantine(self, path: str, fingerprint: str, reason: str) -> None:
        """Detect + quarantine + heal-by-eviction for one bad entry."""
        self.stats.evicted_corrupt += 1
        fault_plan.count_corruption("cache")
        fault_atomic.quarantine_file(
            self.root,
            path,
            layer="cache",
            reason=reason,
            detail={"fingerprint": fingerprint},
        )
        fault_plan.count_heal("cache", "evict_regenerate")

    def load(self, fingerprint: str) -> dict | None:
        """The snapshot state for ``fingerprint``, or None on miss/corruption.

        A torn, truncated, or unreadable entry is quarantined and counts as
        a miss rather than surfacing an exception deep inside the restore
        path — the pipeline regenerates the stage and re-stores it, which is
        the self-heal.  I/O errors count toward the circuit breaker; while
        it is open every load is a bypass miss.
        """
        if self.breaker.is_open():
            self.stats.misses += 1
            self.stats.bypassed += 1
            return None
        path = self._path(fingerprint)
        try:
            payload = fault_atomic.read_verified(path, fault_point="cache.entry.read")
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except fault_atomic.CorruptionError as exc:
            self.stats.misses += 1
            self._quarantine(path, fingerprint, exc.reason)
            return None
        except OSError:
            self.stats.misses += 1
            self.stats.io_errors += 1
            self.breaker.record_failure()
            return None
        try:
            state = pickle.loads(payload)
            if not isinstance(state, dict):
                raise ValueError("snapshot entry is not a state dict")
        except Exception:  # detlint: ignore[broad-except] quarantine-and-regenerate is the contract
            # The seal verified, so the bytes are what store() wrote — a
            # stale-format or wrong-object entry, not disk damage; still
            # quarantine and regenerate.
            self.stats.misses += 1
            self._quarantine(path, fingerprint, "unpicklable")
            return None
        self.breaker.record_success()
        self.stats.hits += 1
        return state

    def store(self, fingerprint: str, state: dict) -> None:
        """Atomically write the sealed snapshot ``state`` under ``fingerprint``.

        Disk failures (ENOSPC, EIO) are swallowed after feeding the circuit
        breaker — a cache store must never fail the generation that produced
        the artifact.  Serialization errors still raise: an unpicklable
        snapshot is a bug, not weather.
        """
        if self.breaker.is_open():
            self.stats.bypassed += 1
            return
        path = self._path(fingerprint)
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fault_atomic.atomic_write_bytes(path, payload, fault_point="cache.entry.write")
        except OSError:
            self.stats.io_errors += 1
            self.breaker.record_failure()
            return
        self.breaker.record_success()
        self.stats.stores += 1

    def entry_count(self) -> int:
        """Number of entries currently on disk (walks the directory)."""
        count = 0
        for _, dirnames, files in os.walk(self.root):
            dirnames.sort()
            files.sort()
            count += sum(1 for name in files if name.endswith(".pkl"))
        return count


@contextlib.contextmanager
def cache_lock(
    root: str,
    owner: str = "",
    on_busy: str = "error",
    max_age_seconds: float | None = None,
):
    """Advisory lock on a stage-cache directory for the duration of a run.

    Cache *writes* are already atomic, so concurrent sharers cannot corrupt
    entries — but two workers pointed at one directory silently duplicate
    each other's generation work, and a facade user who passes one
    ``cache_dir`` to concurrent ``generate()`` calls almost certainly meant
    per-worker slices.  The lock turns that foot-gun into a clear error.

    The lock is a ``.lock`` file created with ``O_CREAT | O_EXCL`` holding a
    JSON ``{"pid", "owner", "created"}`` record.  A lock is *stale* — the
    holder is gone and left it behind — and is reclaimed when either:

    * its pid is no longer alive (the holder crashed without unlinking), or
    * it is older than ``max_age_seconds``.  Pid liveness alone cannot catch
      a holder that died after its pid was recycled by an unrelated process,
      so long-lived sharers (farm workers) bound the lock's age too; any run
      legitimately holding a lock that long should extend ``max_age_seconds``
      past its worst-case wall time.

    Reclaims are counted on the bound telemetry (if any) as
    ``cache_lock_reclaims_total{reason="dead_pid"|"max_age"}``.

    When a *live* process holds the lock:

    * ``on_busy="error"`` raises :class:`CacheBusyError` naming the holder;
    * ``on_busy="ignore"`` proceeds without acquiring (atomic writes make
      sharing benign — just redundant), for callers like shard workers whose
      slices are already per-worker.
    """
    if on_busy not in ("error", "ignore"):
        raise ValueError(f"on_busy must be 'error' or 'ignore', not {on_busy!r}")
    if max_age_seconds is not None and max_age_seconds <= 0:
        raise ValueError("max_age_seconds must be positive (or None to disable)")
    os.makedirs(root, exist_ok=True)
    lock_path = os.path.join(root, ".lock")
    record = json.dumps({"pid": os.getpid(), "owner": owner, "created": time.time()})
    acquired = False
    for _ in range(2):  # second pass retries after reclaiming a stale lock
        try:
            descriptor = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            holder_pid, holder_owner, holder_age = _read_lock(lock_path)
            stale_reason = None
            if holder_pid is not None and not _pid_alive(holder_pid):
                stale_reason = "dead_pid"
            elif (
                max_age_seconds is not None
                and holder_age is not None
                and holder_age > max_age_seconds
            ):
                stale_reason = "max_age"
            if stale_reason is not None:
                with contextlib.suppress(OSError):
                    os.remove(lock_path)
                _count_reclaim(stale_reason)
                continue
            if on_busy == "ignore":
                break
            holder = f"pid {holder_pid}" if holder_pid is not None else "an unknown process"
            if holder_owner:
                holder += f" ({holder_owner})"
            raise CacheBusyError(
                f"stage cache {root!r} is in use by {holder}; concurrent workers "
                "must use per-worker cache slices (see repro.shard.shard_cache_slice), "
                "or pass on_cache_busy='ignore' to share the directory anyway"
            ) from None
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(record)
        acquired = True
        break
    try:
        yield
    finally:
        if acquired:
            with contextlib.suppress(OSError):
                os.remove(lock_path)


def _count_reclaim(reason: str) -> None:
    """Surface a stale-lock reclaim on the bound telemetry."""
    from repro.obs import core as obs_core

    obs_core.current().counter(
        "cache_lock_reclaims_total",
        "stale stage-cache locks reclaimed",
        ("reason",),
    ).inc(reason=reason)


def _read_lock(lock_path: str) -> tuple[int | None, str, float | None]:
    """The ``(pid, owner, age_seconds)`` of a lock file, tolerating corruption.

    Age prefers the recorded ``created`` stamp; a corrupt or pre-stamp lock
    falls back to the file's mtime so the max-age bound still applies to it.
    """
    pid: int | None = None
    owner = ""
    created: float | None = None
    try:
        with open(lock_path, encoding="utf-8") as handle:
            data = json.loads(handle.read())
        pid = int(data["pid"])
        owner = str(data.get("owner", ""))
        created = float(data["created"])
    except (OSError, ValueError, KeyError, TypeError):
        pass
    if created is None:
        try:
            created = os.stat(lock_path).st_mtime
        except OSError:
            return pid, owner, None
    return pid, owner, max(0.0, time.time() - created)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


def config_cache_safe(config: ImpressionsConfig) -> bool:
    """Whether ``config``'s identity is fully captured by its knob view.

    Stage fingerprints cover :meth:`ImpressionsConfig.to_knobs` only.  A
    config carrying model-object overrides outside that view (a custom size
    distribution, a timestamp model, a tweaked extension or placement model)
    would collide with the plain config sharing its knobs, so the pipeline
    silently disables the cache for it instead of risking a wrong restore.
    """
    if (
        config.file_size_model is not None
        or config.file_size_by_bytes_model is not None
        or config.timestamp_model is not None
    ):
        return False
    # Value equality, not identity: configs that crossed a pickle boundary
    # (shard/campaign worker processes) carry an equal copy of the default.
    if config.extension_model != DEFAULT_EXTENSION_MODEL:
        return False
    defaults = ImpressionsConfig.from_knobs(config.to_knobs())
    if config.depth_distribution != defaults.depth_distribution:
        return False
    if dict(config.mean_bytes_by_depth) != dict(defaults.mean_bytes_by_depth):
        return False
    if config.directory_file_count_model != defaults.directory_file_count_model:
        return False
    if tuple(config.special_directories) != tuple(defaults.special_directories):
        return False
    if config.content != defaults.content:
        return False
    return True
