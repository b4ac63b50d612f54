"""Shard workers and the sharded-generation driver.

:func:`run_shard` is a module-level function of a plain payload dict so it
pickles cleanly into a :class:`concurrent.futures.ProcessPoolExecutor` (the
campaign runner's worker pattern).  Each worker runs the ordinary six-stage
pipeline for one shard config, under its own stage-cache *slice*
(``<cache_dir>/shard-0000``) and its own :class:`repro.obs.Telemetry`; the
picklable telemetry snapshot rides back to the parent, which merges it with
a ``shard=<index>`` label so per-shard series stay distinguishable.

:func:`generate_sharded` is the driver: plan → fan out → merge → digest.
``jobs=1`` runs the shards in-process in index order; ``jobs=N`` fans them
out across processes.  Either way the shard *results* are consumed in index
order and the merge is a pure function of the plan, so the merged image —
its :func:`~repro.pipeline.runner.image_fingerprint` and its materialize
content digest — is bit-identical across worker counts.
"""

from __future__ import annotations

import contextlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from repro.core.config import ImpressionsConfig
from repro.core.image import FileSystemImage
from repro.obs import core as obs_core
from repro.pipeline.cache import StageCache, cache_lock
from repro.pipeline.runner import default_pipeline, image_fingerprint
from repro.shard.plan import ShardPlan, build_plan

__all__ = [
    "run_shard",
    "generate_sharded",
    "ShardResult",
    "ShardedGenerationResult",
    "shard_cache_slice",
]


def shard_cache_slice(cache_dir: str, index: int) -> str:
    """The per-shard stage-cache directory under a shared cache root.

    Each worker gets its own slice so concurrent shards never contend on one
    directory; entries are still content-addressed, so slices of equal shard
    configs deduplicate across runs of the same plan.
    """
    return os.path.join(cache_dir, f"shard-{index:04d}")


def run_shard(payload: dict) -> dict:
    """Generate one shard image (worker entry point; runs in a child process).

    Payload keys: ``index`` (shard number), ``config`` (the shard's
    :class:`~repro.core.config.ImpressionsConfig`), optional ``cache_dir``
    (this shard's cache *slice*, already per-shard), optional ``telemetry``
    (bool).  Returns a dict with the generated image, its fingerprint
    (computed in the worker, pre-pickle), wall seconds, the cache summary and
    the telemetry snapshot.
    """
    index = int(payload["index"])
    config: ImpressionsConfig = payload["config"]
    cache_dir = payload.get("cache_dir")
    tele = (
        obs_core.Telemetry(run_id=f"shard-{index:04d}")
        if payload.get("telemetry")
        else obs_core.NULL
    )
    with obs_core.use(tele):
        with tele.span("shard_generate", shard=index) as record:
            # Slices are per-shard already; two concurrent runs of the same
            # plan may still share one, which is benign (atomic writes), so
            # take the cache lock in ignore mode rather than failing.
            lock = (
                cache_lock(cache_dir, owner=f"shard-{index:04d}", on_busy="ignore")
                if cache_dir
                else contextlib.nullcontext()
            )
            with lock:
                cache = StageCache(cache_dir) if cache_dir else None
                result = default_pipeline().run(config, cache=cache)
        image = result.image
        tele.counter(
            "shard_files_total", "files generated per shard", labels=("shard",)
        ).inc(image.file_count, shard=str(index))
        tele.counter(
            "shard_bytes_total", "logical bytes generated per shard", labels=("shard",)
        ).inc(image.total_bytes, shard=str(index))
    return {
        "index": index,
        "image": image,
        "fingerprint": image_fingerprint(image),
        "wall_seconds": record.wall_seconds,
        "cache": result.cache_summary() if cache_dir else None,
        "telemetry": tele.snapshot(),
    }


@dataclass
class ShardResult:
    """One shard's outcome as seen by the driver."""

    index: int
    files: int
    directories: int
    total_bytes: int
    fingerprint: str
    wall_seconds: float
    cache: dict | None = None

    def as_dict(self) -> dict:
        out = {
            "index": self.index,
            "files": self.files,
            "directories": self.directories,
            "total_bytes": self.total_bytes,
            "fingerprint": self.fingerprint,
            "wall_seconds": self.wall_seconds,
        }
        if self.cache is not None:
            out["cache"] = dict(self.cache)
        return out


@dataclass
class ShardedGenerationResult:
    """Everything one :func:`generate_sharded` call produced.

    ``fingerprint`` and ``content_digest`` are the determinism contract:
    both are pure functions of the plan, so ``jobs=1`` and ``jobs=N`` runs
    of one plan report identical values.
    """

    image: FileSystemImage
    plan: ShardPlan
    shards: list[ShardResult]
    fingerprint: str
    content_digest: str | None
    jobs: int
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def shard_walls(self) -> list[float]:
        return [shard.wall_seconds for shard in self.shards]

    def as_dict(self) -> dict:
        return {
            "plan_fingerprint": self.plan.fingerprint(),
            "num_shards": self.plan.num_shards,
            "jobs": self.jobs,
            "fingerprint": self.fingerprint,
            "content_digest": self.content_digest,
            "shards": [shard.as_dict() for shard in self.shards],
            "timings": dict(self.timings),
            "summary": self.image.summary(),
        }


def generate_sharded(
    config: ImpressionsConfig | None = None,
    num_shards: int = 4,
    jobs: int = 1,
    *,
    plan: ShardPlan | None = None,
    cache_dir: str | None = None,
    digest: bool = True,
    telemetry: "obs_core.Telemetry | None" = None,
    progress: Callable[[str], None] | None = None,
) -> ShardedGenerationResult:
    """Generate ``config``'s image in shards and merge the result.

    Args:
        config: the master configuration (ignored when ``plan`` is given).
        num_shards: how many shards to plan (ignored when ``plan`` is given).
        jobs: worker processes; ``1`` runs shards in-process, sequentially.
        plan: a pre-built :class:`~repro.shard.plan.ShardPlan` to execute.
        cache_dir: shared stage-cache root; each shard caches under its own
            slice (:func:`shard_cache_slice`), so a re-run of the same plan
            restores every shard instead of regenerating.
        digest: also compute the merged image's order-independent materialize
            content digest (a digest-only :class:`~repro.materialize.NullSink`
            pass; cheap for metadata-only images, full content generation for
            content images).  ``content_digest`` is None when disabled.
        telemetry: optional :class:`repro.obs.Telemetry` (defaults to the
            context-bound one).  Worker snapshots merge back with a
            ``shard=<index>`` label; the plan / fan-out / merge / digest
            phases are spans, and their durations are ``timings``.
        progress: optional callback receiving one line per shard completed.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    tele = obs_core.resolve(telemetry)
    timings: dict[str, float] = {}

    with tele.span("shard_plan") as record:
        if plan is None:
            if config is None:
                raise ValueError("generate_sharded needs a config or a plan")
            plan = build_plan(config, num_shards)
    timings["plan_seconds"] = record.wall_seconds

    payloads = [
        {
            "index": spec.index,
            "config": plan.shard_config(spec),
            "cache_dir": shard_cache_slice(cache_dir, spec.index) if cache_dir else None,
            "telemetry": tele.enabled,
        }
        for spec in plan.shards
    ]

    workers = min(jobs, len(payloads))
    with tele.span("shard_fanout", shards=str(len(payloads)), jobs=str(workers)) as record:
        if workers == 1:
            rows = [run_shard(payload) for payload in payloads]
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(run_shard, payloads))
    timings["generate_seconds"] = record.wall_seconds

    shards: list[ShardResult] = []
    images: list[FileSystemImage] = []
    for row in rows:
        image = row["image"]
        images.append(image)
        shards.append(
            ShardResult(
                index=row["index"],
                files=image.file_count,
                directories=image.directory_count,
                total_bytes=image.total_bytes,
                fingerprint=row["fingerprint"],
                wall_seconds=row["wall_seconds"],
                cache=row["cache"],
            )
        )
        tele.merge(row["telemetry"], extra_labels={"shard": row["index"]})
        if progress:
            progress(
                f"shard {row['index']:>3}: {image.file_count} files in "
                f"{row['wall_seconds']:.3f}s ({row['fingerprint'][:12]})"
            )

    from repro.shard.merge import merge_shards

    with tele.span("shard_merge", shards=str(len(images))) as record:
        merged = merge_shards(plan, images, shard_fingerprints=[s.fingerprint for s in shards])
    timings["merge_seconds"] = record.wall_seconds

    content_digest: str | None = None
    timings["digest_seconds"] = 0.0
    if digest:
        from repro.materialize import NullSink, materialize_image

        with tele.span("shard_digest") as record:
            content_digest = materialize_image(merged, NullSink()).content_digest
        timings["digest_seconds"] = record.wall_seconds

    fingerprint = image_fingerprint(merged)
    if progress:
        progress(f"merged: {merged.file_count} files ({fingerprint[:12]})")
    return ShardedGenerationResult(
        image=merged,
        plan=plan,
        shards=shards,
        fingerprint=fingerprint,
        content_digest=content_digest,
        jobs=jobs,
        timings=timings,
    )
