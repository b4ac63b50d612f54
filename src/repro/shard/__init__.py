"""repro.shard — deterministic sharded image generation.

Splits one :class:`~repro.core.config.ImpressionsConfig` into N independent
shard configs (:mod:`~repro.shard.plan`), generates each shard through the
ordinary pipeline — optionally in parallel worker processes
(:mod:`~repro.shard.worker`) — and folds the shard images back into one
:class:`~repro.core.image.FileSystemImage` (:mod:`~repro.shard.merge`) whose
fingerprint and content digest are identical whether one process or many did
the work.

    from repro.shard import generate_sharded

    result = generate_sharded(config, num_shards=4, jobs=4)
    result.image            # the merged FileSystemImage
    result.fingerprint      # == the jobs=1 fingerprint for the same plan

CLI: ``impressions shard plan|generate|verify``.
"""

from repro.shard.merge import (
    ShardMergeError,
    image_content_digests,
    manifest_content_digests,
    merge_shards,
    merged_content_digest,
    shard_entry_digests,
)
from repro.shard.plan import (
    SHARD_PLAN_FORMAT,
    ShardPlan,
    ShardPlanError,
    ShardSpec,
    build_plan,
)
from repro.shard.worker import (
    ShardResult,
    ShardedGenerationResult,
    generate_sharded,
    run_shard,
    shard_cache_slice,
)

__all__ = [
    "SHARD_PLAN_FORMAT",
    "ShardMergeError",
    "ShardPlan",
    "ShardPlanError",
    "ShardResult",
    "ShardSpec",
    "ShardedGenerationResult",
    "build_plan",
    "generate_sharded",
    "image_content_digests",
    "manifest_content_digests",
    "merge_shards",
    "merged_content_digest",
    "run_shard",
    "shard_cache_slice",
    "shard_entry_digests",
]
