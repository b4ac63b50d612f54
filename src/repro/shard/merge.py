"""Fold per-shard images into one merged :class:`FileSystemImage`.

The merge is the deterministic half of the sharding contract.  Given the
plan and the shard images **in shard-index order**, it:

* grafts each shard root's children (files and directory subtrees) under one
  merged root, renaming a top-level entry only when its name collides with
  one adopted earlier (``s<shard>-<name>``) — deeper paths never collide
  because each sibling set comes from a single shard;
* re-numbers every file with a merged ``file_id`` while pinning its
  :attr:`~repro.namespace.tree.FileNode.content_key`, so a content file's
  bytes are identical before and after the merge;
* concatenates the shard disks into one address space: each shard's files
  are adopted as one offset segment
  (:meth:`~repro.layout.disk.SimulatedDisk.adopt_segment`) whose base is the
  prefix sum of the earlier shards' block counts, in one pass that builds
  the extent maps, the layout aggregates and the free list as the coalesced
  complement, so per-file fragmentation — and therefore the merged layout
  score, still an O(1) aggregate read — is preserved exactly;
* assembles a merged reproducibility report (master parameters, exact merged
  counts, the plan and per-shard fingerprints) and per-phase timings (the
  max over shards: the parallel critical path).

Everything is a pure function of ``(plan, shard images)``; since each shard
image is a pure function of its spec, the merged image is identical no
matter how many processes generated the shards.

Shard-local state that cannot mean anything in the merged address space is
dropped: simulated-disk allocations not owned by the shard's tree (e.g.
fragmenter leftovers) stay behind, and each shard's root directory itself is
discarded (the plan accounts for this in its directory apportionment).

The merged image's materialize content digest is split the same way.
Each worker digests its own shard (:func:`shard_entry_digests`): every
top-level entry under its own name and under :func:`collision_name`, since
the merge gives it one or the other.  After the merge the parent only picks
each entry's variant and combines the raw digests
(:func:`merged_content_digest`); the result equals
``materialize_image(merged, NullSink()).content_digest`` byte for byte.

:func:`image_content_digests` / :func:`manifest_content_digests` close the
loop with :mod:`repro.materialize`: a manifest written with
``digest_content=True`` carries per-file content hashes that are
*path-independent*, so the multiset over all shard manifests must equal the
multiset over the merged image — the cross-check ``impressions shard
verify --content`` and the merge test suite use.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.image import FileSystemImage
from repro.core.report import ReproducibilityReport
from repro.layout.disk import SimulatedDisk
from repro.materialize.base import directory_entry_digest, top_level_entry_digests
from repro.namespace.tree import FileSystemTree
from repro.shard.plan import ShardPlan

__all__ = [
    "ShardMergeError",
    "collision_name",
    "merge_shards",
    "merged_content_digest",
    "shard_entry_digests",
    "image_content_digests",
    "manifest_content_digests",
]


class ShardMergeError(RuntimeError):
    """Raised when shard images cannot be merged into one."""


def _derive_content_seed(plan: ShardPlan) -> int:
    """Deterministic content seed for the *merged* image.

    Adopted files never use it (their :attr:`content_key` pins the shard pair
    they were generated under); it only seeds files added to the merged image
    later (trace replay, aging).
    """
    token = f"impressions-shard-merged:{plan.fingerprint()}"
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def collision_name(name: str, index: int) -> str:
    """The name shard ``index`` gives a top-level entry whose name is taken."""
    return f"s{index:02d}-{name}"


def merge_shards(
    plan: ShardPlan,
    images: list[FileSystemImage],
    *,
    shard_fingerprints: list[str] | None = None,
) -> FileSystemImage:
    """Merge shard images (in index order) into the plan's single image.

    The shard images are *consumed*: their nodes are re-parented into the
    merged tree and must not be used as independent images afterwards.
    """
    if len(images) != plan.num_shards:
        raise ShardMergeError(
            f"plan has {plan.num_shards} shards but {len(images)} images were given"
        )
    with_disk = [image for image in images if image.disk is not None]
    if with_disk and len(with_disk) != len(images):
        raise ShardMergeError(
            "cannot merge a mix of images with and without a disk layout; "
            "run every shard through the same stage set"
        )

    merged_tree = FileSystemTree()
    merged_root = merged_tree.root

    merged_disk: SimulatedDisk | None = None
    offsets: list[int] = []
    if with_disk:
        base = 0
        for image in images:
            assert image.disk is not None
            offsets.append(base)
            base += image.disk.num_blocks
        merged_disk = SimulatedDisk(base, geometry=images[0].disk.geometry)

    generators = [image.content_generator for image in images]
    content_generator = next((g for g in generators if g is not None), None)

    used_names: set[str] = set()
    for spec, image in zip(plan.shards, images):
        shard_root = image.tree.root
        shard_files = image.tree.files  # snapshot before re-parenting

        # A file's bytes are a pure function of (content_seed, file_id); the
        # merge reassigns file_ids, so pin the generating pair first.
        if image.content_generator is not None:
            for node in shard_files:
                if node.content_key is None:
                    node.content_key = (image.content_seed, node.file_id)

        # Deterministic collision renames at the top-level split only: the
        # shards' name counters all start at zero, so their root children can
        # collide; deeper siblings come from a single shard and cannot.
        for node in list(shard_root.subdirectories) + list(shard_root.files):
            name = node.name
            while name in used_names:
                name = collision_name(name, spec.index)
            node.name = name
            used_names.add(name)

        # With the top-level names settled, each file's path under the shard
        # root is already its merged path (both roots are "/").
        shard_paths = image.tree.file_paths()
        for file_node in shard_root.files:
            merged_tree.adopt_file(merged_root, file_node)
        for directory in shard_root.subdirectories:
            merged_tree.adopt_subtree(merged_root, directory)

        if merged_disk is not None:
            base = offsets[spec.index]
            adopted = merged_disk.adopt_segment(
                zip(shard_paths, [node.extents for node in shard_files]), base
            )
            for node, extents in zip(shard_files, adopted):
                node.extents = extents
                if node.first_block is not None:
                    node.first_block += base

    master = plan.master
    report = ReproducibilityReport(seed=master.seed, parameters=master.parameter_table())
    report.distributions = {
        "file_size_by_count": dict(master.resolved_size_model().params()),
        "file_size_by_bytes": dict(master.resolved_bytes_model().params()),
        "file_count_with_depth": dict(master.depth_distribution.params()),
        "directory_size_files": dict(master.directory_file_count_model.params()),
    }

    # The merged per-phase timing is the max over shards: what the phase
    # costs on the parallel critical path.  The total is the sum of those.
    timings = report.phase_timings
    for image in images:
        if image.report is None:
            continue
        for phase, seconds in image.report.phase_timings.items():
            if phase != "total":
                timings[phase] = max(timings.get(phase, 0.0), seconds)
    report.record_timing("total", sum(timings.values()))

    merged = FileSystemImage(
        tree=merged_tree,
        disk=merged_disk,
        content_generator=content_generator,
        content_seed=_derive_content_seed(plan),
        report=report,
    )
    report.record_derived("file_count", merged_tree.file_count)
    report.record_derived("directory_count", merged_tree.directory_count)
    report.record_derived("total_bytes", merged_tree.total_bytes)
    # Every merged file was adopted onto the merged disk under its merged
    # path, so the disk holds exactly the tree's files and the achieved score
    # is the disk's O(1) aggregate (see FileSystemImage.achieved_layout_score).
    report.record_derived(
        "layout_score", merged_disk.layout_score() if merged_disk is not None else 1.0
    )
    report.record_derived("shards", plan.num_shards)
    report.record_derived("shard_plan_fingerprint", plan.fingerprint())
    if shard_fingerprints is not None:
        report.record_derived("shard_fingerprints", list(shard_fingerprints))
    merged.extras["shard_plan"] = plan.as_dict()
    return merged


def shard_entry_digests(image: FileSystemImage, index: int) -> dict:
    """The worker half of the merged content digest, for shard ``index``.

    Every top-level entry of a shard keeps its name in the merge or takes
    :func:`collision_name`, so the shard digests each one under both
    candidate names (shard 0, whose entries are adopted first, only under its
    own) with :func:`~repro.materialize.base.top_level_entry_digests`: root
    files, then root directories, each as ``{merged name: (directory
    digests, file digests)}``.  :func:`merged_content_digest` picks the
    variant the merge chose.
    """
    write_content = image.content_generator is not None
    root = image.tree.root

    def variants(node) -> dict[str, tuple[bytes, bytes]]:
        names = [node.name] if index == 0 else [node.name, collision_name(node.name, index)]
        return dict(zip(names, top_level_entry_digests(image, node, names, write_content)))

    return {
        "content": write_content,
        "files": [variants(node) for node in root.files],
        "dirs": [variants(node) for node in root.subdirectories],
    }


def merged_content_digest(merged: FileSystemImage, shard_digests: list[dict]) -> str:
    """The parent half: ``materialize_image(merged, NullSink()).content_digest``
    combined from the shards' :func:`shard_entry_digests`, in shard order.

    The merge adopts each shard's root files, then its root directories, so
    the merged root lists them in the same order the digests do.  A merged
    name that matches neither candidate is digested here, through the same
    function, so correctness never rests on the naming convention.
    """
    write_content = merged.content_generator is not None
    root = merged.tree.root
    root_files = iter(root.files)
    root_dirs = iter(root.subdirectories)
    directory_parts = [directory_entry_digest(".")]
    file_parts: list[bytes] = []

    def pick(nodes, variants: dict, content: bool) -> tuple[bytes, bytes]:
        node = next(nodes, None)
        if node is None:
            raise ShardMergeError("shard digests list more entries than the merged root holds")
        found = variants.get(node.name) if content == write_content else None
        if found is None:
            found = top_level_entry_digests(merged, node, [node.name], write_content)[0]
        return found

    for record in shard_digests:
        content = record["content"]
        for variants in record["files"]:
            file_parts.append(pick(root_files, variants, content)[1])
        for variants in record["dirs"]:
            directories, files = pick(root_dirs, variants, content)
            directory_parts.append(directories)
            file_parts.append(files)
    if next(root_files, None) is not None or next(root_dirs, None) is not None:
        raise ShardMergeError("the merged root holds entries no shard digested")
    combined = hashlib.sha256(b"".join(directory_parts))
    combined.update(b"".join(file_parts))
    return combined.hexdigest()


def image_content_digests(image: FileSystemImage) -> list[str]:
    """Sorted per-file SHA-256 digests over *content bytes only*.

    Path-independent by construction (no metadata header), so the list is
    comparable across the rename-on-merge boundary — unlike the materialize
    entry digest, which deliberately covers the path.  Digested over the
    chunked content stream (the bytes materialization writes and
    ``ManifestSink(digest_content=True)`` hashes), which for large text files
    differs from one-shot :meth:`~repro.core.image.FileSystemImage.file_content`.
    """
    import numpy as np

    generator = image.content_generator
    if generator is None:
        raise ShardMergeError("image has no content generator to digest")
    out = []
    for node in image.tree.files:
        key = node.content_key
        if key is None:
            key = (image.content_seed, node.file_id)
        digest = hashlib.sha256()
        for chunk in generator.iter_chunks(node.size, node.extension, np.random.default_rng(key)):
            digest.update(chunk)
        out.append(digest.hexdigest())
    out.sort()
    return out


def manifest_content_digests(manifest_path: str) -> list[str]:
    """Sorted ``content_sha256`` values from a manifest written with
    ``digest_content=True`` (:class:`~repro.materialize.ManifestSink`).

    The multiset over every shard manifest equals
    :func:`image_content_digests` of the merged image — the reuse path the
    shard merge verifier builds on.
    """
    digests: list[str] = []
    with open(manifest_path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            row = json.loads(line)
            if row.get("type") != "file":
                continue
            digest = row.get("content_sha256")
            if digest is None:
                raise ShardMergeError(
                    f"manifest {manifest_path!r} carries no content_sha256 rows; "
                    "write it with digest_content=True (--digest-content)"
                )
            digests.append(digest)
    digests.sort()
    return digests
