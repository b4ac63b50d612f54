"""Differential oracle for sharded generation.

Every sharded image — at any worker count, metadata-only or with hybrid
content, perfectly laid out or fragmented, with or without top-level name
collisions — must keep three things fixed:

* its ``fingerprint`` and ``content_digest`` (pinned as SHA-256 goldens);
* a content digest equal to an independent
  ``materialize_image(merged, NullSink())`` pass over the merged image;
* a merged disk whose free list, per-file extent maps, block counts and
  layout aggregates equal the state implied by the merged tree: every file
  owns exactly its node's extents and the free list is the coalesced
  complement of all of them (pinned as a golden too).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.content.generators import ContentPolicy
from repro.core.config import ImpressionsConfig
from repro.materialize import NullSink, materialize_image
from repro.metadata.extensions import ExtensionPopularityModel
from repro.metadata.timestamps import TimestampModel
from repro.shard import generate_sharded
from repro.stats.distributions import LognormalDistribution

_METADATA = dict(num_files=150, num_directories=30, seed=5, fs_size_bytes=12 * 1024 * 1024)
_CONTENT = dict(
    num_files=60,
    num_directories=12,
    seed=8,
    fs_size_bytes=1024 * 1024,
    file_size_model=LognormalDistribution(mu=9.2, sigma=1.0),
    generate_content=True,
    content=ContentPolicy(text_model="hybrid"),
)
#: One extension and few directories: shards 0 and 2 place files with equal
#: names at the root, so root *files* (not only directories) are renamed.
#: Timestamps put the header's timestamp field under the digest too.
_ROOT_FILE_COLLISION = dict(
    num_files=60,
    num_directories=6,
    seed=1,
    fs_size_bytes=1024 * 1024,
    file_size_model=LognormalDistribution(mu=9.2, sigma=1.0),
    extension_model=ExtensionPopularityModel(by_count={"txt": 1.0}, by_bytes={"txt": 1.0}),
    timestamp_model=TimestampModel(),
    timestamp_now=1_700_000_000.0,
    generate_content=True,
    content=ContentPolicy(text_model="hybrid"),
)

#: name -> (config knobs, shards, fingerprint, content digest, disk state digest)
CASES = {
    "metadata-1.0": (
        dict(_METADATA),
        3,
        "7e6d7efdc8bb97058f0ff0a421c1b2fd2a72b96f682a84a93093b118991c3703",
        "a3931478d0b49abda20ac72e164247ff73b6bb512e583ead3e766ec539840d0d",
        "f87e94ea227535ad1da30585a8cb7749f0bb59d122a066f83fa8d8a473c28eb6",
    ),
    "metadata-0.8": (
        dict(_METADATA, layout_score=0.8),
        3,
        "01f49d08bfe41953041004d225a46932ec50c1e15509d3d657d1daeb43fea3ff",
        "a3931478d0b49abda20ac72e164247ff73b6bb512e583ead3e766ec539840d0d",
        "c7355eeec98ae2df739425323cfdbdffd0c5557cf18f41348c1d2755aa1e136a",
    ),
    "hybrid-1.0": (
        dict(_CONTENT),
        3,
        "3c143fe966437741d642f6445d1e30a87cf673e003eb3efdf72566d1237707ec",
        "7775eec6945345cf018a24aea3b4a4f83061c1ae6f66e50c8a46e12f13b953cc",
        "20e4f5a61f256a7f2a73ac85bcf4c467f75bc637714aa118025f0802d1229a61",
    ),
    "hybrid-0.8": (
        dict(_CONTENT, layout_score=0.8),
        3,
        "c42af77ff79f1c1e97be82c68678c9a97c2c4318091db87e401ec2d13256f8d8",
        "7775eec6945345cf018a24aea3b4a4f83061c1ae6f66e50c8a46e12f13b953cc",
        "4bc2e1ef1e5c44bf609ce62fdcf7d14665899e5ed9de85c44cf2dbe60f5c25c9",
    ),
    "root-file-collision": (
        dict(_ROOT_FILE_COLLISION),
        3,
        "e20e4cf3a682cf39f3447392d9559cb00df88454a26637cd8825cba60744e2de",
        "bf5132ecedf4796ffbcc1941ca9a6ed529e720263cdf829867873c26aa28f8b7",
        "28c3af90f32a2c078c5bdaf70efe5aa93f6a920115a38036349348ac6c00ba6f",
    ),
}


def _disk_state(disk) -> dict:
    return {
        "num_blocks": disk.num_blocks,
        "free_blocks": disk.free_blocks,
        "free": [list(extent) for extent in disk.free_extents()],
        "files": [
            [name, [list(extent) for extent in disk.extents_of(name)], disk.block_count(name)]
            for name in disk.file_names()
        ],
        "aggregates": list(disk.layout_aggregates),
    }


def _reference_disk_state(image) -> dict:
    """The merged disk as implied by the merged tree alone, adopted per file."""
    disk = image.disk
    files = []
    owned = []
    optimal = candidates = 0
    for node, path in zip(image.tree.files, image.tree.file_paths()):
        canonical: list[list[int]] = []
        for start, length in node.extents:
            if canonical and canonical[-1][0] + canonical[-1][1] == start:
                canonical[-1][1] += length
            else:
                canonical.append([start, length])
        blocks = sum(length for _, length in canonical)
        files.append([path, canonical, blocks])
        owned.extend(canonical)
        if blocks:
            candidates += blocks - 1
            optimal += blocks - len(canonical)
    free: list[list[int]] = []
    cursor = 0
    for start, length in sorted(owned):
        assert start >= cursor, "merged extents overlap"
        if start > cursor:
            free.append([cursor, start - cursor])
        cursor = start + length
    if cursor < disk.num_blocks:
        free.append([cursor, disk.num_blocks - cursor])
    return {
        "num_blocks": disk.num_blocks,
        "free_blocks": sum(length for _, length in free),
        "free": free,
        "files": files,
        "aggregates": [optimal, candidates],
    }


def _by_path(state: dict) -> dict:
    return dict(state, files={path: rest for path, *rest in state["files"]})


def _sha256(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    knobs, shards, fingerprint, digest, disk = CASES[request.param]
    config = ImpressionsConfig(**knobs)
    results = {jobs: generate_sharded(config, num_shards=shards, jobs=jobs) for jobs in (1, 2, 4)}
    return request.param, results, (fingerprint, digest, disk)


def test_fingerprint_and_digest_match_goldens(case):
    name, results, (fingerprint, digest, _) = case
    for jobs, result in results.items():
        assert result.fingerprint == fingerprint, (name, jobs)
        assert result.content_digest == digest, (name, jobs)


def test_digest_matches_independent_null_sink_pass(case):
    _, results, _ = case
    for result in results.values():
        assert materialize_image(result.image, NullSink()).content_digest == result.content_digest


def test_merged_disk_matches_per_file_reference(case):
    name, results, (_, _, disk_golden) = case
    for jobs, result in results.items():
        state = _disk_state(result.image.disk)
        reference = _reference_disk_state(result.image)
        # The golden pins the allocation order too; the reference is keyed
        # by path, since a file's merged path does not give its shard order.
        assert _by_path(state) == _by_path(reference), (name, jobs)
        assert _sha256(state) == disk_golden, (name, jobs)


def test_collision_case_renames_root_files():
    knobs = CASES["root-file-collision"][0]
    result = generate_sharded(ImpressionsConfig(**knobs), num_shards=3, jobs=1, digest=False)
    names = [node.name for node in result.image.tree.root.files]
    assert len(names) == len(set(names))
    assert any(name.startswith("s02-") for name in names)
