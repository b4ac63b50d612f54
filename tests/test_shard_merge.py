"""Shard merging: tree grafting, disk extent adoption, content preservation."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ImpressionsConfig
from repro.content.generators import ContentPolicy
from repro.layout.disk import AllocationError, SimulatedDisk, expand_extents
from repro.materialize import ManifestSink, NullSink, materialize_image
from repro.namespace.tree import FileNode, FileSystemTree
from repro.obs import Telemetry
from repro.pipeline.runner import default_pipeline, image_fingerprint
from repro.shard import (
    ShardMergeError,
    build_plan,
    generate_sharded,
    image_content_digests,
    manifest_content_digests,
    merge_shards,
    merged_content_digest,
    run_shard,
)
from repro.shard.merge import collision_name

CONFIG = ImpressionsConfig(
    num_files=150, num_directories=30, seed=5, fs_size_bytes=12 * 1024 * 1024
)


def _shard_images(config, num_shards):
    plan = build_plan(config, num_shards)
    return plan, [default_pipeline().run(cfg).image for cfg in plan.configs()]


# --- SimulatedDisk.adopt_segment ------------------------------------------------


class TestAdoptExtents:
    def test_adopts_and_preserves_fragmentation(self):
        disk = SimulatedDisk(100)
        disk.adopt_segment([("a", [(0, 3), (10, 2)])])
        assert disk.extents_of("a") == [(0, 3), (10, 2)]
        assert disk.block_count("a") == 5
        assert disk.run_count("a") == 2
        assert disk.free_blocks == 95
        # candidates = 5 - 1 = 4, optimal = 5 - 2 = 3
        assert disk.layout_score() == pytest.approx(3 / 4)

    def test_merges_adjacent_input_extents(self):
        disk = SimulatedDisk(100)
        disk.adopt_segment([("a", [(0, 3), (3, 2)])])
        assert disk.extents_of("a") == [(0, 5)]
        assert disk.run_count("a") == 1

    def test_zero_extent_file_is_registered(self):
        disk = SimulatedDisk(100)
        disk.adopt_segment([("empty", [])])
        assert disk.has_file("empty")
        assert disk.block_count("empty") == 0
        assert disk.num_files == 1

    def test_rejects_overlap_with_allocated_space(self):
        disk = SimulatedDisk(100)
        disk.adopt_segment([("a", [(0, 10)])])
        with pytest.raises(AllocationError):
            disk.adopt_segment([("b", [(5, 10)])])
        # Failed adoption must not have mutated anything.
        assert disk.free_blocks == 90
        assert not disk.has_file("b")

    def test_rejects_self_overlapping_extents_without_mutation(self):
        disk = SimulatedDisk(100)
        with pytest.raises(ValueError, match="overlap"):
            disk.adopt_segment([("a", [(0, 10), (5, 3)])])
        assert disk.free_blocks == 100
        assert not disk.has_file("a")

    def test_rejects_out_of_range_and_duplicates(self):
        disk = SimulatedDisk(100)
        with pytest.raises(AllocationError):
            disk.adopt_segment([("a", [(95, 10)])])
        disk.adopt_segment([("a", [(0, 1)])])
        with pytest.raises(ValueError, match="already allocated"):
            disk.adopt_segment([("a", [(10, 1)])])
        with pytest.raises(ValueError, match="non-positive"):
            disk.adopt_segment([("b", [(10, 0)])])

    def test_interoperates_with_allocator(self):
        disk = SimulatedDisk(100)
        disk.adopt_segment([("adopted", [(20, 5)])])
        blocks = expand_extents(disk.allocate_extents("organic", 30 * disk.geometry.block_size))
        assert len(blocks) == 30
        assert set(blocks).isdisjoint(range(20, 25))
        disk.free("adopted")
        assert disk.free_blocks == 70


class TestAdoptSegment:
    def test_shifts_by_base_and_leaves_the_coalesced_complement(self):
        disk = SimulatedDisk(100)
        adopted = disk.adopt_segment(
            [("a", [(5, 3), (0, 2)]), ("b", []), ("c", [(2, 1)])], base=50
        )
        assert adopted == [[(55, 3), (50, 2)], [], [(52, 1)]]
        assert disk.extents_of("a") == [(55, 3), (50, 2)]
        assert disk.extents_of("c") == [(52, 1)]
        assert disk.free_extents() == [(0, 50), (53, 2), (58, 42)]
        assert disk.free_blocks == 94
        assert disk.file_names() == ["a", "b", "c"]
        assert disk.layout_aggregates == (6 - 2 - 1 + 0, 5 - 1)

    def test_adjacent_segments_keep_the_free_list_canonical(self):
        disk = SimulatedDisk(20)
        disk.adopt_segment([("a", [(0, 4)])], base=0)
        disk.adopt_segment([("b", [(0, 4)]), ("c", [(6, 2)])], base=10)
        assert disk.free_extents() == [(4, 6), (14, 2), (18, 2)]
        disk.adopt_segment([("d", [(0, 6)])], base=4)
        assert disk.free_extents() == [(14, 2), (18, 2)]

    def test_rejects_overlap_between_files_without_mutation(self):
        disk = SimulatedDisk(100)
        with pytest.raises(ValueError, match="overlap"):
            disk.adopt_segment([("a", [(0, 10)]), ("b", [(9, 2)])])
        assert disk.free_blocks == 100
        assert disk.num_files == 0

    def test_rejects_a_name_repeated_in_the_segment(self):
        disk = SimulatedDisk(100)
        with pytest.raises(ValueError, match="already allocated"):
            disk.adopt_segment([("a", [(0, 1)]), ("a", [(5, 1)])])
        assert disk.num_files == 0

    def test_rejects_a_range_inside_a_later_file_without_mutation(self):
        disk = SimulatedDisk(100)
        disk.allocate_extents("x", 10 * disk.geometry.block_size)
        with pytest.raises(AllocationError, match="not free"):
            disk.adopt_segment([("a", [(20, 5)]), ("b", [(8, 4)])])
        assert disk.free_extents() == [(10, 90)]
        assert disk.file_names() == ["x"]
        assert disk.layout_aggregates == (9, 9)

    def test_rejects_non_positive_length_in_a_multi_run_file(self):
        disk = SimulatedDisk(100)
        with pytest.raises(ValueError, match="non-positive"):
            disk.adopt_segment([("a", [(0, 3), (3, 0)])])
        assert disk.num_files == 0

    @given(
        holes=st.lists(st.integers(1, 4), min_size=1, max_size=12),
        owned=st.lists(st.booleans(), min_size=200, max_size=200),
        files=st.integers(1, 5),
        base=st.integers(0, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_free_list_is_the_coalesced_complement(self, holes, owned, files, base):
        disk = SimulatedDisk(200)
        for index, blocks in enumerate(holes):
            disk.allocate_extents(f"pre{index}", blocks * disk.geometry.block_size)
        for index in range(0, len(holes), 2):
            disk.free(f"pre{index}")
        free = [b for start, length in disk.free_extents() for b in range(start, start + length)]
        chosen = [b for b, keep in zip(free, owned) if keep and b >= base]
        runs: list[list[int]] = []
        for block in chosen:
            if runs and runs[-1][0] + runs[-1][1] == block:
                runs[-1][1] += 1
            else:
                runs.append([block, 1])
        # Deal the runs out to the files, each in descending order so every
        # file keeps all of its runs (nothing to merge) and is fragmented.
        segment = [
            (f"f{index}", [(start - base, length) for start, length in runs[index::files]][::-1])
            for index in range(files)
        ]
        disk.adopt_segment(segment, base)

        expected_free = sorted(set(free) - set(chosen))
        pairs = disk.free_extents()
        assert [b for start, length in pairs for b in range(start, start + length)] == expected_free
        assert all(start + length < following for (start, length), (following, _) in zip(pairs, pairs[1:]))
        assert disk.free_blocks == len(expected_free)
        for name, extents in segment:
            assert disk.extents_of(name) == [(start + base, length) for start, length in extents]
        optimal = sum(disk.block_count(n) - disk.run_count(n) for n in disk.file_names())
        candidates = sum(max(disk.block_count(n) - 1, 0) for n in disk.file_names())
        assert disk.layout_aggregates == (optimal, candidates)


# --- FileSystemTree adoption ----------------------------------------------------


class TestTreeAdoption:
    def test_adopt_file_renumbers_and_reparents(self):
        donor = FileSystemTree()
        node = donor.create_file(donor.root, size=10, extension="txt")
        target = FileSystemTree()
        target.create_file(target.root, size=1, extension="a")
        adopted = target.adopt_file(target.root, node)
        assert adopted is node
        assert node.file_id == 1
        assert node.parent is target.root
        assert node.depth == 1
        assert target.file_count == 2

    def test_adopt_subtree_fixes_depths_and_ids(self):
        donor = FileSystemTree()
        outer = donor.create_directory(donor.root, "outer")
        inner = donor.create_directory(outer, "inner")
        donor.create_file(outer, size=5, extension="x")
        donor.create_file(inner, size=6, extension="y")

        target = FileSystemTree()
        deep = target.create_directory(target.root, "deep")
        target.adopt_subtree(deep, outer)

        assert outer.parent is deep
        assert outer.depth == 2
        assert inner.depth == 3
        assert target.directory_count == 4  # root, deep, outer, inner
        assert target.file_count == 2
        assert sorted(node.file_id for node in target.files) == [0, 1]
        assert {node.path() for node in target.files} == {
            "/deep/outer/file000000.x",
            "/deep/outer/inner/file000001.y",
        }


# --- merge_shards ---------------------------------------------------------------


class TestMergeShards:
    def test_merged_counts_and_layout(self):
        plan, images = _shard_images(CONFIG, 3)
        shard_files = sum(image.file_count for image in images)
        shard_bytes = sum(image.total_bytes for image in images)
        shard_blocks = sum(image.disk.num_blocks for image in images)
        merged = merge_shards(plan, images)
        assert merged.file_count == shard_files == 150
        assert merged.total_bytes == shard_bytes
        assert merged.disk.num_blocks == shard_blocks
        # Every tree file is on the merged disk, under its merged path.
        for node in merged.tree.files:
            assert merged.disk.has_file(node.path())
            assert merged.disk.extents_of(node.path()) == node.extents
        assert 0.0 < merged.achieved_layout_score() <= 1.0
        assert merged.report.derived["layout_score"] == merged.achieved_layout_score()

    def test_top_level_collisions_renamed_deterministically(self):
        plan, images = _shard_images(CONFIG, 3)
        merged = merge_shards(plan, images)
        top_level = [child.name for child in merged.tree.root.subdirectories] + [
            child.name for child in merged.tree.root.files
        ]
        assert len(top_level) == len(set(top_level))
        # Shard name counters all start at zero, so later shards must have
        # been renamed with their shard prefix.
        assert any(name.startswith("s01-") or name.startswith("s02-") for name in top_level)

    def test_merge_is_deterministic(self):
        plan, images_a = _shard_images(CONFIG, 3)
        _, images_b = _shard_images(CONFIG, 3)
        assert image_fingerprint(merge_shards(plan, images_a)) == image_fingerprint(
            merge_shards(plan, images_b)
        )

    def test_merged_report_records_shard_provenance(self):
        plan, images = _shard_images(CONFIG, 2)
        fingerprints = [image_fingerprint(image) for image in images]
        merged = merge_shards(plan, images, shard_fingerprints=fingerprints)
        derived = merged.report.derived
        assert derived["shards"] == 2
        assert derived["shard_plan_fingerprint"] == plan.fingerprint()
        assert derived["shard_fingerprints"] == fingerprints
        assert derived["file_count"] == merged.file_count
        assert merged.report.seed == CONFIG.seed

    def test_rejects_wrong_image_count(self):
        plan, images = _shard_images(CONFIG, 2)
        with pytest.raises(ShardMergeError, match="2 shards"):
            merge_shards(plan, images[:1])

    def test_rejects_mixed_disk_presence(self):
        plan, images = _shard_images(CONFIG, 2)
        images[1].disk = None
        with pytest.raises(ShardMergeError, match="mix"):
            merge_shards(plan, images)


# --- Content preservation -------------------------------------------------------


CONTENT_CONFIG = ImpressionsConfig(
    num_files=60,
    num_directories=12,
    seed=8,
    fs_size_bytes=4 * 1024 * 1024,
    generate_content=True,
    content=ContentPolicy(text_model="hybrid"),
)


class TestContentPreservation:
    def test_adopted_files_keep_their_bytes(self):
        plan, images = _shard_images(CONTENT_CONFIG, 3)
        before = {}
        for spec, image in zip(plan.shards, images):
            for node in image.tree.files:
                before[(spec.index, node.file_id)] = hashlib.sha256(
                    image.file_content(node)
                ).hexdigest()
        merged = merge_shards(plan, images)
        after = sorted(
            hashlib.sha256(merged.file_content(node)).hexdigest()
            for node in merged.tree.files
        )
        assert after == sorted(before.values())
        # Every adopted file carries its generating pair.
        assert all(node.content_key is not None for node in merged.tree.files)

    def test_manifest_content_digests_round_trip(self, tmp_path):
        plan, images = _shard_images(CONTENT_CONFIG, 3)
        digests = []
        for spec, image in zip(plan.shards, images):
            path = tmp_path / f"shard{spec.index}.jsonl"
            materialize_image(image, ManifestSink(str(path), digest_content=True))
            digests.extend(manifest_content_digests(str(path)))

        result = generate_sharded(CONTENT_CONFIG, num_shards=3, jobs=1)
        assert sorted(digests) == image_content_digests(result.image)

        merged_manifest = tmp_path / "merged.jsonl"
        materialize_image(
            result.image, ManifestSink(str(merged_manifest), digest_content=True)
        )
        assert manifest_content_digests(str(merged_manifest)) == sorted(digests)

    def test_manifest_without_content_digests_raises(self, tmp_path):
        plan, images = _shard_images(CONTENT_CONFIG, 2)
        path = tmp_path / "plain.jsonl"
        materialize_image(images[0], ManifestSink(str(path)))
        with pytest.raises(ShardMergeError, match="content_sha256"):
            manifest_content_digests(str(path))

    def test_image_content_digests_requires_content(self):
        plan, images = _shard_images(CONFIG, 2)
        merged = merge_shards(plan, images)
        with pytest.raises(ShardMergeError, match="content generator"):
            image_content_digests(merged)


# --- Worker-side entry digests --------------------------------------------------


def _shard_rows(config, num_shards, digest=True):
    plan = build_plan(config, num_shards)
    rows = [
        run_shard({"index": spec.index, "config": plan.shard_config(spec), "digest": digest})
        for spec in plan.shards
    ]
    return plan, rows


class TestWorkerDigests:
    @pytest.mark.parametrize("config", [CONFIG, CONTENT_CONFIG], ids=["metadata", "content"])
    def test_combine_equals_a_null_sink_pass(self, config):
        plan, rows = _shard_rows(config, 3)
        merged = merge_shards(plan, [row["image"] for row in rows])
        expected = materialize_image(merged, NullSink()).content_digest
        assert merged_content_digest(merged, [row["digests"] for row in rows]) == expected

    def test_names_matching_no_candidate_are_digested_by_the_parent(self):
        plan, rows = _shard_rows(CONTENT_CONFIG, 3)
        merged = merge_shards(plan, [row["image"] for row in rows])
        expected = materialize_image(merged, NullSink()).content_digest
        records = [row["digests"] for row in rows]
        emptied = [
            dict(record, files=[{} for _ in record["files"]], dirs=[{} for _ in record["dirs"]])
            for record in records
        ]
        assert merged_content_digest(merged, emptied) == expected
        # A variant under the wrong content mode is never used.
        flipped = [dict(record, content=not record["content"]) for record in records]
        assert merged_content_digest(merged, flipped) == expected

    def test_only_later_shards_digest_the_collision_name(self):
        _, rows = _shard_rows(CONFIG, 3)
        for row in rows:
            index = row["index"]
            for variants in row["digests"]["files"] + row["digests"]["dirs"]:
                names = list(variants)
                assert len(names) == (1 if index == 0 else 2)
                if index:
                    assert names[1] == collision_name(names[0], index)

    def test_records_that_do_not_cover_the_root_raise(self):
        plan, rows = _shard_rows(CONFIG, 2)
        merged = merge_shards(plan, [row["image"] for row in rows])
        records = [row["digests"] for row in rows]
        with pytest.raises(ShardMergeError, match="no shard digested"):
            merged_content_digest(merged, records[:1])
        with pytest.raises(ShardMergeError, match="more entries"):
            merged_content_digest(merged, records + records[1:])

    def test_no_digest_means_workers_compute_nothing(self):
        _, rows = _shard_rows(CONFIG, 2, digest=False)
        assert all(row["digests"] is None for row in rows)
        result = generate_sharded(CONFIG, num_shards=2, jobs=1, digest=False)
        assert result.content_digest is None
        assert result.timings["digest_seconds"] == 0.0

    def test_worker_digest_span_sits_inside_its_shard_wall(self):
        tele = Telemetry(run_id="shard-digest-spans")
        result = generate_sharded(CONFIG, num_shards=2, jobs=1, telemetry=tele)
        by_id = {span.span_id: span for span in tele.spans}
        digests = [span for span in tele.spans if span.name == "shard_digest"]
        assert sorted(span.labels["shard"] for span in digests) == ["0", "1"]
        for span in digests:
            parent = by_id[span.parent_id]
            assert parent.name == "shard_generate"
            assert parent.labels["shard"] == span.labels["shard"]
        (combine,) = [span for span in tele.spans if span.name == "shard_digest_combine"]
        assert result.timings["digest_seconds"] == combine.wall_seconds
