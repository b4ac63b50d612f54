"""Golden equivalence: the staged pipeline reproduces the monolithic generator.

``_monolithic_generate`` below is a faithful replica of the historical
``Impressions.generate()`` (the single method the pipeline redesign split
into stages), preserving its exact rng draw order.  Same seed + config must
produce an identical image fingerprint (tree, block layout, layout score,
report) whether generation runs through this reference implementation, the
backward-compatible ``Impressions.generate()`` facade, an explicitly built
default pipeline, or a pipeline restoring from the stage cache.  The replica
is the real oracle: the facade now delegates to the pipeline, so only the
replica can catch a stage port reordering a random draw.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.constraints.resolver import ConstraintResolver, ConstraintSpec
from repro.content.generators import ContentGenerator
from repro.core.config import ImpressionsConfig
from repro.core.image import FileSystemImage
from repro.core.impressions import Impressions
from repro.core.report import ReproducibilityReport
from repro.layout.disk import SimulatedDisk
from repro.layout.fragmenter import Fragmenter
from repro.metadata.extensions import content_kind_for_extension
from repro.metadata.names import NameGenerator
from repro.namespace.generative_model import GenerativeTreeModel
from repro.namespace.placement import FilePlacer
from repro.namespace.special_dirs import install_special_directories
from repro.pipeline import StageCache, default_pipeline, image_fingerprint


def _monolithic_generate(config: ImpressionsConfig) -> FileSystemImage:
    """The pre-redesign ``Impressions.generate()``, phase for phase."""
    rng = np.random.default_rng(config.seed)
    report = ReproducibilityReport(seed=config.seed, parameters=config.parameter_table())

    # Phase 1: namespace.
    model = GenerativeTreeModel(attachment_offset=config.attachment_offset)
    tree = model.generate(config.resolved_num_directories(), rng)
    if config.special_directories:
        install_special_directories(tree, tuple(config.special_directories), rng)

    # Phase 2: file sizes.
    num_files = config.resolved_num_files()
    size_model = config.resolved_size_model()
    if config.enforce_fs_size and config.fs_size_bytes is not None:
        spec = ConstraintSpec(
            num_values=num_files,
            target_sum=float(config.fs_size_bytes),
            distribution=size_model,
            beta=config.beta,
            max_oversampling_factor=config.max_oversampling_factor,
        )
        result = ConstraintResolver(spec, rng).resolve()
        report.record_derived("constraint_final_beta", result.final_beta)
        report.record_derived("constraint_oversampling", result.oversampling_factor)
        report.record_derived("constraint_converged", result.converged)
        sizes = result.values
    else:
        sizes = np.asarray(size_model.sample(rng, num_files), dtype=float)
    sizes = np.maximum(np.round(sizes), 0).astype(np.int64)

    # Phase 3: extensions.
    extensions = config.extension_model.sample_extensions(rng, len(sizes))

    # Phase 4: depth selection + parent placement + file creation.
    content_generator = ContentGenerator(policy=config.content) if config.generate_content else None
    special_nodes = {
        directory.special_label: directory
        for directory in tree.directories
        if directory.special_label is not None
    }
    placer = FilePlacer(
        tree=tree, model=config.placement_model(), rng=rng, special_nodes=special_nodes
    )
    names = NameGenerator()
    for size, extension in zip(sizes, extensions):
        parent = placer.place(int(size))
        kind = (
            content_generator.content_kind(extension)
            if content_generator is not None
            else content_kind_for_extension(extension)
        )
        tree.create_file(
            parent=parent,
            size=int(size),
            extension=extension,
            name=names.next_file_name(extension),
            content_kind=kind,
        )
    if config.timestamp_model is not None:
        now = config.timestamp_now if config.timestamp_now is not None else time.time()
        report.record_derived("timestamp_now", now)
        for file_node in tree.files:
            file_node.timestamps = config.timestamp_model.sample(rng, now)

    # Phase 5: content seed + eager probe.
    content_seed = int(rng.integers(0, 2**31 - 1))
    if content_generator is not None and tree.file_count:
        probe = tree.files[0]
        probe_rng = np.random.default_rng((content_seed, probe.file_id))
        content_generator.generate(min(probe.size, 4096), probe.extension, probe_rng)

    # Phase 6: on-disk creation with the requested layout score.
    needed_blocks = int(tree.total_bytes * 1.3) // config.block_size + tree.file_count + 1024
    capacity_blocks = max(config.resolved_disk_capacity() // config.block_size, needed_blocks, 1024)
    disk = SimulatedDisk(num_blocks=capacity_blocks)
    fragmenter = Fragmenter(disk, config.layout_score)
    for file_node in tree.files:
        extents = fragmenter.allocate_regular_file(file_node.path(), file_node.size)
        file_node.extents = extents
        file_node.first_block = extents[0][0] if extents else None
    fragmenter.finish()

    report.record_derived("file_count", tree.file_count)
    report.record_derived("directory_count", tree.directory_count)
    report.record_derived("total_bytes", tree.total_bytes)
    image = FileSystemImage(
        tree=tree,
        disk=disk,
        content_generator=content_generator,
        content_seed=content_seed,
        report=report,
    )
    report.record_derived("layout_score", image.achieved_layout_score())
    return image

CONFIGS = {
    "plain": ImpressionsConfig(fs_size_bytes=None, num_files=300, num_directories=60, seed=5),
    "constrained": ImpressionsConfig(
        fs_size_bytes=32 * 1024 * 1024,
        num_files=200,
        num_directories=40,
        seed=9,
        enforce_fs_size=True,
    ),
    "fragmented": ImpressionsConfig(
        fs_size_bytes=None, num_files=150, num_directories=30, seed=3, layout_score=0.7
    ),
    "with_content": ImpressionsConfig(
        fs_size_bytes=8 * 1024 * 1024,
        num_files=100,
        num_directories=20,
        seed=11,
        generate_content=True,
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_pipeline_matches_the_historical_monolith(name):
    # The golden test: the staged pipeline must be seed-for-seed identical
    # to the pre-redesign monolithic generator (replicated above).
    config = CONFIGS[name]
    reference = _monolithic_generate(config)
    pipeline_image = default_pipeline().run(config).image
    assert image_fingerprint(pipeline_image) == image_fingerprint(reference)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_facade_and_pipeline_fingerprints_match(name):
    config = CONFIGS[name]
    facade_image = Impressions(config).generate()
    pipeline_image = default_pipeline().run(config).image
    assert image_fingerprint(facade_image) == image_fingerprint(pipeline_image)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_image_fingerprint_is_reproducible(name):
    config = CONFIGS[name]
    first = image_fingerprint(Impressions(config).generate())
    second = image_fingerprint(Impressions(config).generate())
    assert first == second


def test_cache_restored_image_matches_the_facade(tmp_path):
    config = CONFIGS["plain"]
    cache = StageCache(str(tmp_path / "cache"))
    default_pipeline().run(config, cache=cache)  # populate
    restored = default_pipeline().run(config, cache=cache)
    assert restored.generation_cached
    assert image_fingerprint(restored.image) == image_fingerprint(
        Impressions(config).generate()
    )


def test_facade_reports_match_pipeline_reports():
    config = CONFIGS["constrained"]
    facade_report = Impressions(config).generate().report
    pipeline_report = default_pipeline().run(config).image.report
    assert facade_report is not None and pipeline_report is not None
    assert facade_report.derived.keys() == pipeline_report.derived.keys()
    deterministic = {
        key: value
        for key, value in facade_report.derived.items()
        if key != "timestamp_now"
    }
    assert deterministic == {
        key: value
        for key, value in pipeline_report.derived.items()
        if key != "timestamp_now"
    }
    assert set(facade_report.phase_timings) == set(pipeline_report.phase_timings)


def test_seed_difference_still_diverges():
    config = CONFIGS["plain"]
    a = image_fingerprint(default_pipeline().run(config).image)
    b = image_fingerprint(default_pipeline().run(config.with_overrides(seed=6)).image)
    assert a != b
