"""The six generation stages of the default pipeline (Section 3.3 / Table 6).

Each stage ports one phase of the previous monolithic
``Impressions.generate()`` onto the :class:`~repro.pipeline.stage.Stage`
protocol.  The stages share the context's sequential rng stream, so running
them in order consumes random draws exactly as the monolith did — the default
pipeline is seed-for-seed identical to the historical generator (the golden
equivalence test pins this).

Stage names are the keys under which the pipeline records each stage's
span seconds in the report's ``phase_timings``, which are also the Table 6
row names.
"""

from __future__ import annotations

import time

import numpy as np

from repro.constraints.resolver import ConstraintResolver, ConstraintSpec
from repro.content.generators import ContentGenerator
from repro.layout.disk import SimulatedDisk
from repro.layout.fragmenter import Fragmenter
from repro.metadata.extensions import content_kind_for_extension
from repro.metadata.names import NameGenerator
from repro.namespace.generative_model import GenerativeTreeModel
from repro.namespace.placement import FilePlacer
from repro.namespace.special_dirs import install_special_directories
from repro.obs import core as obs_core
from repro.pipeline.context import GenerationContext
from repro.pipeline.stage import PipelineError, Stage

__all__ = [
    "DirectoryStructureStage",
    "FileSizesStage",
    "ExtensionsStage",
    "PlacementStage",
    "ContentStage",
    "OnDiskCreationStage",
    "GENERATION_STAGES",
]


class DirectoryStructureStage(Stage):
    """Phase 1 — the generative tree model builds the namespace."""

    name = "directory_structure"
    provides = ("tree",)
    config_knobs = (
        "seed",
        "num_directories",
        "num_files",
        "fs_size_bytes",
        "files_per_directory",
        "use_simple_size_model",
        "attachment_offset",
        "special_directories",
    )

    def run(self, context: GenerationContext) -> None:
        config = context.config
        model = GenerativeTreeModel(attachment_offset=config.attachment_offset)
        tree = model.generate(config.resolved_num_directories(), context.rng)
        if config.special_directories:
            install_special_directories(tree, tuple(config.special_directories), context.rng)
        context.tree = tree


class FileSizesStage(Stage):
    """Phase 2 — sample sizes; reconcile against the target sum if pinned."""

    name = "file_sizes"
    provides = ("sizes",)
    config_knobs = (
        "seed",
        "num_files",
        "fs_size_bytes",
        "use_simple_size_model",
        "enforce_fs_size",
        "beta",
        "max_oversampling_factor",
    )

    def run(self, context: GenerationContext) -> None:
        config = context.config
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
            result = ConstraintResolver(spec, context.rng).resolve()
            context.report.record_derived("constraint_final_beta", result.final_beta)
            context.report.record_derived("constraint_oversampling", result.oversampling_factor)
            context.report.record_derived("constraint_converged", result.converged)
            sizes = result.values
        else:
            sizes = np.asarray(size_model.sample(context.rng, num_files), dtype=float)
        context.sizes = np.maximum(np.round(sizes), 0).astype(np.int64)


class ExtensionsStage(Stage):
    """Phase 3 — assign extensions from the popularity model."""

    name = "extensions"
    requires = ("sizes",)
    provides = ("extensions",)
    config_knobs = ("seed",)

    def run(self, context: GenerationContext) -> None:
        assert context.sizes is not None
        context.extensions = context.config.extension_model.sample_extensions(
            context.rng, len(context.sizes)
        )


class PlacementStage(Stage):
    """Phase 4 — depth selection, parent placement, file creation, timestamps."""

    name = "depth_and_placement"
    requires = ("tree", "sizes", "extensions")
    provides = ("files",)
    config_knobs = (
        "seed",
        "use_multiplicative_depth_model",
        "special_directories",
        "content_model",
    )

    def run(self, context: GenerationContext) -> None:
        config = context.config
        tree, sizes, extensions = context.tree, context.sizes, context.extensions
        assert tree is not None and sizes is not None and extensions is not None
        content_generator = (
            ContentGenerator(policy=config.content) if config.generate_content else None
        )
        context.content_generator = content_generator

        special_nodes = {
            directory.special_label: directory
            for directory in tree.directories
            if directory.special_label is not None
        }
        placer = FilePlacer(
            tree=tree,
            model=config.placement_model(),
            rng=context.rng,
            special_nodes=special_nodes,
        )
        placer.prepare(sizes)
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

        # Optional file timestamps (age model).  The model object is outside
        # the knob view, so configs carrying one are excluded from the cache
        # (see config_cache_safe) rather than silently mis-keyed.
        if config.timestamp_model is not None:
            now = config.timestamp_now if config.timestamp_now is not None else time.time()
            context.report.record_derived("timestamp_now", now)
            for file_node in tree.files:
                file_node.timestamps = config.timestamp_model.sample(context.rng, now)


class ContentStage(Stage):
    """Phase 5 — draw the content seed; probe one generation eagerly.

    Content bytes stay lazy (regenerated on demand from the content seed and
    each file's index); the probe surfaces configuration errors early and is
    what Table 6 charges to the content phase.
    """

    name = "content"
    requires = ("files",)
    provides = ("content",)
    config_knobs = ("seed", "content_model")

    def run(self, context: GenerationContext) -> None:
        tree = context.tree
        assert tree is not None
        context.content_seed = int(context.rng.integers(0, 2**31 - 1))
        if context.content_generator is not None and tree.file_count:
            probe = tree.files[0]
            probe_rng = np.random.default_rng((context.content_seed, probe.file_id))
            context.content_generator.generate(
                min(probe.size, 4096), probe.extension, probe_rng
            )


class OnDiskCreationStage(Stage):
    """Phase 6 — allocate files on the simulated disk at the target layout."""

    name = "on_disk_creation"
    requires = ("files",)
    provides = ("disk",)
    config_knobs = (
        "seed",
        "layout_score",
        "disk_capacity_bytes",
        "block_size",
        "fs_size_bytes",
        "num_files",
        "use_simple_size_model",
    )

    def run(self, context: GenerationContext) -> None:
        config = context.config
        tree = context.tree
        assert tree is not None
        # Size the disk for whichever is larger: the configured capacity or the
        # bytes actually sampled (a Pareto-tail file can exceed the nominal FS
        # size), with 30% slack for the fragmenter's temporary files.
        needed_blocks = int(tree.total_bytes * 1.3) // config.block_size + tree.file_count + 1024
        capacity_blocks = max(
            config.resolved_disk_capacity() // config.block_size, needed_blocks, 1024
        )
        disk = SimulatedDisk(num_blocks=capacity_blocks)
        fragmenter = Fragmenter(disk, config.layout_score)
        for file_node, path in zip(tree.files, tree.file_paths()):
            extents = fragmenter.allocate_regular_file(path, file_node.size)
            file_node.extents = extents
            file_node.first_block = extents[0][0] if extents else None
        report = fragmenter.finish()
        context.disk = disk
        obs_core.current().counter(
            "layout_temporary_operations_total",
            "temporary-file creates and deletes issued to fragment the layout",
        ).inc(report.temporary_operations)

    def publish(self, context: GenerationContext) -> None:
        obs_core.current().gauge("image_layout_score_target", "requested layout score").set(
            context.config.layout_score
        )


#: The default generation stage classes, in phase order.
GENERATION_STAGES: tuple[type[Stage], ...] = (
    DirectoryStructureStage,
    FileSizesStage,
    ExtensionsStage,
    PlacementStage,
    ContentStage,
    OnDiskCreationStage,
)


def require_image(context: GenerationContext) -> None:
    """Guard for post-generation stages: the image must exist by now."""
    if context.image is None:
        raise PipelineError(
            "post-generation stage ran before the pipeline assembled the image"
        )
