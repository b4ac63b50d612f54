"""The shared state threaded through a pipeline run.

A :class:`GenerationContext` is the single mutable object every stage reads
and writes: the config, the seeded rng stream, the artifacts built so far
(tree, sizes, extensions, disk, …), the reproducibility report (whose
``phase_timings`` hold the per-stage seconds), and — once generation
finishes — the assembled
:class:`~repro.core.image.FileSystemImage` that post-generation stages run
against.

The context also defines the cache snapshot boundary: :meth:`snapshot`
captures exactly the state a later run needs to resume *after* a stage
(including the rng state, so downstream sampling continues bit-for-bit), and
:meth:`restore` puts it back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.config import ImpressionsConfig
from repro.core.report import ReproducibilityReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.content.generators import ContentGenerator
    from repro.core.image import FileSystemImage
    from repro.layout.disk import SimulatedDisk
    from repro.namespace.tree import FileSystemTree

__all__ = ["GenerationContext"]


@dataclass
class GenerationContext:
    """Everything a stage may read or write during a pipeline run.

    Attributes:
        config: the immutable configuration of the run.
        rng: the shared sequential random stream (every generation stage
            draws from this one generator, in stage order).
        report: reproducibility report being assembled; the pipeline writes
            each generation stage's seconds into its ``phase_timings``.
        tree: namespace tree (after ``directory_structure``).
        sizes: sampled file sizes (after ``file_sizes``).
        extensions: sampled extensions (after ``extensions``).
        content_generator: content generator, or None for metadata-only runs
            (after ``depth_and_placement``).
        content_seed: base seed for lazy per-file content (after ``content``).
        disk: simulated disk with the block layout (after ``on_disk_creation``).
        image: the assembled image; set by the pipeline before post-generation
            stages run.
        metrics: per-stage metric mappings recorded by post-generation stages,
            keyed by stage label.
        artifacts: names of the artifacts produced so far (wiring bookkeeping).
    """

    config: ImpressionsConfig
    rng: np.random.Generator
    report: ReproducibilityReport
    tree: "FileSystemTree | None" = None
    sizes: np.ndarray | None = None
    extensions: list[str] | None = None
    content_generator: "ContentGenerator | None" = None
    content_seed: int = 0
    disk: "SimulatedDisk | None" = None
    image: "FileSystemImage | None" = None
    metrics: dict[str, dict] = field(default_factory=dict)
    artifacts: set[str] = field(default_factory=set)

    @classmethod
    def create(cls, config: ImpressionsConfig) -> "GenerationContext":
        """A fresh context for one run: seeded rng and an empty report."""
        report = ReproducibilityReport(seed=config.seed, parameters=config.parameter_table())
        report.distributions = {
            "file_size_by_count": dict(config.resolved_size_model().params()),
            "file_size_by_bytes": dict(config.resolved_bytes_model().params()),
            "file_count_with_depth": dict(config.depth_distribution.params()),
            "directory_size_files": dict(config.directory_file_count_model.params()),
        }
        return cls(
            config=config,
            rng=np.random.default_rng(config.seed),
            report=report,
        )

    @classmethod
    def for_image(
        cls, image: "FileSystemImage", config: ImpressionsConfig
    ) -> "GenerationContext":
        """A context wrapping an already generated image.

        Post-generation stages (trace replay, aging, bench) run against this
        when invoked outside a full pipeline — e.g. from a campaign step.
        """
        report = image.report or ReproducibilityReport(seed=config.seed)
        context = cls(config=config, rng=np.random.default_rng(config.seed), report=report)
        context.tree = image.tree
        context.disk = image.disk
        context.content_generator = image.content_generator
        context.content_seed = image.content_seed
        context.image = image
        context.artifacts.update({"tree", "files", "content", "disk", "image"})
        return context

    # Cache snapshot boundary ---------------------------------------------------

    #: Artifact fields a snapshot captures and a restore puts back.
    _SNAPSHOT_FIELDS = (
        "tree",
        "sizes",
        "extensions",
        "content_generator",
        "content_seed",
        "disk",
    )

    def snapshot(self) -> dict:
        """The resumable state after a generation stage, as a plain dict.

        Includes the rng state (downstream stages must keep sampling the same
        stream), every artifact field, the artifact name set, the report's
        derived values recorded so far, and the report's phase timings (the
        wall-clock each completed stage cost in the run that produced the
        snapshot, restored so a cache-hit report still carries representative
        phase timings).
        Serialization is the cache's job (:class:`~repro.pipeline.cache.StageCache`).
        """
        state = {field_name: getattr(self, field_name) for field_name in self._SNAPSHOT_FIELDS}
        state["rng"] = self.rng
        state["artifacts"] = set(self.artifacts)
        state["derived"] = dict(self.report.derived)
        state["stage_timings"] = dict(self.report.phase_timings)
        return state

    def restore(self, state: dict) -> None:
        """Restore a :meth:`snapshot`, stage timings included."""
        for field_name in self._SNAPSHOT_FIELDS:
            setattr(self, field_name, state[field_name])
        self.rng = state["rng"]
        self.artifacts = set(state["artifacts"])
        self.report.derived.update(state["derived"])
        self.report.phase_timings.update(state["stage_timings"])

    # Wiring helpers ------------------------------------------------------------

    def provide(self, *names: str) -> None:
        self.artifacts.update(names)

    def has(self, name: str) -> bool:
        return name in self.artifacts
