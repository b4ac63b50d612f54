"""Synthetic "empirical" corpus builder.

Stands in for the proprietary Windows metadata dataset (see DESIGN.md).  A
:class:`SyntheticDatasetBuilder` produces :class:`FileSystemSnapshot` objects
whose marginal statistics follow the published default models of Table 2,
with a size-dependent twist used by the interpolation experiments: the
file-size distribution shifts slightly with the file-system capacity (larger
file systems hold relatively more large files), so curves at 10/50/100 GB are
genuinely different and interpolating between them is a meaningful exercise,
exactly as in Figures 4 and 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.dataset.snapshot import DirectoryRecord, FileRecord, FileSystemSnapshot
from repro.metadata.extensions import DEFAULT_EXTENSION_MODEL, ExtensionPopularityModel
from repro.metadata.filesizes import (
    DEFAULT_BODY_MU,
    DEFAULT_BODY_SIGMA,
    default_file_size_by_count_model,
)
from repro.namespace.generative_model import GenerativeTreeModel
from repro.namespace.placement import FilePlacer, PlacementModel
from repro.stats.distributions import HybridLognormalPareto

__all__ = ["SyntheticDatasetBuilder", "DatasetScale"]

GIB = 1024**3


@dataclass(frozen=True)
class DatasetScale:
    """How snapshot composition scales with file-system capacity.

    ``mu_shift_per_doubling`` moves the lognormal body's µ up for every
    doubling of capacity relative to the 10 GB reference point — bigger file
    systems hold bigger files, the effect the interpolation experiments rely
    on.  ``files_per_gib`` fixes the namespace population density.
    """

    files_per_gib: float = 4400.0
    directories_per_file: float = 0.2
    mu_shift_per_doubling: float = 0.35
    reference_capacity_gib: float = 10.0


class SyntheticDatasetBuilder:
    """Builds synthetic snapshots with capacity-dependent distributions."""

    def __init__(
        self,
        scale: DatasetScale | None = None,
        extension_model: ExtensionPopularityModel = DEFAULT_EXTENSION_MODEL,
        seed: int = 2009,
    ) -> None:
        self._scale = scale or DatasetScale()
        self._extensions = extension_model
        self._seed = seed

    @property
    def scale(self) -> DatasetScale:
        return self._scale

    def size_model_for_capacity(self, capacity_gib: float) -> HybridLognormalPareto:
        """The file-size-by-count model used at a given capacity."""
        if capacity_gib <= 0:
            raise ValueError("capacity_gib must be positive")
        doublings = math.log2(capacity_gib / self._scale.reference_capacity_gib)
        mu = DEFAULT_BODY_MU + self._scale.mu_shift_per_doubling * doublings
        return default_file_size_by_count_model(mu=mu, sigma=DEFAULT_BODY_SIGMA)

    def expected_file_count(self, capacity_gib: float) -> int:
        return max(10, int(self._scale.files_per_gib * capacity_gib))

    def build_snapshot(
        self,
        capacity_gib: float,
        hostname: str | None = None,
        max_files: int | None = None,
        seed: int | None = None,
    ) -> FileSystemSnapshot:
        """Synthesise one snapshot of roughly ``capacity_gib`` gigabytes.

        ``max_files`` caps the population so corpus construction stays fast in
        tests; statistics are unchanged because files are an i.i.d. sample.

        Known fidelity gap: files are placed but never created in ``tree``,
        so the placer's per-directory counts stay at zero and its quotas never
        deplete — parent choice here ignores how full a directory already is.
        Creating the files would change every snapshot (and the dataset
        digests built on them), so the fix waits for a versioned break.
        """
        rng = np.random.default_rng(self._seed if seed is None else seed)
        num_files = self.expected_file_count(capacity_gib)
        if max_files is not None:
            num_files = min(num_files, max_files)
        num_directories = max(2, int(num_files * self._scale.directories_per_file))

        tree = GenerativeTreeModel().generate(num_directories, rng)
        placement = PlacementModel()
        placer = FilePlacer(tree=tree, model=placement, rng=rng)

        size_model = self.size_model_for_capacity(capacity_gib)
        sizes = np.asarray(size_model.sample(rng, num_files), dtype=float)
        extensions = self._extensions.sample_extensions(rng, num_files)

        directory_index = {id(directory): index for index, directory in enumerate(tree.directories)}
        snapshot = FileSystemSnapshot(
            hostname=hostname or f"synthetic-{capacity_gib:g}g",
            capacity_bytes=int(capacity_gib * GIB),
        )
        per_directory_counts: dict[int, int] = {}
        for size, extension in zip(sizes, extensions):
            parent = placer.place(int(size))
            parent_id = directory_index[id(parent)]
            per_directory_counts[parent_id] = per_directory_counts.get(parent_id, 0) + 1
            snapshot.files.append(
                FileRecord(
                    size=int(size),
                    depth=parent.depth + 1,
                    extension=extension,
                    directory_id=parent_id,
                )
            )
        for index, directory in enumerate(tree.directories):
            snapshot.directories.append(
                DirectoryRecord(
                    directory_id=index,
                    depth=directory.depth,
                    subdirectory_count=directory.subdirectory_count,
                    file_count=per_directory_counts.get(index, 0),
                )
            )
        return snapshot

    def build_corpus(
        self,
        capacities_gib: list[float],
        max_files_per_snapshot: int | None = None,
    ) -> dict[float, FileSystemSnapshot]:
        """Snapshots at each requested capacity, keyed by capacity in GiB."""
        corpus: dict[float, FileSystemSnapshot] = {}
        for index, capacity in enumerate(capacities_gib):
            corpus[capacity] = self.build_snapshot(
                capacity_gib=capacity,
                max_files=max_files_per_snapshot,
                seed=self._seed + index,
            )
        return corpus
