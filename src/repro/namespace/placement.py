"""File depth assignment and parent-directory selection (Section 3.3.2).

Placing a file involves two decisions the paper models separately and then
combines:

1. **Depth** — must satisfy both the distribution of *files* with depth
   (Poisson, λ=6.49) and the distribution of *bytes* with depth (represented
   by the mean file size at each depth).  Impressions combines the two with a
   multiplicative model: the probability of placing a file of size ``s`` at
   depth ``d`` is proportional to ``Poisson(d) · affinity(s, d)`` where the
   affinity term is a lognormal kernel centred on the desired mean bytes per
   file at depth ``d``.  Large files are therefore drawn toward depths whose
   target mean is large, which reproduces both curves at once
   (Figures 2(f)/(g)).

2. **Parent directory** — among directories at depth ``d − 1``, chosen so that
   the resulting per-directory file counts follow the inverse-polynomial model
   of Table 2.  Each candidate directory is assigned a target file count
   sampled from that model; parents are then selected with probability
   proportional to their remaining quota (plus a small floor so no directory
   is ever impossible).

Special directories (Figure 2(h)) intercept a configurable fraction of files
before the depth model runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.namespace.special_dirs import SpecialDirectorySpec
from repro.namespace.tree import DirectoryNode, FileSystemTree
from repro.stats.distributions import (
    InversePolynomialDistribution,
    ShiftedPoissonDistribution,
)

__all__ = ["PlacementModel", "FilePlacer", "DEFAULT_MEAN_BYTES_BY_DEPTH"]


#: Default mean file size (bytes) per namespace depth, loosely following the
#: shape of Figure 2(g): small files near the root, a hump around the depths
#: where program installs and media libraries live, then a slow decline.
DEFAULT_MEAN_BYTES_BY_DEPTH: Mapping[int, float] = {
    0: 24 * 1024,
    1: 48 * 1024,
    2: 320 * 1024,
    3: 512 * 1024,
    4: 768 * 1024,
    5: 640 * 1024,
    6: 384 * 1024,
    7: 256 * 1024,
    8: 160 * 1024,
    9: 112 * 1024,
    10: 80 * 1024,
    11: 64 * 1024,
    12: 48 * 1024,
    13: 40 * 1024,
    14: 32 * 1024,
    15: 28 * 1024,
    16: 24 * 1024,
}


@dataclass
class PlacementModel:
    """Parameters controlling file placement.

    Attributes:
        depth_distribution: Poisson model of file count by depth.
        mean_bytes_by_depth: desired mean file size per depth; depths missing
            from the mapping fall back to the overall mean of the mapping.
        directory_file_count: inverse-polynomial model of files per directory.
        affinity_sigma: width (in log space) of the size/depth affinity
            kernel; larger values weaken the bytes-by-depth criterion and
            recover a pure Poisson placement.
        special_directories: special-directory specs with their file biases.
        use_multiplicative_model: disable to fall back to the Poisson-only
            placement (the ablation benchmark flips this).
    """

    depth_distribution: ShiftedPoissonDistribution = field(
        default_factory=lambda: ShiftedPoissonDistribution(lam=6.49)
    )
    mean_bytes_by_depth: Mapping[int, float] = field(
        default_factory=lambda: dict(DEFAULT_MEAN_BYTES_BY_DEPTH)
    )
    directory_file_count: InversePolynomialDistribution = field(
        default_factory=lambda: InversePolynomialDistribution(degree=2.0, offset=2.36, max_value=4096)
    )
    affinity_sigma: float = 2.2
    special_directories: Sequence[SpecialDirectorySpec] = ()
    use_multiplicative_model: bool = True

    def __post_init__(self) -> None:
        if self.affinity_sigma <= 0:
            raise ValueError("affinity_sigma must be positive")
        total_bias = sum(spec.file_bias for spec in self.special_directories)
        if total_bias >= 1.0:
            raise ValueError("special-directory biases must sum to less than 1")

    def mean_bytes_at(self, depth: int) -> float:
        if depth in self.mean_bytes_by_depth:
            return float(self.mean_bytes_by_depth[depth])
        values = list(self.mean_bytes_by_depth.values())
        return float(np.mean(values)) if values else 64 * 1024.0


#: A depth-table entry for a size whose depth weights sum to zero: the file
#: takes the fallback depth and no draw is made.
_NO_DRAW = np.empty(0)


class FilePlacer:
    """Assigns a depth and a parent directory to each file being created.

    Every draw is the one the straightforward formulation makes —
    ``Generator.choice`` over freshly normalised depth and parent weights —
    in the same order, on the same float values, so images are bit-identical
    to it; only the bookkeeping around the draws is cached.

    A file's depth weights depend only on its size.  :meth:`prepare` builds
    the normalised depth CDFs of a whole vector of sizes in one pass, so
    :meth:`choose_depth` costs one ``rng.random()`` and one search; a size
    that was not prepared is prepared on first use, as a one-row batch.

    Parent weights use each candidate directory's file count.  Counts track
    the files *registered in the tree* (:meth:`FileSystemTree.create_file` /
    :meth:`FileSystemTree.adopt_file`), read incrementally through
    :meth:`FileSystemTree.files_since`; a caller that places files without
    creating them leaves every count, and so every quota, untouched.
    """

    def __init__(
        self,
        tree: FileSystemTree,
        model: PlacementModel,
        rng: np.random.Generator,
        special_nodes: Mapping[str, DirectoryNode] | None = None,
    ) -> None:
        self._tree = tree
        self._model = model
        self._rng = rng
        self._special_nodes = dict(special_nodes or {})
        self._max_depth = max(tree.max_depth(), 1)
        self._special_specs = {
            spec.name: spec for spec in model.special_directories if spec.name in self._special_nodes
        }
        # Depth model: file depths 1 .. max_depth + 1 and their fixed terms.
        depths = np.arange(1, self._max_depth + 2)
        self._poisson = np.asarray(model.depth_distribution.pmf(depths), dtype=float)
        self._fallback_depth = int(depths[np.argmax(self._poisson)])
        self._log_targets = [math.log(max(model.mean_bytes_at(int(d)), 1.0)) for d in depths]
        self._two_sigma_sq = 2.0 * model.affinity_sigma**2
        # Prepared sizes: size -> normalised depth CDF (a table row) or _NO_DRAW.
        self._depth_cdfs: dict[int, np.ndarray] = {}
        # Parent model, built lazily per parent depth (quota sampling draws):
        # each candidate's weight max(quota - file count, 0.25).
        self._directories_by_depth: dict[int, list[DirectoryNode]] = {}
        self._parent_weights: dict[int, np.ndarray] = {}
        self._slots: dict[int, tuple[np.ndarray, int]] = {}
        self._files_seen = 0

    # Depth selection --------------------------------------------------------

    def prepare(self, sizes: Sequence[int] | np.ndarray) -> None:
        """Build the depth CDF of every size in ``sizes`` in one pass.

        Each row is computed exactly as the one-file formulation computes it:
        ``Poisson(d) · affinity(s, d)`` with the affinity from ``math.exp``
        (``np.exp`` differs by 1 ulp on some inputs), each contiguous row
        summed by the same pairwise reduction, divided by its total, and
        cumulated sequentially.  Preparing makes no draw.
        """
        # np.unique's sort and boundary mask, without the numpy.ma import it pays.
        ordered = np.sort(np.asarray(sizes))
        first = np.ones(ordered.shape, dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        unique = ordered[first].tolist()
        if self._model.use_multiplicative_model:
            two_sigma_sq = self._two_sigma_sq
            targets = self._log_targets
            affinity = np.array(
                [
                    math.exp(-((log_size - target) ** 2) / two_sigma_sq)
                    for log_size in [math.log(max(size, 1)) for size in unique]
                    for target in targets
                ],
                dtype=float,
            ).reshape(len(unique), len(self._poisson))
        else:
            affinity = np.ones((len(unique), len(self._poisson)))
        weights = self._poisson * affinity
        totals = weights.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            cdfs = (weights / totals[:, None]).cumsum(axis=1)
            cdfs /= cdfs[:, -1:]
        self._depth_cdfs.update(
            (size, cdf if total > 0 else _NO_DRAW)
            for size, cdf, total in zip(unique, cdfs, totals.tolist())
        )

    def choose_depth(self, file_size: int) -> int:
        """Choose a namespace depth for a file of ``file_size`` bytes.

        The returned depth is clamped to ``1 .. max_depth + 1`` (a file must
        live inside some directory; parents live at ``depth - 1``).
        """
        cdf = self._depth_cdfs.get(file_size)
        if cdf is None:
            self.prepare([file_size])
            cdf = self._depth_cdfs[file_size]
        if cdf is _NO_DRAW:
            return self._fallback_depth
        return int(cdf.searchsorted(self._rng.random(), side="right")) + 1

    # Parent-directory selection ----------------------------------------------

    def choose_parent(self, depth: int) -> DirectoryNode:
        """Choose a parent directory at ``depth - 1`` for a file at ``depth``.

        If no directory exists at exactly ``depth - 1`` the nearest shallower
        populated depth is used (this only happens for degenerate trees).
        """
        self._sync_counts()
        parent_depth = depth - 1
        candidates = self._candidates_at(parent_depth)
        while not candidates and parent_depth > 0:
            parent_depth -= 1
            candidates = self._candidates_at(parent_depth)
        if not candidates:
            return self._tree.root
        # Generator.choice's own arithmetic on the normalised weights, without
        # its argument checks: same uniform, same index.
        weights = self._parent_weights[parent_depth]
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        return candidates[int(cdf.searchsorted(self._rng.random(), side="right"))]

    def _candidates_at(self, depth: int) -> list[DirectoryNode]:
        if depth < 0:
            return []
        if depth not in self._directories_by_depth:
            candidates = self._tree.directories_at_depth(depth)
            self._directories_by_depth[depth] = candidates
            if candidates:
                quotas = self._model.directory_file_count.sample(self._rng, len(candidates))
                counts = np.array([directory.file_count for directory in candidates], dtype=float)
                weights = np.maximum(np.asarray(quotas, dtype=float) + 1.0 - counts, 0.25)
                self._parent_weights[depth] = weights
                self._slots.update(
                    (id(directory), (weights, index)) for index, directory in enumerate(candidates)
                )
        return self._directories_by_depth[depth]

    def _sync_counts(self) -> None:
        """Charge each file registered since the last call to its parent's weight.

        Quotas and counts are integers, so ``max(w - 1, 0.25)`` is exactly
        ``max(quota - (count + 1), 0.25)``: a weight above 0.25 is the
        remaining quota itself, and one at 0.25 has none left.
        """
        new_files = self._tree.files_since(self._files_seen)
        self._files_seen += len(new_files)
        slots = self._slots
        for file_node in new_files:
            slot = slots.get(id(file_node.parent))
            if slot is not None:
                weights, index = slot
                weights[index] = max(weights[index] - 1.0, 0.25)

    # Full placement -----------------------------------------------------------

    def place(self, file_size: int) -> DirectoryNode:
        """Choose the directory that will contain a new file of ``file_size``.

        Special directories are considered first: with probability equal to
        its configured bias, a file is routed directly to that special
        directory regardless of the depth model.
        """
        special = self._maybe_special()
        if special is not None:
            return special
        depth = self.choose_depth(file_size)
        return self.choose_parent(depth)

    def _maybe_special(self) -> DirectoryNode | None:
        if not self._special_specs:
            return None
        draw = self._rng.random()
        cumulative = 0.0
        for name, spec in self._special_specs.items():
            cumulative += spec.file_bias
            if draw < cumulative:
                return self._special_nodes[name]
        return None
