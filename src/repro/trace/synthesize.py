"""Parameterized trace synthesizers.

Three families of synthetic workloads, mirroring the configurable trace
generation that 2DIO argues storage benchmarks need:

* **metadata storm** — an mdbench-style burst: make directories, create a
  fixed fan of files in each, stat everything repeatedly, then tear it all
  down.  Exercises the metadata path with almost no data movement.
* **Zipf mix** — read/write/stat accesses over the *existing* files of a
  generated image, with file popularity following a Zipf law (a few hot
  files absorb most accesses, the familiar skew of real storage traces).
* **churn** — create/delete turnover with interleaved read/write/stat
  accesses on live files at a configurable ratio; the workload that ages a
  file system.

All synthesizers are pure functions of (spec, seed): the same inputs yield a
byte-identical JSONL trace.  Operations are grouped into arrival batches of
``batch_size`` so replay can report per-batch behaviour.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from repro.core.image import FileSystemImage
from repro.trace.ops import OP_KINDS, OperationTrace

__all__ = [
    "MetadataStormSpec",
    "ZipfMixSpec",
    "ChurnSpec",
    "synthesize_metadata_storm",
    "synthesize_zipf_mix",
    "synthesize_churn",
]


#: Kind codes of the read, write and stat accesses of the Zipf mix.
_ACCESS_CODES = np.array([OP_KINDS.index(kind) for kind in ("read", "write", "stat")], np.uint8)


def _normalized(weights: Sequence[float], label: str) -> np.ndarray:
    array = np.asarray(weights, dtype=float)
    if np.any(array < 0) or array.sum() <= 0:
        raise ValueError(f"{label} must be non-negative and sum to a positive value")
    return array / array.sum()


@dataclass(frozen=True)
class MetadataStormSpec:
    """Shape of an mdbench-style metadata storm.

    ``num_dirs`` directories are created, each populated with
    ``files_per_dir`` empty files; every file is stat'ed ``stat_passes``
    times; finally files and directories are deleted (when ``teardown``).
    """

    num_dirs: int = 10
    files_per_dir: int = 100
    stat_passes: int = 2
    teardown: bool = True
    batch_size: int = 64
    root: str = "/storm"

    def __post_init__(self) -> None:
        if self.num_dirs < 1 or self.files_per_dir < 0:
            raise ValueError("num_dirs must be >= 1 and files_per_dir >= 0")
        if self.stat_passes < 0:
            raise ValueError("stat_passes must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")


@dataclass(frozen=True)
class ZipfMixSpec:
    """Read/write/stat mix over an existing image's files.

    ``read_fraction``/``write_fraction``/``stat_fraction`` are relative
    weights (normalized internally).  File popularity is Zipfian with
    exponent ``zipf_s`` over a seeded random permutation of the image's
    files, so which files are hot varies with the seed but the skew does not.
    """

    num_ops: int = 10_000
    read_fraction: float = 6.0
    write_fraction: float = 2.0
    stat_fraction: float = 2.0
    zipf_s: float = 1.1
    mean_write_bytes: int = 16 * 1024
    batch_size: int = 64

    def __post_init__(self) -> None:
        if self.num_ops < 1:
            raise ValueError("num_ops must be positive")
        if self.zipf_s <= 0:
            raise ValueError("zipf_s must be positive")
        if self.mean_write_bytes < 1:
            raise ValueError("mean_write_bytes must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        _normalized(
            (self.read_fraction, self.write_fraction, self.stat_fraction),
            "read/write/stat fractions",
        )


@dataclass(frozen=True)
class ChurnSpec:
    """Create/delete churn with interleaved accesses.

    Each step is either turnover (create a new file or delete a live one,
    split by ``delete_fraction``) or — with probability ``access_fraction`` —
    a read/write/stat access to a random live file at the configured ratio.
    ``rename_fraction`` of turnover steps instead rename a live file, which
    keeps the namespace moving without block churn.
    """

    num_ops: int = 10_000
    mean_file_size: int = 64 * 1024
    delete_fraction: float = 0.4
    access_fraction: float = 0.5
    rename_fraction: float = 0.02
    read_fraction: float = 5.0
    write_fraction: float = 3.0
    stat_fraction: float = 2.0
    batch_size: int = 64
    name_prefix: str = "/churn/f"

    def __post_init__(self) -> None:
        if self.num_ops < 1:
            raise ValueError("num_ops must be positive")
        if self.mean_file_size < 1:
            raise ValueError("mean_file_size must be positive")
        for label, value in (
            ("delete_fraction", self.delete_fraction),
            ("access_fraction", self.access_fraction),
            ("rename_fraction", self.rename_fraction),
        ):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{label} must lie in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        _normalized(
            (self.read_fraction, self.write_fraction, self.stat_fraction),
            "read/write/stat fractions",
        )


def synthesize_metadata_storm(spec: MetadataStormSpec, seed: int = 0) -> OperationTrace:
    """Generate an mdbench-style metadata storm trace."""
    rng = np.random.default_rng(seed)
    trace = OperationTrace(
        metadata={"synthesizer": "metadata_storm", "seed": int(seed), "spec": asdict(spec)}
    )
    batch_size = spec.batch_size
    counter = 0

    def emit(kind: str, path: str) -> None:
        nonlocal counter
        trace.push(kind, path, batch=counter // batch_size)
        counter += 1

    dir_paths = [f"{spec.root}/d{index:04d}" for index in range(spec.num_dirs)]
    file_paths: list[str] = []
    for dir_path in dir_paths:
        emit("mkdir", dir_path)
        for file_index in range(spec.files_per_dir):
            path = f"{dir_path}/f{file_index:05d}"
            emit("create", path)
            file_paths.append(path)
    for _ in range(spec.stat_passes):
        # mdbench stats in a shuffled order each pass to defeat readdir order.
        order = rng.permutation(len(file_paths))
        for index in order:
            emit("stat", file_paths[int(index)])
    if spec.teardown:
        for path in file_paths:
            emit("delete", path)
        for dir_path in reversed(dir_paths):
            emit("delete", dir_path)
    return trace


def synthesize_zipf_mix(
    image: FileSystemImage, spec: ZipfMixSpec, seed: int = 0
) -> OperationTrace:
    """Generate a Zipf-popularity read/write/stat mix over ``image``'s files.

    Path selection and op-kind selection are fully vectorized: one
    ``rng.choice`` draw over the Zipf probability vector picks the target
    file of every operation, one draw picks its kind, and one exponential
    draw sizes the writes.  The trace's columns are then written in bulk,
    with no per-operation Python loop.
    """
    paths = image.tree.file_paths()
    if not paths:
        raise ValueError("cannot synthesize a Zipf mix over an image with no files")
    sizes = np.asarray([file_node.size for file_node in image.tree.files], dtype=np.int64)

    rng = np.random.default_rng(seed)
    trace = OperationTrace(
        metadata={
            "synthesizer": "zipf_mix",
            "seed": int(seed),
            "spec": asdict(spec),
            "image_files": len(paths),
        }
    )

    # Zipf popularity over a seeded permutation: rank r gets weight r^-s.
    permutation = rng.permutation(len(paths))
    ranks = np.empty(len(paths), dtype=np.int64)
    ranks[permutation] = np.arange(1, len(paths) + 1)
    weights = np.power(ranks.astype(float), -spec.zipf_s)
    probabilities = weights / weights.sum()

    targets = rng.choice(len(paths), size=spec.num_ops, p=probabilities)
    kind_probs = _normalized(
        (spec.read_fraction, spec.write_fraction, spec.stat_fraction),
        "read/write/stat fractions",
    )
    kinds = rng.choice(3, size=spec.num_ops, p=kind_probs)
    write_sizes = np.maximum(
        1, rng.exponential(spec.mean_write_bytes, size=spec.num_ops)
    ).astype(np.int64)

    # Reads move the whole file, writes their drawn size, stats nothing.
    op_sizes = np.where(kinds == 0, sizes[targets], np.where(kinds == 1, write_sizes, 0))
    trace.extend_columns(
        _ACCESS_CODES[kinds].tobytes(),
        list(map(paths.__getitem__, targets.tolist())),
        op_sizes,
        np.arange(spec.num_ops, dtype=np.int64) // spec.batch_size,
    )
    return trace


def synthesize_churn(spec: ChurnSpec, seed: int = 0) -> OperationTrace:
    """Generate a create/delete churn trace with interleaved accesses."""
    rng = np.random.default_rng(seed)
    trace = OperationTrace(
        metadata={"synthesizer": "churn", "seed": int(seed), "spec": asdict(spec)}
    )
    # Generator.choice(3, p=...)'s own arithmetic, normalised once: the same
    # uniform lands in the same bucket, at a fraction of choice's cost.
    kind_cdf = _normalized(
        (spec.read_fraction, spec.write_fraction, spec.stat_fraction),
        "read/write/stat fractions",
    ).cumsum()
    kind_bounds = (kind_cdf / kind_cdf[-1]).tolist()
    access_kinds = ("read", "write", "stat")

    live: list[str] = []
    live_sizes: dict[str, int] = {}
    counter = 0
    batch_size = spec.batch_size
    push = trace.push
    for index in range(spec.num_ops):
        batch = index // batch_size
        if live and rng.random() < spec.access_fraction:
            victim = live[int(rng.integers(len(live)))]
            kind = access_kinds[bisect_right(kind_bounds, rng.random())]
            if kind == "read":
                size = live_sizes[victim]
            elif kind == "write":
                size = int(max(1, rng.exponential(spec.mean_file_size / 4)))
                live_sizes[victim] += size
            else:
                size = 0
            push(kind, victim, size, "", kind == "write", batch)
            continue
        if live and rng.random() < spec.rename_fraction:
            victim_index = int(rng.integers(len(live)))
            old = live[victim_index]
            new = f"{spec.name_prefix}{counter}"
            counter += 1
            live[victim_index] = new
            live_sizes[new] = live_sizes.pop(old)
            push("rename", old, 0, new, False, batch)
            continue
        if live and rng.random() < spec.delete_fraction:
            victim_index = int(rng.integers(len(live)))
            victim = live.pop(victim_index)
            live_sizes.pop(victim)
            push("delete", victim, 0, "", False, batch)
        else:
            name = f"{spec.name_prefix}{counter}"
            counter += 1
            size = int(max(1, rng.exponential(spec.mean_file_size)))
            live.append(name)
            live_sizes[name] = size
            push("create", name, size, "", False, batch)
    return trace
