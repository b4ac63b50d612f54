"""Figure 1 — impact of directory-tree structure on ``find``.

The paper builds one test file system with Impressions defaults, then runs
``find /`` under five conditions and reports times relative to the first:

* **Original** — the default image, cold cache, perfect layout (score 1.0);
* **Cached** — the same image with file-system contents in the buffer cache;
* **Fragmented** — the same image with layout score 0.95;
* **Flat Tree** — all 100 directories at depth 1;
* **Deep Tree** — directories successively nested to depth 100.

Expected shape: cached is fastest; flat is noticeably faster than the
original; fragmented and deep are noticeably slower, with flat-vs-deep
spanning roughly a 3x range.
"""

from __future__ import annotations

import numpy as np

from repro.bench.common import format_rows
from repro.core.config import ImpressionsConfig
from repro.core.image import FileSystemImage
from repro.core.impressions import Impressions
from repro.layout.disk import SimulatedDisk
from repro.layout.fragmenter import Fragmenter
from repro.metadata.names import NameGenerator
from repro.namespace.generative_model import build_deep_tree, build_flat_tree
from repro.namespace.placement import FilePlacer
from repro.namespace.tree import FileSystemTree
from repro.workloads.find import FindSimulator

__all__ = ["run", "format_table", "CONDITIONS"]

CONDITIONS = ("Original", "Cached", "Fragmented", "Flat Tree", "Deep Tree")

#: Figure 1 uses a 100-directory namespace (flat = 100 dirs at depth 1, deep =
#: a 100-deep chain).
NUM_DIRECTORIES = 100


def run(num_files: int = 2_000, seed: int = 42, fragmented_layout_score: float = 0.95) -> dict:
    """Run the five Figure 1 conditions and return relative find times."""
    base_config = ImpressionsConfig(
        fs_size_bytes=None,
        num_files=num_files,
        num_directories=NUM_DIRECTORIES,
        seed=seed,
        special_directories=(),
    )

    original = Impressions(base_config).generate()
    fragmented = Impressions(
        base_config.with_overrides(layout_score=fragmented_layout_score)
    ).generate()
    flat = _reshaped_image(original, build_flat_tree(NUM_DIRECTORIES), seed)
    deep = _reshaped_image(original, build_deep_tree(NUM_DIRECTORIES), seed)

    times = {
        "Original": _find_time(original, warm=False),
        "Cached": _find_time(original, warm=True),
        "Fragmented": _find_time(fragmented, warm=False),
        "Flat Tree": _find_time(flat, warm=False),
        "Deep Tree": _find_time(deep, warm=False),
    }
    baseline = times["Original"]
    relative = {name: value / baseline for name, value in times.items()}
    return {
        "times_ms": times,
        "relative_overhead": relative,
        "layout_scores": {
            "Original": original.achieved_layout_score(),
            "Fragmented": fragmented.achieved_layout_score(),
        },
        "num_files": num_files,
        "num_directories": NUM_DIRECTORIES,
    }


def format_table(result: dict) -> str:
    rows = [
        [condition, result["relative_overhead"][condition], result["times_ms"][condition]]
        for condition in CONDITIONS
    ]
    return format_rows(
        ["condition", "relative overhead", "find time (ms, simulated)"],
        rows,
        title='Figure 1: time taken for "find" operation (relative to Original)',
    )


def _find_time(image: FileSystemImage, warm: bool) -> float:
    simulator = FindSimulator(image)
    if warm:
        simulator.warm_cache()
    return simulator.run().elapsed_ms


def _reshaped_image(reference: FileSystemImage, tree: FileSystemTree, seed: int) -> FileSystemImage:
    """Re-home the reference image's files into a differently shaped tree.

    The flat/deep comparison keeps the same file population (sizes and
    extensions) and only changes the namespace shape, exactly as the paper
    describes ("a file system created by flattening the original directory
    tree, and one by deepening it").
    """
    rng = np.random.default_rng(seed)
    config = ImpressionsConfig(fs_size_bytes=None, num_files=max(reference.file_count, 1), seed=seed)
    placer = FilePlacer(tree=tree, model=config.placement_model(), rng=rng)
    names = NameGenerator()
    for file_node in reference.tree.files:
        parent = placer.place(file_node.size)
        tree.create_file(
            parent=parent,
            size=file_node.size,
            extension=file_node.extension,
            name=names.next_file_name(file_node.extension),
            content_kind=file_node.content_kind,
        )

    total_blocks = sum(file.size for file in tree.files) // 4096 + tree.file_count + 4096
    disk = SimulatedDisk(num_blocks=int(total_blocks * 1.4))
    fragmenter = Fragmenter(disk, 1.0)
    for file_node in tree.files:
        extents = fragmenter.allocate_regular_file(file_node.path(), file_node.size)
        file_node.extents = extents
        file_node.first_block = extents[0][0] if extents else None
    fragmenter.finish()
    return FileSystemImage(tree=tree, disk=disk)
