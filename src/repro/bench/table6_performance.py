"""Table 6 — performance of Impressions.

Time to create two images with the per-feature breakdown the paper reports:

* Image1: 4.55 GB, 20 000 files, 4 000 directories;
* Image2: 12.0 GB, 52 000 files, 4 000 directories;

plus two optional rows for Image1 only: file content with the hybrid word
model, and creating a fragmented layout (score 0.98).  Absolute times depend
on the machine and on the fact that our on-disk creation is simulated; the
breakdown (on-disk creation dominating, content being the next biggest cost)
is the part to compare.
"""

from __future__ import annotations

import gc

from repro.bench.common import format_rows
from repro.content.generators import ContentPolicy
from repro.core.config import GIB, ImpressionsConfig
from repro.core.impressions import Impressions

__all__ = ["run", "format_table", "PAPER_REFERENCE"]

#: The paper's Table 6 (seconds) for context in EXPERIMENTS.md.
PAPER_REFERENCE = {
    "image1_total_s": 473.20,
    "image2_total_s": 1826.12,
    "image1_content_hybrid_s": 791.20,
    "image1_layout_098_s": 133.96,
}


def _image1_config(scale: float, seed: int) -> ImpressionsConfig:
    return ImpressionsConfig(
        fs_size_bytes=max(int(4.55 * GIB * scale), 8 * 1024 * 1024),
        num_files=max(int(20_000 * scale), 50),
        num_directories=max(int(4_000 * scale), 10),
        seed=seed,
    )


def _image2_config(scale: float, seed: int) -> ImpressionsConfig:
    return ImpressionsConfig(
        fs_size_bytes=max(int(12.0 * GIB * scale), 8 * 1024 * 1024),
        num_files=max(int(52_000 * scale), 50),
        num_directories=max(int(4_000 * scale), 10),
        seed=seed,
    )


def _generate(config: ImpressionsConfig):
    """Generate one image, starting from a full, untimed garbage collection.

    A collection of the oldest generation scans every live object in the
    process, so inside a larger process (a test session) one can cost more
    than a whole scaled-down image; starting each image from a clean slate
    keeps those pauses out of its phase timings.
    """
    gc.collect()
    return Impressions(config).generate()


def run(scale: float = 0.05, seed: int = 42, include_content_row: bool = True) -> dict:
    """Generate both images (scaled) and collect the per-phase timings."""
    # The first generation in a process pays one-off lazy imports inside its
    # stages, mostly numpy.random: a fresh process's first minimum-size
    # generation took 28-33 ms, its second 15-16 ms, on a 2-CPU x86-64 host.
    # Pay them here, untimed, so neither image's phase timings carry them.
    _generate(_image1_config(0.0, seed))
    image1 = _generate(_image1_config(scale, seed))
    image2 = _generate(_image2_config(scale, seed))
    timings1 = image1.extras["timings"].as_dict()
    timings2 = image2.extras["timings"].as_dict()

    extra_rows: dict[str, float] = {}
    if include_content_row:
        content_config = _image1_config(scale, seed).with_overrides(
            generate_content=True, content=ContentPolicy(text_model="hybrid")
        )
        content_image = _generate(content_config)
        # Content is generated lazily; charge the cost of materialising every
        # text file's bytes once, which is what the paper's content row times.
        import time

        start = time.perf_counter()
        text_bytes = 0
        for file_node in content_image.tree.files:
            if file_node.content_kind in ("text", "html", "script", "document"):
                text_bytes += len(content_image.file_content(file_node))
        extra_rows["image1_content_hybrid_s"] = time.perf_counter() - start
        extra_rows["image1_content_bytes"] = float(text_bytes)

        fragmented_config = _image1_config(scale, seed).with_overrides(layout_score=0.98)
        fragmented = _generate(fragmented_config)
        extra_rows["image1_layout_098_s"] = fragmented.extras["timings"].as_dict()["on_disk_creation"]
        extra_rows["image1_layout_098_score"] = fragmented.achieved_layout_score()

    return {
        "scale": scale,
        "image1": {"summary": image1.summary(), "timings_s": timings1},
        "image2": {"summary": image2.summary(), "timings_s": timings2},
        "extra": extra_rows,
    }


def format_table(result: dict) -> str:
    phases = [
        ("Directory structure", "directory_structure"),
        ("File sizes distribution", "file_sizes"),
        ("Popular extensions", "extensions"),
        ("File with depth / placement", "depth_and_placement"),
        ("File content (probe)", "content"),
        ("On-disk file/dir creation", "on_disk_creation"),
        ("Total time", "total"),
    ]
    rows = [
        [label, result["image1"]["timings_s"][key], result["image2"]["timings_s"][key]]
        for label, key in phases
    ]
    table = format_rows(
        ["FS distribution (Default)", "Image1 (s)", "Image2 (s)"],
        rows,
        title=f"Table 6: performance of Impressions (scale={result['scale']:g})",
    )
    if result["extra"]:
        extra_rows = [[key, value] for key, value in result["extra"].items()]
        table += "\n\n" + format_rows(["additional parameter", "value"], extra_rows)
    return table
