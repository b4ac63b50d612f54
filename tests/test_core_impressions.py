"""Unit and integration tests for the Impressions generation pipeline."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.content.generators import ContentPolicy
from repro.core.config import ImpressionsConfig
from repro.core.impressions import GenerationTimings, Impressions
from repro.layout.layout_score import layout_score

from layout_helpers import node_blocks


class TestPipelineBasics:
    def test_requested_counts_are_honoured(self, small_image, small_config):
        assert small_image.file_count == small_config.num_files
        # Special directories may add a handful of extra directories.
        assert small_image.directory_count >= small_config.num_directories
        assert small_image.directory_count <= small_config.num_directories + 10

    def test_every_file_has_blocks_on_disk(self, small_image):
        disk = small_image.disk
        assert disk is not None
        for file_node in small_image.tree.files:
            if file_node.size > 0:
                assert node_blocks(file_node)
                assert disk.has_file(file_node.path())
                assert file_node.first_block == node_blocks(file_node)[0]

    def test_default_layout_is_perfect(self, small_image):
        assert small_image.achieved_layout_score() == 1.0

    def test_file_sizes_are_non_negative_ints(self, small_image):
        for file_node in small_image.tree.files:
            assert isinstance(file_node.size, int)
            assert file_node.size >= 0

    def test_extensions_come_from_model_or_are_random(self, small_image, small_config):
        popular = set(small_config.extension_model.popular_extensions) | {""}
        for file_node in small_image.tree.files:
            extension = file_node.extension
            assert extension in popular or (len(extension) == 3 and extension.isalpha())

    def test_report_is_complete(self, small_image, small_config):
        report = small_image.report
        assert report is not None
        assert report.seed == small_config.seed
        assert "file_size_by_count" in report.distributions
        assert report.derived["file_count"] == small_image.file_count
        assert report.phase_timings["total"] > 0

    def test_timings_recorded(self, small_image):
        timings = small_image.extras["timings"]
        assert isinstance(timings, GenerationTimings)
        assert timings.total == pytest.approx(sum(
            [
                timings.directory_structure,
                timings.file_sizes,
                timings.extensions,
                timings.depth_and_placement,
                timings.content,
                timings.on_disk_creation,
            ]
        ))
        assert set(timings.as_dict()) >= {"directory_structure", "on_disk_creation", "total"}


class TestGenerationTimingsDict:
    def test_extras_merge_into_as_dict(self):
        timings = GenerationTimings(extras={"trace_replay": 1.5})
        assert timings.as_dict()["trace_replay"] == 1.5

    def test_extras_cannot_shadow_core_phase_keys(self):
        timings = GenerationTimings(
            directory_structure=2.0, extras={"directory_structure": 0.1}
        )
        with pytest.raises(ValueError, match="shadow"):
            timings.as_dict()

    def test_extras_cannot_shadow_the_total(self):
        timings = GenerationTimings(extras={"total": 99.0})
        with pytest.raises(ValueError, match="total"):
            timings.as_dict()

    def test_total_excludes_extras(self):
        timings = GenerationTimings(file_sizes=1.0, extras={"trace_replay": 5.0})
        assert timings.total == 1.0


class TestReproducibility:
    def test_same_seed_same_image(self):
        config = ImpressionsConfig(fs_size_bytes=None, num_files=300, num_directories=60, seed=5)
        a = Impressions(config).generate()
        b = Impressions(config).generate()
        assert a.tree.file_sizes() == b.tree.file_sizes()
        assert [f.path() for f in a.tree.files] == [f.path() for f in b.tree.files]
        assert a.tree.directories_by_depth() == b.tree.directories_by_depth()

    def test_different_seed_different_image(self):
        base = ImpressionsConfig(fs_size_bytes=None, num_files=300, num_directories=60, seed=5)
        a = Impressions(base).generate()
        b = Impressions(base.with_overrides(seed=6)).generate()
        assert a.tree.file_sizes() != b.tree.file_sizes()


class TestFragmentedGeneration:
    def test_layout_score_target_respected(self):
        config = ImpressionsConfig(
            fs_size_bytes=None, num_files=400, num_directories=80, seed=9, layout_score=0.92
        )
        image = Impressions(config).generate()
        assert image.achieved_layout_score() == pytest.approx(0.92, abs=0.03)
        # Cross-check against a full recomputation on the simulated disk.
        names = [f.path() for f in image.tree.files if f.size > 0]
        assert layout_score(image.disk, names) == pytest.approx(
            image.achieved_layout_score(), abs=1e-9
        )


class TestConstrainedGeneration:
    def test_enforce_fs_size_converges(self):
        target = 48 * 1024 * 1024
        config = ImpressionsConfig(
            fs_size_bytes=target,
            num_files=400,
            num_directories=80,
            seed=3,
            enforce_fs_size=True,
            beta=0.1,
        )
        image = Impressions(config).generate()
        assert abs(image.total_bytes - target) / target <= 0.12
        assert "constraint_final_beta" in image.report.derived

    def test_unconstrained_size_can_drift(self):
        config = ImpressionsConfig(
            fs_size_bytes=16 * 1024 * 1024, num_files=400, num_directories=80, seed=3
        )
        image = Impressions(config).generate()
        # Without enforcement the total is whatever the samples sum to.
        assert image.total_bytes != config.fs_size_bytes


class TestContentGeneration:
    def test_content_kinds_assigned(self, content_image):
        kinds = {f.content_kind for f in content_image.tree.files}
        assert "text" in kinds or "binary" in kinds

    def test_content_bytes_reproducible(self, content_image):
        target = next(f for f in content_image.tree.files if f.size > 0)
        assert content_image.file_content(target) == content_image.file_content(target)

    def test_content_size_matches_metadata(self, content_image):
        for file_node in content_image.tree.files[:20]:
            assert len(content_image.file_content(file_node)) == file_node.size

    def test_forced_kind_applies_to_all_files(self):
        config = ImpressionsConfig(
            fs_size_bytes=None,
            num_files=60,
            num_directories=12,
            seed=2,
            generate_content=True,
            content=ContentPolicy(text_model="hybrid", force_kind="text"),
        )
        image = Impressions(config).generate()
        assert {f.content_kind for f in image.tree.files} == {"text"}


class TestDepthModelAblationPath:
    def test_poisson_only_placement_runs(self):
        config = ImpressionsConfig(
            fs_size_bytes=None,
            num_files=200,
            num_directories=50,
            seed=4,
            use_multiplicative_depth_model=False,
        )
        image = Impressions(config).generate()
        depths = np.asarray([f.depth for f in image.tree.files])
        assert depths.min() >= 1
        assert depths.max() <= image.tree.max_depth() + 1

    def test_simple_size_model_runs(self):
        config = ImpressionsConfig(
            fs_size_bytes=None, num_files=200, num_directories=50, seed=4, use_simple_size_model=True
        )
        image = Impressions(config).generate()
        assert image.file_count == 200


def test_default_generation_does_not_import_scipy_stats():
    """Generation, a NullSink materialize and a replay load no scipy module (the
    special functions are numpy ports) and no ``numpy.ma`` (which ``np.unique``
    imports)."""
    src_dir = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src_dir + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = (
        "import sys\n"
        "import repro.materialize as materialize\n"
        "from repro.core.config import ImpressionsConfig\n"
        "from repro.core.impressions import Impressions\n"
        "from repro.trace.replay import TraceReplayer\n"
        "from repro.trace.synthesize import ZipfMixSpec, synthesize_zipf_mix\n"
        "config = ImpressionsConfig(fs_size_bytes=8 << 20, num_files=200, seed=3)\n"
        "image = Impressions(config).generate()\n"
        "materialize.materialize_image(image, materialize.NullSink())\n"
        "trace = synthesize_zipf_mix(image, ZipfMixSpec(num_ops=300), seed=1)\n"
        "TraceReplayer(image).replay(trace)\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'\n"
        "             or name.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
