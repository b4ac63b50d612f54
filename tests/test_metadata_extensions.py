"""Unit tests for the extension popularity model (Figure 2(e))."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metadata.extensions import (
    DEFAULT_EXTENSION_MODEL,
    DEFAULT_EXTENSIONS_BY_BYTES,
    DEFAULT_EXTENSIONS_BY_COUNT,
    ExtensionPopularityModel,
    content_kind_for_extension,
)


class TestDefaults:
    def test_top_20_extensions_by_count(self):
        assert len(DEFAULT_EXTENSIONS_BY_COUNT) == 20
        assert len(DEFAULT_EXTENSIONS_BY_BYTES) == 20

    def test_popular_extensions_cover_roughly_half_of_files(self):
        total = sum(DEFAULT_EXTENSIONS_BY_COUNT.values())
        assert 0.4 < total < 0.6

    def test_paper_figure_extensions_present(self):
        for extension in ("cpp", "dll", "exe", "gif", "h", "htm", "jpg", "null", "txt"):
            assert extension in DEFAULT_EXTENSIONS_BY_COUNT


class TestContentKinds:
    @pytest.mark.parametrize(
        "extension,kind",
        [
            ("txt", "text"),
            ("htm", "html"),
            ("jpg", "image"),
            ("mp3", "audio"),
            ("avi", "video"),
            ("zip", "archive"),
            ("dll", "binary"),
            ("sh", "script"),
            ("", "binary"),
            ("xyzzy", "binary"),
            (".TXT", "text"),
        ],
    )
    def test_mapping(self, extension, kind):
        assert content_kind_for_extension(extension) == kind


class TestModel:
    def test_validation_of_shares(self):
        with pytest.raises(ValueError):
            ExtensionPopularityModel(by_count={"a": 0.7, "b": 0.5}, by_bytes={})
        with pytest.raises(ValueError):
            ExtensionPopularityModel(by_count={"a": -0.1}, by_bytes={})
        with pytest.raises(ValueError):
            ExtensionPopularityModel(by_count={}, by_bytes={}, random_extension_length=0)

    def test_count_distribution_includes_others(self):
        dist = DEFAULT_EXTENSION_MODEL.count_distribution()
        assert "others" in dist.labels
        assert dist.probability_of("others") == pytest.approx(
            1.0 - DEFAULT_EXTENSION_MODEL.popular_fraction(), abs=1e-9
        )

    def test_sample_extensions_frequencies(self, rng):
        extensions = DEFAULT_EXTENSION_MODEL.sample_extensions(rng, 30_000)
        counts = {}
        for extension in extensions:
            counts[extension] = counts.get(extension, 0) + 1
        dll_share = counts.get("dll", 0) / len(extensions)
        assert dll_share == pytest.approx(DEFAULT_EXTENSIONS_BY_COUNT["dll"], abs=0.01)

    def test_null_bucket_becomes_empty_extension(self, rng):
        extensions = DEFAULT_EXTENSION_MODEL.sample_extensions(rng, 10_000)
        assert "" in extensions
        assert "null" not in extensions

    def test_unpopular_files_get_random_three_letter_extensions(self, rng):
        model = ExtensionPopularityModel(by_count={"txt": 0.01}, by_bytes={"txt": 0.01})
        extensions = model.sample_extensions(rng, 2_000)
        random_ones = [e for e in extensions if e != "txt" and e != ""]
        assert random_ones, "expected mostly random extensions"
        assert all(len(e) == 3 and e.isalpha() and e.islower() for e in random_ones)

    def test_random_extension_length_configurable(self, rng):
        model = ExtensionPopularityModel(by_count={}, by_bytes={}, random_extension_length=5)
        assert len(model.random_extension(rng)) == 5

    def test_observed_shares_merges_unknown_into_others(self):
        observed = {"dll": 50, "txt": 30, "weird": 20}
        shares = DEFAULT_EXTENSION_MODEL.observed_shares(observed)
        assert shares["dll"] == pytest.approx(0.5)
        assert shares["others"] == pytest.approx(0.2)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_observed_shares_empty_counts(self):
        shares = DEFAULT_EXTENSION_MODEL.observed_shares({})
        assert all(value == 0.0 for value in shares.values())

    def test_desired_shares_sum_to_one(self):
        shares = DEFAULT_EXTENSION_MODEL.desired_shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2009])
    def test_sample_extensions_matches_per_file_reference(self, seed, length):
        model = ExtensionPopularityModel(
            by_count=dict(DEFAULT_EXTENSIONS_BY_COUNT),
            by_bytes=dict(DEFAULT_EXTENSIONS_BY_BYTES),
            random_extension_length=length,
        )
        expected_rng = np.random.default_rng(seed)
        expected = _reference_sample_extensions(model, expected_rng, 3_000)
        actual_rng = np.random.default_rng(seed)
        assert model.sample_extensions(actual_rng, 3_000) == expected
        assert actual_rng.bit_generator.state == expected_rng.bit_generator.state

    @pytest.mark.parametrize("by_count", [{}, {"txt": 1.0}, {"null": 0.5}])
    def test_sample_extensions_matches_reference_at_the_extremes(self, by_count):
        model = ExtensionPopularityModel(by_count=by_count, by_bytes={}, random_extension_length=4)
        for size in (0, 1, 17):
            expected_rng = np.random.default_rng(size)
            expected = _reference_sample_extensions(model, expected_rng, size)
            actual_rng = np.random.default_rng(size)
            assert model.sample_extensions(actual_rng, size) == expected
            assert actual_rng.bit_generator.state == expected_rng.bit_generator.state

    def test_sampling_reproducible(self):
        a = DEFAULT_EXTENSION_MODEL.sample_extensions(np.random.default_rng(3), 100)
        b = DEFAULT_EXTENSION_MODEL.sample_extensions(np.random.default_rng(3), 100)
        assert a == b


def _reference_sample_extensions(model, rng, size):
    """The per-file sampler the image goldens were recorded with (do not optimise)."""
    out = []
    for label in model.count_distribution().sample_labels(rng, size):
        if label == "others":
            letters = rng.integers(ord("a"), ord("z") + 1, size=model.random_extension_length)
            out.append("".join(chr(int(code)) for code in letters))
        elif label == "null":
            out.append("")
        else:
            out.append(label)
    return out
