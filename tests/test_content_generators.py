"""Unit tests for the content generator dispatch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.content.generators import ContentGenerator, ContentPolicy
from repro.content.headers import typed_header_footer
from repro.content.wordmodel import HybridWordModel, SingleWordModel, WordPopularityModel


class TestContentPolicy:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            ContentPolicy(text_model="markov")

    @pytest.mark.parametrize(
        "name", ["single-word", "word-popularity", "word-length", "hybrid"]
    )
    def test_build_word_model(self, name):
        policy = ContentPolicy(text_model=name)
        assert policy.build_word_model() is not None

    def test_force_kind_overrides_extension(self):
        generator = ContentGenerator(ContentPolicy(force_kind="text"))
        assert generator.content_kind("dll") == "text"

    def test_default_kind_follows_extension(self):
        generator = ContentGenerator()
        assert generator.content_kind("txt") == "text"
        assert generator.content_kind("dll") == "binary"


class TestGeneration:
    @pytest.mark.parametrize("extension", ["txt", "htm", "jpg", "mp3", "dll", "zip", "xyz", ""])
    def test_exact_size(self, extension, rng):
        generator = ContentGenerator()
        for size in (0, 1, 64, 4_096, 100_000):
            content = generator.generate(size, extension, rng)
            assert len(content) == size

    def test_text_content_is_ascii_words(self, rng):
        generator = ContentGenerator(ContentPolicy(text_model="word-popularity"))
        content = generator.generate(5_000, "txt", rng)
        text = content.decode("ascii")
        assert all(ch.isalpha() or ch.isspace() for ch in text)

    def test_single_word_model_repeats(self, rng):
        generator = ContentGenerator(ContentPolicy(text_model="single-word"))
        content = generator.generate(2_000, "txt", rng).decode("ascii")
        # The final word may be cut by the exact-size truncation; every
        # complete word is the same one.
        words = set(content.split()[:-1])
        assert len(words) == 1

    def test_typed_binary_gets_header(self, rng):
        generator = ContentGenerator()
        content = generator.generate(10_000, "jpg", rng)
        header, footer = typed_header_footer("jpg")
        assert content.startswith(header)
        assert content.endswith(footer)

    def test_html_gets_markup(self, rng):
        generator = ContentGenerator()
        content = generator.generate(4_000, "htm", rng)
        assert content.startswith(b"<!DOCTYPE html>")
        assert content.endswith(b"</html>\n")

    def test_tiny_typed_file_skips_header(self, rng):
        generator = ContentGenerator()
        content = generator.generate(4, "jpg", rng)
        assert len(content) == 4
        assert not content.startswith(b"\xff\xd8\xff\xe0")

    def test_headers_can_be_disabled(self, rng):
        generator = ContentGenerator(ContentPolicy(typed_headers=False))
        content = generator.generate(1_000, "gif", rng)
        assert not content.startswith(b"GIF89a")

    def test_negative_size_rejected(self, rng):
        with pytest.raises(ValueError):
            ContentGenerator().generate(-1, "txt", rng)

    def test_binary_repeating_pattern_mode(self, rng):
        generator = ContentGenerator(
            ContentPolicy(binary_random_seed_per_file=False, typed_headers=False)
        )
        a = generator.generate(512, "bin", rng)
        b = generator.generate(512, "bin", rng)
        assert a == b  # degenerate dedup-able content

    def test_random_binary_differs_between_files(self):
        generator = ContentGenerator(ContentPolicy(typed_headers=False))
        a = generator.generate(512, "bin", np.random.default_rng(1))
        b = generator.generate(512, "bin", np.random.default_rng(2))
        assert a != b

    def test_reproducible_from_seed(self):
        generator = ContentGenerator()
        a = generator.generate(2_048, "txt", np.random.default_rng(9))
        b = generator.generate(2_048, "txt", np.random.default_rng(9))
        assert a == b


class TestChunkedGeneration:
    def test_chunks_concatenate_to_exact_size(self, rng):
        generator = ContentGenerator()
        total = sum(
            len(chunk) for chunk in generator.iter_chunks(3_000_000, "dll", rng, chunk_size=1 << 18)
        )
        assert total == 3_000_000

    def test_small_file_single_chunk(self, rng):
        generator = ContentGenerator()
        chunks = list(generator.iter_chunks(100, "txt", rng))
        assert len(chunks) == 1 and len(chunks[0]) == 100

    def test_chunked_typed_file_keeps_header_and_footer(self, rng):
        generator = ContentGenerator()
        chunks = list(generator.iter_chunks(5_000_000, "jpg", rng, chunk_size=1 << 20))
        header, footer = typed_header_footer("jpg")
        assert chunks[0].startswith(header) or chunks[0] == header
        assert chunks[-1].endswith(footer)

    def test_invalid_chunk_size_rejected(self, rng):
        with pytest.raises(ValueError):
            list(ContentGenerator().iter_chunks(10, "txt", rng, chunk_size=0))


class TestUniqueWordEstimate:
    def test_single_word_estimate_is_one(self):
        generator = ContentGenerator(ContentPolicy(text_model="single-word"))
        assert generator.unique_word_estimate(1_000_000) == 1.0

    def test_popularity_estimate_bounded_by_vocabulary(self):
        generator = ContentGenerator(ContentPolicy(text_model="word-popularity"))
        assert generator.unique_word_estimate(10_000_000) <= 100

    def test_hybrid_estimate_grows_with_size(self):
        generator = ContentGenerator(ContentPolicy(text_model="hybrid"))
        assert generator.unique_word_estimate(1_000_000) > generator.unique_word_estimate(10_000)

    def test_hybrid_popular_share_capped_at_its_vocabulary(self):
        class TwoWordPolicy(ContentPolicy):
            def build_word_model(self):
                return HybridWordModel(WordPopularityModel([("yes", 1.0), ("no", 1.0)]))

        generator = ContentGenerator(TwoWordPolicy())
        # 1e6 words: 800k popular ones can only be 2 distinct words, plus 200k rare.
        assert generator.unique_word_estimate(6_000_000) == pytest.approx(2 + 200_000)

    def test_word_model_attribute_matches_policy(self):
        generator = ContentGenerator(ContentPolicy(text_model="single-word"))
        assert isinstance(generator.word_model, SingleWordModel)
