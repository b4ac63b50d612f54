"""Unit tests for the word models (Section 3.6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.content.wordmodel import (
    _LETTER_FREQUENCIES,
    TOP_ENGLISH_WORDS,
    WORD_LENGTH_FREQUENCIES,
    HybridWordModel,
    SingleWordModel,
    WordLengthFrequencyModel,
    WordPopularityModel,
    _InverseCdfSampler,
)


class TestWordPopularityModel:
    def test_most_common_word_dominates(self, rng):
        model = WordPopularityModel()
        words = model.words(rng, 20_000)
        the_share = words.count("the") / len(words)
        expected = TOP_ENGLISH_WORDS[0][1] / sum(weight for _, weight in TOP_ENGLISH_WORDS)
        assert the_share == pytest.approx(expected, abs=0.01)

    def test_vocabulary_is_bounded(self, rng):
        model = WordPopularityModel()
        words = model.words(rng, 5_000)
        assert len(set(words)) <= model.vocabulary_size

    def test_empty_vocabulary_rejected(self):
        with pytest.raises(ValueError):
            WordPopularityModel(vocabulary=[])

    def test_negative_count_rejected(self, rng):
        with pytest.raises(ValueError):
            WordPopularityModel().words(rng, -1)


class TestWordLengthFrequencyModel:
    def test_word_lengths_follow_table(self, rng):
        model = WordLengthFrequencyModel()
        words = model.words(rng, 20_000)
        lengths = np.asarray([len(word) for word in words])
        assert lengths.mean() == pytest.approx(model.mean_word_length(), abs=0.1)

    def test_words_are_lowercase_letters(self, rng):
        model = WordLengthFrequencyModel()
        for word in model.words(rng, 200):
            assert word.isalpha() and word.islower()

    def test_rich_vocabulary(self, rng):
        """Length-model words are effectively all distinct (the long tail)."""
        model = WordLengthFrequencyModel()
        words = model.words(rng, 5_000)
        assert len(set(words)) > 2_000

    def test_mean_word_length_matches_frequencies(self):
        model = WordLengthFrequencyModel()
        expected = sum(length * weight for length, weight in WORD_LENGTH_FREQUENCIES) / sum(
            weight for _, weight in WORD_LENGTH_FREQUENCIES
        )
        assert model.mean_word_length() == pytest.approx(expected)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            WordLengthFrequencyModel(length_table=[])

    @pytest.mark.parametrize("bad_length", [0, -2])
    def test_non_positive_length_rejected(self, bad_length):
        with pytest.raises(ValueError, match="positive"):
            WordLengthFrequencyModel(length_table=[(3, 1.0), (bad_length, 0.5)])


class TestHybridModel:
    def test_mixes_both_sources(self, rng):
        model = HybridWordModel(popular_fraction=0.5)
        words = model.words(rng, 4_000)
        popular_vocabulary = {word for word, _ in TOP_ENGLISH_WORDS}
        popular_hits = sum(1 for word in words if word in popular_vocabulary)
        assert popular_hits / len(words) == pytest.approx(0.5, abs=0.06)

    def test_extreme_fractions(self, rng):
        all_popular = HybridWordModel(popular_fraction=1.0).words(rng, 500)
        popular_vocabulary = {word for word, _ in TOP_ENGLISH_WORDS}
        assert all(word in popular_vocabulary for word in all_popular)
        all_rare = HybridWordModel(popular_fraction=0.0).words(rng, 500)
        assert sum(1 for word in all_rare if word in popular_vocabulary) < 100

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            HybridWordModel(popular_fraction=1.2)

    def test_zero_count(self, rng):
        assert HybridWordModel().words(rng, 0) == []

    def test_words_match_text(self):
        """``words`` and ``text`` are views of the same draw."""
        model = HybridWordModel()
        words = model.words(np.random.default_rng(9), 8)
        # 16 bytes take one draw of 8 words, each at least 2 bytes with its space.
        assert model.text(np.random.default_rng(9), 16) == ("".join(w + " " for w in words))[:16]


class TestSingleWordModel:
    def test_repeats_one_word(self, rng):
        model = SingleWordModel(word="spam")
        assert set(model.words(rng, 50)) == {"spam"}

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            SingleWordModel(word="")


class TestTextGeneration:
    @pytest.mark.parametrize(
        "model",
        [SingleWordModel(), WordPopularityModel(), WordLengthFrequencyModel(), HybridWordModel()],
        ids=["single", "popularity", "length", "hybrid"],
    )
    def test_text_is_exactly_requested_size(self, model, rng):
        for size in (0, 1, 10, 1_000, 10_000):
            assert len(model.text(rng, size)) == size

    def test_text_contains_spaces_between_words(self, rng):
        text = WordPopularityModel().text(rng, 2_000)
        assert " " in text
        assert len(text.split()) > 100

    def test_negative_size_rejected(self, rng):
        with pytest.raises(ValueError):
            SingleWordModel().text(rng, -1)

    def test_reproducible_from_seed(self):
        model = HybridWordModel()
        a = model.text(np.random.default_rng(5), 500)
        b = model.text(np.random.default_rng(5), 500)
        assert a == b


_BUILT_IN_TABLES = [
    [weight for _, weight in TOP_ENGLISH_WORDS],
    [weight for _, weight in WORD_LENGTH_FREQUENCIES],
    [weight for _, weight in _LETTER_FREQUENCIES],
]


@st.composite
def weight_tables(draw):
    kind = draw(st.sampled_from(["random", "tail", "single", "built-in", "crowded"]))
    if kind == "built-in":
        return draw(st.sampled_from(_BUILT_IN_TABLES))
    if kind == "single":
        return [draw(st.floats(1e-3, 1e3))]
    if kind == "crowded":
        # More entries than buckets: every bucket needs several search steps.
        count = draw(st.integers(5_000, 30_000))
        return np.random.default_rng(draw(st.integers(0, 99))).random(count).tolist()
    weights = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=1, max_size=60)
    )
    if kind == "tail":
        # Many tiny weights crowd into the last buckets of the lookup table.
        weights = weights + [1e-6] * draw(st.integers(1, 200))
    if sum(weights) == 0:
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    return weights


class TestInverseCdfSampler:
    @settings(max_examples=150, deadline=None)
    @given(weights=weight_tables(), size=st.integers(0, 50_000), seed=st.integers(0, 2**32 - 1))
    def test_matches_generator_choice_exactly(self, weights, size, seed):
        weights = np.asarray(weights, dtype=float)
        probabilities = weights / weights.sum()
        ours = np.random.default_rng(seed)
        numpy_rng = np.random.default_rng(seed)
        indices = _InverseCdfSampler(probabilities).sample(ours, size)
        expected = numpy_rng.choice(len(probabilities), size=size, p=probabilities)
        assert np.array_equal(indices, expected)
        assert ours.bit_generator.state == numpy_rng.bit_generator.state
