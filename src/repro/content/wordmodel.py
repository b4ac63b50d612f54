"""Word models for human-readable file content (Section 3.6).

Three models, mirroring the paper:

* :class:`WordPopularityModel` — a Monte-Carlo generator driven by the
  relative popularity of the most common English words (a Zipf-like head).
* :class:`WordLengthFrequencyModel` — generates the long tail of rare words
  from the empirical distribution of English word lengths (Sigurd,
  Eeg-Olofsson & van de Weijer, 2004): the popularity list stays short, so
  content generation stays fast.
* :class:`HybridWordModel` — popularity model for the body of the stream,
  length-frequency model for a configurable tail fraction; this is the
  paper's performance compromise and the default for text content.
* :class:`SingleWordModel` — the degenerate "same word over and over"
  baseline that Postmark effectively uses; kept because Figure 7 compares
  single-word text against model text.

Text is built as bytes, never as one Python string per word.  Each model's
:meth:`~WordModel.draw` returns a :class:`WordDraw`: a ``uint8`` source
buffer plus each word's start and length (the word and its trailing space),
with the vocabulary and the 26 letters encoded once at construction.
:meth:`WordModel.text_bytes` copies each draw into the output with one
ragged gather.  Categorical draws go through :class:`_InverseCdfSampler`,
which returns exactly the indices ``Generator.choice(k, size, p=p)`` would
from the same uniforms, so the RNG calls, their order and their sizes — and
therefore every output byte — are the same as the earlier per-word string
implementation's.  On a 2-CPU x86 host the hybrid model writes about 30 MB/s
of 1 MiB texts, against 4 MB/s for the per-word strings.  What bounds it is
the byte-identity contract: ``max(8, remaining // 6)`` words per draw makes
a text take several draws of shrinking size, and the uniforms cannot be
drawn any other way.
"""

from __future__ import annotations

import abc
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "WordDraw",
    "WordModel",
    "WordPopularityModel",
    "WordLengthFrequencyModel",
    "HybridWordModel",
    "SingleWordModel",
    "TOP_ENGLISH_WORDS",
    "WORD_LENGTH_FREQUENCIES",
]

#: The most common English words with relative frequencies (per million words,
#: rescaled).  A Zipf-like head: "the" alone is ~6–7% of running text.
TOP_ENGLISH_WORDS: tuple[tuple[str, float], ...] = (
    ("the", 6.90), ("of", 3.59), ("and", 2.84), ("to", 2.57), ("a", 2.27),
    ("in", 2.11), ("is", 1.12), ("it", 0.99), ("you", 0.92), ("that", 0.91),
    ("he", 0.88), ("was", 0.83), ("for", 0.79), ("on", 0.73), ("are", 0.68),
    ("with", 0.66), ("as", 0.64), ("i", 0.62), ("his", 0.60), ("they", 0.59),
    ("be", 0.58), ("at", 0.52), ("one", 0.50), ("have", 0.49), ("this", 0.48),
    ("from", 0.47), ("or", 0.45), ("had", 0.44), ("by", 0.43), ("not", 0.42),
    ("word", 0.41), ("but", 0.40), ("what", 0.39), ("some", 0.37), ("we", 0.36),
    ("can", 0.35), ("out", 0.34), ("other", 0.33), ("were", 0.33), ("all", 0.32),
    ("there", 0.31), ("when", 0.30), ("up", 0.29), ("use", 0.28), ("your", 0.27),
    ("how", 0.26), ("said", 0.26), ("an", 0.25), ("each", 0.24), ("she", 0.24),
    ("which", 0.23), ("do", 0.23), ("their", 0.22), ("time", 0.22), ("if", 0.21),
    ("will", 0.21), ("way", 0.20), ("about", 0.20), ("many", 0.19), ("then", 0.19),
    ("them", 0.18), ("write", 0.18), ("would", 0.18), ("like", 0.17), ("so", 0.17),
    ("these", 0.16), ("her", 0.16), ("long", 0.16), ("make", 0.15), ("thing", 0.15),
    ("see", 0.15), ("him", 0.14), ("two", 0.14), ("has", 0.14), ("look", 0.13),
    ("more", 0.13), ("day", 0.13), ("could", 0.12), ("go", 0.12), ("come", 0.12),
    ("did", 0.12), ("number", 0.11), ("sound", 0.11), ("no", 0.11), ("most", 0.11),
    ("people", 0.10), ("my", 0.10), ("over", 0.10), ("know", 0.10), ("water", 0.10),
    ("than", 0.09), ("call", 0.09), ("first", 0.09), ("who", 0.09), ("may", 0.09),
    ("down", 0.09), ("side", 0.08), ("been", 0.08), ("now", 0.08), ("find", 0.08),
)

#: Empirical distribution of English word lengths (letters → relative
#: frequency), after Sigurd et al. (2004): the distribution peaks at 3 letters
#: and has a gamma-like tail.
WORD_LENGTH_FREQUENCIES: tuple[tuple[int, float], ...] = (
    (1, 0.0316), (2, 0.1695), (3, 0.2140), (4, 0.1587), (5, 0.1091),
    (6, 0.0844), (7, 0.0734), (8, 0.0537), (9, 0.0432), (10, 0.0284),
    (11, 0.0166), (12, 0.0093), (13, 0.0049), (14, 0.0021), (15, 0.0008),
    (16, 0.0003),
)

_LETTER_FREQUENCIES: tuple[tuple[str, float], ...] = (
    ("e", 12.70), ("t", 9.06), ("a", 8.17), ("o", 7.51), ("i", 6.97),
    ("n", 6.75), ("s", 6.33), ("h", 6.09), ("r", 5.99), ("d", 4.25),
    ("l", 4.03), ("c", 2.78), ("u", 2.76), ("m", 2.41), ("w", 2.36),
    ("f", 2.23), ("g", 2.02), ("y", 1.97), ("p", 1.93), ("b", 1.49),
    ("v", 0.98), ("k", 0.77), ("j", 0.15), ("x", 0.15), ("q", 0.10),
    ("z", 0.07),
)


class WordDraw(NamedTuple):
    """One draw of words, as byte segments of a source buffer.

    Word ``i`` is ``source[starts[i] : starts[i] + lengths[i]]``: the word's
    bytes followed by its trailing space, so every length is at least 1.
    Words are in output order.
    """

    source: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray


class _InverseCdfSampler:
    """Draws exactly the indices ``Generator.choice(len(p), size, p=p)`` draws.

    ``choice`` takes ``size`` uniforms, builds ``cdf = cumsum(p) / cdf[-1]``
    and binary-searches each uniform with ``searchsorted(side="right")``.
    This sampler consumes the same uniforms and builds the same ``cdf``, but
    starts each search at a lower bound looked up from a table of
    :attr:`BUCKETS` equal-width buckets, then finishes with at most
    :attr:`steps` vectorised ``idx += cdf[idx] <= u`` steps — the most
    ``cdf`` entries any one bucket spans.  ``u * BUCKETS`` is exact for a
    power of two, so the bucket of ``u`` never rounds and the result equals
    ``searchsorted`` index for index.
    """

    BUCKETS = 4096

    def __init__(self, probabilities: np.ndarray) -> None:
        cdf = np.cumsum(probabilities)
        cdf /= cdf[-1]
        edges = np.arange(self.BUCKETS + 1) / self.BUCKETS
        self._cdf = cdf
        self._lower = np.searchsorted(cdf, edges[:-1], side="right")
        upper = np.searchsorted(cdf, edges[1:], side="left")
        self.steps = int((upper - self._lower).max())

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        uniforms = rng.random(size)
        indices = self._lower[(uniforms * self.BUCKETS).astype(np.intp)]
        for _ in range(self.steps):
            indices += self._cdf[indices] <= uniforms
        return indices


#: Words gathered per block, which bounds the int64 byte-index arrays the
#: gather allocates (8 bytes per output byte) to a few MB whatever the size.
_GATHER_BLOCK_WORDS = 1 << 16


def _gather(draw: WordDraw, count: int, out: np.ndarray) -> None:
    """Copy the first ``count`` segments of ``draw`` back to back into ``out``.

    Stops when ``out`` is full, so the last segment may be cut short.  The
    byte index is one ragged ``arange`` per word, built as a running sum of
    steps: ``+1`` inside a word and a jump at each word boundary.
    """
    written = 0
    for first in range(0, count, _GATHER_BLOCK_WORDS):
        block = slice(first, min(first + _GATHER_BLOCK_WORDS, count))
        starts, lengths = draw.starts[block], draw.lengths[block]
        word_ends = lengths.cumsum()
        index = np.ones(int(word_ends[-1]), dtype=np.int64)
        index[0] = starts[0]
        index[word_ends[:-1]] = starts[1:] - starts[:-1] - lengths[:-1] + 1
        index.cumsum(out=index)
        block_bytes = min(index.size, out.size - written)
        np.take(draw.source, index[:block_bytes], out=out[written : written + block_bytes])
        written += block_bytes


def _encode(text: str) -> np.ndarray:
    """ASCII bytes of ``text``, one ``?`` per non-ASCII character."""
    return np.frombuffer(text.encode("ascii", errors="replace"), dtype=np.uint8)


class WordModel(abc.ABC):
    """Common interface for the word generators.

    A model implements :meth:`draw`; :meth:`text_bytes` is the one text
    implementation, and :meth:`text` and :meth:`words` are views of it.
    """

    name: str = "word-model"

    @abc.abstractmethod
    def draw(self, rng: np.random.Generator, count: int) -> WordDraw:
        """Draw ``count`` words as byte segments."""

    def words(self, rng: np.random.Generator, count: int) -> list[str]:
        """Generate ``count`` words (non-ASCII characters come back as ``?``)."""
        if count < 0:
            raise ValueError("count must be non-negative")
        draw = self.draw(rng, count)
        ends = draw.lengths.cumsum()
        joined = np.empty(int(ends[-1]) if count else 0, dtype=np.uint8)
        _gather(draw, count, joined)
        text = joined.tobytes().decode("ascii")
        begins = (ends - draw.lengths).tolist()
        return list(map(text.__getitem__, map(slice, begins, (ends - 1).tolist())))

    def text_bytes(self, rng: np.random.Generator, num_bytes: int) -> bytes:
        """Generate exactly ``num_bytes`` of space-separated ASCII text.

        Words are drawn ``max(8, remaining // 6)`` at a time until one
        reaches ``num_bytes``; the words after it in that draw are dropped,
        and the text is cut at the exact byte (the last word may be cut
        short, and a text that ends exactly at a word ends in a space).
        """
        if num_bytes < 0:
            raise ValueError("num_bytes must be non-negative")
        out = np.empty(num_bytes, dtype=np.uint8)
        generated = 0
        while generated < num_bytes:
            draw = self.draw(rng, max(8, (num_bytes - generated) // 6))
            ends = draw.lengths.cumsum()
            used = min(int(np.searchsorted(ends, num_bytes - generated)) + 1, ends.size)
            _gather(draw, used, out[generated:])
            generated += int(ends[used - 1])
        return out.tobytes()

    def text(self, rng: np.random.Generator, num_bytes: int) -> str:
        """:meth:`text_bytes` as a string of exactly ``num_bytes`` characters."""
        return self.text_bytes(rng, num_bytes).decode("ascii")


class WordPopularityModel(WordModel):
    """Monte-Carlo word generation from a popularity table."""

    name = "word-popularity"

    def __init__(self, vocabulary: Sequence[tuple[str, float]] = TOP_ENGLISH_WORDS) -> None:
        if not vocabulary:
            raise ValueError("vocabulary must be non-empty")
        words, weights = zip(*vocabulary)
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("word weights must be non-negative and not all zero")
        self._sampler = _InverseCdfSampler(weights / weights.sum())
        # Every word and its trailing space, back to back in one buffer.
        self._source = _encode(" ".join(words) + " ")
        self._lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words)) + 1
        self._starts = np.cumsum(self._lengths) - self._lengths

    @property
    def vocabulary_size(self) -> int:
        return self._lengths.size

    def draw(self, rng: np.random.Generator, count: int) -> WordDraw:
        indices = self._sampler.sample(rng, count)
        return WordDraw(self._source, self._starts[indices], self._lengths[indices])


class WordLengthFrequencyModel(WordModel):
    """Generates synthetic words whose lengths follow English statistics.

    Letters within a word are drawn from English letter frequencies, so the
    output is pronounceable-ish gibberish with a realistic length profile —
    exactly what is needed to model the heavy tail of rare words without
    storing a huge vocabulary.
    """

    name = "word-length-frequency"

    def __init__(
        self, length_table: Sequence[tuple[int, float]] = WORD_LENGTH_FREQUENCIES
    ) -> None:
        if not length_table:
            raise ValueError("length_table must be non-empty")
        lengths, weights = zip(*length_table)
        self._lengths = np.asarray(lengths, dtype=np.int64)
        if np.any(self._lengths <= 0):
            raise ValueError("word lengths must be positive")
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("length weights must be non-negative and not all zero")
        self._length_probabilities = weights / weights.sum()
        self._length_sampler = _InverseCdfSampler(self._length_probabilities)
        letters, letter_weights = zip(*_LETTER_FREQUENCIES)
        letter_weights = np.asarray(letter_weights, dtype=float)
        self._letter_sampler = _InverseCdfSampler(letter_weights / letter_weights.sum())
        self._letters = _encode("".join(letters))

    def mean_word_length(self) -> float:
        return float(np.dot(self._lengths, self._length_probabilities))

    def draw(self, rng: np.random.Generator, count: int) -> WordDraw:
        lengths = self._lengths[self._length_sampler.sample(rng, count)] + 1
        ends = lengths.cumsum()
        total_letters = int(ends[-1]) - count if count else 0
        letters = self._letters[self._letter_sampler.sample(rng, total_letters)]
        # Each word's letters, then its space.
        source = np.full(letters.size + count, ord(" "), dtype=np.uint8)
        is_letter = np.ones(source.size, dtype=bool)
        is_letter[ends - 1] = False
        source[is_letter] = letters
        return WordDraw(source, ends - lengths, lengths)


class HybridWordModel(WordModel):
    """Popularity model for the body of the text, length model for the tail.

    ``popular_fraction`` of generated words come from the popularity table and
    the rest from the length-frequency model, matching the paper's hybrid that
    trades a little realism for much faster generation.
    """

    name = "hybrid-word-model"

    def __init__(
        self,
        popularity: WordPopularityModel | None = None,
        length_model: WordLengthFrequencyModel | None = None,
        popular_fraction: float = 0.8,
    ) -> None:
        if not 0.0 <= popular_fraction <= 1.0:
            raise ValueError("popular_fraction must lie in [0, 1]")
        self._popularity = popularity or WordPopularityModel()
        self._length_model = length_model or WordLengthFrequencyModel()
        self._popular_fraction = popular_fraction

    @property
    def popular_fraction(self) -> float:
        return self._popular_fraction

    @property
    def popularity(self) -> WordPopularityModel:
        return self._popularity

    def draw(self, rng: np.random.Generator, count: int) -> WordDraw:
        from_popular = rng.random(count) < self._popular_fraction
        popular_count = int(np.count_nonzero(from_popular))
        popular = self._popularity.draw(rng, popular_count)
        rare = self._length_model.draw(rng, count - popular_count)
        popular_at = from_popular.nonzero()[0]
        rare_at = (~from_popular).nonzero()[0]
        starts = np.empty(count, dtype=np.int64)
        starts[popular_at] = popular.starts
        starts[rare_at] = rare.starts + popular.source.size
        lengths = np.empty(count, dtype=np.int64)
        lengths[popular_at] = popular.lengths
        lengths[rare_at] = rare.lengths
        return WordDraw(np.concatenate((popular.source, rare.source)), starts, lengths)


class SingleWordModel(WordModel):
    """Fills content with one repeated word — the Postmark anti-pattern."""

    name = "single-word"

    def __init__(self, word: str = "impressions") -> None:
        if not word:
            raise ValueError("word must be non-empty")
        self._source = _encode(word + " ")

    def draw(self, rng: np.random.Generator, count: int) -> WordDraw:
        return WordDraw(
            self._source,
            np.zeros(count, dtype=np.int64),
            np.full(count, self._source.size, dtype=np.int64),
        )
