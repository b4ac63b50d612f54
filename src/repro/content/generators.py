"""Content generation dispatch.

:class:`ContentGenerator` turns a file's metadata (size, extension, content
kind) into actual bytes.  A :class:`ContentPolicy` selects which word model to
use for human-readable files and whether typed files get structural headers.
Content can be produced eagerly (returning the bytes) or streamed to disk when
an image is materialised; both paths produce exactly ``size`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.content.headers import typed_header_footer
from repro.content.similarity import SimilarityContentGenerator, SimilarityProfile
from repro.content.wordmodel import (
    HybridWordModel,
    SingleWordModel,
    WordLengthFrequencyModel,
    WordModel,
    WordPopularityModel,
)
from repro.metadata.extensions import content_kind_for_extension

__all__ = ["ContentPolicy", "ContentGenerator"]

#: Content model names accepted by :class:`ContentPolicy`.
WORD_MODEL_NAMES = ("single-word", "word-popularity", "word-length", "hybrid")


@dataclass
class ContentPolicy:
    """How file content should be generated.

    Attributes:
        text_model: word model for human-readable files — one of
            ``single-word``, ``word-popularity``, ``word-length`` or
            ``hybrid`` (the default, as in the paper).
        typed_headers: write structural headers/footers for typed files
            (images, audio, archives, binaries); disabling this yields pure
            random payloads for every non-text file.
        binary_random_seed_per_file: give every binary file distinct random
            bytes; when False all binary files share one repeated pattern
            (the degenerate case content-addressable storage would dedupe).
        force_kind: when set, every file is generated as this content kind
            regardless of its extension (used by Figures 7 and 8 to build
            all-text / all-image / all-binary images).
        similarity: optional cross-file similarity profile; when set, binary
            payloads draw a controlled fraction of their chunks from a shared
            pool so the corpus has a predictable deduplication ratio (the
            paper's suggested content-similarity extension, §3.6).
    """

    text_model: str = "hybrid"
    typed_headers: bool = True
    binary_random_seed_per_file: bool = True
    force_kind: str | None = None
    similarity: "SimilarityProfile | None" = None

    def __post_init__(self) -> None:
        if self.text_model not in WORD_MODEL_NAMES:
            raise ValueError(
                f"unknown text model {self.text_model!r}; expected one of {WORD_MODEL_NAMES}"
            )

    def build_word_model(self) -> WordModel:
        if self.text_model == "single-word":
            return SingleWordModel()
        if self.text_model == "word-popularity":
            return WordPopularityModel()
        if self.text_model == "word-length":
            return WordLengthFrequencyModel()
        return HybridWordModel()


@dataclass
class ContentGenerator:
    """Generates file content bytes according to a :class:`ContentPolicy`."""

    policy: ContentPolicy = field(default_factory=ContentPolicy)
    _word_model: WordModel = field(init=False, repr=False)
    _similarity: SimilarityContentGenerator | None = field(init=False, repr=False, default=None)

    #: text-like kinds that go through the word model
    _TEXT_KINDS = ("text", "html", "script", "document")

    def __post_init__(self) -> None:
        self._word_model = self.policy.build_word_model()
        if self.policy.similarity is not None:
            self._similarity = SimilarityContentGenerator(self.policy.similarity)

    @property
    def word_model(self) -> WordModel:
        return self._word_model

    def content_kind(self, extension: str) -> str:
        """Resolve the content kind for a file, honouring ``force_kind``."""
        if self.policy.force_kind is not None:
            return self.policy.force_kind
        return content_kind_for_extension(extension)

    def generate(self, size: int, extension: str, rng: np.random.Generator) -> bytes:
        """Produce exactly ``size`` bytes of content for one file."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if size == 0:
            return b""
        kind = self.content_kind(extension)
        if kind in self._TEXT_KINDS:
            return self._text_content(size, extension, rng)
        return self._binary_content(size, extension, rng)

    def iter_chunks(
        self, size: int, extension: str, rng: np.random.Generator, chunk_size: int = 1 << 20
    ) -> Iterator[bytes]:
        """Stream content in chunks of at most ``chunk_size`` bytes.

        Used when materialising large images to disk so memory stays bounded.
        A file of at most ``chunk_size`` bytes is one :meth:`generate` call.
        Above that, the concatenation equals :meth:`generate` in length but
        not in bytes for text kinds: words are drawn per chunk, and html and
        document files get no typed header or footer (a streamed ``.html``
        file does not start with ``<!DOCTYPE html>``).  Changing either moves
        every content digest, so it waits for a versioned fingerprint break.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if size <= chunk_size:
            yield self.generate(size, extension, rng)
            return
        kind = self.content_kind(extension)
        header, footer = (b"", b"")
        if kind not in self._TEXT_KINDS and self.policy.typed_headers:
            header, footer = typed_header_footer(extension)
            if len(header) + len(footer) > size:
                header, footer = b"", b""
        remaining = size - len(header) - len(footer)
        if header:
            yield header
        while remaining > 0:
            piece = min(chunk_size, remaining)
            if kind in self._TEXT_KINDS:
                yield self._word_model.text_bytes(rng, piece)
            else:
                yield self._random_bytes(piece, rng)
            remaining -= piece
        if footer:
            yield footer

    # Internal helpers -------------------------------------------------------

    def _text_content(self, size: int, extension: str, rng: np.random.Generator) -> bytes:
        kind = content_kind_for_extension(extension)
        header, footer = (b"", b"")
        if self.policy.typed_headers and kind in ("html", "document"):
            header, footer = typed_header_footer(extension)
            if len(header) + len(footer) > size:
                header, footer = b"", b""
        payload_size = size - len(header) - len(footer)
        payload = self._word_model.text_bytes(rng, payload_size)
        return header + payload + footer

    def _binary_content(self, size: int, extension: str, rng: np.random.Generator) -> bytes:
        header, footer = (b"", b"")
        if self.policy.typed_headers:
            header, footer = typed_header_footer(extension)
            if len(header) + len(footer) > size:
                header, footer = b"", b""
        payload_size = size - len(header) - len(footer)
        payload = self._random_bytes(payload_size, rng)
        return header + payload + footer

    def _random_bytes(self, size: int, rng: np.random.Generator) -> bytes:
        if size <= 0:
            return b""
        if self._similarity is not None:
            return self._similarity.generate(size, rng)
        if self.policy.binary_random_seed_per_file:
            return rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
        pattern = bytes(range(256))
        repeats = size // len(pattern) + 1
        return (pattern * repeats)[:size]

    # Measurement helpers used by the search workloads -----------------------

    def unique_word_estimate(self, size: int) -> float:
        """Rough number of distinct words a text file of ``size`` bytes holds.

        The search-index size model needs this: a single-word file contributes
        one posting regardless of size, a popularity-model file contributes up
        to the vocabulary size, and length-model words are effectively all
        unique.
        """
        approx_words = max(size // 6, 1)
        if isinstance(self._word_model, SingleWordModel):
            return 1.0
        if isinstance(self._word_model, WordPopularityModel):
            return float(min(approx_words, self._word_model.vocabulary_size))
        if isinstance(self._word_model, HybridWordModel):
            popular = min(
                approx_words * self._word_model.popular_fraction,
                self._word_model.popularity.vocabulary_size,
            )
            rare = approx_words * (1.0 - self._word_model.popular_fraction)
            return float(popular + rare)
        return float(approx_words)
