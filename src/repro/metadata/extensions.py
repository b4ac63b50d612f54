"""Extension popularity model (Table 2, Figure 2(e)).

Impressions keeps percentile values for the most popular file extensions — the
top 20 by count and by bytes, which together cover roughly half of all files
and bytes.  Files not covered by the popular list receive randomly generated
three-character extensions.  Each extension also maps to a coarse *content
kind* (text, image, binary, …) used by the content generators and by the
desktop-search workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.stats.distributions import CategoricalDistribution

__all__ = [
    "ExtensionPopularityModel",
    "DEFAULT_EXTENSION_MODEL",
    "DEFAULT_EXTENSIONS_BY_COUNT",
    "DEFAULT_EXTENSIONS_BY_BYTES",
    "content_kind_for_extension",
]

#: Top extensions by *count* with their approximate share of all files,
#: following the composition shown in Figure 2(e) (cpp, dll, exe, gif, h, htm,
#: jpg, the extensionless "null" bucket, txt) extended to a top-20 list in the
#: spirit of the underlying five-year Windows study.  The shares sum to ~0.52;
#: the remaining files receive random three-character extensions.
DEFAULT_EXTENSIONS_BY_COUNT: Mapping[str, float] = {
    "dll": 0.078,
    "gif": 0.062,
    "h": 0.058,
    "null": 0.056,
    "htm": 0.049,
    "jpg": 0.044,
    "exe": 0.039,
    "cpp": 0.037,
    "txt": 0.035,
    "wav": 0.014,
    "ini": 0.013,
    "c": 0.012,
    "log": 0.011,
    "xml": 0.011,
    "pdb": 0.010,
    "lib": 0.010,
    "png": 0.009,
    "obj": 0.009,
    "doc": 0.008,
    "mp3": 0.007,
}

#: Top extensions by *bytes*: large media, databases and libraries dominate.
DEFAULT_EXTENSIONS_BY_BYTES: Mapping[str, float] = {
    "dll": 0.090,
    "exe": 0.065,
    "pdb": 0.061,
    "vhd": 0.055,
    "pst": 0.052,
    "mp3": 0.043,
    "wma": 0.032,
    "avi": 0.030,
    "lib": 0.029,
    "zip": 0.027,
    "iso": 0.026,
    "wav": 0.024,
    "jpg": 0.021,
    "mdb": 0.018,
    "cab": 0.017,
    "doc": 0.014,
    "null": 0.013,
    "gif": 0.009,
    "htm": 0.007,
    "txt": 0.006,
}

#: Coarse content kind for each known extension, used to pick a content
#: generator and to drive the search-engine filters.
_CONTENT_KIND: Mapping[str, str] = {
    "txt": "text",
    "log": "text",
    "ini": "text",
    "c": "text",
    "cpp": "text",
    "h": "text",
    "xml": "text",
    "htm": "html",
    "html": "html",
    "doc": "document",
    "pdf": "document",
    "gif": "image",
    "jpg": "image",
    "jpeg": "image",
    "png": "image",
    "mp3": "audio",
    "wav": "audio",
    "wma": "audio",
    "avi": "video",
    "mpg": "video",
    "mp4": "video",
    "sh": "script",
    "py": "script",
    "pl": "script",
    "zip": "archive",
    "cab": "archive",
    "iso": "archive",
    "tar": "archive",
    "gz": "archive",
    "dll": "binary",
    "exe": "binary",
    "lib": "binary",
    "obj": "binary",
    "pdb": "binary",
    "vhd": "binary",
    "pst": "binary",
    "mdb": "binary",
    "null": "binary",
    "": "binary",
}


def content_kind_for_extension(extension: str) -> str:
    """Coarse content class for an extension (``text``, ``image``, ``binary``…)."""
    return _CONTENT_KIND.get(extension.lower().lstrip("."), "binary")


@dataclass
class ExtensionPopularityModel:
    """Percentile model of extension popularity.

    Attributes:
        by_count: share of files for each popular extension; the residual mass
            ``1 - sum(by_count)`` is given to random three-character
            extensions.
        by_bytes: share of bytes for each popular extension (used when a
            caller needs the bytes-weighted view, e.g. dataset synthesis).
        random_extension_length: length of the generated extensions for
            unpopular files (3 in the paper).
    """

    by_count: Mapping[str, float]
    by_bytes: Mapping[str, float]
    random_extension_length: int = 3

    def __post_init__(self) -> None:
        for name, table in (("by_count", self.by_count), ("by_bytes", self.by_bytes)):
            total = sum(table.values())
            if total > 1.0 + 1e-9:
                raise ValueError(f"{name} shares sum to {total}, which exceeds 1")
            if any(share < 0 for share in table.values()):
                raise ValueError(f"{name} shares must be non-negative")
        if self.random_extension_length < 1:
            raise ValueError("random_extension_length must be at least 1")

    @property
    def popular_extensions(self) -> tuple[str, ...]:
        return tuple(self.by_count.keys())

    def popular_fraction(self) -> float:
        """Total fraction of files covered by the popular list (~0.5)."""
        return float(sum(self.by_count.values()))

    def count_distribution(self) -> CategoricalDistribution:
        """Categorical distribution over popular extensions plus ``others``."""
        labels = list(self.by_count.keys()) + ["others"]
        weights = list(self.by_count.values()) + [max(1.0 - self.popular_fraction(), 0.0)]
        return CategoricalDistribution(labels=labels, weights=weights)

    def sample_extensions(self, rng: np.random.Generator, size: int) -> list[str]:
        """Sample ``size`` extensions; unpopular files get random ones.

        The letters of every unpopular file come from one ``rng.integers``
        call; nothing draws between files, so the stream is the one
        :meth:`random_extension` per file would consume.
        """
        labels = self.count_distribution().sample_labels(rng, size)
        length = self.random_extension_length
        codes = rng.integers(ord("a"), ord("z") + 1, size=labels.count("others") * length)
        letters = codes.astype(np.uint8).tobytes().decode("ascii")
        randoms = (letters[start : start + length] for start in range(0, len(letters), length))
        out: list[str] = []
        for label in labels:
            if label == "others":
                out.append(next(randoms))
            elif label == "null":
                out.append("")
            else:
                out.append(label)
        return out

    def random_extension(self, rng: np.random.Generator) -> str:
        """A random lowercase extension of the configured length."""
        letters = rng.integers(ord("a"), ord("z") + 1, size=self.random_extension_length)
        return "".join(chr(int(code)) for code in letters)

    def observed_shares(self, extension_counts: Mapping[str, int]) -> dict[str, float]:
        """Turn observed per-extension counts into shares aligned with the model.

        Extensions outside the popular list are merged into ``others``; the
        return value maps every popular extension (plus ``others``) to its
        observed share, which is what Figure 2(e) plots.
        """
        total = sum(extension_counts.values())
        if total == 0:
            return {label: 0.0 for label in list(self.by_count.keys()) + ["others"]}
        shares: dict[str, float] = {label: 0.0 for label in self.by_count}
        others = 0.0
        for extension, count in extension_counts.items():
            key = extension if extension else "null"
            if key in shares:
                shares[key] += count / total
            else:
                others += count / total
        shares["others"] = others
        return shares

    def desired_shares(self) -> dict[str, float]:
        """The model's own shares in the same format as :meth:`observed_shares`."""
        shares = {label: float(value) for label, value in self.by_count.items()}
        shares["others"] = max(1.0 - self.popular_fraction(), 0.0)
        return shares


DEFAULT_EXTENSION_MODEL = ExtensionPopularityModel(
    by_count=dict(DEFAULT_EXTENSIONS_BY_COUNT),
    by_bytes=dict(DEFAULT_EXTENSIONS_BY_BYTES),
)
