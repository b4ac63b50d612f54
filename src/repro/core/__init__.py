"""The Impressions framework proper.

* :mod:`repro.core.config` — :class:`ImpressionsConfig`, the complete set of
  user-controllable parameters with the Table 2 defaults.
* :mod:`repro.core.impressions` — the generation pipeline (namespace, files,
  content, layout).
* :mod:`repro.core.image` — the generated :class:`FileSystemImage`, its
  statistics and its materialisation to a real directory tree on disk.
* :mod:`repro.core.report` — the reproducibility report (distributions,
  parameter values, random seeds).
* :mod:`repro.core.cli` — the command-line interface.
"""

from repro.core.config import ImpressionsConfig
from repro.core.image import FileSystemImage
from repro.core.impressions import Impressions
from repro.core.report import ReproducibilityReport

__all__ = [
    "ImpressionsConfig",
    "Impressions",
    "FileSystemImage",
    "ReproducibilityReport",
]
