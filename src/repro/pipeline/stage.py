"""The :class:`Stage` protocol and stage fingerprinting.

A stage is one unit of the generation phase sequence (Section 3.3).  It
declares

* ``requires`` / ``provides`` — the context artifact names it consumes and
  produces, validated by the pipeline before anything runs;
* ``config_knobs`` — the subset of :data:`repro.core.config.KNOB_NAMES` whose
  values influence its behaviour, which is what its fingerprint covers;
* ``params`` — stage-specific parameters outside the config (post-generation
  stages carry their step parameters here).

Fingerprints chain: every stage's digest covers its own identity (name,
format version, knob values, params) *plus the digest of the stage before
it*.  The generation stages share one sequential rng stream, so a stage's
output genuinely depends on everything upstream having sampled exactly the
same values — the linear chain encodes that, and it is what makes the
content-addressed artifact cache (:mod:`repro.pipeline.cache`) sound: a hit
on stage *k* certifies the whole prefix.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Mapping

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.config import ImpressionsConfig
    from repro.pipeline.context import GenerationContext

__all__ = [
    "PIPELINE_FORMAT_VERSION",
    "PipelineError",
    "Stage",
    "StageWiringError",
    "stage_fingerprint",
]

#: Bumped when the stage fingerprint recipe (or any stage's semantics)
#: changes incompatibly, so stale cache entries can never satisfy new code.
#: 2: extent-based SimulatedDisk / FileNode.extents — snapshots pickled by
#: the block-list representation cannot restore into the new classes.
PIPELINE_FORMAT_VERSION = 2


class PipelineError(RuntimeError):
    """Raised when a pipeline cannot run (bad wiring, missing artifacts)."""


class StageWiringError(PipelineError):
    """Raised when a stage's declared inputs are not satisfied upstream."""


class Stage(ABC):
    """One composable unit of the generation pipeline.

    Attributes:
        name: unique stage name (also the timing key it records under).
        requires: artifact names that must be present in the context before
            the stage runs.
        provides: artifact names the stage guarantees afterwards.
        config_knobs: config knob names that influence the stage — the only
            part of the config its fingerprint covers.
        params: stage-specific parameters, fingerprinted verbatim.
        cacheable: whether the post-stage context snapshot may be stored in
            (and restored from) a :class:`~repro.pipeline.cache.StageCache`.
        post_generation: ``False`` for the generation phases that build the
            image, ``True`` for stages that run against the finished image
            (trace replay, aging, bench drivers).
    """

    name: str = ""
    requires: tuple[str, ...] = ()
    provides: tuple[str, ...] = ()
    config_knobs: tuple[str, ...] = ()
    cacheable: bool = True
    post_generation: bool = False

    def __init__(self, params: Mapping[str, object] | None = None) -> None:
        self.params: dict[str, object] = dict(params or {})

    @abstractmethod
    def run(self, context: "GenerationContext") -> None:
        """Execute the stage, mutating ``context`` in place."""

    def publish(self, context: "GenerationContext") -> None:
        """Report telemetry that follows from the config and the stage's output alone.

        Called after a generation stage runs and also when it is restored from a cache.
        """

    def fingerprint(self, config: "ImpressionsConfig", upstream: str | None) -> str:
        """Content digest of this stage given ``config`` and the chain so far."""
        return stage_fingerprint(self, config, upstream)

    def describe(self) -> dict:
        """Static JSON view of the stage (the ``pipeline inspect`` row)."""
        return {
            "name": self.name,
            "requires": list(self.requires),
            "provides": list(self.provides),
            "config_knobs": sorted(self.config_knobs),
            "params": dict(self.params),
            "cacheable": self.cacheable,
            "post_generation": self.post_generation,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


def stage_fingerprint(
    stage: Stage, config: "ImpressionsConfig", upstream: str | None
) -> str:
    """SHA-256 over (format, stage name, relevant knob values, params, upstream).

    Only the knobs the stage *declares* enter the digest, so sweeping a knob
    that affects nothing before stage *k* leaves stages ``< k`` fingerprints
    — and their cache entries — intact (e.g. a ``layout_score`` sweep reuses
    everything up to ``on_disk_creation``).
    """
    knobs = config.to_knobs()
    document = {
        "format": PIPELINE_FORMAT_VERSION,
        "stage": stage.name,
        "knobs": {name: knobs[name] for name in sorted(stage.config_knobs)},
        "params": stage.params,
        "upstream": upstream,
    }
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
