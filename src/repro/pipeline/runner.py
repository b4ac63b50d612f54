"""The :class:`Pipeline`: validated stage wiring, timing, caching, resume.

``Pipeline.run`` executes its stages in order against one
:class:`~repro.pipeline.context.GenerationContext`:

1. wiring is validated (every declared ``requires`` satisfied upstream,
   generation stages before post-generation stages);
2. per-stage fingerprints are chained (:mod:`repro.pipeline.stage`);
3. with a :class:`~repro.pipeline.cache.StageCache`, the deepest cached
   generation stage is restored and only the remainder runs — a full hit
   skips generation entirely;
4. the :class:`~repro.core.image.FileSystemImage` is assembled and the
   reproducibility report finalised exactly as the historical monolithic
   generator did;
5. post-generation stages (trace replay, aging, bench drivers) run against
   the finished image.

:func:`default_pipeline` builds the paper's six-phase sequence;
:func:`image_fingerprint` digests the deterministic identity of a generated
image (used by the golden-equivalence test and the CI cache smoke job).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.config import ImpressionsConfig
from repro.core.image import FileSystemImage
from repro.obs import core as obs_core
from repro.pipeline.cache import StageCache, config_cache_safe
from repro.pipeline.context import GenerationContext
from repro.pipeline.stage import Stage, StageWiringError

__all__ = [
    "Pipeline",
    "PipelineResult",
    "StageExecution",
    "default_pipeline",
    "image_fingerprint",
]


@dataclass(frozen=True)
class StageExecution:
    """What happened to one stage during a run."""

    name: str
    fingerprint: str
    seconds: float
    cached: bool
    post_generation: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "seconds": self.seconds,
            "cached": self.cached,
            "post_generation": self.post_generation,
        }


@dataclass
class PipelineResult:
    """Everything one ``Pipeline.run`` produced."""

    image: FileSystemImage
    context: GenerationContext
    executions: list[StageExecution] = field(default_factory=list)
    cache_enabled: bool = False
    cache_stores: int = 0

    @property
    def generation_executions(self) -> list[StageExecution]:
        return [execution for execution in self.executions if not execution.post_generation]

    @property
    def cache_hits(self) -> int:
        """Generation stages satisfied from the cache this run."""
        return sum(1 for execution in self.generation_executions if execution.cached)

    @property
    def cache_misses(self) -> int:
        """Generation stages that had to execute this run."""
        return sum(1 for execution in self.generation_executions if not execution.cached)

    @property
    def generation_cached(self) -> bool:
        """True when every generation stage was restored from the cache."""
        executions = self.generation_executions
        return bool(executions) and all(execution.cached for execution in executions)

    def cache_summary(self) -> dict:
        return {
            "enabled": self.cache_enabled,
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "stores": self.cache_stores,
            "generated": not self.generation_cached,
        }

    def as_dict(self) -> dict:
        return {
            "stages": [execution.as_dict() for execution in self.executions],
            "cache": self.cache_summary(),
        }


class Pipeline:
    """An ordered, validated sequence of stages."""

    def __init__(self, stages: Sequence[Stage]) -> None:
        self.stages = list(stages)
        self.validate()

    # Introspection --------------------------------------------------------------

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def fingerprints(self, config: ImpressionsConfig) -> list[str]:
        """The chained fingerprint of every stage for ``config``, in order."""
        out: list[str] = []
        upstream: str | None = None
        for stage in self.stages:
            upstream = stage.fingerprint(config, upstream)
            out.append(upstream)
        return out

    def describe(self, config: ImpressionsConfig | None = None) -> list[dict]:
        """Static stage rows (plus fingerprints when a config is given)."""
        rows = [stage.describe() for stage in self.stages]
        if config is not None:
            for row, fingerprint in zip(rows, self.fingerprints(config)):
                row["fingerprint"] = fingerprint
        return rows

    # Construction helpers -------------------------------------------------------

    def subset(self, names: Iterable[str]) -> "Pipeline":
        """A pipeline of just the named stages, in this pipeline's order.

        The subset is re-validated, so dropping a stage another one requires
        (e.g. keeping ``depth_and_placement`` without ``directory_structure``)
        fails loudly instead of producing a broken image.
        """
        wanted = list(names)
        unknown = sorted(set(wanted) - set(self.stage_names))
        if unknown:
            raise StageWiringError(
                f"unknown stage(s) {unknown}; this pipeline has {list(self.stage_names)}"
            )
        return Pipeline([stage for stage in self.stages if stage.name in set(wanted)])

    def extended(self, extra: Iterable[Stage]) -> "Pipeline":
        """A new pipeline with ``extra`` stages appended."""
        return Pipeline(self.stages + list(extra))

    # Validation -----------------------------------------------------------------

    def validate(self) -> None:
        """Check stage wiring; raises :class:`StageWiringError` on problems."""
        if not self.stages:
            raise StageWiringError("a pipeline needs at least one stage")
        generation = [stage for stage in self.stages if not stage.post_generation]
        seen_post = False
        names_seen: set[str] = set()
        for stage in self.stages:
            if stage.post_generation:
                seen_post = True
            elif seen_post:
                raise StageWiringError(
                    f"generation stage {stage.name!r} appears after a post-generation "
                    "stage; generation stages must all come first"
                )
            if not stage.post_generation:
                if stage.name in names_seen:
                    raise StageWiringError(f"duplicate generation stage name {stage.name!r}")
                names_seen.add(stage.name)

        # Post-generation stages record metrics under their effective label;
        # two stages sharing one label would silently overwrite each other.
        labels_seen: set[str] = set()
        for stage in self.stages:
            if not stage.post_generation:
                continue
            label = str(getattr(stage, "label", stage.name))
            if label in labels_seen:
                raise StageWiringError(
                    f"duplicate post-generation stage label {label!r}; give each "
                    "instance a distinct 'label' param"
                )
            labels_seen.add(label)

        if generation and not any("tree" in stage.provides for stage in generation):
            raise StageWiringError(
                "pipeline provides no 'tree' artifact; include the "
                "'directory_structure' stage (images need a namespace)"
            )

        available: set[str] = set()
        for stage in self.stages:
            if stage.post_generation:
                # The pipeline itself provides 'image' between the generation
                # stages and the post-generation stages.
                available.add("image")
            missing = sorted(set(stage.requires) - available)
            if missing:
                raise StageWiringError(
                    f"stage {stage.name!r} requires {missing} but upstream stages "
                    f"only provide {sorted(available)}"
                )
            available.update(stage.provides)

    # Execution ------------------------------------------------------------------

    def run(
        self,
        config: ImpressionsConfig,
        *,
        cache: StageCache | None = None,
        progress: Callable[[str], None] | None = None,
        telemetry: "obs_core.Telemetry | None" = None,
    ) -> PipelineResult:
        """Run every stage and return the result bundle.

        Args:
            config: the image configuration.
            cache: optional stage cache; silently disabled for configs whose
                identity exceeds the knob view (see
                :func:`~repro.pipeline.cache.config_cache_safe`).
            progress: optional callback receiving one line per stage.
            telemetry: optional :class:`repro.obs.Telemetry`; defaults to the
                context-bound one (:func:`repro.obs.current`), so a
                ``with obs.use(...)`` around the call observes the run.  Every
                stage is a span (``cached`` marked) whose duration is the
                stage's recorded seconds; cache events become counters and
                the run binds the telemetry for post stages (replay,
                materialize) to pick up.
        """
        tele = obs_core.resolve(telemetry)
        with obs_core.use(tele):
            with tele.span("pipeline", stages=str(len(self.stages))):
                result = self._run_stages(config, cache=cache, progress=progress, tele=tele)
        # Fold the summary in only after the root span closed, so the report
        # sees the pipeline span's real duration.
        report = result.image.report
        if report is not None:
            from repro.obs.export import summary_dict

            report.record_telemetry(summary_dict(tele))
        return result

    def _run_stages(
        self,
        config: ImpressionsConfig,
        *,
        cache: StageCache | None,
        progress: Callable[[str], None] | None,
        tele: "obs_core.Telemetry",
    ) -> PipelineResult:
        context = GenerationContext.create(config)
        generation = [stage for stage in self.stages if not stage.post_generation]
        post = [stage for stage in self.stages if stage.post_generation]
        use_cache = cache is not None and config_cache_safe(config)
        stages_total = tele.counter(
            "pipeline_stages_total", "pipeline stages by outcome", labels=("stage", "outcome")
        )

        fingerprints = self.fingerprints(config)
        generation_fps = fingerprints[: len(generation)]

        # Resume from the deepest cached generation stage, if any.
        stage_timings: dict[str, float] = {}
        resume_index = -1
        cache_stats_before = dict(cache.stats.as_dict()) if use_cache else {}
        if use_cache:
            assert cache is not None
            with tele.span("cache_probe"):
                for index in reversed(range(len(generation))):
                    if not generation[index].cacheable:
                        continue
                    state = cache.load(generation_fps[index])
                    if state is not None:
                        stage_timings.update(context.restore(state))
                        resume_index = index
                        break

        executions: list[StageExecution] = []
        stores = 0
        for index, stage in enumerate(generation):
            if index <= resume_index:
                seconds = stage_timings.get(stage.name, 0.0)
                self._record_timing(context, stage.name, seconds)
                executions.append(
                    StageExecution(stage.name, generation_fps[index], seconds, True, False)
                )
                # Zero-duration marker span: the stage was restored, not run.
                with tele.span(stage.name, stage=stage.name, cached="true",
                               phase="generation"):
                    pass
                stage.publish(context)
                stages_total.inc(stage=stage.name, outcome="cached")
                if progress:
                    progress(f"cached {stage.name} ({generation_fps[index][:12]})")
                continue
            with tele.span(
                stage.name, stage=stage.name, cached="false", phase="generation"
            ) as record:
                stage.run(context)
                context.provide(*stage.provides)
            stage.publish(context)
            seconds = record.wall_seconds
            stage_timings[stage.name] = seconds
            self._record_timing(context, stage.name, seconds)
            executions.append(
                StageExecution(stage.name, generation_fps[index], seconds, False, False)
            )
            stages_total.inc(stage=stage.name, outcome="run")
            if progress:
                progress(f"run    {stage.name} ({seconds:.3f}s)")
            if use_cache and stage.cacheable:
                assert cache is not None
                with tele.span("cache_store", stage=stage.name):
                    cache.store(generation_fps[index], context.snapshot(stage_timings))
                stores += 1

        image = self._assemble(context, executions)
        result = PipelineResult(
            image=image,
            context=context,
            executions=executions,
            cache_enabled=use_cache,
            cache_stores=stores,
        )
        image.extras["pipeline"] = result.as_dict()

        for offset, stage in enumerate(post):
            fingerprint = fingerprints[len(generation) + offset]
            with tele.span(stage.name, stage=stage.name, cached="false", phase="post") as record:
                stage.run(context)
            seconds = record.wall_seconds
            executions.append(StageExecution(stage.name, fingerprint, seconds, False, True))
            stages_total.inc(stage=stage.name, outcome="run")
            if progress:
                progress(f"run    {stage.name} ({seconds:.3f}s)")
        if post:
            # Refresh the recorded view now that post stages added executions
            # and possibly metrics.
            image.extras["pipeline"] = result.as_dict()

        self._record_telemetry(tele, result, cache if use_cache else None, cache_stats_before)
        return result

    # Internals ------------------------------------------------------------------

    @staticmethod
    def _record_telemetry(
        tele: "obs_core.Telemetry",
        result: PipelineResult,
        cache: StageCache | None,
        cache_stats_before: dict,
    ) -> None:
        """Fold run-level counters/gauges and the report summary in."""
        events = tele.counter(
            "pipeline_cache_events_total",
            "stage cache events (probe hits/misses, stores, corrupt evictions)",
            labels=("event",),
        )
        if cache is not None:
            for event, value in cache.stats.as_dict().items():
                delta = value - cache_stats_before.get(event, 0)
                if delta > 0:
                    events.inc(delta, event=event)
        # Restored generation stages (the resume depth) — distinct from probe
        # hits: one probe hit can restore several upstream stages at once.
        if result.cache_hits:
            events.inc(result.cache_hits, event="restored_stages")

        report = result.image.report
        derived = report.derived if report is not None else {}
        gauges = (
            ("image_files", "files in the generated image", "file_count"),
            ("image_directories", "directories in the generated image", "directory_count"),
            ("image_bytes", "total apparent bytes in the image", "total_bytes"),
            ("image_layout_score", "achieved layout score", "layout_score"),
        )
        for name, help_text, key in gauges:
            if key in derived:
                tele.gauge(name, help_text).set(float(derived[key]))

    @staticmethod
    def _record_timing(context: GenerationContext, name: str, seconds: float) -> None:
        timings = context.timings
        if hasattr(timings, name) and not name.startswith("_") and name != "extras":
            setattr(timings, name, seconds)
        else:
            timings.extras[name] = seconds

    def _assemble(
        self, context: GenerationContext, executions: list[StageExecution]
    ) -> FileSystemImage:
        """Build the image and finalise the report (the monolith's epilogue)."""
        tree = context.tree
        if tree is None:
            raise StageWiringError("cannot assemble an image: no stage built the tree")
        report = context.report
        for execution in executions:
            report.record_timing(execution.name, execution.seconds)
        report.record_timing("total", context.timings.total)
        report.record_derived("file_count", tree.file_count)
        report.record_derived("directory_count", tree.directory_count)
        report.record_derived("total_bytes", tree.total_bytes)

        image = FileSystemImage(
            tree=tree,
            disk=context.disk,
            content_generator=context.content_generator,
            content_seed=context.content_seed,
            report=report,
        )
        report.record_derived("layout_score", image.achieved_layout_score())
        image.extras["timings"] = context.timings
        context.image = image
        context.provide("image")
        return image


def default_pipeline(extra_stages: Iterable[Stage] | None = None) -> Pipeline:
    """The paper's six-phase generation sequence, optionally extended.

    ``extra_stages`` are appended after the generation phases — the natural
    place for registered post-generation stages (trace replay, aging, bench).
    """
    from repro.pipeline.stages import GENERATION_STAGES

    stages: list[Stage] = [stage_class() for stage_class in GENERATION_STAGES]
    if extra_stages is not None:
        stages.extend(extra_stages)
    return Pipeline(stages)


def image_fingerprint(image: FileSystemImage) -> str:
    """SHA-256 digest of an image's deterministic identity.

    Covers the namespace (paths, sizes, extensions, content kinds), the block
    layout (first block per file), the achieved layout score, the content
    seed and the report's deterministic sections.  Wall-clock timings and the
    (optionally nondeterministic) ``timestamp_now`` are excluded, so two runs
    of one config — monolithic facade, fresh pipeline, or cache restore —
    digest identically.
    """
    report = image.report
    derived = {}
    if report is not None:
        derived = {k: v for k, v in report.derived.items() if k != "timestamp_now"}
    # One directory walk gives every path; the summary's layout score is the
    # achieved one.
    tree = image.tree
    directory_paths = tree.directory_paths()
    file_paths = tree.file_paths(directory_paths)
    summary = image.summary(file_paths)
    document = {
        "files": [
            (path, f.size, f.extension, f.first_block, f.content_kind)
            for f, path in zip(tree.files, file_paths)
        ],
        "dirs": sorted(directory_paths.values()),
        "layout": summary["layout_score"],
        "content_seed": image.content_seed,
        "derived": derived,
        "summary": summary,
    }
    canonical = json.dumps(document, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
