"""Stage registry: name → stage factory, plus the post-generation stages.

The registry makes pipelines declarative — a name list is enough to build
one — and is the one home of work that runs on a finished image: workload
simulators, trace replay, trace-driven aging, bench drivers, materialization
and sharded re-generation.  They are ordinary
:class:`~repro.pipeline.stage.Stage` subclasses flagged ``post_generation``,
so the pipeline runs them against the assembled image with the same timing,
fingerprinting and progress treatment as the generation phases.

Campaign scenarios (:mod:`repro.campaign`) name post-generation stages as
their steps and run each through :func:`run_post_stage` — the RT-Bench idea
of one extensible harness with uniform result collection; a project-specific
step is a :class:`PostGenerationStage` subclass registered with
:func:`register_stage`.  Every post-generation stage returns a flat mapping
of metric name → JSON scalar that must be **deterministic** (a pure function
of image, config and params): wall-clock times are measured by the caller
and stored separately, so campaign result rows stay byte-comparable across
runs.

Post-generation stages record their metrics under
``context.metrics[label]`` where ``label`` defaults to the stage name and can
be overridden with a ``label`` param (several instances of one stage can then
coexist in a pipeline).
"""

from __future__ import annotations

import importlib
from typing import Callable, Mapping

import numpy as np

from repro.core.config import ImpressionsConfig
from repro.core.image import FileSystemImage
from repro.pipeline.context import GenerationContext
from repro.pipeline.stage import PipelineError, Stage
from repro.pipeline.stages import GENERATION_STAGES, require_image
from repro.trace.aging import TraceAger
from repro.trace.ops import merge_traces
from repro.trace.replay import ReplayResult, TraceReplayer
from repro.trace.synthesize import (
    ChurnSpec,
    MetadataStormSpec,
    ZipfMixSpec,
    synthesize_churn,
    synthesize_metadata_storm,
    synthesize_zipf_mix,
)
from repro.workloads.find import FindSimulator
from repro.workloads.grep import GrepSimulator

__all__ = [
    "register_stage",
    "get_stage_factory",
    "build_stage",
    "stage_names",
    "post_stage_names",
    "run_post_stage",
    "replay_metrics",
    "synthesize_trace",
    "PostGenerationStage",
    "SummaryStage",
    "FindStage",
    "GrepStage",
    "TraceReplayStage",
    "MergedReplayStage",
    "AgingStage",
    "BenchStage",
    "MaterializeStage",
    "ShardedGenerateStage",
]

StageFactory = Callable[[Mapping[str, object] | None], Stage]

_REGISTRY: dict[str, StageFactory] = {}


def register_stage(stage_class: type[Stage]) -> type[Stage]:
    """Class decorator registering ``stage_class`` under its ``name``."""
    name = stage_class.name
    if not name:
        raise ValueError(f"stage class {stage_class.__name__} declares no name")
    if name in _REGISTRY:
        raise ValueError(f"stage {name!r} is already registered")
    _REGISTRY[name] = stage_class
    return stage_class


def get_stage_factory(name: str) -> StageFactory:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown stage {name!r}; registered stages: {stage_names()}"
        ) from None


def build_stage(name: str, params: Mapping[str, object] | None = None) -> Stage:
    """Instantiate the registered stage called ``name`` with ``params``."""
    return get_stage_factory(name)(params)


def stage_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def post_stage_names() -> tuple[str, ...]:
    """Names of the registered post-generation stages: the campaign steps."""
    return tuple(name for name in stage_names() if _REGISTRY[name].post_generation)


for _stage_class in GENERATION_STAGES:
    register_stage(_stage_class)


# Post-generation stages -------------------------------------------------------


def synthesize_trace(kind: str, image: FileSystemImage, ops: int, seed: int, batch_size: int):
    """Build one synthetic trace of ``kind`` against ``image`` (shared helper)."""
    if kind == "zipf":
        return synthesize_zipf_mix(image, ZipfMixSpec(num_ops=ops, batch_size=batch_size), seed=seed)
    if kind == "churn":
        return synthesize_churn(ChurnSpec(num_ops=ops, batch_size=batch_size), seed=seed)
    if kind == "storm":
        return synthesize_metadata_storm(
            MetadataStormSpec(num_dirs=10, files_per_dir=max(1, ops // 40), batch_size=batch_size),
            seed=seed,
        )
    raise ValueError(f"unknown trace kind {kind!r}; expected zipf, churn, or storm")


def replay_metrics(result: ReplayResult) -> dict:
    """Flatten a :class:`ReplayResult` into the shared scalar metric set."""
    return {
        "executed": result.executed,
        "skipped": result.skipped,
        "simulated_ms": result.simulated_ms,
        "cache_hit_ratio": result.cache_hit_ratio,
        "simulated_throughput_ops_s": result.simulated_throughput_ops_s,
    }


class PostGenerationStage(Stage):
    """Base for stages that run against the finished image."""

    post_generation = True
    cacheable = False
    requires = ("image",)

    @property
    def label(self) -> str:
        return str(self.params.get("label", self.name))

    def run(self, context: GenerationContext) -> None:
        require_image(context)
        assert context.image is not None
        metrics = self.execute(context.image, context.config)
        context.metrics[self.label] = dict(metrics)

    def execute(self, image: FileSystemImage, config: ImpressionsConfig) -> Mapping[str, object]:
        raise NotImplementedError


@register_stage
class SummaryStage(PostGenerationStage):
    """Image shape: file/directory counts, total bytes, achieved layout score."""

    name = "summary"

    def execute(self, image: FileSystemImage, config: ImpressionsConfig) -> dict:
        summary = image.summary()
        return {key: summary[key] for key in ("files", "directories", "total_bytes", "layout_score")}


@register_stage
class FindStage(PostGenerationStage):
    """``find`` traversal (params: ``pattern``, ``warm_cache``, ``label``)."""

    name = "find"

    def execute(self, image: FileSystemImage, config: ImpressionsConfig) -> dict:
        simulator = FindSimulator(image)
        if self.params.get("warm_cache"):
            simulator.warm_cache()
        result = simulator.run(self.params.get("pattern", "target"))
        return {
            "elapsed_ms": result.elapsed_ms,
            "directories_visited": result.directories_visited,
            "entries_examined": result.entries_examined,
            "cache_hit_ratio": result.cache_hit_ratio,
        }


@register_stage
class GrepStage(PostGenerationStage):
    """``grep`` content scan (params: ``warm_cache``, ``label``)."""

    name = "grep"

    def execute(self, image: FileSystemImage, config: ImpressionsConfig) -> dict:
        simulator = GrepSimulator(image)
        if self.params.get("warm_cache"):
            simulator.warm_cache()
        result = simulator.run()
        return {
            "elapsed_ms": result.elapsed_ms,
            "files_scanned": result.files_scanned,
            "files_skipped_binary": result.files_skipped_binary,
            "bytes_read": result.bytes_read,
            "cache_hit_ratio": result.cache_hit_ratio,
        }


@register_stage
class TraceReplayStage(PostGenerationStage):
    """Synthesize a trace and replay it against the image.

    Params: ``kind`` ∈ zipf|churn|storm, ``ops``, ``seed_offset``,
    ``batch_size``, ``warm_cache``, ``label``.
    """

    name = "trace_replay"
    provides = ("replay_stats",)
    config_knobs = ("seed",)

    def execute(self, image: FileSystemImage, config: ImpressionsConfig) -> dict:
        params = self.params
        kind = str(params.get("kind", "zipf"))
        ops = int(params.get("ops", 5_000))
        seed = config.seed + int(params.get("seed_offset", 0))
        trace = synthesize_trace(kind, image, ops, seed, int(params.get("batch_size", 64)))
        replayer = TraceReplayer(image)
        if params.get("warm_cache"):
            replayer.warm_cache()
        return replay_metrics(replayer.replay(trace))


@register_stage
class MergedReplayStage(PostGenerationStage):
    """Replay several clients' traces interleaved into one stream.

    Params: ``clients`` (default 2), ``kind`` ∈ zipf|churn|storm (default
    ``churn``), ``ops`` per client, ``seed_offset``, ``label``.  Client *i*
    synthesizes with seed ``config.seed + seed_offset + i``; the merged
    replay reports the shared metric set plus each client's executed count
    and simulated cost.
    """

    name = "merged_replay"
    config_knobs = ("seed",)

    def execute(self, image: FileSystemImage, config: ImpressionsConfig) -> dict:
        params = self.params
        clients = int(params.get("clients", 2))
        if clients < 1:
            raise ValueError("merged_replay needs at least one client")
        kind = params.get("kind", "churn")
        ops = int(params.get("ops", 5_000))
        base_seed = config.seed + int(params.get("seed_offset", 0))
        traces = []
        for index in range(clients):
            if kind == "churn":
                # Per-client name prefixes keep the clients from colliding on
                # freshly created paths while still sharing the image namespace.
                spec = ChurnSpec(num_ops=ops, name_prefix=f"/churn/c{index}/f")
                traces.append(synthesize_churn(spec, seed=base_seed + index))
            else:
                traces.append(synthesize_trace(kind, image, ops, base_seed + index, 64))
        result = TraceReplayer(image).replay(merge_traces(*traces))
        metrics = replay_metrics(result)
        metrics["clients"] = clients
        for client, stats in sorted(result.per_client.items()):
            metrics[f"{client}_executed"] = stats.count
            metrics[f"{client}_simulated_ms"] = stats.total_ms
        return metrics


@register_stage
class AgingStage(PostGenerationStage):
    """Trace-driven aging of the image to a target layout score.

    Params: ``target_score`` (required), ``seed_offset``, ``label``.
    """

    name = "age"
    provides = ("aging_stats",)
    config_knobs = ("seed",)

    def execute(self, image: FileSystemImage, config: ImpressionsConfig) -> dict:
        target = self.params.get("target_score")
        if target is None:
            raise PipelineError("age stage requires a 'target_score' param")
        seed = config.seed + int(self.params.get("seed_offset", 0))
        ager = TraceAger(image, float(target), np.random.default_rng(seed))
        result = ager.age()
        return {
            "initial_score": result.initial_score,
            "achieved_score": result.achieved_score,
            "target_score": result.target_score,
            "score_error": result.error,
            "files_rewritten": result.files_rewritten,
            "operations": len(result.trace),
        }


@register_stage
class BenchStage(PostGenerationStage):
    """Run a :mod:`repro.bench` driver's ``run()`` and report its scalars.

    Params: ``driver`` (module name in ``repro.bench``) plus the driver's own
    keyword arguments, and ``label``.  Bench drivers generate their own
    images; the surrounding image is context only.
    """

    name = "bench"
    provides = ("bench_stats",)

    def execute(self, image: FileSystemImage, config: ImpressionsConfig) -> dict:
        params = dict(self.params)
        params.pop("label", None)
        driver_name = params.pop("driver", None)
        if not driver_name or not isinstance(driver_name, str) or "." in driver_name:
            raise PipelineError("bench stage requires a 'driver' module name from repro.bench")
        module = importlib.import_module(f"repro.bench.{driver_name}")
        run = getattr(module, "run", None)
        if run is None:
            raise PipelineError(f"bench driver {driver_name!r} has no run() function")
        result = run(**params)
        metrics: dict[str, object] = {}
        for key, value in result.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            metrics[key] = value
        if not metrics:
            metrics["completed"] = 1
        return metrics


@register_stage
class MaterializeStage(PostGenerationStage):
    """Materialize the finished image through a pluggable sink.

    Params: ``sink`` ∈ dir|tar|manifest|null (default ``null``), ``path``
    (required for every sink but ``null``), ``jobs`` (DirectorySink worker
    processes), ``order`` ∈ namespace|extent, ``write_content`` (tri-state;
    default: only if the image carries a content generator),
    ``digest_content`` (ManifestSink per-file content hashes), ``verify``
    (round-trip verification, on by default), and ``label``.

    Reported metrics are deterministic (entry counts, the order-independent
    content digest, verification outcomes); wall-clock phase timings stay on
    the :class:`~repro.materialize.MaterializeResult` and out of campaign
    result rows, which must be byte-comparable across runs.
    """

    name = "materialize"
    provides = ("materialize_stats",)

    def execute(self, image: FileSystemImage, config: ImpressionsConfig) -> dict:
        from repro.materialize import MaterializeError, build_sink, materialize_image

        params = self.params
        kind = str(params.get("sink", "null"))
        path = params.get("path")
        order = str(params.get("order", "namespace"))
        write_content = params.get("write_content")
        try:
            sink = build_sink(kind, str(path) if path is not None else None,
                              jobs=int(params.get("jobs", 1)),
                              digest_content=bool(params.get("digest_content", False)))
            result = materialize_image(
                image,
                sink,
                order=order,
                write_content=None if write_content is None else bool(write_content),
            )
        except MaterializeError as error:
            raise PipelineError(str(error)) from error
        metrics: dict[str, object] = {
            "files": result.files,
            "directories": result.directories,
            "total_bytes": result.total_bytes,
            "content_digest": result.content_digest,
            "order": result.order,
            "write_content": int(result.write_content),
        }
        for key in ("archive_bytes", "archive_sha256", "manifest_bytes", "lines"):
            if key in result.extras:
                metrics[key] = result.extras[key]
        if params.get("verify", True):
            verification = result.verify(config=config)
            metrics["verify_passed"] = int(verification.passed)
            metrics["verify_source"] = verification.source
            for check in verification.checks:
                metrics[f"verify_{check.name}"] = check.statistic
        return metrics


@register_stage
class ShardedGenerateStage(PostGenerationStage):
    """Re-generate the config in shards and report the merged shape.

    Params: ``shards`` (default 4), ``jobs`` (default 1), ``digest`` (content
    digest of the merged image, on by default), ``label``.  The surrounding
    image is context only.  Every metric is a pure function of the shard
    plan, so ``jobs`` (a pure execution knob) never changes a result row —
    sweeping it is the determinism check.
    """

    name = "sharded_generate"

    def execute(self, image: FileSystemImage, config: ImpressionsConfig) -> dict:
        from repro.shard import generate_sharded

        result = generate_sharded(
            config=config,
            num_shards=int(self.params.get("shards", 4)),
            jobs=int(self.params.get("jobs", 1)),
            digest=bool(self.params.get("digest", True)),
        )
        merged = result.image
        return {
            "shards": result.plan.num_shards,
            "plan_fingerprint": result.plan.fingerprint(),
            "fingerprint": result.fingerprint,
            "content_digest": result.content_digest or "",
            "files": merged.file_count,
            "directories": merged.directory_count,
            "total_bytes": merged.total_bytes,
            "layout_score": merged.achieved_layout_score(),
        }


def run_post_stage(
    name: str,
    image: FileSystemImage,
    config: ImpressionsConfig,
    params: Mapping[str, object] | None = None,
) -> dict:
    """Run one registered post-generation stage against an existing image.

    This is how campaign scenarios run their steps: it wraps ``image`` in a
    context, executes the stage, and returns its recorded metrics.
    """
    stage = build_stage(name, params)
    if not stage.post_generation:
        raise PipelineError(f"stage {name!r} is a generation stage, not a post-generation one")
    context = GenerationContext.for_image(image, config)
    stage.run(context)
    assert isinstance(stage, PostGenerationStage)
    return dict(context.metrics[stage.label])
