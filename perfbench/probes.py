"""Outside-in probes: span wrappers around the public entry points of each layer.

:class:`Probes` patches the entry points listed in :func:`_targets` with
:meth:`Recorder.wrap` for the duration of a traced round and restores the
originals afterwards, so untraced rounds run the unmodified program.  Worker
processes forked while probes are installed inherit the wrappers but their
spans stay in the child; the parent sees only its own fan-out span.

:func:`per_layer` turns the recorded spans into the per-layer metrics: the
ones every workload exercises (:data:`COMMON_METRICS`, the ``per_layer`` list
of ``BENCHMARK.json``) plus the layers only some workloads reach.
"""

from __future__ import annotations

from perfbench.recorder import Recorder

TEXT_KINDS = ("text", "html", "script", "document")

STAGES = (
    "directory_structure",
    "file_sizes",
    "extensions",
    "depth_and_placement",
    "content",
    "on_disk_creation",
)

#: Per-layer metrics that are nonzero on every workload (name -> unit).
#: ``layout.temp_ops`` is not: a layout score of 1.0 needs no temporary files.
COMMON_METRICS = {
    **{f"pipeline.{stage}_s": "s" for stage in STAGES},
    "pipeline.overhead_s": "s",
    "namespace.place_calls": "count",
    "namespace.place_us_per_file": "us",
    "namespace.choose_depth_s": "s",
    "namespace.choose_parent_s": "s",
    "namespace.create_file_s": "s",
    "namespace.tree_s": "s",
    "namespace.depth_mdcc": "ratio",
    "metadata.sizes_s": "s",
    "metadata.extensions_s": "s",
    "metadata.names_s": "s",
    "metadata.size_ks_d": "ratio",
    "layout.allocate_s": "s",
    "layout.allocate_calls": "count",
    "layout.disk_allocate_us": "us",
    "layout.extents_per_file": "ratio",
    "bench.trace_overhead_ratio": "ratio",
}


def _targets() -> list[tuple[object, str, str, bool]]:
    """``(owner, attribute, span name, keep as event)`` per probed entry point."""
    import repro.materialize as materialize
    import repro.materialize.base as materialize_base
    import repro.shard.merge as shard_merge
    import repro.shard.worker as shard_worker
    import repro.trace.synthesize as synthesize
    from repro.layout.disk import SimulatedDisk
    from repro.layout.fragmenter import Fragmenter
    from repro.materialize.base import FileStream
    from repro.materialize.sinks import DirectorySink, TarSink
    from repro.metadata.extensions import ExtensionPopularityModel
    from repro.metadata.names import NameGenerator
    from repro.namespace.generative_model import GenerativeTreeModel
    from repro.namespace.placement import FilePlacer
    from repro.namespace.tree import FileSystemTree
    from repro.pipeline.cache import StageCache
    from repro.pipeline.runner import Pipeline
    from repro.pipeline.stages import GENERATION_STAGES
    from repro.stats.distributions import HybridLognormalPareto, LognormalDistribution
    from repro.trace.aging import TraceAger
    from repro.trace.replay import TraceReplayer

    return [
        (Pipeline, "run", "pipeline.run", True),
        *[(stage, "run", f"pipeline.{stage.name}", True) for stage in GENERATION_STAGES],
        (StageCache, "load", "pipeline.cache_load", True),
        (StageCache, "store", "pipeline.cache_store", True),
        (GenerativeTreeModel, "generate", "namespace.tree", True),
        (FilePlacer, "place", "namespace.place", False),
        (FilePlacer, "choose_depth", "namespace.choose_depth", False),
        (FilePlacer, "choose_parent", "namespace.choose_parent", False),
        (FileSystemTree, "create_file", "namespace.create_file", False),
        (HybridLognormalPareto, "sample", "metadata.sizes", True),
        (LognormalDistribution, "sample", "metadata.sizes", True),
        (ExtensionPopularityModel, "sample_extensions", "metadata.extensions", True),
        (NameGenerator, "next_file_name", "metadata.names", False),
        (Fragmenter, "allocate_regular_file", "layout.allocate", False),
        (SimulatedDisk, "allocate_extents", "layout.disk_allocate", False),
        (SimulatedDisk, "extend_extents", "layout.disk_extend", False),
        (SimulatedDisk, "free", "layout.disk_free", False),
        (SimulatedDisk, "delete", "layout.disk_free", False),
        (materialize_base, "materialize_image", "materialize.run", True),
        (materialize, "materialize_image", "materialize.run", True),
        (DirectorySink, "add_file", "materialize.dir.files", False),
        (DirectorySink, "finalize", "materialize.dir.finalize", True),
        (TarSink, "add_file", "materialize.tar.files", False),
        (TarSink, "finalize", "materialize.tar.finalize", True),
        (FileStream, "ensure_digest", "materialize.digest", False),
        (shard_worker, "build_plan", "shard.plan", True),
        (shard_merge, "merge_shards", "shard.merge", True),
        (TraceReplayer, "replay", "trace.replay", True),
        (TraceAger, "age", "trace.age", True),
        (synthesize, "synthesize_zipf_mix", "trace.synth_zipf", True),
        (synthesize, "synthesize_churn", "trace.synth_churn", True),
    ]


class Probes:
    """Installs and removes the span wrappers around the probed entry points."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        from repro.content.generators import ContentGenerator
        from repro.layout.fragmenter import Fragmenter

        recorder = self.recorder
        self.missing = []
        for owner, attribute, name, keep in _targets():
            original = vars(owner).get(attribute)
            if original is None:
                self.missing.append(f"{getattr(owner, '__name__', owner)}.{attribute}")
                continue
            self._patch(owner, attribute, recorder.wrap(original, name, keep))

        finish = Fragmenter.finish

        def counted_finish(fragmenter):
            recorder.count("layout.temp_ops", fragmenter.temporary_operations)
            return finish(fragmenter)

        self._patch(Fragmenter, "finish", counted_finish)

        iter_chunks = ContentGenerator.iter_chunks

        def timed_chunks(generator, size, extension, rng, *args, **kwargs):
            # Each next() is its own span, so the time is the content layer's
            # alone and not that of the sink consuming the chunks.
            kind = "text" if generator.content_kind(extension) in TEXT_KINDS else "binary"
            name = f"content.{kind}"
            chunks = iter_chunks(generator, size, extension, rng, *args, **kwargs)
            while True:
                recorder.begin(name, False)
                try:
                    chunk = next(chunks, None)
                finally:
                    recorder.end()
                if chunk is None:
                    return
                recorder.count(f"{name}_bytes", len(chunk))
                yield chunk

        self._patch(ContentGenerator, "iter_chunks", timed_chunks)

        import repro.materialize.sinks as sinks
        import repro.shard.worker as shard_worker

        # A process pool's lifetime, from creation to the exit of its ``with``
        # block, is the fan-out span: the parent's view of its workers.
        for module, name in ((shard_worker, "shard.fanout"), (sinks, "materialize.dir.fanout")):
            if "ProcessPoolExecutor" in vars(module):
                self._patch(module, "ProcessPoolExecutor",
                            _spanned_pool(module.ProcessPoolExecutor, recorder, name))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved = []

    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._saved.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, replacement)


def _spanned_pool(pool_class: type, recorder: Recorder, name: str) -> type:
    class SpannedPool(pool_class):
        def __enter__(self):
            pool = super().__enter__()
            recorder.begin(name)
            return pool

        def __exit__(self, *exc_info):
            try:
                return super().__exit__(*exc_info)
            finally:
                recorder.end()

    return SpannedPool


def leg_layers(recorder: Recorder) -> dict[str, dict[str, float]]:
    """Self seconds per layer under each root span (a leg or a set-up).

    The root's own self time (not covered by any probe) is the ``bench``
    layer: the benchmark's own work around the calls into the program.
    """
    out: dict[str, dict[str, float]] = {}
    for (root, name), (_, _, self_seconds) in recorder.totals.items():
        layer = "bench" if name == root else name.split(".", 1)[0]
        layers = out.setdefault(root, {})
        layers[layer] = layers.get(layer, 0.0) + self_seconds
    return out


def per_layer(
    recorder: Recorder,
    *,
    rounds: int,
    overhead_ratio: float,
    workload_metrics: dict[str, tuple[float, str]],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    Generation metrics are per cold generation (the number of executed
    ``depth_and_placement`` stages, in set-ups and legs alike), call costs
    are per call, and the rest is what the legs did per traced round (each
    round runs every leg once).
    """
    calls: dict[str, int] = {}
    seconds: dict[str, float] = {}
    self_seconds: dict[str, float] = {}
    in_legs: dict[str, list] = {}
    for (root, name), (count, total, own) in recorder.totals.items():
        calls[name] = calls.get(name, 0) + count
        seconds[name] = seconds.get(name, 0.0) + total
        self_seconds[name] = self_seconds.get(name, 0.0) + own
        if root.startswith("leg."):
            row = in_legs.setdefault(name, [0, 0.0])
            row[0] += count
            row[1] += total

    def mean(name: str, scale: float = 1.0) -> float:
        return seconds.get(name, 0.0) / calls[name] * scale if calls.get(name) else 0.0

    generations = max(calls.get("pipeline.depth_and_placement", 0), 1)
    rounds = max(rounds, 1)

    def per_round(name: str) -> tuple[float, float]:
        count, total = in_legs.get(name, (0, 0.0))
        return count / rounds, total / rounds

    counters = recorder.counters
    out: dict[str, tuple[float, str]] = {}
    for stage in STAGES:
        out[f"pipeline.{stage}_s"] = (mean(f"pipeline.{stage}"), "s")
    out["pipeline.overhead_s"] = (
        self_seconds.get("pipeline.run", 0.0) / max(calls.get("pipeline.run", 0), 1),
        "s",
    )
    out["namespace.place_calls"] = (calls.get("namespace.place", 0) / generations, "count")
    out["namespace.place_us_per_file"] = (mean("namespace.place", 1e6), "us")
    for name in ("choose_depth", "choose_parent", "create_file"):
        out[f"namespace.{name}_s"] = (seconds.get(f"namespace.{name}", 0.0) / generations, "s")
    out["namespace.tree_s"] = (mean("namespace.tree"), "s")
    for name in ("sizes", "extensions", "names"):
        out[f"metadata.{name}_s"] = (seconds.get(f"metadata.{name}", 0.0) / generations, "s")
    out["layout.allocate_s"] = (seconds.get("layout.allocate", 0.0) / generations, "s")
    out["layout.allocate_calls"] = (calls.get("layout.allocate", 0) / generations, "count")
    out["layout.temp_ops"] = (counters.get("layout.temp_ops", 0) / generations, "count")
    out["layout.disk_allocate_us"] = (mean("layout.disk_allocate", 1e6), "us")
    for name in ("allocate", "extend", "free"):
        count, total = per_round(f"layout.disk_{name}")
        out[f"layout.disk_{name}_calls"] = (count, "count")
        out[f"layout.disk_{name}_s"] = (total, "s")
    out["pipeline.cache_load_s"] = (mean("pipeline.cache_load"), "s")
    out["pipeline.cache_store_s"] = (mean("pipeline.cache_store"), "s")
    for kind in ("text", "binary"):
        spent = seconds.get(f"content.{kind}", 0.0)
        moved = counters.get(f"content.{kind}_bytes", 0)
        out[f"content.{kind}_s"] = (per_round(f"content.{kind}")[1], "s")
        out[f"content.{kind}_bytes"] = (moved / rounds, "bytes")
        out[f"content.{kind}_MBps"] = (moved / spent / 1e6 if spent else 0.0, "MB/s")
    for name in ("dir.files", "dir.finalize", "tar.files", "tar.finalize", "digest"):
        out[f"materialize.{name}_s"] = (per_round(f"materialize.{name}")[1], "s")
    for name in ("plan", "merge"):
        out[f"shard.{name}_s"] = (per_round(f"shard.{name}")[1], "s")
    for name in ("synth_zipf", "synth_churn"):
        out[f"trace.{name}_s"] = (mean(f"trace.{name}"), "s")
    out["trace.age_s"] = (mean("trace.age"), "s")
    out["bench.trace_overhead_ratio"] = (overhead_ratio, "ratio")
    out.update(workload_metrics)
    return out
