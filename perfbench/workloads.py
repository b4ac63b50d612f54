"""The four benchmark workloads.

A workload builds its inputs from the seed (:meth:`Workload.setup`), may warm
up, and then runs its legs in rounds.  A leg makes one call into the public
API of ``repro`` under the :class:`LegClock` and checks the output through
:class:`Checks`.  Each repeat of a leg takes a fraction of a second, so
that a run holds enough repeats for steady medians.  ``legs[0]`` and
``legs[1]`` are the primary and secondary legs, whose work rates are the
``primary_rate`` and ``secondary_rate`` end-to-end metrics; a third leg is
reported in the detail output only.  Primary legs run in this process.  The
image workloads' fan-out legs, whose speed-corrected times vary about twice
as much (:mod:`perfbench.speed` samples only this process), are secondary,
so that the two metrics can have their own bounds.

Load is closed-loop from this one process.  The only parallelism on the
program side is ``JOBS`` worker processes in the shard and directory-sink legs.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import shutil
import statistics
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

import repro.materialize as materialize
import repro.trace.aging as aging
import repro.trace.synthesize as synthesize
from perfbench.speed import SpeedClock
from repro.content.generators import ContentPolicy
from repro.core.config import GIB, MIB, ImpressionsConfig
from repro.core.impressions import Impressions
from repro.obs import Telemetry
from repro.pipeline.cache import StageCache
from repro.pipeline.runner import default_pipeline, image_fingerprint
from repro.shard import generate_sharded
from repro.stats.distributions import LognormalDistribution
from repro.stats.goodness_of_fit import ks_test_one_sample, mdcc_from_fractions
from repro.trace.replay import TraceReplayer
from repro.workloads.cache import BufferCache

JOBS = min(2, os.cpu_count() or 1)
VARIANTS = 3

#: (files, directories, GiB) of the paper's Table 6 images at scale 1.0.
IMAGE1 = (20_000, 4_000, 4.55)
IMAGE2 = (52_000, 4_000, 12.0)


def table6_config(image: tuple, scale: float, seed: int, **overrides) -> ImpressionsConfig:
    files, directories, gib = image
    return ImpressionsConfig(
        fs_size_bytes=max(int(gib * GIB * scale), 8 * MIB),
        num_files=max(int(files * scale), 50),
        num_directories=max(int(directories * scale), 10),
        seed=seed,
        **overrides,
    )


def fidelity(image, config: ImpressionsConfig, checks: "Checks") -> dict[str, float]:
    """How close the image came to its config's depth and size targets.

    Both are deterministic for a seed.  The checks allow for sampling noise,
    which shrinks as 1/sqrt(files): the multiplicative depth model sits about
    0.12 MDCC from the plain Poisson target at every scale measured, and the
    size KS bound is a p-value near 5e-6.
    """
    counts = image.tree.files_by_depth()
    depths = np.arange(max(counts) + 1)
    observed = [counts.get(int(depth), 0) for depth in depths]
    target = np.asarray(config.depth_distribution.pmf(depths), dtype=float)
    sizes = np.asarray(image.tree.file_sizes(), dtype=float)
    values = {
        "depth_mdcc": mdcc_from_fractions(target, observed),
        "size_ks_d": ks_test_one_sample(sizes, config.resolved_size_model().cdf).statistic,
    }
    root_n = math.sqrt(image.file_count)
    checks.check("files-by-depth MDCC within 0.15 + 1.6/sqrt(files)",
                 values["depth_mdcc"] <= 0.15 + 1.6 / root_n)
    checks.check("file-size KS D within 2.5/sqrt(files)", values["size_ks_d"] <= 2.5 / root_n)
    return values


def extents_per_file(image) -> float:
    disk = image.disk
    return disk.total_extents / max(disk.num_files, 1)


def trace_digest(trace) -> int:
    """In-process identity of a trace (operations are frozen dataclasses)."""
    return hash(tuple(trace))


class Checks:
    """Output checks and replay-operation outcomes of one run."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool]] = []
        self.operations = 0
        self.skipped = 0
        self._references: dict[str, object] = {}

    def check(self, name: str, ok: bool) -> None:
        self.results.append((name, bool(ok)))

    def same(self, name: str, value: object) -> None:
        """Check that ``value`` equals the first value recorded under ``name``."""
        if name in self._references:
            self.check(f"{name} is identical across repeats", self._references[name] == value)
        else:
            self._references[name] = value

    def replay(self, leg: str, trace_length: int, result) -> None:
        self.operations += trace_length
        self.skipped += result.skipped
        self.check(f"{leg}: executed + skipped = trace length",
                   result.executed + result.skipped == trace_length)
        self.check(f"{leg}: no operation skipped", result.skipped == 0)

    @property
    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.results if not ok]

    @property
    def attempted(self) -> int:
        return len(self.results) + self.operations

    @property
    def failed(self) -> int:
        return len(self.failed_checks) + self.skipped


class Repeat(NamedTuple):
    """One timed call of a leg."""

    seconds: float  # speed-corrected untraced, wall time traced
    wall: float
    work: float  # units of work: files, MB or operations
    variant: int  # which of the leg's inputs it ran on


class LegClock:
    """Times one leg call after a full collection, so a repeat never pays for
    the garbage of the one before it.  Untraced, the time is speed-corrected
    (:mod:`perfbench.speed`).  Traced, the call is the root span
    ``leg.<name>`` and the time is its wall time: the sampling kernels would
    count as the self time of whichever span they interrupt."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.speed = SpeedClock()

    def __call__(self, leg: str, function) -> tuple[float, float, object]:
        """``(seconds, wall seconds, result)`` of ``function()``."""
        gc.collect()
        if self.recorder is None:
            return self.speed.time(function)
        with self.recorder.span(f"leg.{leg}"):
            start = time.perf_counter()
            result = function()
            wall = time.perf_counter() - start
        return wall, wall, result


class Workload:
    name = ""
    #: (leg, detail metric, unit of work) — primary leg first.
    legs: tuple[tuple[str, str, str], ...] = ()

    def __init__(self, seed: int, smoke: bool, work_dir: str, checks: Checks) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        self.checks = checks
        self.fidelity_values: dict[str, float] = {}
        self.layer_values: dict[str, tuple[float, str]] = {}
        self._turns: dict[str, int] = {}

    def turn(self, leg: str, count: int) -> int:
        """Which of ``count`` inputs this repeat of ``leg`` uses, round robin."""
        turn = self._turns.get(leg, 0)
        self._turns[leg] = turn + 1
        return turn % count

    def setup(self) -> None:
        raise NotImplementedError

    def identity(self) -> object:
        """What two set-ups from one seed must agree on."""
        raise NotImplementedError

    def configs(self) -> dict[str, ImpressionsConfig]:
        raise NotImplementedError

    def warm_up(self) -> None:
        pass

    def run_leg(self, leg: str, clock: LegClock) -> Repeat:
        """Run and check one repeat of ``leg``."""
        raise NotImplementedError

    def layer_metrics(self, recorder, untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of this workload's own layers, after a traced run.

        ``untraced`` and ``traced`` map each leg to its repeats in the
        untraced and traced rounds.
        """
        return dict(self.layer_values)


def _median_seconds(repeats: list[Repeat]) -> float:
    return statistics.median(repeat.seconds for repeat in repeats)


def _mean_span(recorder, root: str, name: str) -> float:
    calls, seconds, _ = recorder.totals.get((root, name), (0, 0.0, 0.0))
    return seconds / calls if calls else 0.0


class Image2Meta(Workload):
    """Table 6 Image2 at a tenth of its size (5,200 files), metadata only.

    Placement is most of a generation here, as at full scale, so a
    placement change moves ``primary_rate`` (cold ``Impressions.generate``)
    and ``secondary_rate`` (``generate_sharded``: 4 shards on ``JOBS``
    workers); content and replay are bypassed.  At full scale one generation
    takes 4-7 s on a 2-CPU machine, too few repeats per run for a median
    that holds still.  The placement cost depends on the shape of the
    generated tree, which differs by about 10% between seeds, so the legs
    take turns over ``VARIANTS`` images derived from the seed.
    """

    name = "image2_meta"
    legs = (
        ("gen", "gen_s", "files"),
        ("shard_gen", "shard_gen_s", "files"),
        ("cache_restore", "cache_restore_s", "files"),
    )

    def setup(self) -> None:
        scale = 300 / IMAGE2[0] if self.smoke else 0.1
        self.variants = [
            table6_config(IMAGE2, scale, self.seed * VARIANTS + index) for index in range(VARIANTS)
        ]
        # The restore leg's input: a stage cache filled by one cold run.
        self.cache_dir = os.path.join(self.work_dir, "stage-cache")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cached = default_pipeline().run(self.variants[0], cache=StageCache(self.cache_dir)).image

    def identity(self) -> object:
        return [config.fingerprint() for config in self.variants], image_fingerprint(self.cached)

    def configs(self) -> dict[str, ImpressionsConfig]:
        return {f"image2_{index}": config for index, config in enumerate(self.variants)}

    def warm_up(self) -> None:
        image, self.cached = self.cached, None
        self.slowest_shards: list[float] = []
        self.checks.same("image 0 fingerprint", image_fingerprint(image))
        self.fidelity_values = fidelity(image, self.variants[0], self.checks)
        self.layer_values["layout.extents_per_file"] = (extents_per_file(image), "ratio")
        cache_bytes = sum(
            os.path.getsize(os.path.join(root, name))
            for root, _, names in os.walk(self.cache_dir)
            for name in names
        )
        self.layer_values["pipeline.cache_bytes"] = (float(cache_bytes), "bytes")

    def run_leg(self, leg: str, clock: LegClock) -> Repeat:
        checks = self.checks
        index = self.turn(leg, VARIANTS) if leg != "cache_restore" else 0
        config = self.variants[index]
        files = config.num_files
        if leg == "gen":
            seconds, wall, image = clock(leg, lambda: Impressions(config).generate())
            checks.same(f"image {index} fingerprint", image_fingerprint(image))
            checks.check("gen: file count", image.file_count == files)
        elif leg == "shard_gen":
            seconds, wall, result = clock(
                leg, lambda: generate_sharded(config, num_shards=4, jobs=JOBS)
            )
            checks.same(f"shard_gen: image {index} fingerprint", result.fingerprint)
            checks.same(f"shard_gen: image {index} content digest", result.content_digest)
            checks.check("shard_gen: file count", result.image.file_count == files)
            if clock.recorder is not None:
                self.slowest_shards.append(max(result.shard_walls))
        else:
            seconds, wall, result = clock(
                leg, lambda: default_pipeline().run(config, cache=StageCache(self.cache_dir))
            )
            checks.same("image 0 fingerprint", image_fingerprint(result.image))
            checks.check("cache_restore: every stage restored", result.generation_cached)
        return Repeat(seconds, wall, files, index)

    def layer_metrics(self, recorder, untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
        # Shard workers run in child processes; their walls are what the
        # program reports back, and the parent sees only the fan-out span.
        out = super().layer_metrics(recorder, untraced, traced)
        slowest = statistics.median(self.slowest_shards)
        fanout = _mean_span(recorder, "leg.shard_gen", "shard.fanout")
        out["shard.worker_max_s"] = (slowest, "s")
        out["shard.fanout_s"] = (fanout, "s")
        out["shard.fanout_overhead_s"] = (fanout - slowest, "s")
        out["shard.digest_s"] = (_mean_span(recorder, "leg.shard_gen", "materialize.run"), "s")
        return out


class Image1Content(Workload):
    """Table 6's content row: hybrid text through the directory and tar sinks.

    The directory leg covers the sink's process-pool fan-out, the tar leg the
    serial streaming path; placement is about 1% of the work, so content and
    placement changes are told apart by workload.  Every file is text so
    that all bytes go through the hybrid word model.  Sizes come from a
    lognormal near the paper's body with a narrower sigma: with the
    heavy-tailed default one file can hold most of the image, and the bytes
    to write would vary tenfold between seeds.  Image1's file count at scale
    0.0075 (150 files, about 2.5 MB); the legs take turns over ``VARIANTS``
    images derived from the seed.
    """

    name = "image1_content"
    legs = (
        ("tar_materialize", "tar_materialize_s", "MB"),
        ("dir_materialize", "dir_materialize_s", "MB"),
    )
    target_score = 0.98

    def setup(self) -> None:
        self.variants = [
            table6_config(
                IMAGE1,
                0.005 if self.smoke else 0.0075,
                self.seed * VARIANTS + index,
                layout_score=self.target_score,
                generate_content=True,
                content=ContentPolicy(text_model="hybrid", force_kind="text"),
                file_size_model=LognormalDistribution(mu=9.2, sigma=1.0),
            )
            for index in range(VARIANTS)
        ]
        self.images = [Impressions(config).generate() for config in self.variants]

    def identity(self) -> object:
        return [image_fingerprint(image) for image in self.images]

    def configs(self) -> dict[str, ImpressionsConfig]:
        return {f"image1_content_{index}": config for index, config in enumerate(self.variants)}

    def warm_up(self) -> None:
        image = self.images[0]
        self.fidelity_values = fidelity(image, self.variants[0], self.checks)
        errors = [abs(image.achieved_layout_score() - self.target_score) for image in self.images]
        self.fidelity_values["layout_score_err"] = max(errors)
        self.checks.check("layout score within 0.01 of 0.98", max(errors) <= 0.01)
        self.layer_values["layout.extents_per_file"] = (extents_per_file(image), "ratio")

    def run_leg(self, leg: str, clock: LegClock) -> Repeat:
        index = self.turn(leg, VARIANTS)
        image, checks = self.images[index], self.checks
        if leg == "dir_materialize":
            target = os.path.join(self.work_dir, "tree")
            seconds, wall, result = clock(
                leg,
                lambda: materialize.materialize_image(
                    image, materialize.DirectorySink(target, jobs=JOBS)
                ),
            )
            files = total = 0
            for root, _, names in os.walk(target):
                for name in names:
                    files += 1
                    total += os.lstat(os.path.join(root, name)).st_size
            checks.check("dir_materialize: host file count", files == image.file_count)
            checks.check("dir_materialize: host bytes", total == image.total_bytes)
            shutil.rmtree(target)
        else:
            target = os.path.join(self.work_dir, "image.tar")
            seconds, wall, result = clock(
                leg, lambda: materialize.materialize_image(image, materialize.TarSink(target))
            )
            os.remove(target)
        checks.same(f"content digest of image {index} (dir and tar sinks)", result.content_digest)
        return Repeat(seconds, wall, image.total_bytes / 1e6, index)

    def layer_metrics(self, recorder, untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
        out = super().layer_metrics(recorder, untraced, traced)
        legs = traced["tar_materialize"]
        inner = sum(
            recorder.totals.get(("leg.tar_materialize", name), (0, 0.0, 0.0))[1]
            for name in ("content.text", "content.binary", "materialize.digest")
        )
        out["materialize.io_s"] = ((sum(repeat.wall for repeat in legs) - inner) / len(legs), "s")
        return out


def replay_per_op(replayer: TraceReplayer, trace, samples: dict, recorder):
    """Replay ``trace`` one ``execute`` at a time, timing every operation."""
    clock, execute = time.perf_counter, replayer.execute
    with recorder.span("trace.replay"):
        for operation in trace:
            start = clock()
            execute(operation)
            samples[operation.kind].append(clock() - start)
    return replayer.result()


def latency_metrics(samples: dict[str, list[float]], rounds: int) -> dict[str, tuple[float, str]]:
    """``trace.replay.<kind>.{count,p50_us,p99_us}`` from :func:`replay_per_op` samples."""
    out: dict[str, tuple[float, str]] = {}
    for kind in ("read", "write", "stat", "create", "delete", "rename"):
        values = np.asarray(samples.get(kind, ()), dtype=float) * 1e6
        out[f"trace.replay.{kind}.count"] = (values.size / max(rounds, 1), "count")
        p50, p99 = np.percentile(values, (50, 99)) if values.size else (0.0, 0.0)
        out[f"trace.replay.{kind}.p50_us"] = (float(p50), "us")
        out[f"trace.replay.{kind}.p99_us"] = (float(p99), "us")
    return out


class ReplayZipf(Workload):
    """A read-dominant Zipf mix (6:2:2 read/write/stat, s=1.1, 100k operations)
    over a quarter of Image1 (5,000 files, about 1.2 GB) with a 256 MiB
    buffer cache: the working set is larger than the cache, so it hits and
    evicts.  The second leg replays with a ``repro.obs.Telemetry`` bound, so
    a slower observed replay path shows.  Each repeat replays a pristine
    copy of the image (``pickle.loads``, untimed).
    """

    name = "replay_zipf"
    legs = (("zipf", "zipf_ops_per_s", "ops"), ("zipf_obs", "zipf_obs_ops_per_s", "ops"))
    cache_bytes = 256 * MIB

    def setup(self) -> None:
        self.blob = self.trace = None
        self.config = table6_config(IMAGE1, 0.015 if self.smoke else 0.25, self.seed)
        image = Impressions(self.config).generate()
        spec = synthesize.ZipfMixSpec(num_ops=5_000 if self.smoke else 100_000, zipf_s=1.1)
        self.trace = synthesize.synthesize_zipf_mix(image, spec, seed=self.seed)
        self.blob = pickle.dumps(image)

    def identity(self) -> object:
        return image_fingerprint(pickle.loads(self.blob)), trace_digest(self.trace)

    def configs(self) -> dict[str, ImpressionsConfig]:
        return {"image1": self.config}

    def warm_up(self) -> None:
        self.fidelity_values = fidelity(pickle.loads(self.blob), self.config, self.checks)
        self.latencies: dict[str, list[float]] = defaultdict(list)

    def run_leg(self, leg: str, clock: LegClock) -> Repeat:
        trace = self.trace
        image = pickle.loads(self.blob)
        telemetry = Telemetry(run_id="perfbench") if leg == "zipf_obs" else None
        replayer = TraceReplayer(image, cache=BufferCache(self.cache_bytes), telemetry=telemetry)
        if clock.recorder is not None and leg == "zipf":
            seconds, wall, result = clock(
                leg, lambda: replay_per_op(replayer, trace, self.latencies, clock.recorder)
            )
        else:
            seconds, wall, result = clock(leg, lambda: replayer.replay(trace))
        self.checks.replay(leg, len(trace), result)
        self.checks.same("zipf: simulated_ms of the plain and telemetry legs", result.simulated_ms)
        self.layer_values["trace.cache_hit_ratio"] = (result.cache_hit_ratio, "ratio")
        self.layer_values["layout.extents_per_file"] = (extents_per_file(image), "ratio")
        return Repeat(seconds, wall, len(trace), 0)

    def layer_metrics(self, recorder, untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
        out = super().layer_metrics(recorder, untraced, traced)
        out.update(latency_metrics(self.latencies, len(traced["zipf"])))
        ratio = _median_seconds(untraced["zipf_obs"]) / _median_seconds(untraced["zipf"])
        out["obs.zipf_overhead_ratio"] = (ratio, "ratio")
        return out


class ReplayChurn(Workload):
    """The write side of ``layout.disk``, beside ``replay_zipf``'s read side.

    Create/delete/rename churn traces (15k operations, half of them
    accesses) on a standalone 16 GiB disk with an unbounded cache: at 500k
    operations a 1 GiB disk fills and skips operations.  Traces of one spec
    differ in replay cost by up to 18% between seeds, so the leg takes turns
    over ``CHURN_TRACES`` traces derived from the seed.  The second leg ages
    images of 2,500 files to layout score 0.75 through the replayer's
    create/extend/free paths, taking turns over ``VARIANTS`` of them.  The
    aged images have Image1's file count at scale 0.125 and sizes from the
    paper's lognormal body with sigma 1.5 (not 2.46) and no Pareto tail:
    with the tail some seeds put most blocks in one file the ager cannot
    split enough (seed 5 of a 5,000-file image ends 0.075 off target), and
    aging time varies threefold between seeds.
    """

    name = "replay_churn"
    legs = (("churn", "churn_ops_per_s", "ops"), ("age", "age_s", "ops"))
    disk_blocks = 4_194_304
    target_score = 0.75
    CHURN_TRACES = 8

    def setup(self) -> None:
        self.blobs = self.traces = None
        spec = synthesize.ChurnSpec(num_ops=1_000 if self.smoke else 15_000)
        self.traces = [
            synthesize.synthesize_churn(spec, seed=self.seed * self.CHURN_TRACES + index)
            for index in range(self.CHURN_TRACES)
        ]
        self.variants = [
            table6_config(
                IMAGE1,
                0.015 if self.smoke else 0.125,
                self.seed * VARIANTS + index,
                file_size_model=LognormalDistribution(mu=9.48, sigma=1.5),
            )
            for index in range(VARIANTS)
        ]
        self.blobs = [pickle.dumps(Impressions(config).generate()) for config in self.variants]

    def identity(self) -> object:
        images = [image_fingerprint(pickle.loads(blob)) for blob in self.blobs]
        return images, [trace_digest(trace) for trace in self.traces]

    def configs(self) -> dict[str, ImpressionsConfig]:
        return {f"image1_aging_{index}": config for index, config in enumerate(self.variants)}

    def warm_up(self) -> None:
        self.fidelity_values = fidelity(pickle.loads(self.blobs[0]), self.variants[0], self.checks)
        self.fidelity_values["layout_score_err"] = 0.0
        self.latencies: dict[str, list[float]] = defaultdict(list)

    def run_leg(self, leg: str, clock: LegClock) -> Repeat:
        checks = self.checks
        if leg == "churn":
            index = self.turn(leg, self.CHURN_TRACES)
            trace = self.traces[index]
            replayer = TraceReplayer(disk_blocks=self.disk_blocks)
            if clock.recorder is not None:
                seconds, wall, result = clock(
                    leg, lambda: replay_per_op(replayer, trace, self.latencies, clock.recorder)
                )
            else:
                seconds, wall, result = clock(leg, lambda: replayer.replay(trace))
            checks.replay(leg, len(trace), result)
            checks.same(f"churn: simulated_ms of trace {index}", result.simulated_ms)
            return Repeat(seconds, wall, len(trace), index)
        index = self.turn(leg, VARIANTS)
        image = pickle.loads(self.blobs[index])
        seed = self.variants[index].seed
        seconds, wall, result = clock(
            leg, lambda: aging.age_image_to_score(image, self.target_score, seed=seed)
        )
        checks.check("age: layout score within 0.05 of 0.75", result.error <= 0.05)
        checks.same(f"age: aging trace of image {index}", trace_digest(result.trace))
        errors = self.fidelity_values
        errors["layout_score_err"] = max(errors["layout_score_err"], result.error)
        self.layer_values["trace.age_files_rewritten"] = (float(result.files_rewritten), "count")
        self.layer_values["trace.age_ops"] = (float(len(result.trace)), "count")
        self.layer_values["layout.extents_per_file"] = (extents_per_file(image), "ratio")
        return Repeat(seconds, wall, len(result.trace), index)

    def layer_metrics(self, recorder, untraced: dict, traced: dict) -> dict[str, tuple[float, str]]:
        out = super().layer_metrics(recorder, untraced, traced)
        out.update(latency_metrics(self.latencies, len(traced["churn"])))
        return out


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (Image2Meta, Image1Content, ReplayZipf, ReplayChurn)
}
