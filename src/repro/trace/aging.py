"""Trace-driven aging: reach a target layout score by replaying churn.

An alternative to :class:`repro.layout.fragmenter.Fragmenter`, which steers
the layout score *while the image is being created*.  The trace-driven ager
takes an already-generated image and ages it the way a real file system ages:
by running a workload.  It synthesizes a churn trace — delete a file, recreate
it in chunks with short-lived temporary files wedged between the chunks, drop
the temporaries — and pushes every operation through the
:class:`~repro.trace.replay.TraceReplayer`, i.e. through the allocator's
public create/extend/free paths.  Holes left by the temporaries split the
rewritten file and seed fragmentation for later rewrites, exactly the
create/delete trick of Section 3.7, but expressed as a replayable trace.

A deficit controller keeps the aggregate layout score exact from the disk's
per-file extent caches (block and run counts, O(1) per file — no block map
is ever expanded) after every rewritten file, so the loop stops as soon as
the score crosses the target.  Its limits are the module constants
:data:`MAX_SPLITS_PER_FILE` wedges per rewrite and :data:`MAX_PASSES` sweeps,
and a rewrite needs the whole file's size free: on an image where one file
holds most of the blocks the run can end short of the target.  The full
operation stream is returned as an :class:`~repro.trace.ops.OperationTrace`,
so an aging run can be saved, inspected, and replayed elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.image import FileSystemImage
from repro.layout.fragmenter import chunk_blocks
from repro.obs import core as obs_core
from repro.trace.ops import OperationTrace
from repro.trace.replay import ReplayResult, TraceReplayer

__all__ = ["TraceAgingResult", "TraceAger", "age_image_to_score"]

#: Size (in blocks) of the wedge temporaries.
TEMP_BLOCKS = 1

#: Cap on the wedges inserted into one rewrite (bounds the operation count a
#: single pathological file can cost).
MAX_SPLITS_PER_FILE = 4096

#: How many sweeps over the files the controller may take to close the
#: remaining deficit.
MAX_PASSES = 4


@dataclass
class TraceAgingResult:
    """Outcome of a trace-driven aging run."""

    target_score: float
    achieved_score: float
    initial_score: float
    files_rewritten: int
    trace: OperationTrace
    replay: ReplayResult

    @property
    def error(self) -> float:
        return abs(self.achieved_score - self.target_score)


class TraceAger:
    """Ages a generated image toward a target layout score via churn replay.

    Args:
        image: the image to age (must have a simulated disk).
        target_score: desired aggregate layout score in ``(0, 1]``.
        rng: drives victim selection order.

    :meth:`age` sets the ``trace_aging_score_target`` and
    ``trace_aging_score`` gauges on the bound telemetry.
    """

    def __init__(
        self, image: FileSystemImage, target_score: float, rng: np.random.Generator
    ) -> None:
        if image.disk is None:
            raise ValueError("trace-driven aging requires an image with a simulated disk")
        if not 0.0 < target_score <= 1.0:
            raise ValueError("target_score must lie in (0, 1]")
        self._image = image
        self._target = target_score
        self._rng = rng
        self._temp_counter = 0
        # Wedge temporaries stay alive until the end of the run: deleting them
        # eagerly would leave low-address holes that first-fit then hands to
        # the next victim's chunks, defeating the wedge.  They are flushed
        # early only when the disk runs short of space.
        self._live_temps: list[str] = []

    def age(self) -> TraceAgingResult:
        """Run churn until the aggregate score crosses the target."""
        tele = obs_core.current()
        with tele.span("trace_aging") as span:
            image = self._image
            disk = image.disk
            assert disk is not None
            block_size = disk.geometry.block_size

            tree = image.tree
            files = [
                (node, path)
                for node, path in zip(tree.files, tree.file_paths())
                if node.size > 0
            ]
            names = [path for _, path in files]
            # Per-file (runs, blocks) straight off the disk's extent caches: no
            # block list is ever expanded during aging.
            counts = [disk.run_stats(name) for name in names if disk.has_file(name)]

            # Aggregate bookkeeping over non-first blocks, maintained exactly.
            candidates = sum(blocks - 1 for _, blocks in counts if blocks > 1)
            optimal = sum(blocks - runs for runs, blocks in counts if blocks > 0)
            initial = optimal / candidates if candidates else 1.0

            trace = OperationTrace(
                metadata={
                    "synthesizer": "trace_aging",
                    "target_score": self._target,
                    "temp_blocks": TEMP_BLOCKS,
                }
            )
            replayer = TraceReplayer(image)
            rewritten = 0

            # Deficit controller: rewrite files until the aggregate score crosses
            # the target.  The first pass fragments each victim proportionally
            # (each file individually approaches the target score); later passes
            # close whatever deficit the proportional plan left, greedily.
            batch = 0
            if candidates > 0:
                done = False
                for pass_number in range(MAX_PASSES):
                    progressed = False
                    order = self._rng.permutation(len(names))
                    for index in order:
                        name = names[int(index)]
                        if not disk.has_file(name):
                            continue
                        file_runs, file_blocks = disk.run_stats(name)
                        if file_blocks <= 1:
                            continue
                        current_score = optimal / candidates if candidates else 1.0
                        deficit = (1.0 - self._target) * candidates - (candidates - optimal)
                        if deficit < 1.0 or current_score <= self._target:
                            done = True
                            break
                        n1 = file_blocks - 1
                        file_non_optimal = file_runs - 1
                        if pass_number == 0:
                            planned_total = math.ceil((1.0 - self._target) * n1) + 8
                        else:
                            planned_total = file_non_optimal + int(deficit)
                        splits = min(planned_total, n1, file_non_optimal + int(deficit))
                        splits = min(splits, MAX_SPLITS_PER_FILE)
                        if splits <= file_non_optimal:
                            continue
                        # The disk knows blocks, not bytes; block count * block
                        # size is the allocation-equivalent size a rewrite must
                        # preserve.
                        size_bytes = file_blocks * block_size
                        needed_free = file_blocks + (splits + 2) * TEMP_BLOCKS
                        if disk.free_blocks < needed_free:
                            self._flush_temps(replayer, trace, batch)
                            if disk.free_blocks < needed_free:
                                # Even with every temporary gone the rewrite would
                                # not fit whole; a partial rewrite loses blocks, so
                                # leave this victim alone.
                                continue
                        old_optimal = file_blocks - file_runs
                        self._rewrite_fragmented(replayer, trace, name, size_bytes, splits, batch)
                        batch += 1
                        rewritten += 1
                        progressed = True
                        new_runs, new_blocks = disk.run_stats(name)
                        optimal += (new_blocks - new_runs) - old_optimal
                        candidates += (new_blocks - 1) - (file_blocks - 1)
                    if done or not progressed:
                        break
            self._flush_temps(replayer, trace, batch)

            # The loop keeps ``optimal`` and ``candidates`` exact for every file
            # on the disk, so the final score needs no second pass over it.
            achieved = optimal / candidates if candidates else 1.0
            self._sync_tree_blocklists(files)
            replay_result = replayer.result()
            replay_result.layout_score_before = initial
            replay_result.layout_score_after = achieved

        if image.report is not None:
            timings = image.report.phase_timings
            timings["trace_aging"] = timings.get("trace_aging", 0.0) + span.wall_seconds
            image.report.record_derived("trace_aging_score", achieved)
        tele.gauge("trace_aging_score_target", "requested layout score of trace aging").set(
            self._target
        )
        tele.gauge("trace_aging_score", "layout score trace aging achieved").set(achieved)

        return TraceAgingResult(
            target_score=self._target,
            achieved_score=achieved,
            initial_score=initial,
            files_rewritten=rewritten,
            trace=trace,
            replay=replay_result,
        )

    # Internal helpers --------------------------------------------------------

    def _rewrite_fragmented(
        self,
        replayer: TraceReplayer,
        trace: OperationTrace,
        name: str,
        size_bytes: int,
        splits: int,
        batch: int,
    ) -> None:
        """Delete ``name`` and recreate it in ``splits + 1`` wedge-separated chunks."""
        disk = replayer.disk
        block_size = disk.geometry.block_size
        needed_blocks = disk.blocks_needed(size_bytes)
        chunks = chunk_blocks(needed_blocks, splits + 1)

        temp_bytes = TEMP_BLOCKS * block_size
        start = len(trace)
        trace.push("delete", name, 0, "", False, batch)
        remaining = size_bytes
        for index, chunk in enumerate(chunks):
            chunk_bytes = min(chunk * block_size, remaining)
            remaining -= chunk_bytes
            if index == 0:
                trace.push("create", name, chunk_bytes, "", False, batch)
                continue
            temp = f"/.aging-tmp-{self._temp_counter}"
            self._temp_counter += 1
            trace.push("create", temp, temp_bytes, "", False, batch)
            self._live_temps.append(temp)
            trace.push("write", name, chunk_bytes, "", True, batch)
        replayer.execute_trace(trace, start)

    def _flush_temps(
        self, replayer: TraceReplayer, trace: OperationTrace, batch: int
    ) -> None:
        """Delete every live wedge temporary (end of run or space pressure)."""
        start = len(trace)
        for temp in self._live_temps:
            trace.push("delete", temp, batch=batch)
        replayer.execute_trace(trace, start)
        self._live_temps.clear()

    def _sync_tree_blocklists(self, files: list) -> None:
        """Copy each ``(node, path)``'s extents from the disk to the tree node."""
        disk = self._image.disk
        assert disk is not None
        for node, name in files:
            if disk.has_file(name):
                node.extents = disk.extents_of(name)
                node.first_block = node.extents[0][0] if node.extents else None


def age_image_to_score(
    image: FileSystemImage, target_score: float, seed: int = 0
) -> TraceAgingResult:
    """Convenience wrapper: age ``image`` to ``target_score`` with a seeded rng."""
    return TraceAger(image, target_score, np.random.default_rng(seed)).age()
