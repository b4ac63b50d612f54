"""The materialization sink protocol and its shared plumbing.

Impressions' whole purpose is producing *real* file-system images benchmarks
can run against.  This module redesigns image export around a small protocol:
a :class:`MaterializationSink` receives the image's entries in a well-defined
order (``begin`` → ``add_directory``\\* → ``add_file``\\* → ``finalize``) and
turns them into some concrete artifact — a host directory tree, a streaming
tar archive, a JSONL manifest, or nothing but a digest.  The driver
(:func:`materialize_image`) owns everything the sinks share:

* **ordering policy** — entries are streamed in namespace order (the
  historical behaviour) or in *disk-extent order*, sorted by each file's
  first block on the :class:`~repro.layout.disk.SimulatedDisk`, so an
  on-disk materialization can approximate the fragmented layout the image
  models;
* **content digesting** — every file contributes a per-entry SHA-256
  (metadata header plus, when content is written, the exact content bytes);
  the per-entry digests are combined in ``file_id`` order, so the image
  digest is *independent of the streaming order and of write parallelism*
  and therefore comparable across sinks;
* **phase timing** — begin / directories / files / finalize wall-clock
  seconds are recorded on the returned :class:`MaterializeResult`.

Round-trip verification (:meth:`MaterializeResult.verify`) closes the loop:
a materialized directory tree is re-imported with
:func:`repro.dataset.importer.import_directory_tree` and its size / depth /
extension distributions are compared against the generating image and the
generating config's size model (KS, chi-square and MDCC checks).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.faults import plan as fault_plan
from repro.obs import core as obs_core

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.image import FileSystemImage
    from repro.namespace.tree import DirectoryNode, FileNode

__all__ = [
    "MATERIALIZE_FORMAT_VERSION",
    "ORDER_NAMESPACE",
    "ORDER_EXTENT",
    "ORDERS",
    "MaterializeError",
    "SinkWriteError",
    "MaterializationPlan",
    "MaterializationSink",
    "MaterializeResult",
    "FileStream",
    "VerificationCheck",
    "VerificationResult",
    "derived_directory_times",
    "materialize_image",
    "ordered_files",
]

#: Bumped when the entry digest recipe changes incompatibly, so pinned
#: digests (golden tests, CI determinism gates) never silently drift.
MATERIALIZE_FORMAT_VERSION = 1

#: Stream files in namespace (``file_id``) order — the historical behaviour.
ORDER_NAMESPACE = "namespace"
#: Stream files sorted by their first block on the simulated disk.
ORDER_EXTENT = "extent"
ORDERS = (ORDER_NAMESPACE, ORDER_EXTENT)


class MaterializeError(RuntimeError):
    """Raised when an image cannot be materialized as requested."""


class SinkWriteError(MaterializeError):
    """A sink hit an I/O failure (ENOSPC, EIO) while writing its artifact.

    By the time this surfaces the sink's :meth:`MaterializationSink.abort`
    has run: partial artifacts are cleaned up, so a failed materialization
    leaves nothing a later run could mistake for a complete image.
    """

    def __init__(self, sink: str, phase: str, cause: BaseException) -> None:
        super().__init__(f"{sink} sink failed during {phase}: {cause}")
        self.sink = sink
        self.phase = phase


@dataclass(frozen=True)
class MaterializationPlan:
    """What one materialization run is about to do (handed to ``begin``).

    Attributes:
        order: file streaming order (:data:`ORDER_NAMESPACE` or
            :data:`ORDER_EXTENT`).
        write_content: whether file content bytes are generated (already
            reconciled against the sink's :attr:`MaterializationSink.writes_content`
            capability and the image's content generator).
        files: number of files that will be streamed.
        directories: number of directories that will be streamed.
        total_bytes: logical bytes over all files.
    """

    order: str
    write_content: bool
    files: int
    directories: int
    total_bytes: int


class FileStream:
    """One file's entry in the stream: metadata plus lazily generated content.

    A sink either *consumes* the stream (iterating :meth:`chunks` exactly
    once, writing the bytes somewhere) or ignores it; either way
    :meth:`ensure_digest` afterwards yields the entry's SHA-256 — the hash is
    computed while the sink consumes the chunks, or on demand over a
    generate-and-discard pass.  The digest covers the canonical metadata
    header and, when the plan writes content, the exact content bytes.
    """

    def __init__(
        self,
        image: "FileSystemImage",
        node: "FileNode",
        relpath: str,
        write_content: bool,
    ) -> None:
        self.image = image
        self.node = node
        self.relpath = relpath
        self.write_content = write_content
        self._digest: str | None = None
        self._consumed = False

    # Digest plumbing -------------------------------------------------------

    def header_bytes(self) -> bytes:
        node = self.node
        stamps = node.timestamps
        header = {
            "format": MATERIALIZE_FORMAT_VERSION,
            "path": self.relpath,
            "size": node.size,
            "extension": node.extension,
            "timestamps": (
                [stamps.created, stamps.modified, stamps.accessed] if stamps is not None else None
            ),
        }
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def content_chunks(self) -> Iterator[bytes]:
        """The file's raw content chunks (no hashing) — exactly the stream the
        legacy ``FileSystemImage.materialize`` wrote."""
        image = self.image
        generator = image.content_generator
        assert generator is not None
        key = self.node.content_key
        if key is None:
            key = (image.content_seed, self.node.file_id)
        rng = np.random.default_rng(key)
        yield from generator.iter_chunks(self.node.size, self.node.extension, rng)

    def chunks(self) -> Iterator[bytes]:
        """Yield the content chunks while hashing them (single use).

        Only meaningful when the plan writes content; metadata-only sinks
        represent the file from :attr:`node` alone (sparse file, zero run,
        manifest row) and never call this.
        """
        if not self.write_content:
            raise MaterializeError("chunks() on a metadata-only file stream")
        if self._consumed:
            raise MaterializeError(f"file stream for {self.relpath!r} consumed twice")
        self._consumed = True
        digest = hashlib.sha256(self.header_bytes())
        for chunk in self.content_chunks():
            digest.update(chunk)
            yield chunk
        self._digest = digest.hexdigest()

    def ensure_digest(self) -> str:
        """The entry digest, generating (and discarding) content if needed."""
        if self._digest is None:
            if self._consumed:
                raise MaterializeError(
                    f"file stream for {self.relpath!r} was partially consumed"
                )
            digest = hashlib.sha256(self.header_bytes())
            if self.write_content:
                self._consumed = True
                for chunk in self.content_chunks():
                    digest.update(chunk)
            self._digest = digest.hexdigest()
        return self._digest

    def set_digest(self, hexdigest: str) -> None:
        """Adopt a digest computed elsewhere (a parallel writer's worker)."""
        self._digest = hexdigest
        self._consumed = True


class MaterializationSink(ABC):
    """Pluggable target of one materialization run.

    The driver calls, in order: :meth:`begin` once, :meth:`add_directory`
    for every directory (depth-first pre-order), :meth:`add_file` for every
    file (in the plan's order), and :meth:`finalize` once.  ``finalize``
    returns sink-specific extras merged into the result's ``extras`` and
    must leave the artifact complete (all writes flushed, workers joined).
    """

    #: short sink kind, also the CLI ``--sink`` spelling
    name: str = ""
    #: whether the sink can persist content bytes; when False the driver
    #: downgrades the plan to metadata-only (e.g. manifests never carry
    #: content, so digesting it would only slow huge images down).
    writes_content: bool = True

    @abstractmethod
    def begin(self, image: "FileSystemImage", plan: MaterializationPlan) -> None:
        """Prepare the artifact (open files, create the root, spawn workers)."""

    @abstractmethod
    def add_directory(self, directory: "DirectoryNode", relpath: str) -> None:
        """Record one directory entry."""

    @abstractmethod
    def add_file(self, stream: FileStream) -> None:
        """Record one file entry (consume ``stream.chunks()`` to write content)."""

    @abstractmethod
    def finalize(self) -> dict:
        """Complete the artifact and return sink-specific extras."""

    def abort(self) -> None:
        """Dismantle a partial artifact after a mid-run failure.

        Called by the driver when any phase raises: close open handles, join
        workers, and remove whatever incomplete output exists so nothing is
        left that could be mistaken for a finished image.  Must be safe to
        call at any point after :meth:`begin` (including after a failed
        ``begin``) and must itself never raise.  The default is a no-op for
        sinks with nothing durable to clean.
        """


@dataclass(frozen=True)
class VerificationCheck:
    """One statistical or structural check of a round-trip verification."""

    name: str
    passed: bool
    statistic: float
    p_value: float = float("nan")
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "detail": self.detail,
        }


@dataclass
class VerificationResult:
    """Outcome of :meth:`MaterializeResult.verify`.

    ``source`` records what the observed side of the comparison was:
    ``"imported"`` when a materialized directory tree was re-crawled with the
    dataset importer (the full round trip), ``"image"`` when the sink produced
    no host tree and the image itself was checked against its generating
    config's distributions.
    """

    source: str
    files_observed: int
    directories_observed: int
    checks: list[VerificationCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def as_dict(self) -> dict:
        return {
            "source": self.source,
            "passed": self.passed,
            "files_observed": self.files_observed,
            "directories_observed": self.directories_observed,
            "checks": [check.as_dict() for check in self.checks],
        }

    def render_text(self) -> str:
        lines = [
            f"round-trip verification ({self.source}): "
            f"{'PASSED' if self.passed else 'FAILED'} — "
            f"{self.files_observed} files, {self.directories_observed} directories"
        ]
        for check in self.checks:
            verdict = "ok  " if check.passed else "FAIL"
            extra = f" ({check.detail})" if check.detail else ""
            p = "" if check.p_value != check.p_value else f", p={check.p_value:.3f}"
            lines.append(f"  [{verdict}] {check.name}: statistic={check.statistic:.4f}{p}{extra}")
        return "\n".join(lines)


@dataclass
class MaterializeResult:
    """Typed outcome of one materialization run.

    Attributes:
        sink: sink kind name (``dir`` / ``tar`` / ``manifest`` / ``null``).
        path: primary artifact path, or None for :class:`~repro.materialize.sinks.NullSink`.
        order: file streaming order used.
        write_content: whether content bytes were generated.
        files: files streamed.
        directories: directories streamed.
        total_bytes: logical bytes over all files.
        content_digest: SHA-256 over all entry digests in ``file_id`` order —
            independent of streaming order and parallelism, so the same image
            digests identically through every content-capable sink.
        phase_seconds: wall-clock seconds of the begin / directories / files /
            finalize phases.
        extras: sink-specific extras (e.g. the tar archive's own SHA-256).
    """

    sink: str
    path: str | None
    order: str
    write_content: bool
    files: int
    directories: int
    total_bytes: int
    content_digest: str
    phase_seconds: dict[str, float] = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    _image: "FileSystemImage | None" = field(default=None, repr=False, compare=False)

    @property
    def seconds(self) -> float:
        return float(sum(self.phase_seconds.values()))

    def as_dict(self) -> dict:
        return {
            "sink": self.sink,
            "path": self.path,
            "order": self.order,
            "write_content": self.write_content,
            "files": self.files,
            "directories": self.directories,
            "total_bytes": self.total_bytes,
            "content_digest": self.content_digest,
            "phase_seconds": dict(self.phase_seconds),
            "extras": dict(self.extras),
        }

    def verify(
        self,
        config=None,
        significance: float = 0.01,
        size_mdcc_tolerance: float = 0.2,
        record: bool = True,
    ) -> VerificationResult:
        """Round-trip verification of what was materialized.

        For a directory sink the materialized tree is re-imported with
        :func:`repro.dataset.importer.import_directory_tree` and compared
        against the generating image: exact file/directory counts, a
        two-sample KS test on file sizes, and chi-square tests on the
        files-by-depth and extension histograms.  For archive / manifest /
        null sinks (no host tree to crawl) the image itself is checked.  In
        both cases the observed sizes are additionally compared against the
        generating config's file-size model via MDCC (the paper's Table 3
        accuracy metric) — the statistical tie back to the configuration.

        When ``record`` is True the verdict is recorded in the image's
        reproducibility report under ``materialize_verification``.
        """
        from repro.materialize.verify import verify_round_trip

        if self._image is None:
            raise MaterializeError("this result carries no image to verify against")
        verification = verify_round_trip(
            self._image,
            self,
            config=config,
            significance=significance,
            size_mdcc_tolerance=size_mdcc_tolerance,
        )
        report = self._image.report
        if record and report is not None:
            report.record_derived(
                "materialize_verification",
                {
                    "sink": self.sink,
                    "source": verification.source,
                    "passed": verification.passed,
                    "checks": {
                        check.name: check.passed for check in verification.checks
                    },
                },
            )
        return verification


def ordered_files(image: "FileSystemImage", order: str) -> list["FileNode"]:
    """The image's files in the requested streaming order.

    ``namespace`` is ``file_id`` order (the historical materialization
    order).  ``extent`` sorts by each file's first block on the simulated
    disk (ties and block-less files fall back to ``file_id`` order), so a
    directory materialization touches the host disk roughly in the layout
    order the simulated disk models.
    """
    files = image.tree.files
    if order == ORDER_NAMESPACE:
        return files
    if order != ORDER_EXTENT:
        raise MaterializeError(f"unknown materialization order {order!r}; expected one of {ORDERS}")
    disk = image.disk
    if disk is None:
        raise MaterializeError(
            "extent ordering needs a disk layout; generate with the "
            "'on_disk_creation' stage (or use namespace order)"
        )

    def key(node: "FileNode") -> tuple[int, int]:
        path = node.path()
        if disk.has_file(path):
            extents = disk.extents_of(path)
            if extents:
                return (extents[0][0], node.file_id)
        return (disk.num_blocks, node.file_id)

    return sorted(files, key=key)


def derived_directory_times(tree) -> list[tuple[int, str, tuple[float, float]]]:
    """Derived ``(depth, path, (atime, mtime))`` for timestamped directories.

    Directories carry no sampled timestamps of their own; a directory's
    modification time on a real file system reflects its youngest entry, so
    we derive ``mtime``/``atime`` as the maximum modified/accessed time over
    the subtree's files.  Only directories with at least one timestamped
    file in their subtree are returned.  Rows are sorted deepest-first so a
    sink can apply them after all children exist without a parent's time
    being clobbered by later child creation.
    """
    times: dict[int, tuple[float, float]] = {}
    ordered = list(tree.walk_depth_first())
    for directory in reversed(ordered):  # children before parents (post-order)
        accessed = modified = None
        for file_node in directory.files:
            stamps = file_node.timestamps
            if stamps is None:
                continue
            accessed = stamps.accessed if accessed is None else max(accessed, stamps.accessed)
            modified = stamps.modified if modified is None else max(modified, stamps.modified)
        for child in directory.subdirectories:
            child_times = times.get(id(child))
            if child_times is None:
                continue
            accessed = child_times[0] if accessed is None else max(accessed, child_times[0])
            modified = child_times[1] if modified is None else max(modified, child_times[1])
        if accessed is not None and modified is not None:
            times[id(directory)] = (accessed, modified)
    rows = [
        (directory.depth, directory.path(), times[id(directory)])
        for directory in ordered
        if id(directory) in times
    ]
    rows.sort(key=lambda row: (-row[0], row[1]))
    return rows


def _relpath(path: str) -> str:
    """Image-absolute path (``/a/b``) → artifact-relative path (``a/b``)."""
    stripped = path.lstrip("/")
    return stripped if stripped else "."


def materialize_image(
    image: "FileSystemImage",
    sink: MaterializationSink,
    *,
    order: str = ORDER_NAMESPACE,
    write_content: bool | None = None,
    telemetry: "obs_core.Telemetry | None" = None,
) -> MaterializeResult:
    """Stream ``image`` through ``sink`` and return the typed result.

    Args:
        image: the generated image to materialize.
        sink: where the entries go.
        order: file streaming order (:data:`ORDERS`).
        write_content: generate content bytes (default: only if the image has
            a content generator).  Forced off for sinks that cannot persist
            content (:attr:`MaterializationSink.writes_content`).
        telemetry: optional :class:`repro.obs.Telemetry`; defaults to the
            context-bound one (:func:`repro.obs.current`).  Each phase
            (begin / directories / files / finalize) is a span whose duration
            is the phase's ``phase_seconds`` entry; entry/byte/per-job write
            counters are recorded.

    Raises:
        MaterializeError: content requested without a content generator, or
            an unknown / unsupported ordering.
    """
    tele = obs_core.resolve(telemetry)
    phase_seconds: dict[str, float] = {}

    @contextlib.contextmanager
    def phase_span(phase: str):
        with tele.span(f"materialize.{phase}", sink=sink.name, phase=phase) as record:
            yield
        phase_seconds[phase] = record.wall_seconds

    if write_content is None:
        write_content = image.content_generator is not None
    if write_content and image.content_generator is None:
        raise MaterializeError("cannot write content: image has no content generator")
    effective_content = bool(write_content and sink.writes_content)

    tree = image.tree
    files = ordered_files(image, order)
    directories = list(tree.walk_depth_first())
    plan = MaterializationPlan(
        order=order,
        write_content=effective_content,
        files=len(files),
        directories=len(directories),
        total_bytes=tree.total_bytes,
    )

    def run_phase(phase: str, body):
        """One sink phase; failures abort the sink so no partial artifact
        survives.  I/O errors surface as :class:`SinkWriteError`; a simulated
        process crash (:class:`~repro.faults.plan.InjectedCrash`) propagates
        *without* abort — a dead process cleans nothing up, which is exactly
        the torn state crash tests need to observe."""
        try:
            return body()
        except OSError as error:
            with contextlib.suppress(Exception):
                sink.abort()
            raise SinkWriteError(sink.name, phase, error) from error
        except Exception:
            with contextlib.suppress(Exception):
                sink.abort()
            raise

    with tele.span("materialize", sink=sink.name, order=order):
        with phase_span("begin"):
            run_phase("begin", lambda: sink.begin(image, plan))

        directory_digests: list[bytes] = []

        def stream_directories() -> None:
            for directory in directories:
                relpath = _relpath(directory.path())
                sink.add_directory(directory, relpath)
                directory_digests.append(
                    hashlib.sha256(
                        json.dumps(
                            {"format": MATERIALIZE_FORMAT_VERSION, "dir": relpath},
                            sort_keys=True,
                            separators=(",", ":"),
                        ).encode("utf-8")
                    ).digest()
                )

        with phase_span("directories"):
            run_phase("directories", stream_directories)

        with phase_span("files"):
            streams = [
                FileStream(image, node, _relpath(node.path()), effective_content)
                for node in files
            ]

            def stream_files() -> None:
                for stream in streams:
                    fault_plan.check("sink.add_file")
                    sink.add_file(stream)

            run_phase("files", stream_files)

        with phase_span("finalize"):

            def finalize() -> dict:
                fault_plan.check("sink.finalize")
                return sink.finalize() or {}

            extras = run_phase("finalize", finalize)
            # Combine per-entry digests in file_id order — independent of the
            # stream order and of any write parallelism inside the sink, so
            # every sink (and every --jobs setting) reports the same digest
            # for the same image+mode.
            combined = hashlib.sha256()
            for digest in directory_digests:
                combined.update(digest)
            for stream in sorted(streams, key=lambda s: s.node.file_id):
                combined.update(bytes.fromhex(stream.ensure_digest()))

    result = MaterializeResult(
        sink=sink.name,
        path=extras.pop("path", None),
        order=order,
        write_content=effective_content,
        files=len(files),
        directories=len(directories),
        total_bytes=tree.total_bytes,
        content_digest=combined.hexdigest(),
        phase_seconds=phase_seconds,
        extras=extras,
        _image=image,
    )
    _record_materialize_telemetry(tele, result)
    return result


def _record_materialize_telemetry(
    tele: "obs_core.Telemetry", result: MaterializeResult
) -> None:
    entries = tele.counter(
        "materialize_entries_total",
        "entries streamed through a materialization sink",
        labels=("sink", "kind"),
    )
    entries.inc(result.files, sink=result.sink, kind="file")
    entries.inc(result.directories, sink=result.sink, kind="directory")
    tele.counter(
        "materialize_bytes_total",
        "logical bytes over all streamed files",
        labels=("sink",),
    ).inc(result.total_bytes, sink=result.sink)
    per_job = result.extras.get("per_job_files")
    if not isinstance(per_job, dict):
        per_job = {"0": result.files} if result.files else {}
    job_files = tele.counter(
        "materialize_job_files_total",
        "files written per sink worker job",
        labels=("sink", "job"),
    )
    for job, count in sorted(per_job.items()):
        job_files.inc(int(count), sink=result.sink, job=str(job))
