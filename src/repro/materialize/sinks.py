"""The five built-in materialization sinks.

* :class:`DirectorySink` — a real directory tree on the host file system
  (the historical ``FileSystemImage.materialize`` behaviour, extracted and
  extended with ``jobs`` worker processes that parallelize content
  generation + writes, and with derived directory timestamps applied in
  reverse depth order after all children exist).
* :class:`TarSink` — a deterministic streaming ``.tar`` / ``.tar.gz``
  archive that never touches the host tree.  Its block writer (GNU headers,
  longname members, padding, gzip set-up) is the module's only tar writer
  and emits the bytes ``tarfile`` would in GNU format.
* :class:`SparseTarSink` — a :class:`TarSink` subclass that archives the
  metadata-only image as GNU *sparse* members; archive size scales with
  file count, not apparent bytes, so huge images stay archivable.
* :class:`ManifestSink` — a JSONL manifest of paths / sizes / timestamps /
  extents, cheap enough for huge images.
* :class:`NullSink` — writes nothing; the driver's content digest is the
  artifact (verification and CI determinism gates).

All sinks are driven by :func:`repro.materialize.base.materialize_image`;
:func:`build_sink` maps the CLI / stage-param spelling to an instance.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import json
import os
import shutil
from typing import TYPE_CHECKING

from repro.core.fanout import ordered_map
from repro.materialize.base import (
    FileStream,
    MaterializationPlan,
    MaterializationSink,
    MaterializeError,
    derived_directory_times,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.image import FileSystemImage
    from repro.namespace.tree import DirectoryNode, FileNode

__all__ = [
    "DirectorySink",
    "TarSink",
    "SparseTarSink",
    "ManifestSink",
    "NullSink",
    "build_sink",
    "SINK_NAMES",
]


# Directory sink ---------------------------------------------------------------


def _write_file_entry(root_path: str, stream: FileStream) -> None:
    """Write one file under ``root_path`` exactly as the legacy materializer.

    Content mode streams the generator's chunks; metadata-only mode creates a
    sparse file of the right apparent size.  File timestamps are applied
    immediately — the containing directory's mtime is fixed up later, in
    reverse depth order, once all children exist.
    """
    node = stream.node
    path = os.path.join(root_path, stream.relpath)
    if stream.write_content:
        with open(path, "wb") as handle:
            for chunk in stream.chunks():
                handle.write(chunk)
    else:
        stream.ensure_digest()
        with open(path, "wb") as handle:
            if node.size:
                handle.seek(node.size - 1)
                handle.write(b"\0")
    if node.timestamps is not None:
        os.utime(path, (node.timestamps.accessed, node.timestamps.modified))


def _write_batch(
    context: "tuple[FileSystemImage, str, bool]", batch: list[tuple[int, str]]
) -> tuple[int, list[tuple[int, str]]]:
    """Write ``(file_id, relpath)`` entries; return (writer pid, entry digests)."""
    image, root, write_content = context
    out: list[tuple[int, str]] = []
    files = image.tree.files
    for file_id, relpath in batch:
        stream = FileStream(image, files[file_id], relpath, write_content)
        _write_file_entry(root, stream)
        out.append((file_id, stream.ensure_digest()))
    return os.getpid(), out


class DirectorySink(MaterializationSink):
    """Materialize into a real directory tree on the host file system.

    Args:
        root_path: target directory (created if missing).
        jobs: the most worker processes for content generation + writes.
            Files are written in batches at :meth:`finalize`, through
            :func:`repro.core.fanout.ordered_map`, which runs a single
            worker's batches in this process.  Parallel writes are safe
            because every file's bytes are a pure function of the image's
            content seed and the file's id, and the combined digest is
            order-independent.
        apply_directory_times: derive directory atime/mtime from the subtree's
            file timestamps and apply them (reverse depth order) after all
            children exist; no-op for images without timestamps.
    """

    name = "dir"

    def __init__(self, root_path: str, jobs: int = 1, apply_directory_times: bool = True) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.root_path = root_path
        self.jobs = jobs
        self.apply_directory_times = apply_directory_times
        # (image, root path, write content): what every batch writer needs.
        self._context: "tuple[FileSystemImage, str, bool] | None" = None
        self._pending: list[FileStream] = []
        self._owns_root = False

    def begin(self, image: "FileSystemImage", plan: MaterializationPlan) -> None:
        self._context = (image, self.root_path, plan.write_content)
        self._pending = []
        # Whether abort() may remove the whole tree: only when this run
        # created the root (or found it empty) — never a directory that
        # already held someone else's data.
        self._owns_root = not os.path.isdir(self.root_path) or not os.listdir(self.root_path)
        os.makedirs(self.root_path, exist_ok=True)

    def add_directory(self, directory: "DirectoryNode", relpath: str) -> None:
        os.makedirs(os.path.join(self.root_path, relpath), exist_ok=True)

    def add_file(self, stream: FileStream) -> None:
        # Written in batches at finalize, balanced over the full file count.
        self._pending.append(stream)

    def finalize(self) -> dict:
        assert self._context is not None
        streams = self._pending
        workers = min(self.jobs, max(1, len(streams)))
        # ~8 batches per worker amortizes pool IPC while keeping the pool busy
        # when file sizes are skewed.
        batch_size = max(1, (len(streams) + workers * 8 - 1) // (workers * 8))
        by_id = {stream.node.file_id: stream for stream in streams}
        entries = [(stream.node.file_id, stream.relpath) for stream in streams]
        batches = [entries[i : i + batch_size] for i in range(0, len(entries), batch_size)]
        files_by_pid: dict[int, int] = {}
        for pid, results in ordered_map(_write_batch, batches, workers, context=self._context):
            files_by_pid[pid] = files_by_pid.get(pid, 0) + len(results)
            for file_id, hexdigest in results:
                by_id[file_id].set_digest(hexdigest)
        if self.apply_directory_times:
            for _, dirpath, (accessed, modified) in derived_directory_times(self._context[0].tree):
                os.utime(
                    os.path.join(self.root_path, dirpath.lstrip("/") or "."),
                    (accessed, modified),
                )
        extras = {"path": self.root_path, "jobs": workers}
        if files_by_pid:
            # Stable job indices (sorted pid order) so two runs with the same
            # worker count produce comparable label sets.
            extras["per_job_files"] = {
                str(index): files_by_pid[pid] for index, pid in enumerate(sorted(files_by_pid))
            }
        return extras

    def abort(self) -> None:
        self._pending = []
        if self._owns_root:
            shutil.rmtree(self.root_path, ignore_errors=True)


# Tar sinks -------------------------------------------------------------------

_TAR_BLOCK = 512
_TAR_RECORD = 10240  # GNU tar's default blocking factor (20 blocks)
_ZERO_RUN = 1 << 20  # metadata-only payloads are written in 1 MiB runs of zeros


def _tar_number(value: int, length: int) -> bytes:
    """A tar numeric field: octal when it fits, GNU base-256 otherwise."""
    if 0 <= value < 8 ** (length - 1):
        return ("%0*o" % (length - 1, value)).encode("ascii") + b"\0"
    limit = 256 ** (length - 1)
    if not -limit <= value < limit:
        raise MaterializeError(f"number too large for a {length}-byte tar field")
    # A 0x80 lead byte marks a positive number, 0xFF a negative one (mtimes
    # before 1970); the rest is the two's complement, big-endian.
    return bytes([0x80 if value >= 0 else 0xFF]) + (value % limit).to_bytes(length - 1, "big")


def _tar_pad(data: bytes) -> bytes:
    return data + bytes(-len(data) % _TAR_BLOCK)


def _mtime(node: "FileNode") -> int:
    return int(node.timestamps.modified) if node.timestamps is not None else 0


class TarSink(MaterializationSink):
    """Stream the image into a deterministic ``.tar`` / ``.tar.gz`` archive.

    The archive is written block by block in the GNU tar format, byte for
    byte as Python's ``tarfile`` writes it with ``format=GNU_FORMAT``.
    Determinism: entries appear in stream order (directories first), owners
    are fixed to 0/"", modes to 0o755 (dirs) / 0o644 (files), mtimes come
    from the image's timestamp model (0 when absent), names past 100 bytes
    use GNU ``L`` longname members, and gzip compression embeds no
    timestamp — so one seeded image always produces byte-identical archive
    bytes, which CI pins.

    Metadata-only images are archived with zero-filled payloads of the right
    size (the POSIX formats have no hole representation; see
    :class:`SparseTarSink`).
    """

    name = "tar"
    #: Mode of the ``././@LongLink`` header; 0 is what ``tarfile`` writes.
    LONGLINK_MODE = 0

    def __init__(self, archive_path: str, compress: bool | None = None) -> None:
        self.archive_path = archive_path
        if compress is None:
            compress = archive_path.endswith((".tar.gz", ".tgz"))
        self.compress = bool(compress)
        self._raw = None
        self._gzip = None
        self._stream = None
        self._directory_times: dict[str, float] = {}

    # Block assembly ---------------------------------------------------------

    def _header(
        self,
        name: bytes,
        *,
        typeflag: bytes,
        mode: int,
        size: int,
        mtime: int,
        sparse: "list[tuple[int, int]] | None" = None,
        realsize: int | None = None,
    ) -> bytes:
        buf = bytearray(_TAR_BLOCK)
        if len(name) > 100:
            raise MaterializeError("header names are capped at 100 bytes (use a longname)")
        buf[0 : len(name)] = name
        buf[100:108] = _tar_number(mode, 8)
        buf[108:116] = _tar_number(0, 8)  # uid
        buf[116:124] = _tar_number(0, 8)  # gid
        buf[124:136] = _tar_number(size, 12)
        buf[136:148] = _tar_number(mtime, 12)
        buf[156:157] = typeflag
        buf[257:265] = b"ustar  \0"  # oldgnu magic+version
        if sparse is not None:
            # struct oldgnu_header: sparse map at 386 (4 slots of 12+12),
            # isextended flag at 482, real (apparent) size at 483.
            if len(sparse) > 4:
                raise MaterializeError("at most 4 sparse regions fit the base header")
            position = 386
            for offset, numbytes in sparse:
                buf[position : position + 12] = _tar_number(offset, 12)
                buf[position + 12 : position + 24] = _tar_number(numbytes, 12)
                position += 24
            assert realsize is not None
            buf[483:495] = _tar_number(realsize, 12)
        buf[148:156] = b" " * 8  # checksum is computed over spaces
        buf[148:156] = ("%06o" % sum(buf)).encode("ascii") + b"\0 "
        return bytes(buf)

    def _write(self, data: bytes) -> None:
        assert self._stream is not None
        self._stream.write(data)

    def _emit_name(self, relpath: str, *, directory: bool) -> bytes:
        """The (possibly truncated) header name, emitting a longname first."""
        full = relpath.encode("utf-8") + (b"/" if directory else b"")
        if len(full) <= 100:
            return full
        self._write(
            self._header(
                b"././@LongLink",
                typeflag=b"L",  # tarfile.GNUTYPE_LONGNAME
                mode=self.LONGLINK_MODE,
                size=len(full) + 1,
                mtime=0,
            )
        )
        self._write(_tar_pad(full + b"\0"))
        return full[:100]

    # Sink protocol ----------------------------------------------------------

    def begin(self, image: "FileSystemImage", plan: MaterializationPlan) -> None:
        directory = os.path.dirname(self.archive_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._raw = open(self.archive_path, "wb")
        self._stream = self._raw
        if self.compress:
            # mtime=0 and an empty filename keep the gzip header constant.
            self._gzip = gzip.GzipFile(
                filename="", mode="wb", fileobj=self._raw, mtime=0, compresslevel=6
            )
            self._stream = self._gzip
        self._directory_times = {
            path.lstrip("/") or ".": modified
            for _, path, (_, modified) in derived_directory_times(image.tree)
        }

    def add_directory(self, directory: "DirectoryNode", relpath: str) -> None:
        if relpath == ".":
            return  # the archive root is implicit
        name = self._emit_name(relpath, directory=True)
        self._write(
            self._header(
                name,
                typeflag=b"5",
                mode=0o755,
                size=0,
                mtime=int(self._directory_times.get(relpath, 0)),
            )
        )

    def add_file(self, stream: FileStream) -> None:
        node = stream.node
        name = self._emit_name(stream.relpath, directory=False)
        self._write(
            self._header(name, typeflag=b"0", mode=0o644, size=node.size, mtime=_mtime(node))
        )
        if stream.write_content:
            written = 0
            for chunk in stream.chunks():
                written += len(chunk)
                if written > node.size:
                    break
                self._write(chunk)
            if written != node.size:
                raise MaterializeError(
                    f"content for {stream.relpath!r} is not its declared "
                    f"{node.size} bytes"
                )
        else:
            stream.ensure_digest()
            for offset in range(0, node.size, _ZERO_RUN):
                self._write(bytes(min(_ZERO_RUN, node.size - offset)))
        self._write(bytes(-node.size % _TAR_BLOCK))

    def finalize(self) -> dict:
        assert self._stream is not None and self._raw is not None
        self._write(b"\0" * (_TAR_BLOCK * 2))  # end-of-archive marker
        # Pad to the blocking factor exactly like tarfile/GNU tar do.
        self._write(bytes(-self._stream.tell() % _TAR_RECORD))
        if self._gzip is not None:
            self._gzip.close()
        self._raw.close()
        digest = hashlib.sha256()
        with open(self.archive_path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
        return {
            "path": self.archive_path,
            "archive_bytes": os.path.getsize(self.archive_path),
            "archive_sha256": digest.hexdigest(),
            "compressed": self.compress,
        }

    def abort(self) -> None:
        for handle in (self._gzip, self._raw):
            if handle is not None:
                with contextlib.suppress(Exception):
                    handle.close()
        self._gzip = self._raw = self._stream = None
        with contextlib.suppress(OSError):
            os.remove(self.archive_path)


class SparseTarSink(TarSink):
    """Stream the image into a GNU *sparse* tar — metadata-only, tiny on disk.

    :class:`TarSink` must zero-fill metadata-only payloads, so archiving a
    100 GiB image costs 100 GiB of zeros (gzip shrinks them, but the write
    and any re-read do not).  This sink shares :class:`TarSink`'s writer and
    archives each non-empty file as a GNU *oldgnu* sparse member (typeflag
    ``S``) instead: a sparse map plus only its data regions — for
    Impressions' metadata-only files, the single trailing zero byte that
    :class:`DirectorySink` writes (``seek(size-1); write(b"\\0")``) — while
    the header's ``realsize`` field preserves the full apparent size.
    Archive size scales with the *file count*, not the image's nominal bytes.

    Standard tools understand the format: GNU tar extracts the holes back,
    and Python's ``tarfile`` reads the members (``TarInfo.size`` reports the
    apparent size), which is how the round-trip test verifies the archive.
    One seeded image produces byte-identical archives — CI pins the digest.
    """

    name = "sparse-tar"
    writes_content = False
    LONGLINK_MODE = 0o644

    def begin(self, image: "FileSystemImage", plan: MaterializationPlan) -> None:
        super().begin(image, plan)
        self._sparse_members = 0
        self._apparent_bytes = 0

    def add_file(self, stream: FileStream) -> None:
        node = stream.node
        if node.size == 0:
            super().add_file(stream)  # a plain empty member
            return
        stream.ensure_digest()
        name = self._emit_name(stream.relpath, directory=False)
        # One data region — the trailing zero byte DirectorySink writes; the
        # header's size counts archived bytes, realsize the apparent size.
        self._write(
            self._header(
                name,
                typeflag=b"S",
                mode=0o644,
                size=1,
                mtime=_mtime(node),
                sparse=[(node.size - 1, 1)],
                realsize=node.size,
            )
        )
        self._write(_tar_pad(b"\0"))
        self._sparse_members += 1
        self._apparent_bytes += node.size

    def finalize(self) -> dict:
        extras = super().finalize()
        extras["sparse_members"] = self._sparse_members
        extras["apparent_bytes"] = self._apparent_bytes
        return extras


# Manifest sink ----------------------------------------------------------------


class ManifestSink(MaterializationSink):
    """Write a JSONL manifest of the image — one line per entry.

    The first line is a header (format version, order, image shape, content
    seed); every following line describes one directory or file, including
    per-file timestamps and disk extents.  Content bytes are never generated
    (``writes_content`` is False), so manifesting a huge image costs seconds,
    not hours — the manifest plus the config is enough to rebuild or audit
    the image elsewhere.

    ``digest_content=True`` (CLI ``--digest-content``) additionally records a
    ``content_sha256`` per file: a hash over the *raw content bytes only*, no
    metadata header, so it is independent of the file's path.  That makes the
    manifest rows comparable across renames — the shard merge verifier checks
    that the digest multiset over all per-shard manifests equals the merged
    image's (:func:`repro.shard.manifest_content_digests`).  Opt-in because
    it generates (and discards) every file's content: manifesting stops being
    free and costs a full content pass.
    """

    name = "manifest"
    writes_content = False

    def __init__(self, manifest_path: str, digest_content: bool = False) -> None:
        self.manifest_path = manifest_path
        self.digest_content = digest_content
        self._handle = None
        self._lines = 0

    def _write(self, document: dict) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(document, sort_keys=True, separators=(",", ":")))
        self._handle.write("\n")
        self._lines += 1

    def begin(self, image: "FileSystemImage", plan: MaterializationPlan) -> None:
        if self.digest_content and image.content_generator is None:
            raise MaterializeError(
                "digest_content requires a content-bearing image; this image "
                "was generated metadata-only (content='metadata')"
            )
        directory = os.path.dirname(self.manifest_path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._handle = open(self.manifest_path, "w", encoding="utf-8")
        self._lines = 0
        self._write(
            {
                "type": "header",
                "format": 1,
                "kind": "impressions-manifest",
                "order": plan.order,
                "files": plan.files,
                "directories": plan.directories,
                "total_bytes": plan.total_bytes,
                "content_seed": image.content_seed,
                "layout_score": image.achieved_layout_score(),
                "digest_content": self.digest_content,
            }
        )

    def add_directory(self, directory: "DirectoryNode", relpath: str) -> None:
        self._write({"type": "dir", "path": relpath, "depth": directory.depth})

    def add_file(self, stream: FileStream) -> None:
        node = stream.node
        stamps = node.timestamps
        row = {
            "type": "file",
            "path": stream.relpath,
            "size": node.size,
            "extension": node.extension,
            "depth": node.depth,
            "file_id": node.file_id,
            "content_kind": node.content_kind,
            "timestamps": (
                [stamps.created, stamps.modified, stamps.accessed]
                if stamps is not None
                else None
            ),
            "extents": [list(extent) for extent in node.extents],
            "digest": stream.ensure_digest(),
        }
        if self.digest_content:
            # Raw content bytes only — path-independent by design, unlike the
            # entry digest above.  Legal to iterate here: a metadata-only plan
            # never consumes the stream, so the chunks are ours to generate.
            digest = hashlib.sha256()
            for chunk in stream.content_chunks():
                digest.update(chunk)
            row["content_sha256"] = digest.hexdigest()
        self._write(row)

    def finalize(self) -> dict:
        assert self._handle is not None
        self._handle.close()
        return {
            "path": self.manifest_path,
            "manifest_bytes": os.path.getsize(self.manifest_path),
            "lines": self._lines,
        }

    def abort(self) -> None:
        if self._handle is not None:
            with contextlib.suppress(Exception):
                self._handle.close()
            self._handle = None
        with contextlib.suppress(OSError):
            os.remove(self.manifest_path)


# Null sink --------------------------------------------------------------------


class NullSink(MaterializationSink):
    """Materialize nothing; the driver's content digest is the artifact.

    With content enabled every file's bytes are still generated and hashed,
    so two runs (or two machines) can assert that they would materialize the
    identical image without writing a single byte — the cheapest possible
    determinism gate for CI.
    """

    name = "null"

    def begin(self, image: "FileSystemImage", plan: MaterializationPlan) -> None:
        pass

    def add_directory(self, directory: "DirectoryNode", relpath: str) -> None:
        pass

    def add_file(self, stream: FileStream) -> None:
        pass

    def finalize(self) -> dict:
        return {}


#: CLI / stage-param sink spellings.
SINK_NAMES = ("dir", "tar", "sparse-tar", "manifest", "null")


def build_sink(
    kind: str,
    path: str | None = None,
    jobs: int = 1,
    digest_content: bool = False,
) -> MaterializationSink:
    """Instantiate a sink from its CLI spelling.

    ``dir`` / ``tar`` / ``sparse-tar`` / ``manifest`` need a target ``path``;
    ``null`` takes none.  ``jobs`` only affects :class:`DirectorySink`;
    ``digest_content`` only :class:`ManifestSink`.
    """
    if digest_content and kind != "manifest":
        raise MaterializeError(
            f"digest_content is a manifest-sink option, not valid for {kind!r}"
        )
    if kind == "null":
        return NullSink()
    if path is None:
        raise MaterializeError(f"sink {kind!r} needs a target path")
    if kind == "dir":
        return DirectorySink(path, jobs=jobs)
    if kind == "tar":
        return TarSink(path)
    if kind == "sparse-tar":
        return SparseTarSink(path)
    if kind == "manifest":
        return ManifestSink(path, digest_content=digest_content)
    raise MaterializeError(f"unknown sink {kind!r}; expected one of {SINK_NAMES}")
