"""Crash-consistent file writes with checksum trailers, plus quarantine.

:func:`atomic_write_bytes` is the one write path every durability layer now
shares: payload + 40-byte trailer (magic + raw SHA-256 of the payload) into a
tmp file in the *same directory*, ``fsync``, then ``os.replace``.  That
replace is :func:`atomic_replace`, which the campaign result store also uses
for its unsealed JSONL rewrites.  A reader
calls :func:`read_verified` and gets either the exact bytes that were written
or :class:`CorruptionError` — never a silent prefix.

The helper doubles as a fault surface: when a :class:`~repro.faults.plan`
injector is bound, the named write point can tear the payload or drop its
tail.  Faithfully tearing the *tmp* file would be invisible (the rename never
happens, the old file survives — that is the whole point of rename
atomicity), so simulated tears are persisted at the **final** path: this
models the post-rename page loss / lying-fsync failure mode that only
read-side verification can catch, which is exactly the detection machinery
the chaos sweep needs to exercise.

:func:`quarantine_file` / :func:`quarantine_bytes` move damaged artifacts
into a ``.quarantine/`` sidecar next to the store they came from, named by
content hash (re-quarantining identical damage is idempotent), with a
``*.reason.json`` record of why.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
from typing import Mapping

from repro.faults import plan as fault_plan

__all__ = [
    "TRAILER_MAGIC",
    "TRAILER_SIZE",
    "CorruptionError",
    "seal",
    "unseal",
    "atomic_replace",
    "atomic_write_bytes",
    "read_verified",
    "quarantine_dir",
    "quarantine_bytes",
    "quarantine_file",
]

#: 8-byte magic opening every checksum trailer.  ``IMPRCHK1`` — version 1.
TRAILER_MAGIC = b"IMPRCHK1"

#: Trailer layout: magic + raw SHA-256 digest of the payload.
TRAILER_SIZE = len(TRAILER_MAGIC) + hashlib.sha256().digest_size


class CorruptionError(RuntimeError):
    """A sealed file failed verification on read.

    Attributes:
        path: the offending file.
        reason: short machine-readable cause (``missing_trailer``,
            ``checksum_mismatch``, ``truncated``).
    """

    def __init__(self, path: str, reason: str, detail: str = "") -> None:
        super().__init__(f"{path}: {reason}" + (f" ({detail})" if detail else ""))
        self.path = path
        self.reason = reason


def seal(payload: bytes) -> bytes:
    """Append the checksum trailer to ``payload``."""
    return payload + TRAILER_MAGIC + hashlib.sha256(payload).digest()


def unseal(blob: bytes, *, path: str = "<memory>") -> bytes:
    """Strip and verify the trailer; raise :class:`CorruptionError` if bad."""
    if len(blob) < TRAILER_SIZE:
        raise CorruptionError(path, "truncated", f"{len(blob)} bytes < trailer size")
    payload, trailer = blob[:-TRAILER_SIZE], blob[-TRAILER_SIZE:]
    if trailer[: len(TRAILER_MAGIC)] != TRAILER_MAGIC:
        raise CorruptionError(path, "missing_trailer")
    if trailer[len(TRAILER_MAGIC) :] != hashlib.sha256(payload).digest():
        raise CorruptionError(path, "checksum_mismatch")
    return payload


def atomic_replace(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data`` as is (no seal), atomically.

    The bytes go to a tmp file in the same directory, which is fsynced and
    then renamed over ``path`` — a crash can never leave a short file — and
    removed on any error.
    """
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp_path)
        raise


def atomic_write_bytes(path: str, payload: bytes, *, fault_point: str | None = None) -> None:
    """Write ``seal(payload)`` to ``path`` with :func:`atomic_replace`.

    With an injector bound and ``fault_point`` given, the scheduled fault for
    that point is applied: error kinds raise before anything persists (and
    the tmp file is removed), torn/fsync-loss kinds persist a mangled blob at
    the final path — torn writes then raise :class:`InjectedCrash`.
    """
    blob = seal(payload)
    crash_after = False
    if fault_point is not None:
        blob, crash_after = fault_plan.mangle_write(fault_point, blob)
    atomic_replace(path, blob)
    if crash_after:
        raise fault_plan.InjectedCrash(fault_point or "atomic_write", "torn write persisted")


def read_verified(path: str, *, fault_point: str | None = None) -> bytes:
    """Read a sealed file back; raise :class:`CorruptionError` on damage.

    Propagates ``FileNotFoundError`` untouched — a miss is not corruption.
    """
    if fault_point is not None:
        fault_plan.check(fault_point)
    with open(path, "rb") as handle:
        blob = handle.read()
    return unseal(blob, path=path)


# Quarantine -------------------------------------------------------------------


def quarantine_dir(store_root: str) -> str:
    """The ``.quarantine/`` sidecar for a store rooted at ``store_root``.

    For a file-backed store (e.g. a JSONL file) pass the file path; the
    sidecar lands next to it.
    """
    if os.path.isdir(store_root):
        return os.path.join(store_root, ".quarantine")
    return os.path.join(os.path.dirname(store_root) or ".", ".quarantine")


def quarantine_bytes(
    store_root: str,
    data: bytes,
    *,
    layer: str,
    reason: str,
    detail: Mapping | None = None,
) -> str:
    """Preserve corrupt ``data`` in the sidecar; return the quarantined path.

    Files are named by content hash so identical damage quarantines once;
    a ``<name>.reason.json`` record alongside captures the why.
    """
    root = quarantine_dir(store_root)
    os.makedirs(root, exist_ok=True)
    digest = hashlib.sha256(data).hexdigest()[:16]
    name = f"{layer}-{digest}.bin"
    target = os.path.join(root, name)
    if not os.path.exists(target):
        with open(target, "wb") as handle:
            handle.write(data)
    record = {
        "layer": layer,
        "reason": reason,
        "size_bytes": len(data),
        "sha256_16": digest,
        "quarantined_at": time.time(),
    }
    if detail:
        record["detail"] = dict(detail)
    with open(os.path.join(root, f"{name}.reason.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, indent=2)
        handle.write("\n")
    fault_plan.count_quarantine(layer)
    return target


def quarantine_file(
    store_root: str,
    path: str,
    *,
    layer: str,
    reason: str,
    detail: Mapping | None = None,
) -> str | None:
    """Move the file at ``path`` into quarantine; None if already gone."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        return None
    target = quarantine_bytes(store_root, data, layer=layer, reason=reason, detail=detail)
    try:
        os.remove(path)
    except FileNotFoundError:
        pass
    return target
