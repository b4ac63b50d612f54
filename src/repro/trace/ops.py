"""Typed operation model and JSONL trace container.

The replay-trace taxonomy (Kahanwal & Singh) distinguishes metadata
operations (``create``, ``stat``, ``delete``, ``rename``, ``mkdir``) from data
operations (``read``, ``write``).  :class:`Operation` is one record of either
kind; :class:`OperationTrace` is an append-friendly in-memory sequence of them
with a line-oriented JSONL serialization, so traces can be piped between the
``impressions trace`` subcommands, stored next to a reproducibility report,
and diffed byte-for-byte when checking determinism.

Serialization is canonical: keys are sorted, separators are fixed, and fields
holding their default value are omitted, so the same trace always produces
the same bytes.

A trace is stored as columns, not one object per operation: a kind code
(one byte), references to shared path and rename-target strings (8 bytes
each), size and batch (``array('q')``, 8 bytes each), an append flag (one
byte) and a client code (4 bytes) per operation.  That is 38 bytes plus each
distinct string once, where a slotted :class:`Operation` in a list costs
about 150.  Iteration, indexing and :meth:`OperationTrace.add` build each
:class:`Operation` on demand; :meth:`OperationTrace.columns` gives the
replayer the fields without building any.
"""

from __future__ import annotations

import io
import json
from array import array
from dataclasses import dataclass, replace
from itertools import compress, repeat
from operator import index as _index
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "OP_KINDS",
    "DATA_OP_KINDS",
    "METADATA_OP_KINDS",
    "Operation",
    "OperationTrace",
    "TraceFormatError",
    "merge_traces",
]

#: Every operation kind the trace model understands.
OP_KINDS = ("create", "write", "read", "stat", "delete", "rename", "mkdir")
#: Kinds that move file data (and therefore carry a byte count).
DATA_OP_KINDS = frozenset({"write", "read"})
#: Kinds that only touch metadata.
METADATA_OP_KINDS = frozenset(OP_KINDS) - DATA_OP_KINDS

_KIND_SET = frozenset(OP_KINDS)
_KIND_CODES = {kind: code for code, kind in enumerate(OP_KINDS)}


class TraceFormatError(ValueError):
    """Raised when JSONL trace input cannot be parsed."""


@dataclass(frozen=True, slots=True, init=False)
class Operation:
    """One operation of a trace.

    Attributes:
        kind: one of :data:`OP_KINDS`.
        path: the file or directory the operation targets.
        size: byte count for ``create``/``write``/``read`` (0 elsewhere).
        dest: rename target path (empty for every other kind).
        append: for ``write`` only — True appends ``size`` bytes past EOF
            (allocating new blocks), False overwrites in place the way a
            steady-state read/write mix does.
        batch: arrival-batch index; synthesizers group operations that
            "arrive" together (think one client request) under one index,
            and the replayer reports batch counts back.
        client: tag of the client that issued the operation (empty for
            single-client traces); :func:`merge_traces` stamps it and the
            replayer reports per-client statistics when it is set.
    """

    kind: str
    path: str
    size: int = 0
    dest: str = ""
    append: bool = False
    batch: int = 0
    client: str = ""

    def __init__(
        self, kind: str, path: str, size: int = 0, dest: str = "", append: bool = False,
        batch: int = 0, client: str = "",
    ) -> None:
        # Traces are built one operation at a time, so the valid case is a
        # single test (only rename carries a dest, only write appends) and
        # the fields go straight into their slots, past the frozen guard.
        if (
            kind not in _KIND_SET
            or not path
            or size < 0
            or batch < 0
            or (not dest) is (kind == "rename")
            or (append and kind != "write")
        ):
            _check_operation(kind, path, size, dest, append, batch)
        _set_kind(self, kind)
        _set_path(self, path)
        _set_size(self, size)
        _set_dest(self, dest)
        _set_append(self, append)
        _set_batch(self, batch)
        _set_client(self, client)

    @property
    def is_data(self) -> bool:
        return self.kind in DATA_OP_KINDS

    def to_json_line(self) -> str:
        """Canonical single-line JSON encoding (defaults omitted)."""
        record: dict[str, object] = {"op": self.kind, "path": self.path}
        if self.size:
            record["size"] = self.size
        if self.dest:
            record["dest"] = self.dest
        if self.append:
            record["append"] = True
        if self.batch:
            record["batch"] = self.batch
        if self.client:
            record["client"] = self.client
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_line(cls, line: str) -> "Operation":
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise TraceFormatError(f"malformed trace line: {line!r}") from error
        if not isinstance(record, dict) or "op" not in record or "path" not in record:
            raise TraceFormatError(f"trace line missing op/path: {line!r}")
        if not isinstance(record["op"], str) or not isinstance(record["path"], str):
            raise TraceFormatError(f"trace line op/path must be strings: {line!r}")
        if not isinstance(record.get("dest", ""), str):
            raise TraceFormatError(f"trace line dest must be a string: {line!r}")
        if not isinstance(record.get("client", ""), str):
            raise TraceFormatError(f"trace line client must be a string: {line!r}")
        try:
            return cls(
                kind=record["op"],
                path=record["path"],
                size=int(record.get("size", 0)),
                dest=record.get("dest", ""),
                append=bool(record.get("append", False)),
                batch=int(record.get("batch", 0)),
                client=record.get("client", ""),
            )
        except (TypeError, ValueError) as error:
            raise TraceFormatError(f"invalid trace line {line!r}: {error}") from error


# Each field's slot descriptor stores it without the frozen ``__setattr__``.
_set_kind, _set_path, _set_size, _set_dest, _set_append, _set_batch, _set_client = (
    Operation.__dict__[name].__set__ for name in Operation.__match_args__
)


def _check_operation(kind: str, path: str, size: int, dest: str, append: bool, batch: int) -> None:
    """Raise the ``ValueError`` an invalid :class:`Operation` is built with."""
    if kind not in _KIND_SET:
        raise ValueError(f"unknown operation kind {kind!r}")
    if not path:
        raise ValueError("operation path must be non-empty")
    if size < 0:
        raise ValueError("operation size must be non-negative")
    if batch < 0:
        raise ValueError("operation batch must be non-negative")
    if kind == "rename" and not dest:
        raise ValueError("rename requires a dest path")
    if kind != "rename" and dest:
        raise ValueError(f"dest is only valid for rename, not {kind!r}")
    if append and kind != "write":
        raise ValueError(f"append is only valid for write, not {kind!r}")


#: Header line marker: the first line of a serialized trace is a metadata
#: record rather than an operation.
_HEADER_KEY = "impressions_trace"
_FORMAT_VERSION = 1

_INT64_MAX = 2**63 - 1


class OperationTrace:
    """An append-friendly, replayable sequence of operations, held as columns.

    The trace carries a ``metadata`` mapping (synthesizer name, parameters,
    seed) that is serialized as a JSONL header line, so a trace file is
    self-describing without affecting replay.  Sizes and batches are int64.
    """

    def __init__(
        self,
        operations: Iterable[Operation] = (),
        metadata: Mapping[str, object] | None = None,
    ) -> None:
        self.metadata: dict[str, object] = dict(metadata or {})
        self._kinds = bytearray()
        self._paths: list[str] = []
        self._sizes = array("q")
        self._batches = array("q")
        self._appends = bytearray()
        self._dests: list[str] = []
        self._clients = array("I")
        # Client tag -> code, in order of first appearance; "" is code 0.
        self._client_codes = {"": 0}
        self.extend(operations)

    # Construction ---------------------------------------------------------

    def append(self, operation: Operation) -> None:
        self.push(*map(operation.__getattribute__, Operation.__match_args__))

    def extend(self, operations: Iterable[Operation]) -> None:
        for operation in list(operations) if operations is self else operations:
            self.append(operation)

    def push(
        self, kind: str, path: str, size: int = 0, dest: str = "", append: bool = False,
        batch: int = 0, client: str = "",
    ) -> None:
        """Append one operation by its fields, checked as :class:`Operation` checks them."""
        size, batch = _index(size), _index(batch)
        if (
            kind not in _KIND_SET
            or not path
            or not 0 <= size <= _INT64_MAX
            or not 0 <= batch <= _INT64_MAX
            or (not dest) is (kind == "rename")
            or (append and kind != "write")
        ):
            _check_operation(kind, path, size, dest, append, batch)
            raise OverflowError("operation size and batch must fit in a signed 64-bit integer")
        self._clients.append(self._client_codes.setdefault(client, len(self._client_codes)))
        self._kinds.append(_KIND_CODES[kind])
        self._paths.append(path)
        self._sizes.append(size)
        self._batches.append(batch)
        self._appends.append(1 if append else 0)
        self._dests.append(dest)

    def add(
        self,
        kind: str,
        path: str,
        size: int = 0,
        dest: str = "",
        append: bool = False,
        batch: int = 0,
        client: str = "",
    ) -> Operation:
        """Create an operation, append it to the trace, and return it."""
        operation = Operation(kind, path, size, dest, append, batch, client)
        self.append(operation)
        return operation

    def extend_columns(
        self, kinds: bytes, paths: list[str], sizes: Sequence[int], batches: Sequence[int]
    ) -> None:
        """Append operations without dest, append flag or client, given as columns.

        ``kinds`` holds indices into :data:`OP_KINDS`.  On invalid input nothing is
        appended and the first invalid operation raises :class:`Operation`'s error.
        """
        codes = np.frombuffer(kinds, dtype=np.uint8)
        sizes = np.asarray(sizes, dtype=np.int64)
        batches = np.asarray(batches, dtype=np.int64)
        if not len(paths) == sizes.size == batches.size == codes.size:
            raise ValueError("every column needs one entry per operation")
        invalid = (codes >= len(OP_KINDS)) | (codes == _KIND_CODES["rename"])
        invalid |= (sizes < 0) | (batches < 0)
        if not all(paths):
            invalid[paths.index("")] = True
        if invalid.any():
            index = int(np.argmax(invalid))
            code = int(codes[index])
            kind = OP_KINDS[code] if code < len(OP_KINDS) else code
            _check_operation(kind, paths[index], sizes[index], "", False, batches[index])
        self._kinds += kinds
        self._paths += paths
        self._sizes.frombytes(sizes.tobytes())
        self._batches.frombytes(batches.tobytes())
        self._appends += bytes(codes.size)
        self._dests += [""] * codes.size
        self._clients += array("I", [0]) * codes.size

    # Access ---------------------------------------------------------------

    @property
    def operations(self) -> list[Operation]:
        return list(self)

    def columns(self, start: int = 0) -> tuple[Iterable, ...]:
        """One snapshot per field of operations ``start`` onward, in :class:`Operation`
        order; the kind is its index in :data:`OP_KINDS` and ``append`` is 0 or 1."""
        tags, codes = list(self._client_codes), self._clients[start:]
        clients = map(tags.__getitem__, codes) if len(tags) > 1 else repeat("", len(codes))
        return (
            self._kinds[start:],
            self._paths[start:],
            self._sizes[start:],
            self._dests[start:],
            self._appends[start:],
            self._batches[start:],
            clients,
        )

    def __len__(self) -> int:
        return len(self._kinds)

    def __iter__(self) -> Iterator[Operation]:
        kinds, paths, sizes, dests, appends, batches, clients = self.columns()
        kinds, appends = map(OP_KINDS.__getitem__, kinds), map(bool, appends)
        return map(Operation, kinds, paths, sizes, dests, appends, batches, clients)

    def __getitem__(self, index: int) -> Operation:
        if isinstance(index, slice):
            return [self[position] for position in range(*index.indices(len(self)))]
        kind, tag = OP_KINDS[self._kinds[index]], list(self._client_codes)[self._clients[index]]
        return Operation(kind, self._paths[index], self._sizes[index], self._dests[index],
                         bool(self._appends[index]), self._batches[index], tag)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OperationTrace):
            return NotImplemented
        columns = zip(self.columns(), other.columns())
        return all(list(mine) == list(theirs) for mine, theirs in columns) and (
            self.metadata == other.metadata
        )

    def kind_codes(self) -> np.ndarray:
        """Each operation's kind as its index in :data:`OP_KINDS`, in trace order."""
        return np.frombuffer(bytes(self._kinds), dtype=np.uint8)

    def counts_by_kind(self) -> dict[str, int]:
        kinds = self._kinds
        first = sorted((kinds.find(code), code) for code in range(len(OP_KINDS)) if code in kinds)
        return {OP_KINDS[code]: kinds.count(code) for _, code in first}

    def bytes_by_kind(self) -> dict[str, int]:
        """Total bytes moved per data-operation kind."""
        return {
            kind: sum(compress(self._sizes, map(_KIND_CODES[kind].__eq__, self._kinds)))
            for kind in self.counts_by_kind()
            if kind in DATA_OP_KINDS
        }

    def num_batches(self) -> int:
        return max(self._batches, default=-1) + 1

    def client_tags(self) -> tuple[str, ...]:
        """Distinct non-empty client tags, in first-appearance order."""
        return tuple(self._client_codes)[1:]

    def summary(self) -> dict:
        return {
            "operations": len(self),
            "batches": self.num_batches(),
            "counts_by_kind": self.counts_by_kind(),
            "bytes_by_kind": self.bytes_by_kind(),
        }

    # Serialization --------------------------------------------------------

    def to_jsonl(self) -> str:
        """Serialize header + one line per operation (canonical bytes)."""
        buffer = io.StringIO()
        self.write_jsonl(buffer)
        return buffer.getvalue()

    def write_jsonl(self, stream: IO[str]) -> None:
        header = {
            _HEADER_KEY: _FORMAT_VERSION,
            "operations": len(self),
            "metadata": self.metadata,
        }
        stream.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
        stream.write("\n")
        for operation in self:
            stream.write(operation.to_json_line())
            stream.write("\n")

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            self.write_jsonl(handle)

    @classmethod
    def from_jsonl(cls, text: str) -> "OperationTrace":
        return cls.read_jsonl(io.StringIO(text))

    @classmethod
    def read_jsonl(cls, stream: IO[str]) -> "OperationTrace":
        """Parse a trace from a JSONL stream (header line optional)."""
        trace = cls()
        first = True
        for line in stream:
            line = line.strip()
            if not line:
                continue
            if first:
                first = False
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as error:
                    raise TraceFormatError(f"malformed trace line: {line!r}") from error
                if isinstance(record, dict) and _HEADER_KEY in record:
                    version = record[_HEADER_KEY]
                    if version != _FORMAT_VERSION:
                        raise TraceFormatError(f"unsupported trace version {version!r}")
                    trace.metadata = dict(record.get("metadata", {}))
                    continue
            operation = Operation.from_json_line(line)
            try:
                trace.append(operation)
            except OverflowError as error:
                raise TraceFormatError(f"invalid trace line {line!r}: {error}") from error
        return trace

    @classmethod
    def load(cls, path: str) -> "OperationTrace":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.read_jsonl(handle)


def merge_traces(
    *traces: OperationTrace, tags: Sequence[str] | None = None
) -> OperationTrace:
    """Interleave per-client traces into one arrival-ordered stream.

    Each input trace models one client; its arrival-batch indices are treated
    as a shared clock, so the merged stream carries batch 0 of every client
    before batch 1 of any client (clients rotate in ``tags`` order within a
    batch, and each client's own operation order is preserved).  Every merged
    operation is stamped with its client tag (``client0``, ``client1``, …
    unless ``tags`` overrides them); operations already carrying a tag keep
    it.  Paths are shared namespace: if two clients touch the same path the
    merged trace really does model that contention (synthesizers accept
    per-client roots/prefixes when isolation is wanted).

    Args:
        traces: one trace per client (at least one).
        tags: per-client tags; must be unique and match ``len(traces)``.

    Returns:
        A new :class:`OperationTrace`; inputs are not modified.
    """
    if not traces:
        raise ValueError("merge_traces requires at least one trace")
    if tags is None:
        tags = tuple(f"client{index}" for index in range(len(traces)))
    else:
        tags = tuple(tags)
        if len(tags) != len(traces):
            raise ValueError(f"got {len(traces)} traces but {len(tags)} tags")
        if len(set(tags)) != len(tags):
            raise ValueError("client tags must be unique")
        if not all(tags):
            raise ValueError("client tags must be non-empty")

    entries: list[tuple[int, int, int, Operation]] = []
    for client_index, trace in enumerate(traces):
        for sequence, operation in enumerate(trace):
            entries.append((operation.batch, client_index, sequence, operation))
    entries.sort(key=lambda entry: entry[:3])

    merged = OperationTrace(
        metadata={
            "merged": True,
            "clients": list(tags),
            "operations_per_client": [len(trace) for trace in traces],
            "sources": [dict(trace.metadata) for trace in traces],
        }
    )
    for _batch, client_index, _sequence, operation in entries:
        if operation.client:
            merged.append(operation)
        else:
            merged.append(replace(operation, client=tags[client_index]))
    return merged
