"""A frozen copy of the list-backed trace container, kept as a test oracle.

``ReferenceTrace`` holds one :class:`~repro.trace.ops.Operation` per list
entry and serializes each through its own copy of the canonical JSON line
codec, exactly as :class:`~repro.trace.ops.OperationTrace` did before it
stored traces as columns.  ``tests/test_trace_columns.py`` drives both with
the same random operations and requires every observable result to match.
Do not optimise or "fix" this module: its value is that it does not change.
"""

from __future__ import annotations

import io
import json
from dataclasses import replace

import numpy as np

from repro.trace.ops import OP_KINDS, DATA_OP_KINDS, Operation, TraceFormatError

_KIND_CODES = {kind: code for code, kind in enumerate(OP_KINDS)}
_HEADER_KEY = "impressions_trace"
_FORMAT_VERSION = 1


def to_json_line(operation: Operation) -> str:
    record: dict[str, object] = {"op": operation.kind, "path": operation.path}
    if operation.size:
        record["size"] = operation.size
    if operation.dest:
        record["dest"] = operation.dest
    if operation.append:
        record["append"] = True
    if operation.batch:
        record["batch"] = operation.batch
    if operation.client:
        record["client"] = operation.client
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def from_json_line(line: str) -> Operation:
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
        return Operation(
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


class ReferenceTrace:
    def __init__(self, operations=(), metadata=None) -> None:
        self._operations: list[Operation] = list(operations)
        self.metadata: dict[str, object] = dict(metadata or {})

    def append(self, operation: Operation) -> None:
        self._operations.append(operation)

    def extend(self, operations) -> None:
        self._operations.extend(operations)

    def add(self, kind, path, size=0, dest="", append=False, batch=0, client="") -> Operation:
        operation = Operation(
            kind=kind, path=path, size=size, dest=dest, append=append, batch=batch, client=client
        )
        self._operations.append(operation)
        return operation

    @property
    def operations(self) -> list[Operation]:
        return list(self._operations)

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self):
        return iter(self._operations)

    def __getitem__(self, index):
        return self._operations[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReferenceTrace):
            return NotImplemented
        return self._operations == other._operations and self.metadata == other.metadata

    def kind_codes(self) -> np.ndarray:
        codes = bytes([_KIND_CODES[operation.kind] for operation in self._operations])
        return np.frombuffer(codes, dtype=np.uint8)

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for operation in self._operations:
            counts[operation.kind] = counts.get(operation.kind, 0) + 1
        return counts

    def bytes_by_kind(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for operation in self._operations:
            if operation.kind in DATA_OP_KINDS:
                totals[operation.kind] = totals.get(operation.kind, 0) + operation.size
        return totals

    def num_batches(self) -> int:
        if not self._operations:
            return 0
        return max(operation.batch for operation in self._operations) + 1

    def client_tags(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for operation in self._operations:
            if operation.client and operation.client not in seen:
                seen[operation.client] = None
        return tuple(seen)

    def summary(self) -> dict:
        return {
            "operations": len(self._operations),
            "batches": self.num_batches(),
            "counts_by_kind": self.counts_by_kind(),
            "bytes_by_kind": self.bytes_by_kind(),
        }

    def to_jsonl(self) -> str:
        stream = io.StringIO()
        header = {
            _HEADER_KEY: _FORMAT_VERSION,
            "operations": len(self._operations),
            "metadata": self.metadata,
        }
        stream.write(json.dumps(header, sort_keys=True, separators=(",", ":")))
        stream.write("\n")
        for operation in self._operations:
            stream.write(to_json_line(operation))
            stream.write("\n")
        return stream.getvalue()

    @classmethod
    def from_jsonl(cls, text: str) -> "ReferenceTrace":
        trace = cls()
        first = True
        for line in io.StringIO(text):
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
            trace.append(from_json_line(line))
        return trace


def reference_merge_traces(*traces: ReferenceTrace, tags=None) -> ReferenceTrace:
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
    entries = []
    for client_index, trace in enumerate(traces):
        for sequence, operation in enumerate(trace):
            entries.append((operation.batch, client_index, sequence, operation))
    entries.sort(key=lambda entry: entry[:3])
    merged = ReferenceTrace(
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
