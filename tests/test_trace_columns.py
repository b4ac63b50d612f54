"""Differential test of ``OperationTrace`` against the list-backed reference.

Random valid operations go into an :class:`~repro.trace.ops.OperationTrace`
and into :class:`trace_reference.ReferenceTrace` (a frozen copy of the
container as it was when it held one ``Operation`` per list entry) through
``append``/``extend``/``add``, ``from_jsonl`` and ``merge_traces``.  Every
observable result must match: the operations, length, indexing, equality,
JSONL bytes, kind codes, summaries, client tags and a pickle round trip.
Invalid input must raise the same exception with the same message.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace.ops import OP_KINDS, Operation, OperationTrace, TraceFormatError, merge_traces

from trace_reference import ReferenceTrace, reference_merge_traces

_INT64_MAX = 2**63 - 1

_texts = st.one_of(
    st.sampled_from(["/a", "/d/f0", "/d/f1", '/q"uote', "/back\\slash", "/sp ace", "/ü/ß"]),
    st.text(min_size=1, max_size=10),
)
_clients = st.one_of(st.just(""), st.sampled_from(["c0", "web", "db"]), st.text(max_size=4))
_counts = st.one_of(st.integers(0, 300), st.integers(0, _INT64_MAX))


@st.composite
def operations(draw) -> Operation:
    kind = draw(st.sampled_from(OP_KINDS))
    return Operation(
        kind=kind,
        path=draw(_texts),
        size=draw(_counts),
        dest=draw(_texts) if kind == "rename" else "",
        append=draw(st.booleans()) if kind == "write" else False,
        batch=draw(_counts),
        client=draw(_clients),
    )


_metadata = st.dictionaries(
    st.sampled_from(["synthesizer", "seed", "spec", "name"]),
    st.one_of(st.integers(-5, 5), st.text(max_size=5), st.lists(st.integers(0, 3), max_size=3)),
    max_size=3,
)

#: One construction step: append one, extend by a list or a generator, add by
#: fields, or read the kind codes part way (they used to be cached).
_actions = st.lists(
    st.one_of(
        st.tuples(st.just("append"), operations()),
        st.tuples(st.just("extend"), st.lists(operations(), max_size=6)),
        st.tuples(st.just("extend_iter"), st.lists(operations(), max_size=6)),
        st.tuples(st.just("add"), operations()),
        st.tuples(st.just("codes"), st.none()),
    ),
    max_size=12,
)


def _fields(operation: Operation) -> dict:
    return {
        "kind": operation.kind,
        "path": operation.path,
        "size": operation.size,
        "dest": operation.dest,
        "append": operation.append,
        "batch": operation.batch,
        "client": operation.client,
    }


def _build(actions, metadata) -> tuple[OperationTrace, ReferenceTrace]:
    trace, reference = OperationTrace(metadata=metadata), ReferenceTrace(metadata=metadata)
    for action, payload in actions:
        if action == "append":
            trace.append(payload)
            reference.append(payload)
        elif action == "extend":
            trace.extend(list(payload))
            reference.extend(list(payload))
        elif action == "extend_iter":
            trace.extend(operation for operation in payload)
            reference.extend(operation for operation in payload)
        elif action == "add":
            assert trace.add(**_fields(payload)) == reference.add(**_fields(payload))
        else:
            assert_same_codes(trace, reference)
    return trace, reference


def assert_same_codes(trace: OperationTrace, reference: ReferenceTrace) -> None:
    codes = trace.kind_codes()
    assert codes.dtype == np.uint8
    assert np.array_equal(codes, reference.kind_codes())


def assert_same(trace: OperationTrace, reference: ReferenceTrace) -> None:
    operations = list(reference)
    assert list(trace) == operations
    assert [repr(operation) for operation in trace] == [repr(op) for op in operations]
    assert trace.operations == operations
    assert len(trace) == len(reference)
    for index in range(-len(operations), len(operations)):
        assert trace[index] == reference[index]
    assert trace.metadata == reference.metadata
    assert trace.to_jsonl() == reference.to_jsonl()
    assert_same_codes(trace, reference)
    assert trace.summary() == reference.summary()
    assert list(trace.summary()["counts_by_kind"]) == list(reference.summary()["counts_by_kind"])
    assert trace.client_tags() == reference.client_tags()
    copy = pickle.loads(pickle.dumps(trace))
    assert copy == trace
    assert list(copy) == operations and copy.metadata == reference.metadata


@settings(max_examples=150, deadline=None)
@given(actions=_actions, metadata=_metadata)
def test_built_traces_match_the_reference(actions, metadata):
    trace, reference = _build(actions, metadata)
    assert_same(trace, reference)
    with pytest.raises(IndexError):
        trace[len(reference)]


@settings(max_examples=100, deadline=None)
@given(actions=_actions, metadata=_metadata, extra=operations())
def test_jsonl_round_trip_and_equality_match(actions, metadata, extra):
    trace, reference = _build(actions, metadata)
    restored = OperationTrace.from_jsonl(trace.to_jsonl())
    restored_reference = ReferenceTrace.from_jsonl(reference.to_jsonl())
    assert_same(restored, restored_reference)
    assert (restored == trace) == (restored_reference == reference)
    restored.append(extra)
    restored_reference.append(extra)
    assert (restored == trace) == (restored_reference == reference)
    assert (trace == list(trace)) is False
    headerless = "".join(line + "\n" for line in trace.to_jsonl().splitlines()[1:])
    assert_same(OperationTrace.from_jsonl(headerless), ReferenceTrace.from_jsonl(headerless))


@settings(max_examples=100, deadline=None)
@given(
    parts=st.lists(st.tuples(_actions, _metadata), min_size=1, max_size=3),
    tagged=st.booleans(),
)
def test_merged_traces_match_the_reference(parts, tagged):
    built = [_build(actions, metadata) for actions, metadata in parts]
    tags = [f"t{index}" for index in range(len(built))] if tagged else None
    merged = merge_traces(*(trace for trace, _ in built), tags=tags)
    reference = reference_merge_traces(*(reference for _, reference in built), tags=tags)
    assert_same(merged, reference)
    for trace, reference_part in built:
        assert_same(trace, reference_part)


def _outcome(call):
    try:
        return ("ok", call())
    except Exception as error:  # compared between the two containers
        return (type(error), str(error))


@settings(max_examples=150, deadline=None)
@given(
    actions=_actions,
    kind=st.sampled_from(OP_KINDS + ("chmod",)),
    path=st.sampled_from(["", "/a"]),
    size=st.integers(-2, 2),
    dest=st.sampled_from(["", "/b"]),
    append=st.booleans(),
    batch=st.integers(-2, 2),
)
def test_invalid_adds_raise_the_same_error(actions, kind, path, size, dest, append, batch):
    trace, reference = _build(actions, {})
    fields = {"kind": kind, "path": path, "size": size, "dest": dest, "append": append,
              "batch": batch}
    assert _outcome(lambda: trace.add(**fields)) == _outcome(lambda: reference.add(**fields))
    assert_same(trace, reference)
    pushed = _outcome(lambda: trace.push(**fields))
    added = _outcome(lambda: reference.add(**fields))
    assert pushed[0] == added[0] and (pushed[0] == "ok" or pushed == added)
    assert_same(trace, reference)


_rows = st.lists(
    st.tuples(
        st.sampled_from(OP_KINDS),
        st.sampled_from(["", "/a", "/b/c"]),
        st.integers(-1, 3),
        st.integers(-1, 3),
    ),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(actions=_actions, rows=_rows)
def test_bulk_columns_check_like_operation(actions, rows):
    """``extend_columns`` appends what ``Operation`` accepts and raises what it raises."""
    trace, reference = _build(actions, {})
    expected = _outcome(
        lambda: [Operation(kind, path, size, "", False, batch) for kind, path, size, batch in rows]
    )
    outcome = _outcome(
        lambda: trace.extend_columns(
            bytes(OP_KINDS.index(row[0]) for row in rows),
            [row[1] for row in rows],
            [row[2] for row in rows],
            [row[3] for row in rows],
        )
    )
    if expected[0] == "ok":
        assert outcome == ("ok", None)
        reference.extend(expected[1])
    else:
        assert outcome == expected
    assert_same(trace, reference)


def test_counts_beyond_int64_are_refused_whole():
    trace = OperationTrace()
    trace.add("read", "/a", size=5)
    with pytest.raises(OverflowError):
        trace.append(Operation(kind="read", path="/a", size=2**63))
    with pytest.raises(OverflowError):
        trace.push("stat", "/a", batch=2**64)
    assert list(trace) == [Operation(kind="read", path="/a", size=5)]
    with pytest.raises(TraceFormatError, match="invalid trace line"):
        OperationTrace.from_jsonl('{"op":"read","path":"/a","size":%d}\n' % 2**63)


_BAD_LINES = [
    "not json",
    "[1,2]",
    '{"path": "/a"}',
    '{"op": "stat", "path": 5}',
    '{"op": 1, "path": "/a"}',
    '{"op": "rename", "path": "/a", "dest": 2}',
    '{"op": "stat", "path": "/a", "client": 3}',
    '{"op": "chmod", "path": "/a"}',
    '{"op": "read", "path": ""}',
    '{"op": "read", "path": "/a", "size": -4}',
    '{"op": "read", "path": "/a", "size": "x"}',
    '{"op": "read", "path": "/a", "batch": -1}',
    '{"op": "rename", "path": "/a"}',
    '{"op": "read", "path": "/a", "append": true}',
    '{"impressions_trace": 2, "metadata": {}}',
]


@settings(max_examples=100, deadline=None)
@given(actions=_actions, bad=st.sampled_from(_BAD_LINES), header=st.booleans())
def test_malformed_jsonl_raises_the_same_error(actions, bad, header):
    trace, _ = _build(actions, {})
    lines = trace.to_jsonl().splitlines()
    if not header:
        lines = lines[1:]
    text = "\n".join([*lines, bad, ""])
    expected = _outcome(lambda: ReferenceTrace.from_jsonl(text))
    actual = _outcome(lambda: OperationTrace.from_jsonl(text))
    assert actual[0] is TraceFormatError and expected[0] is TraceFormatError
    assert actual == expected


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_every_protocol(protocol):
    trace = OperationTrace(metadata={"synthesizer": "test"})
    trace.add("rename", "/a", dest="/b", batch=2, client="c")
    trace.add("write", "/b", size=9, append=True)
    copy = pickle.loads(pickle.dumps(trace, protocol=protocol))
    assert copy == trace and list(copy) == list(trace)


def test_bulk_columns_refuse_unknown_codes_and_ragged_columns():
    trace = OperationTrace()
    with pytest.raises(ValueError, match="^unknown operation kind 9$"):
        trace.extend_columns(bytes([2, 9]), ["/a", "/b"], [1, 1], [0, 0])
    with pytest.raises(ValueError, match="one entry per operation"):
        trace.extend_columns(bytes([2, 2]), ["/a"], [1, 1], [0, 0])
    assert len(trace) == 0 and list(trace) == []
