"""Tests for the trace operation model and JSONL serialization."""

from __future__ import annotations

import dataclasses
import inspect
import pickle

import pytest

from repro.trace.ops import (
    DATA_OP_KINDS,
    METADATA_OP_KINDS,
    OP_KINDS,
    Operation,
    OperationTrace,
    TraceFormatError,
)


class TestOperation:
    def test_kinds_partition(self):
        assert DATA_OP_KINDS | METADATA_OP_KINDS == frozenset(OP_KINDS)
        assert not DATA_OP_KINDS & METADATA_OP_KINDS

    def test_valid_operation(self):
        op = Operation(kind="write", path="/a", size=4096, append=True)
        assert op.is_data
        assert Operation(kind="stat", path="/a").is_data is False

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "chmod", "path": "/a"},
            {"kind": "read", "path": ""},
            {"kind": "read", "path": "/a", "size": -1},
            {"kind": "read", "path": "/a", "batch": -1},
            {"kind": "rename", "path": "/a"},
            {"kind": "read", "path": "/a", "dest": "/b"},
            {"kind": "read", "path": "/a", "append": True},
        ],
    )
    def test_invalid_operations_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Operation(**kwargs)

    def test_json_line_roundtrip(self):
        ops = [
            Operation(kind="create", path="/x", size=100),
            Operation(kind="rename", path="/x", dest="/y", batch=3),
            Operation(kind="write", path="/y", size=10, append=True),
            Operation(kind="stat", path="/y"),
        ]
        for op in ops:
            assert Operation.from_json_line(op.to_json_line()) == op

    def test_json_line_omits_defaults(self):
        line = Operation(kind="stat", path="/a").to_json_line()
        assert "size" not in line and "dest" not in line and "batch" not in line

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1,2]",
            '{"path": "/a"}',
            '{"op": "stat", "path": 5}',
            '{"op": 1, "path": "/a"}',
            '{"op": "rename", "path": "/a", "dest": 2}',
        ],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(TraceFormatError):
            Operation.from_json_line(line)


class TestOperationContract:
    """What callers, pickles and traces rely on: fields, messages, immutability."""

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"kind": "chmod", "path": "/a"}, "unknown operation kind 'chmod'"),
            ({"kind": "chmod", "path": "", "size": -1}, "unknown operation kind 'chmod'"),
            ({"kind": "read", "path": ""}, "operation path must be non-empty"),
            ({"kind": "read", "path": "", "size": -1}, "operation path must be non-empty"),
            ({"kind": "read", "path": "/a", "size": -1}, "operation size must be non-negative"),
            (
                {"kind": "read", "path": "/a", "size": -1, "batch": -1},
                "operation size must be non-negative",
            ),
            ({"kind": "read", "path": "/a", "batch": -1}, "operation batch must be non-negative"),
            (
                {"kind": "rename", "path": "/a", "batch": -1},
                "operation batch must be non-negative",
            ),
            ({"kind": "rename", "path": "/a"}, "rename requires a dest path"),
            ({"kind": "rename", "path": "/a", "append": True}, "rename requires a dest path"),
            (
                {"kind": "read", "path": "/a", "dest": "/b"},
                "dest is only valid for rename, not 'read'",
            ),
            (
                {"kind": "stat", "path": "/a", "dest": "/b", "append": True},
                "dest is only valid for rename, not 'stat'",
            ),
            (
                {"kind": "read", "path": "/a", "append": True},
                "append is only valid for write, not 'read'",
            ),
            (
                {"kind": "rename", "path": "/a", "dest": "/b", "append": True},
                "append is only valid for write, not 'rename'",
            ),
        ],
    )
    def test_each_invalid_combination_keeps_its_message(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            Operation(**kwargs)
        assert str(raised.value) == message

    def test_fields_signature_and_repr(self):
        names = ("kind", "path", "size", "dest", "append", "batch", "client")
        assert tuple(field.name for field in dataclasses.fields(Operation)) == names
        parameters = inspect.signature(Operation).parameters
        assert tuple(parameters) == names
        assert [parameters[name].default for name in names[2:]] == [0, "", False, 0, ""]
        assert Operation.__match_args__ == names
        op = Operation("write", "/a", 3, "", True, 2, "c")
        assert repr(op) == (
            "Operation(kind='write', path='/a', size=3, dest='', append=True, batch=2, client='c')"
        )
        assert not hasattr(op, "__dict__")

    @pytest.mark.parametrize("name", ["kind", "path", "size", "dest", "append", "batch", "client"])
    def test_fields_are_frozen(self, name):
        op = Operation(kind="rename", path="/a", dest="/b")
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(op, name, getattr(op, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(op, name)

    def test_eq_and_hash_follow_the_field_tuple(self):
        first = Operation(kind="write", path="/a", size=5, append=True, batch=1, client="c")
        second = Operation("write", "/a", 5, "", True, 1, "c")
        assert first == second and hash(first) == hash(second)
        assert hash(first) == hash(("write", "/a", 5, "", True, 1, "c"))
        assert first != Operation(kind="write", path="/a", size=5, append=True, batch=1)
        assert first != ("write", "/a", 5, "", True, 1, "c")
        assert len({first, second, Operation(kind="stat", path="/a")}) == 2

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_roundtrip(self, protocol):
        op = Operation(kind="rename", path="/a", dest="/b", batch=7, client="x")
        copy = pickle.loads(pickle.dumps(op, protocol=protocol))
        assert copy == op and repr(copy) == repr(op)

    def test_replace_builds_a_validated_copy(self):
        op = Operation(kind="write", path="/a", size=5, append=True)
        moved = dataclasses.replace(op, path="/b", client="c")
        assert moved == Operation(kind="write", path="/b", size=5, append=True, client="c")
        assert op.path == "/a"
        with pytest.raises(ValueError, match="append is only valid for write, not 'read'"):
            dataclasses.replace(op, kind="read")


class TestOperationTrace:
    def _sample(self) -> OperationTrace:
        trace = OperationTrace(metadata={"synthesizer": "test", "seed": 1})
        trace.add("mkdir", "/d")
        trace.add("create", "/d/a", size=8192)
        trace.add("read", "/d/a", size=8192, batch=1)
        trace.add("write", "/d/a", size=100, append=True, batch=1)
        trace.add("delete", "/d/a", batch=2)
        return trace

    def test_append_and_counts(self):
        trace = self._sample()
        assert len(trace) == 5
        assert trace.counts_by_kind() == {
            "mkdir": 1,
            "create": 1,
            "read": 1,
            "write": 1,
            "delete": 1,
        }
        assert trace.bytes_by_kind() == {"read": 8192, "write": 100}
        assert trace.num_batches() == 3

    def test_jsonl_roundtrip_preserves_everything(self):
        trace = self._sample()
        restored = OperationTrace.from_jsonl(trace.to_jsonl())
        assert restored == trace
        assert restored.metadata == {"synthesizer": "test", "seed": 1}

    def test_jsonl_is_canonical(self):
        trace = self._sample()
        assert trace.to_jsonl() == OperationTrace.from_jsonl(trace.to_jsonl()).to_jsonl()

    def test_headerless_jsonl_accepted(self):
        body = '{"op":"stat","path":"/a"}\n{"op":"delete","path":"/a"}\n'
        trace = OperationTrace.from_jsonl(body)
        assert len(trace) == 2
        assert trace.metadata == {}

    def test_unsupported_version_rejected(self):
        with pytest.raises(TraceFormatError):
            OperationTrace.from_jsonl('{"impressions_trace":99,"metadata":{}}\n')

    def test_save_and_load(self, tmp_path):
        trace = self._sample()
        path = tmp_path / "trace.jsonl"
        trace.save(str(path))
        assert OperationTrace.load(str(path)) == trace

    def test_summary_shape(self):
        summary = self._sample().summary()
        assert summary["operations"] == 5
        assert summary["batches"] == 3
