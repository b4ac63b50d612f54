"""The ordered fan-out: input order, in-process single worker, clean failure."""

from __future__ import annotations

import multiprocessing
import os
import time

import pytest

from repro.core.fanout import ordered_map


def _sleep_then_stamp(seconds: float) -> tuple[float, float, int]:
    time.sleep(seconds)
    return seconds, time.monotonic(), os.getpid()


def _fail_on_one(item: int) -> int:
    if item == 1:
        raise ValueError(f"item {item} is bad")
    time.sleep(0.05)
    return item


def _scaled(context: dict, item: int) -> tuple[int, int]:
    return context["scale"] * item, os.getpid()


class TestOrder:
    def test_results_come_back_in_input_order_when_later_items_finish_first(self):
        rows = list(ordered_map(_sleep_then_stamp, [0.4, 0.0], jobs=2))
        assert [seconds for seconds, _, _ in rows] == [0.4, 0.0]
        (_, slow_done, slow_pid), (_, fast_done, fast_pid) = rows
        assert fast_done < slow_done
        assert os.getpid() not in (slow_pid, fast_pid)

    def test_context_reaches_every_worker_call(self):
        rows = list(ordered_map(_scaled, [1, 2, 3, 4], jobs=2, context={"scale": 3}))
        assert [value for value, _ in rows] == [3, 6, 9, 12]
        assert os.getpid() not in {pid for _, pid in rows}

    def test_no_items_yield_nothing(self):
        assert list(ordered_map(_sleep_then_stamp, [], jobs=2)) == []

    def test_jobs_must_be_positive(self):
        with pytest.raises(ValueError, match="jobs"):
            list(ordered_map(_sleep_then_stamp, [0.0], jobs=0))


class TestOneWorker:
    def test_unpicklable_function_runs_in_the_callers_process(self):
        offset = 10
        rows = list(ordered_map(lambda item: (item + offset, os.getpid()), [1, 2, 3], jobs=1))
        assert rows == [(11, os.getpid()), (12, os.getpid()), (13, os.getpid())]

    def test_one_item_runs_in_process_at_any_job_count(self):
        rows = list(ordered_map(lambda item: os.getpid(), [0], jobs=4))
        assert rows == [os.getpid()]

    def test_unpicklable_context_is_passed_as_is(self):
        context = {"scale": 2, "hook": lambda: None}
        assert list(ordered_map(_scaled, [5], jobs=1, context=context)) == [(10, os.getpid())]


class TestFailure:
    def test_worker_exception_reaches_the_caller_after_the_pool_is_gone(self):
        with pytest.raises(ValueError, match="item 1 is bad"):
            list(ordered_map(_fail_on_one, [0, 1, 2, 3, 4, 5], jobs=2))
        assert multiprocessing.active_children() == []

    def test_in_process_exception_propagates(self):
        with pytest.raises(ValueError, match="item 1 is bad"):
            list(ordered_map(_fail_on_one, [0, 1, 2], jobs=1))


class TestWaitCallback:
    def test_fires_while_a_slow_item_is_pending(self):
        calls: list[list[bool]] = []
        rows = list(
            ordered_map(_sleep_then_stamp, [0.4, 0.0], jobs=2, on_wait=calls.append, interval=0.02)
        )
        assert len(rows) == 2
        assert calls
        assert all(len(flags) == 2 and not flags[0] for flags in calls)
        assert calls[-1][1]  # the fast item finished while the slow one ran

    def test_never_fires_in_process(self):
        calls: list[list[bool]] = []
        rows = ordered_map(_sleep_then_stamp, [0.1, 0.1], jobs=1, on_wait=calls.append, interval=0.01)
        assert len(list(rows)) == 2
        assert calls == []
