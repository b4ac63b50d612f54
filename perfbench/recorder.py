"""A minimal in-memory span recorder, deliberately independent of ``repro.obs``.

The benchmark times the code that ``repro.obs`` belongs to, so its ruler must
not change when that code does.  Spans nest on one stack (the benchmarked
process is single-threaded).  Every span adds its duration to its parent's
child time, so self time = duration - children is exact and the self times
under one root span sum to that root's duration.  Hot spans (one per file or
per operation) are only aggregated; coarse spans are also kept as
Chrome-trace events.
"""

from __future__ import annotations

import contextlib
import functools
import time


class Recorder:
    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.epoch = self.clock()
        self.stack: list[list] = []  # [name, start, child_seconds, keep]
        self.totals: dict[tuple[str, str], list] = {}  # (root, name) -> [calls, seconds, self]
        self.events: list[tuple[str, str | None, float, float]] = []
        self.counters: dict[str, float] = {}

    def begin(self, name: str, keep: bool = True) -> None:
        self.stack.append([name, self.clock(), 0.0, keep])

    def end(self) -> None:
        name, start, child, keep = self.stack.pop()
        end = self.clock()
        duration = end - start
        root = self.stack[0][0] if self.stack else name
        row = self.totals.setdefault((root, name), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if keep:
            parent = next((frame[0] for frame in reversed(self.stack) if frame[3]), None)
            self.events.append((name, parent, start - self.epoch, end - self.epoch))

    @contextlib.contextmanager
    def span(self, name: str, keep: bool = True):
        self.begin(name, keep)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, function, name: str, keep: bool = False):
        """``function`` timed as span ``name``; a direct re-entry (a wrapped
        method calling another one recorded under the same name) is not a
        second span, so a name's total time is never counted twice."""
        stack = self.stack

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return function(*args, **kwargs)
            self.begin(name, keep)
            try:
                return function(*args, **kwargs)
            finally:
                self.end()

        return wrapper

    def chrome_trace(self, other_data: dict) -> dict:
        """Trace Event Format: one complete (``ph: X``) event per kept span."""
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": start * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"parent": parent, "start_s": start, "end_s": end},
            }
            for name, parent, start, end in self.events
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms", "otherData": other_data}
