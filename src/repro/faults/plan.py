"""Deterministic, seeded fault injection: plans, the injector, named points.

A :class:`FaultPlan` is a *schedule* of faults — each :class:`FaultSpec` says
"the Nth time execution reaches injection point P, inject fault kind K with
these parameters".  Plans are pure data: built explicitly, or derived from a
seed with :meth:`FaultPlan.generate` (the same seed always yields the same
schedule, bit-for-bit — :meth:`FaultPlan.fingerprint` pins that), and they
round-trip through JSON so a chaos sweep's report can name exactly what it
injected.

A plan does nothing until *bound*: ``with use(plan) as injector: ...`` arms a
:class:`FaultInjector` on a contextvar, and the injection points threaded
through the durability layers (:data:`INJECTION_POINTS`) consult it via
:func:`check` (control points — may raise or sleep) and :func:`mangle_write`
(write points — may tear or silently truncate the payload).  When nothing is
bound every point is a single ``is None`` check, so production runs pay
effectively nothing.

Fault kinds and their simulated semantics:

``torn_write``
    The write persists only the first ``offset`` bytes (modulo the payload
    length) of what was asked, then :class:`InjectedCrash` is raised — the
    process "died" mid-write.  The partial bytes *are* durable: this is the
    crash the checksum trailers and torn-tail recovery exist for.
``fsync_loss``
    The write drops its final ``lost_bytes`` bytes but *reports success* —
    the lying-fsync case where the rename happened but the tail data pages
    never hit the platter.  Only read-side verification can catch it.
``enospc`` / ``eio``
    ``OSError(ENOSPC)`` / ``OSError(EIO)`` raised at the point before
    anything persists; the layer must surface a typed error and leave no
    partial artifact behind.
``slow_io``
    ``time.sleep(delay_seconds)`` at the point — exercises lease-expiry and
    backoff paths without real contention.
``crash``
    :class:`InjectedCrash` raised at the point with nothing written — the
    process "died" between operations.

Every fired fault is counted on the bound telemetry as
``faults_injected_total{point,kind}``; the sibling counters
(``corruption_detected_total``, ``quarantine_total``, ``heal_total``) are
recorded by the hardened layers through the helpers at the bottom.
"""

from __future__ import annotations

import contextlib
import contextvars
import errno
import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

__all__ = [
    "FAULT_KINDS",
    "WRITE_KINDS",
    "INJECTION_POINTS",
    "FaultError",
    "InjectedCrash",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "use",
    "active",
    "check",
    "mangle_write",
    "count_corruption",
    "count_quarantine",
    "count_heal",
]

TORN_WRITE = "torn_write"
FSYNC_LOSS = "fsync_loss"
ENOSPC = "enospc"
EIO = "eio"
SLOW_IO = "slow_io"
CRASH = "crash"

#: Every fault kind a plan may schedule.
FAULT_KINDS = (TORN_WRITE, FSYNC_LOSS, ENOSPC, EIO, SLOW_IO, CRASH)

#: Kinds that only make sense at a *write* point (they mangle a payload).
WRITE_KINDS = (TORN_WRITE, FSYNC_LOSS)

#: The named injection points threaded through the durability layers, mapped
#: to their flavour: ``write`` points pass a payload through
#: :func:`mangle_write`; ``control`` points call :func:`check`.  The chaos
#: harness derives its schedules from this registry, so adding a point here
#: automatically puts it in sweep scope.
INJECTION_POINTS: dict[str, str] = {
    "cache.entry.write": "write",
    "cache.entry.read": "control",
    "store.append": "write",
    "queue.lease": "control",
    "queue.ack": "control",
    "worker.after_lease": "control",
    "sink.add_file": "control",
    "sink.finalize": "control",
    "client.request": "control",
}


class FaultError(ValueError):
    """Raised on invalid plans (unknown points/kinds, bad parameters)."""


class InjectedCrash(BaseException):
    """A simulated process death at an injection point.

    Derives from :class:`BaseException` on purpose: ordinary ``except
    Exception`` error handling must *not* swallow it — a crashed process
    does not run its error handlers.  Only a chaos harness (or a test)
    standing in for "the operator restarts the process" may catch it.
    """

    def __init__(self, point: str, detail: str = "") -> None:
        super().__init__(f"injected crash at {point!r}" + (f": {detail}" if detail else ""))
        self.point = point


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: the Nth arrival at ``point`` injects ``kind``.

    Attributes:
        point: injection-point name (see :data:`INJECTION_POINTS`).
        kind: one of :data:`FAULT_KINDS`.
        occurrence: 1-based arrival index at the point that triggers the
            fault; each spec fires at most once.
        offset: ``torn_write`` — persist only the first ``offset % len``
            bytes of the payload.
        lost_bytes: ``fsync_loss`` — silently drop this many tail bytes
            (clamped to leave at least zero bytes).
        delay_seconds: ``slow_io`` — how long the point sleeps.
    """

    point: str
    kind: str
    occurrence: int = 1
    offset: int = 0
    lost_bytes: int = 1
    delay_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise FaultError(
                f"unknown injection point {self.point!r}; known: {sorted(INJECTION_POINTS)}"
            )
        if self.kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")
        if self.kind in WRITE_KINDS and INJECTION_POINTS[self.point] != "write":
            raise FaultError(
                f"{self.kind} needs a write point; {self.point!r} is a control point"
            )
        if self.occurrence < 1:
            raise FaultError("occurrence is 1-based and must be >= 1")
        if self.lost_bytes < 0 or self.offset < 0 or self.delay_seconds < 0:
            raise FaultError("offset, lost_bytes and delay_seconds must be non-negative")

    def as_dict(self) -> dict:
        return {
            "point": self.point,
            "kind": self.kind,
            "occurrence": self.occurrence,
            "offset": self.offset,
            "lost_bytes": self.lost_bytes,
            "delay_seconds": self.delay_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultSpec":
        return cls(
            point=str(data["point"]),
            kind=str(data["kind"]),
            occurrence=int(data.get("occurrence", 1)),
            offset=int(data.get("offset", 0)),
            lost_bytes=int(data.get("lost_bytes", 1)),
            delay_seconds=float(data.get("delay_seconds", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, fingerprinted schedule of faults."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int | None = None

    def __iter__(self) -> Iterator[FaultSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "specs": [spec.as_dict() for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FaultPlan":
        seed = data.get("seed")
        return cls(
            specs=tuple(FaultSpec.from_dict(entry) for entry in data.get("specs", [])),
            seed=(None if seed is None else int(seed)),
        )

    def fingerprint(self) -> str:
        """SHA-256 of the canonical plan JSON — same seed, same digest."""
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    @classmethod
    def generate(
        cls,
        seed: int,
        *,
        points: Sequence[str] | None = None,
        kinds: Sequence[str] | None = None,
        faults_per_point: int = 1,
        max_occurrence: int = 2,
    ) -> "FaultPlan":
        """Derive a schedule from ``seed`` — deterministically.

        For every point (sorted, so iteration order cannot drift) the seeded
        generator draws ``faults_per_point`` faults among the kinds legal at
        that point, with occurrence indices in ``[1, max_occurrence]`` and
        kind-specific parameters.  Two calls with equal arguments produce
        bit-identical plans; the chaos sweep pins this via
        :meth:`fingerprint`.
        """
        if faults_per_point < 1:
            raise FaultError("faults_per_point must be >= 1")
        chosen_points = sorted(points) if points is not None else sorted(INJECTION_POINTS)
        for point in chosen_points:
            if point not in INJECTION_POINTS:
                raise FaultError(f"unknown injection point {point!r}")
        allowed = tuple(kinds) if kinds is not None else FAULT_KINDS
        for kind in allowed:
            if kind not in FAULT_KINDS:
                raise FaultError(f"unknown fault kind {kind!r}")
        rng = random.Random(seed)
        specs: list[FaultSpec] = []
        for point in chosen_points:
            legal = [
                kind
                for kind in allowed
                if kind not in WRITE_KINDS or INJECTION_POINTS[point] == "write"
            ]
            if not legal:
                continue
            for _ in range(faults_per_point):
                kind = rng.choice(legal)
                specs.append(
                    FaultSpec(
                        point=point,
                        kind=kind,
                        occurrence=rng.randint(1, max_occurrence),
                        offset=rng.randint(0, 4096),
                        lost_bytes=rng.randint(1, 64),
                        delay_seconds=round(rng.uniform(0.01, 0.05), 4),
                    )
                )
        return cls(specs=tuple(specs), seed=seed)


@dataclass
class _FiredFault:
    """One fault the injector actually fired (for the sweep report)."""

    spec: FaultSpec
    hit: int

    def as_dict(self) -> dict:
        return {**self.spec.as_dict(), "hit": self.hit}


class FaultInjector:
    """The mutable runtime of one bound plan: hit counters and fired faults.

    One injector accompanies one experiment; binding the same *plan* twice
    with fresh injectors replays the identical schedule (hit counters start
    at zero each time).
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.hits: dict[str, int] = {}
        self.fired: list[_FiredFault] = []
        self._pending: dict[str, list[FaultSpec]] = {}
        for spec in plan:
            self._pending.setdefault(spec.point, []).append(spec)

    def _due(self, point: str) -> FaultSpec | None:
        """Advance the point's hit counter; return the spec due now, if any."""
        hit = self.hits.get(point, 0) + 1
        self.hits[point] = hit
        queue = self._pending.get(point)
        if not queue:
            return None
        for index, spec in enumerate(queue):
            if spec.occurrence == hit:
                del queue[index]
                self.fired.append(_FiredFault(spec=spec, hit=hit))
                _count_injected(point, spec.kind)
                return spec
        return None

    def check(self, point: str) -> None:
        """A control point: raise, sleep, or pass according to the schedule."""
        spec = self._due(point)
        if spec is None:
            return
        if spec.kind == ENOSPC:
            raise OSError(errno.ENOSPC, f"injected ENOSPC at {point}")
        if spec.kind == EIO:
            raise OSError(errno.EIO, f"injected EIO at {point}")
        if spec.kind == SLOW_IO:
            time.sleep(spec.delay_seconds)
            return
        if spec.kind == CRASH:
            raise InjectedCrash(point)
        raise FaultError(f"{spec.kind} scheduled at control point {point!r}")

    def mangle(self, point: str, data: bytes) -> tuple[bytes, bool]:
        """A write point: return ``(payload to persist, crash_after)``.

        ``torn_write`` truncates and asks the caller to raise
        :class:`InjectedCrash` *after* persisting the partial bytes;
        ``fsync_loss`` truncates silently (the write reports success).
        The error kinds raise exactly as at a control point.
        """
        spec = self._due(point)
        if spec is None:
            return data, False
        if spec.kind == TORN_WRITE:
            keep = spec.offset % len(data) if data else 0
            return data[:keep], True
        if spec.kind == FSYNC_LOSS:
            keep = max(0, len(data) - spec.lost_bytes)
            return data[:keep], False
        if spec.kind == ENOSPC:
            raise OSError(errno.ENOSPC, f"injected ENOSPC at {point}")
        if spec.kind == EIO:
            raise OSError(errno.EIO, f"injected EIO at {point}")
        if spec.kind == SLOW_IO:
            time.sleep(spec.delay_seconds)
            return data, False
        raise InjectedCrash(point)

    def remaining(self) -> list[FaultSpec]:
        """Scheduled faults whose point/occurrence was never reached."""
        return [spec for queue in self._pending.values() for spec in queue]


# Contextvar binding -----------------------------------------------------------

_CURRENT: contextvars.ContextVar[FaultInjector | None] = contextvars.ContextVar(
    "impressions_fault_injector", default=None
)


def active() -> FaultInjector | None:
    """The injector bound on this call path, or None (injection off)."""
    return _CURRENT.get()


@contextlib.contextmanager
def use(plan: "FaultPlan | FaultInjector | None") -> Iterator[FaultInjector | None]:
    """Bind ``plan`` (wrapped in a fresh injector) for the with-block."""
    injector = plan if isinstance(plan, (FaultInjector, type(None))) else FaultInjector(plan)
    token = _CURRENT.set(injector)
    try:
        yield injector
    finally:
        _CURRENT.reset(token)


def check(point: str) -> None:
    """Module-level control point: no-op unless an injector is bound."""
    injector = _CURRENT.get()
    if injector is not None:
        injector.check(point)


def mangle_write(point: str, data: bytes) -> tuple[bytes, bool]:
    """Module-level write point: ``(payload, crash_after)``; no-op unbound."""
    injector = _CURRENT.get()
    if injector is None:
        return data, False
    return injector.mangle(point, data)


# Robustness counters ----------------------------------------------------------
#
# One helper per counter so every layer registers identical (name, labels)
# families on whatever telemetry is bound — mixed registrations would raise.


def _count(name: str, help_text: str, labels: Mapping[str, str], amount: float = 1.0) -> None:
    from repro.obs import core as obs_core

    obs_core.current().counter(name, help_text, tuple(sorted(labels))).inc(amount, **labels)


def _count_injected(point: str, kind: str) -> None:
    _count(
        "faults_injected_total",
        "faults fired by the bound fault injector",
        {"point": point, "kind": kind},
    )


def count_corruption(layer: str) -> None:
    """Record a corruption *detected* (checksum mismatch, torn row, bad pickle)."""
    _count(
        "corruption_detected_total",
        "corrupt durable state detected on read",
        {"layer": layer},
    )


def count_quarantine(layer: str) -> None:
    """Record one artifact moved into a ``.quarantine/`` sidecar."""
    _count(
        "quarantine_total",
        "corrupt artifacts quarantined for inspection",
        {"layer": layer},
    )


def count_heal(layer: str, action: str) -> None:
    """Record one self-heal (regeneration, tail truncation, lease reclaim...)."""
    _count(
        "heal_total",
        "self-heal actions taken after detecting damage",
        {"layer": layer, "action": action},
    )
