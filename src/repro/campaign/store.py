"""Append-only JSONL result store.

One line per completed scenario.  Rows are canonical JSON (sorted keys, fixed
separators) so that two runs of the same campaign produce byte-identical
stores *except* for the ``wall`` section (every wall-clock measurement) and
the optional ``cache`` section (stage-cache hit counters, which depend on
prior runs); :func:`deterministic_view` strips both for comparisons.

The store is append-only on purpose: results are facts about a (spec, seed,
code) triple, never edited in place.  Re-running a campaign consults
:meth:`ResultStore.fingerprints` and skips scenarios whose fingerprint is
already present; ``--force`` appends fresh rows, and readers that want one
row per scenario take the latest (:meth:`ResultStore.latest_rows`).

Crash consistency: a process dying mid-append leaves a torn final line.
Readers *tolerate* it — the partial line is quarantined into the store's
``.quarantine/`` sidecar and skipped, never surfaced as a row — and the next
:meth:`ResultStore.append` heals the file by truncating the torn tail before
writing, so one crash can never corrupt the row that follows it.  Damage
anywhere *other* than the final line is not a crash signature (appends are
sequential), so it still raises :class:`StoreError`; :meth:`ResultStore.recover`
is the explicit repair that quarantines every bad line and rewrites the
valid rows atomically.
"""

from __future__ import annotations

import json
import os
from typing import Iterator, Mapping

from repro.faults import atomic as fault_atomic
from repro.faults import plan as fault_plan

__all__ = ["ResultStore", "StoreError", "deterministic_view", "WALL_KEY", "CACHE_KEY"]

#: Result-row section holding wall-clock (nondeterministic) measurements.
WALL_KEY = "wall"

#: Result-row section holding stage-cache counters.  Cache hits depend on
#: what earlier runs left in the cache directory, not on the scenario, so the
#: section is excluded from the deterministic view alongside ``wall``.
CACHE_KEY = "cache"


class StoreError(ValueError):
    """Raised when a result store file cannot be parsed."""


def deterministic_view(row: Mapping[str, object]) -> dict:
    """The row without its wall-clock and cache sections (the comparable part)."""
    return {key: value for key, value in row.items() if key not in (WALL_KEY, CACHE_KEY)}


class ResultStore:
    """An append-only JSONL file of campaign result rows."""

    def __init__(self, path: str) -> None:
        self.path = path

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def heal_torn_tail(self) -> bool:
        """Truncate a torn final line (crash mid-append), quarantining it.

        A well-formed store ends with a newline; anything after the last
        newline is the partial row a dying process managed to flush.  The
        torn bytes are preserved in the ``.quarantine/`` sidecar before the
        file is truncated back to its valid prefix.  Returns True when a
        tail was healed.
        """
        if not self.exists():
            return False
        # detlint: ignore[raw-write] in-place truncation IS the heal; the torn bytes are already quarantined
        with open(self.path, "r+b") as handle:
            data = handle.read()
            if not data or data.endswith(b"\n"):
                return False
            cut = data.rfind(b"\n") + 1  # 0 when the whole file is one torn line
            torn = data[cut:]
            fault_plan.count_corruption("store")
            fault_atomic.quarantine_bytes(
                self.path,
                torn,
                layer="store",
                reason="torn_final_line",
                detail={"store": self.path, "valid_prefix_bytes": cut},
            )
            handle.truncate(cut)
        fault_plan.count_heal("store", "truncate_torn_tail")
        return True

    def append(self, row: Mapping[str, object]) -> None:
        """Append one result row as a canonical JSON line.

        Heals a torn tail first: appending after an unhealed crash would
        concatenate the new row onto the partial line and corrupt *both*.
        """
        line = json.dumps(row, sort_keys=True, separators=(",", ":"))
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self.heal_torn_tail()
        data = (line + "\n").encode("utf-8")
        data, crash_after = fault_plan.mangle_write("store.append", data)
        # detlint: ignore[raw-write] append-only JSONL: torn tails are healed on the read side, by design
        with open(self.path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if crash_after:
            raise fault_plan.InjectedCrash("store.append", "torn append persisted")

    def __iter__(self) -> Iterator[dict]:
        if not self.exists():
            return
        with open(self.path, "rb") as handle:
            raw = handle.read()
        lines = raw.split(b"\n")
        last_index = len(lines) - 1
        for number, raw_line in enumerate(lines, start=1):
            line = raw_line.strip()
            if not line:
                continue
            # The final element of the split is newline-terminated-free by
            # construction: bytes after the last "\n" are a torn append.
            is_torn_tail = number - 1 == last_index
            try:
                row = json.loads(line.decode("utf-8"))
                if not isinstance(row, dict):
                    raise ValueError("result row must be an object")
            except (ValueError, UnicodeDecodeError) as error:
                if is_torn_tail:
                    fault_plan.count_corruption("store")
                    fault_atomic.quarantine_bytes(
                        self.path,
                        raw_line,
                        layer="store",
                        reason="torn_final_line",
                        detail={"store": self.path, "line": number},
                    )
                    continue
                raise StoreError(
                    f"{self.path}:{number}: malformed result row: {error}; "
                    "run ResultStore.recover() to quarantine bad lines"
                ) from error
            yield row

    def rows(self) -> list[dict]:
        return list(self)

    def fingerprints(self) -> set[str]:
        """Fingerprints of every scenario with a stored result."""
        return {
            str(row["fingerprint"]) for row in self if "fingerprint" in row
        }

    def latest_rows(self) -> dict[str, dict]:
        """Latest row per scenario id (later appends win, e.g. after --force)."""
        latest: dict[str, dict] = {}
        for row in self:
            scenario = str(row.get("scenario", row.get("fingerprint", "")))
            latest[scenario] = row
        return latest

    def compact(self, *, dry_run: bool = False) -> dict:
        """Rewrite the store keeping only the newest row per fingerprint.

        A long-lived store accretes superseded rows: ``--force`` re-runs,
        benign duplicates from farm-worker crash recovery, repeated
        submissions of overlapping sweeps.  Readers already resolve these by
        taking the latest row, so compaction loses nothing — it just
        reclaims the bytes.  Rows without a fingerprint are keyed by their
        scenario id; newest wins either way, and surviving rows keep their
        relative order.  The rewrite is atomic and durable (fsynced temp
        file + ``os.replace``), so concurrent readers — and a reader after a
        crash — see either the old store or the new one, never a partial
        file.  Returns a report dict; with ``dry_run`` the
        file is left untouched and the report says what *would* happen.
        """
        if not self.exists():
            return {
                "dry_run": dry_run,
                "path": self.path,
                "rows_before": 0,
                "rows_after": 0,
                "rows_dropped": 0,
                "bytes_before": 0,
                "bytes_after": 0,
                "bytes_reclaimed": 0,
            }
        latest_index: dict[str, int] = {}
        rows: list[dict] = []
        for index, row in enumerate(self):
            rows.append(row)
            key = str(row.get("fingerprint", row.get("scenario", f"row-{index}")))
            latest_index[key] = index
        keep = sorted(latest_index.values())
        lines = [
            json.dumps(rows[index], sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"
            for index in keep
        ]
        bytes_before = os.path.getsize(self.path)
        bytes_after = sum(len(line) for line in lines)
        report = {
            "dry_run": dry_run,
            "path": self.path,
            "rows_before": len(rows),
            "rows_after": len(keep),
            "rows_dropped": len(rows) - len(keep),
            "bytes_before": bytes_before,
            "bytes_after": bytes_after,
            "bytes_reclaimed": bytes_before - bytes_after,
        }
        if not dry_run:
            fault_atomic.atomic_replace(self.path, b"".join(lines))
        return report

    def recover(self) -> dict:
        """Repair a damaged store: quarantine every bad line, keep the rest.

        Unlike iteration — which tolerates only the torn-final-line crash
        signature — recovery accepts arbitrary damage (bit rot, a partial
        overwrite, an editor accident): each unparsable line is moved to the
        ``.quarantine/`` sidecar with its line number, and the surviving
        rows are rewritten atomically in their original order.  Returns a
        report of rows kept and lines quarantined.
        """
        if not self.exists():
            return {"path": self.path, "rows_kept": 0, "lines_quarantined": 0}
        with open(self.path, "rb") as handle:
            raw = handle.read()
        kept: list[bytes] = []
        quarantined = 0
        for number, raw_line in enumerate(raw.split(b"\n"), start=1):
            line = raw_line.strip()
            if not line:
                continue
            try:
                row = json.loads(line.decode("utf-8"))
                if not isinstance(row, dict):
                    raise ValueError("result row must be an object")
            except (ValueError, UnicodeDecodeError) as error:
                quarantined += 1
                fault_plan.count_corruption("store")
                fault_atomic.quarantine_bytes(
                    self.path,
                    raw_line,
                    layer="store",
                    reason="recover_bad_line",
                    detail={"store": self.path, "line": number, "error": str(error)},
                )
                continue
            kept.append(line + b"\n")
        if quarantined:
            fault_atomic.atomic_replace(self.path, b"".join(kept))
            fault_plan.count_heal("store", "recover_rewrite")
        return {
            "path": self.path,
            "rows_kept": len(kept),
            "lines_quarantined": quarantined,
        }
