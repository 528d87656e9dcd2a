"""Structured slow-query log: pgsim's ``log_min_duration_statement``.

Statements crossing the threshold become structured
:class:`SlowQueryRecord` entries in a bounded in-memory ring —
queryable via the ``pg_slow_queries`` view —
with an optional JSONL file sink for offline ingestion.  When
``auto_explain_log_min_duration`` is also armed, the record carries
the statement's ``EXPLAIN (ANALYZE, BUFFERS)`` plan text and its
RC#1–RC#7 attribution (see :meth:`Executor._run_captured`), so a
production slow-query entry answers the paper's "why was it slow"
question without a re-run.

The ring is deliberately small and records are plain data: logging a
slow statement must never become the next slow statement.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any

from repro.common.obs import StatView


@dataclass(slots=True)
class SlowQueryRecord:
    """One structured slow-query log entry."""

    logged_at: float
    backend_id: int
    session: str
    #: ``statement`` or ``autovacuum`` (log_autovacuum_min_duration).
    kind: str
    query: str
    elapsed_ms: float
    rows: int
    #: EXPLAIN (ANALYZE, BUFFERS) text when auto_explain captured one.
    plan: str | None = None
    #: RC#1–RC#7 attribution dict alongside the captured plan.
    rc: dict[str, Any] | None = None
    #: Wait-event deltas of the statement's window, when tracked.
    wait_events: dict[str, Any] = field(default_factory=dict)
    #: Filtered-search strategy the captured plan executed
    #: ("pre-filter"/"post-filter"/"in-filter"), None for non-hybrid
    #: statements or when no plan was captured.
    strategy: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "logged_at": self.logged_at,
            "backend_id": self.backend_id,
            "session": self.session,
            "kind": self.kind,
            "query": self.query,
            "elapsed_ms": self.elapsed_ms,
            "rows": self.rows,
            "plan": self.plan,
            "rc": self.rc,
            "wait_events": self.wait_events,
            "strategy": self.strategy,
        }

    def rc_top(self) -> str | None:
        """The dominant attribution bucket, e.g. ``RC#2 Index scan 61%``."""
        buckets = (self.rc or {}).get("buckets") or []
        if not buckets:
            return None
        top = max(buckets, key=lambda b: b.get("seconds", 0.0))
        return f"{top.get('label', '?')} {top.get('fraction', 0.0) * 100:.0f}%"


class SlowQueryLog:
    """Bounded ring of slow-query records with an optional file sink."""

    def __init__(self, capacity: int = 256) -> None:
        self._lock = threading.Lock()
        self._ring: deque[SlowQueryRecord] = deque(maxlen=max(1, int(capacity)))
        #: Monotonic count of records ever logged (survives ring wrap
        #: and reset — the exporter's counter semantics).
        self.total_logged = 0
        self._sink_path: str | None = None
        self._sink_file: Any = None

    @property
    def capacity(self) -> int:
        return self._ring.maxlen or 0

    def configure_sink(self, path: str | None) -> None:
        """Point the JSONL file sink at ``path`` (falsy = in-memory only).

        Repointing (or disabling) the sink closes the previous handle;
        the new file opens lazily on the first record written to it.
        """
        path = path or None
        if path == self._sink_path:
            return
        self.close_sink()
        self._sink_path = path

    def close_sink(self) -> None:
        """Flush and close the sink file handle (``db.close()``)."""
        with self._lock:
            handle, self._sink_file = self._sink_file, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def record(self, record: SlowQueryRecord) -> None:
        with self._lock:
            self._ring.append(record)
            self.total_logged += 1
        if self._sink_path:
            # One persistent append handle, flushed per record so a
            # tail -f (or a crashed process) never misses entries —
            # not a per-record open/close, which dominated the cost of
            # logging under log_min_duration_statement = 0.
            try:
                if self._sink_file is None:
                    self._sink_file = open(self._sink_path, "a")
                self._sink_file.write(json.dumps(record.as_dict(), sort_keys=True) + "\n")
                self._sink_file.flush()
            except (OSError, ValueError):
                pass  # a broken sink must not fail the statement

    def records(self) -> list[SlowQueryRecord]:
        """Snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def top(self, n: int = 5) -> list[SlowQueryRecord]:
        """The ``n`` slowest retained records, slowest first."""
        return sorted(self.records(), key=lambda r: r.elapsed_ms, reverse=True)[:n]

    def reset(self) -> None:
        """``pg_stat_reset()``: drop retained records (file sink untouched).

        ``total_logged`` is monotonic and survives, like the buffer/WAL
        counters.
        """
        with self._lock:
            self._ring.clear()


def install_slowlog_view(catalog: Any, slowlog: SlowQueryLog) -> None:
    """Register the ``pg_slow_queries`` virtual table (slowest first)."""

    def rows() -> list[tuple]:
        return [
            (
                r.logged_at,
                r.backend_id,
                r.session,
                r.kind,
                r.query,
                r.elapsed_ms,
                r.rows,
                r.rc_top(),
                r.plan,
                r.strategy,
            )
            for r in sorted(
                slowlog.records(), key=lambda r: r.elapsed_ms, reverse=True
            )
        ]

    catalog.register_view(
        StatView(
            "pg_slow_queries",
            [
                "logged_at",
                "pid",
                "session",
                "kind",
                "query",
                "elapsed_ms",
                "rows",
                "rc_top",
                "plan",
                "strategy",
            ],
            rows,
        )
    )
