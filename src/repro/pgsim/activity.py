"""Live session registry: pgsim's ``pg_stat_activity``.

Every :class:`~repro.pgsim.session.Session` registers a
:class:`BackendActivity` entry here under a unique monotonic backend
id (the ``pid`` column) and updates it around each statement:
``active`` with the normalized query text while executing, the current
wait event while blocked on the statement lock, ``idle`` /
``idle in transaction`` between statements.  The whole point is
cross-session visibility — a monitoring session reads the view *while*
another session is stuck, which is why the session layer serves
``pg_stat_activity`` (and the other virtual views) through a lock-free
path that never queues behind the statement lock.

Field updates are plain attribute stores (atomic under the GIL) and
readers take snapshots, so a registry entry can be written by its
session and read by a monitor with no lock handshake; the registry's
own mutex only guards membership changes.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.common.obs import WAIT_EVENT_TYPES, StatView, counter, label

STATE_ACTIVE = "active"
STATE_IDLE = "idle"
STATE_IDLE_IN_TXN = "idle in transaction"


class BackendActivity:
    """Live execution state of one session (one ``pg_stat_activity`` row)."""

    __slots__ = (
        "backend_id",
        "name",
        "state",
        "query",
        "query_start",
        "backend_xid",
        "wait_event",
        "statements",
        "lock_waits",
        "lock_wait_seconds",
    )

    def __init__(self, backend_id: int, name: str) -> None:
        self.backend_id = backend_id
        self.name = name
        self.state = STATE_IDLE
        #: Normalized text of the current (or last) statement.
        self.query = ""
        self.query_start: float | None = None
        #: xid of the session's open explicit transaction, if any.
        self.backend_xid: int | None = None
        #: Wait event currently blocking the session (None = running).
        self.wait_event: str | None = None
        self.statements = 0
        self.lock_waits = 0
        self.lock_wait_seconds = 0.0

    def begin_statement(self, query: str, now: float) -> None:
        self.state = STATE_ACTIVE
        self.query = query
        self.query_start = now
        self.wait_event = None

    def end_statement(self, in_transaction: bool, backend_xid: int | None) -> None:
        self.statements += 1
        self.wait_event = None
        self.backend_xid = backend_xid
        self.state = STATE_IDLE_IN_TXN if in_transaction else STATE_IDLE

    def note_lock_wait(self, seconds: float) -> None:
        self.lock_waits += 1
        self.lock_wait_seconds += seconds

    def reset_counters(self) -> None:
        """Zero the per-backend counters (the ``pg_stat_reset`` slice)."""
        self.statements = 0
        self.lock_waits = 0
        self.lock_wait_seconds = 0.0


class SessionRegistry:
    """All live backends of one database, keyed by backend id."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._backends: dict[int, BackendActivity] = {}
        self._next_id = 0

    def next_backend_id(self) -> int:
        """Mint a monotonic backend id (never reused within a database)."""
        with self._lock:
            self._next_id += 1
            return self._next_id

    def register(self, backend_id: int, name: str) -> BackendActivity:
        entry = BackendActivity(backend_id, name)
        with self._lock:
            self._backends[backend_id] = entry
        return entry

    def deregister(self, backend_id: int) -> None:
        with self._lock:
            self._backends.pop(backend_id, None)

    def backends(self) -> list[BackendActivity]:
        """Snapshot of the live entries, backend-id order."""
        with self._lock:
            return [self._backends[bid] for bid in sorted(self._backends)]

    def get(self, backend_id: int) -> BackendActivity | None:
        """The live entry for ``backend_id``, if still registered."""
        with self._lock:
            return self._backends.get(backend_id)

    def reset(self) -> None:
        """``pg_stat_reset()``: zero counters, keep the backends."""
        for entry in self.backends():
            entry.reset_counters()


def install_activity_view(catalog: Any, registry: SessionRegistry) -> None:
    """Register the ``pg_stat_activity`` virtual table."""

    def rows() -> list[tuple]:
        out = []
        for b in registry.backends():
            event = b.wait_event
            out.append(
                (
                    b.backend_id,
                    b.name,
                    b.state,
                    WAIT_EVENT_TYPES.get(event, "Extension") if event else None,
                    event,
                    b.backend_xid,
                    b.query or None,
                    b.query_start,
                    b.statements,
                    b.lock_waits,
                    b.lock_wait_seconds * 1e3,
                )
            )
        return out

    catalog.register_view(
        StatView(
            "pg_stat_activity",
            [
                label("pid"),
                label("name"),
                "state",
                "wait_event_type",
                "wait_event",
                "backend_xid",
                "query",
                "query_start",
                counter("statements"),
                counter("lock_waits"),
                counter("lock_wait_ms"),
            ],
            rows,
        )
    )
