"""Outside-in tracing: the benchmark wraps the calls into each layer.

Nothing under ``src/`` knows about this.  :meth:`Tracer.install`
replaces each layer's entry points (class methods, and the
``parse_sql`` / ``plan_select`` / ``replay`` names where their callers
look them up) with wrappers that open a span, and :meth:`Tracer.uninstall`
puts the originals back, so an untraced run executes exactly the code a
user runs.

A span is ``(name, start, end, parent, statement_id)``.  A layer's
*self time* is its span's duration minus the part covered by child
spans; it is accumulated per ``(statement kind, span name)`` as spans
close, so the per-layer numbers cover every traced statement while only
the first :data:`MAX_EVENTS` spans are kept for the chrome-trace file.
Methods that hand back an iterator (``am.scan``, ``heap.scan`` ...) get
one span per ``next()``: the consumer's work between two ``next()``
calls belongs to the consumer.

The wrapper's own cost (two clock reads, a list push/pop) lands in the
*parent's* self time, which is why the traced run is only used for
shares and the end-to-end numbers come from the untraced run;
``trace.overhead_ratio`` reports the difference.  One tracer serves one
thread.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

import repro.pgsim.database as database_module
import repro.pgsim.executor as executor_module
import repro.pgsim.session as session_module
from repro.pgsim.am import lookup_am
from repro.pgsim.buffer import BufferManager
from repro.pgsim.executor import Executor
from repro.pgsim.heapam import HeapTable
from repro.pgsim.session import Session
from repro.pgsim.storage import FileDisk
from repro.pgsim.wal import WriteAheadLog

#: Spans kept for the chrome-trace file (aggregates cover all spans).
MAX_EVENTS = 50_000

#: (owner, attribute, span name, returns an iterator).
LAYER_TARGETS: list[tuple[Any, str, str, bool]] = [
    (Session, "execute_all", "session", False),
    (session_module, "parse_sql", "sql.parse", False),
    (executor_module, "plan_select", "planner.plan", False),
    (Executor, "execute_statement", "executor", False),
    (HeapTable, "fetch", "heapam.fetch", False),
    (HeapTable, "fetch_column", "heapam.fetch", False),
    (HeapTable, "fetch_many", "heapam.fetch", False),
    (HeapTable, "fetch_column_many", "heapam.fetch", False),
    (HeapTable, "fetch_column_any", "heapam.fetch", False),
    (HeapTable, "fetch_column_many_any", "heapam.fetch", False),
    (HeapTable, "insert", "heapam.insert", False),
    (HeapTable, "update", "heapam.modify", False),
    (HeapTable, "delete", "heapam.modify", False),
    (HeapTable, "scan", "heapam.scan", True),
    (HeapTable, "scan_batches", "heapam.scan", True),
    (HeapTable, "vacuum", "heapam.vacuum", False),
    # ``BufferManager.page`` is a context manager built on pin/unpin, so
    # wrapping it would bill the caller's with-body to the buffer layer.
    (BufferManager, "pin", "buffer", False),
    (BufferManager, "unpin", "buffer", False),
    (BufferManager, "new_page", "buffer", False),
    (BufferManager, "flush_all", "buffer", False),
    (WriteAheadLog, "log_page_image", "wal.append", False),
    (WriteAheadLog, "ensure_page_image", "wal.append", False),
    (WriteAheadLog, "log_insert", "wal.append", False),
    (WriteAheadLog, "log_delete", "wal.append", False),
    (WriteAheadLog, "log_update", "wal.append", False),
    (WriteAheadLog, "log_begin", "wal.append", False),
    (WriteAheadLog, "log_abort", "wal.append", False),
    (WriteAheadLog, "log_commit", "wal.append", False),
    (WriteAheadLog, "log_checkpoint", "wal.append", False),
    (WriteAheadLog, "flush", "wal.flush", False),
    (FileDisk, "read_block", "storage.read", False),
    (FileDisk, "write_block", "storage.write", False),
    (FileDisk, "extend", "storage.write", False),
    (database_module, "replay", "recovery.wal_replay", False),
]

#: Index-AM entry points, wrapped on each AM class a workload uses.
AM_METHODS: list[tuple[str, str, bool]] = [
    ("build", "am.build", False),
    ("insert", "am.insert", False),
    ("ambulkdelete", "am.bulkdelete", False),
    ("scan", "am.search", True),
    ("amrescan_continue", "am.search", True),
    ("amsearch_filtered", "am.search", True),
    ("get_batch", "am.search", False),
    ("amrescan_continue_batch", "am.search", False),
    ("amsearch_filtered_batch", "am.search", False),
]

_MISSING = object()


class Tracer:
    """Span recorder plus the installer of its wrappers."""

    def __init__(self) -> None:
        #: ``(kind, span name)`` -> summed self seconds / span count /
        #: summed span seconds (the last double-counts a span nested
        #: in one of the same name; it is read for ``am.build`` and
        #: ``recovery.wal_replay`` only, which do not nest).
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.total_s: dict[tuple[str, str], float] = defaultdict(float)
        #: ``(span id, name, start, end, parent id, statement id)``.
        self.events: list[tuple[int, str, float, float, int, int]] = []
        self.kind = "setup"
        self.statement_id = -1
        self._stack: list[list[Any]] = []
        self._next_span = 0
        self._installed: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def begin(self, kind: str) -> None:
        """Everything recorded until the next call belongs to one
        statement (or maintenance call) of ``kind``."""
        self.kind = kind
        self.statement_id += 1

    # ------------------------------------------------------------------
    # install / uninstall
    # ------------------------------------------------------------------
    @property
    def installed(self) -> bool:
        return bool(self._installed)

    def install(self, am_names: list[str], only: frozenset[str] | None = None) -> None:
        """Wrap every layer entry point, or just the spans named in
        ``only`` (index build and recovery are timed that way, without
        the cost of a wrapper on every buffer pin inside them)."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        targets = list(LAYER_TARGETS)
        for am_name in am_names:
            cls = lookup_am(am_name)
            targets += [(cls, attr, name, iterates) for attr, name, iterates in AM_METHODS]
        for owner, attr, name, iterates in targets:
            if only is None or name in only:
                self._patch(owner, attr, name, iterates)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, saved = self._installed.pop()
            if saved is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)

    def _patch(self, owner: Any, attr: str, name: str, iterates: bool) -> None:
        original = getattr(owner, attr)
        # An inherited method is wrapped on the subclass and removed
        # again on uninstall, leaving the base class untouched.
        saved = vars(owner).get(attr, _MISSING)
        self._installed.append((owner, attr, saved))
        setattr(owner, attr, self._wrap(original, name, iterates))

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _open(self) -> list[Any]:
        stack = self._stack
        span_id = self._next_span
        self._next_span = span_id + 1
        frame = [perf_counter(), 0.0, span_id, stack[-1][2] if stack else -1]
        stack.append(frame)
        return frame

    def _close(self, frame: list[Any], name: str) -> None:
        end = perf_counter()
        stack = self._stack
        stack.pop()
        start, child_s, span_id, parent = frame
        duration = end - start
        if stack:
            stack[-1][1] += duration
        key = (self.kind, name)
        self.self_s[key] += duration - child_s
        self.total_s[key] += duration
        self.calls[key] += 1
        if len(self.events) < MAX_EVENTS:
            self.events.append((span_id, name, start, end, parent, self.statement_id))

    def _wrap(self, fn: Callable[..., Any], name: str, iterates: bool) -> Callable[..., Any]:
        open_span, close_span, drive = self._open, self._close, self._drive

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = open_span()
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(frame, name)
            return drive(result, name) if iterates else result

        traced.e2e_span = name  # type: ignore[attr-defined]  # marks a wrapper
        return traced

    def _drive(self, inner: Iterator[Any], name: str) -> Iterator[Any]:
        """Re-yield ``inner`` with one span around each ``next()``."""
        try:
            while True:
                frame = self._open()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(frame, name)
                yield item
        finally:
            close = getattr(inner, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------
    # reading the result
    # ------------------------------------------------------------------
    def self_ms(self, kinds: tuple[str, ...], name: str, statements: int) -> float:
        """Mean self milliseconds of ``name`` spans per statement."""
        if statements == 0:
            return 0.0
        return sum(self.self_s.get((kind, name), 0.0) for kind in kinds) * 1e3 / statements

    def span_count(self, kinds: tuple[str, ...], name: str) -> int:
        return sum(self.calls.get((kind, name), 0) for kind in kinds)

    def write_chrome_trace(self, path: Path) -> None:
        """Dump the kept spans as chrome-trace "complete" events."""
        if not self.events:
            origin = 0.0
        else:
            origin = min(event[2] for event in self.events)
        trace_events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent, "statement": statement},
            }
            for span_id, name, start, end, parent, statement in self.events
        ]
        path.write_text(
            json.dumps({"traceEvents": trace_events, "displayTimeUnit": "ms"}) + "\n"
        )
