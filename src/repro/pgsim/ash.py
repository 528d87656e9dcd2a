"""Time-series observability: Active Session History + stat history.

PR 8 gave the engine *point-in-time* surfaces (``pg_stat_activity``,
the Prometheus scrape); this module adds the time dimension:

* :class:`ActiveSessionHistory` — a bounded ring of periodic samples
  of every **active** backend (state/query/wait-event), PostgreSQL's
  ``pg_wait_sampling`` / Oracle ASH shape.  Served as ``pg_ash`` and
  aggregated into ``pg_wait_profile`` (wait-event x query time-share
  over the retained window);
* :class:`StatHistory` — periodic deltas of every ``counter`` column
  the catalog's views declare into a ``pg_stat_history`` ring, so
  rates and trends are queryable from plain SQL;
* :class:`TimeSeriesSampler` — the background daemon thread driving
  both, controlled by the ``ash_enable`` / ``ash_sampling_interval_ms``
  / ``stat_history_interval_ms`` GUCs.

Locking discipline (see DESIGN.md §3.3j): the sampler reads backend
fields as GIL-atomic attribute loads (a sample may interleave with a
statement boundary and see a half-updated pair — acceptable for
statistical sampling), takes the registry mutex only for membership,
and serializes ring append/snapshot on a per-ring lock so the ash
views stay safe on the lock-free read path.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any

from repro.common.obs import COUNTER, WAIT_EVENT_TYPES, StatView
from repro.pgsim.activity import STATE_ACTIVE, SessionRegistry


class ActiveSessionHistory:
    """Bounded ring of (sampled_at, backend...) activity samples.

    Only **active** backends are sampled — ASH semantics: idle
    backends carry no load, while a backend blocked on the statement
    lock is active *with* a wait event, which is exactly the signal
    ``pg_wait_profile`` aggregates.
    """

    def __init__(self, registry: SessionRegistry, ring_size: int = 4096) -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self._ring: deque[tuple] = deque(maxlen=max(int(ring_size), 1))
        #: Lifetime samples taken; survives :meth:`reset` the way the
        #: buffer/WAL counters survive ``pg_stat_reset()``.
        self.total_samples = 0

    def resize(self, ring_size: int) -> None:
        """Apply a new ``ash_ring_size``, keeping the newest samples."""
        with self._lock:
            self._ring = deque(self._ring, maxlen=max(int(ring_size), 1))

    def sample_once(self, now: float | None = None) -> int:
        """Take one sampling pass; returns the number of rows appended."""
        sampled_at = time.time() if now is None else now
        rows = []
        for backend in self._registry.backends():
            # GIL-atomic attribute loads; no per-backend lock (§3.3j).
            if backend.state != STATE_ACTIVE:
                continue
            wait_event = backend.wait_event
            rows.append(
                (
                    sampled_at,
                    backend.backend_id,
                    backend.name,
                    backend.state,
                    WAIT_EVENT_TYPES.get(wait_event, "Extension") if wait_event else None,
                    wait_event,
                    backend.query,
                    backend.backend_xid,
                )
            )
        if rows:
            with self._lock:
                self._ring.extend(rows)
                self.total_samples += len(rows)
        return len(rows)

    def samples(self) -> list[tuple]:
        """Snapshot of the retained ring, oldest first (``pg_ash``)."""
        with self._lock:
            return list(self._ring)

    def wait_profile(self) -> list[tuple]:
        """Aggregate the ring into (query, wait-event) time shares.

        Each retained sample is one quantum of backend time; grouping
        by (query, wait event or ``CPU``) turns sample counts into the
        share of backend time each query spent on each wait, the
        Oracle-ASH "top queries by wait" view.
        """
        ring = self.samples()
        if not ring:
            return []
        counts: dict[tuple[str, str], int] = {}
        for row in ring:
            event = row[5] or "CPU"
            key = (row[6] or "", event)
            counts[key] = counts.get(key, 0) + 1
        total = len(ring)
        rows = [
            (
                query,
                WAIT_EVENT_TYPES.get(event, "CPU" if event == "CPU" else "Extension"),
                event,
                n,
                n / total,
            )
            for (query, event), n in counts.items()
        ]
        rows.sort(key=lambda r: (-r[3], r[0], r[2]))
        return rows

    def reset(self) -> None:
        """``pg_stat_reset()``: drop retained samples, keep totals."""
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class StatHistory:
    """Bounded ring of periodic counter deltas (``pg_stat_history``).

    Long format, one row per counter cell: the metric is
    ``<view>.<column>`` in the view's own units and the label is the
    row's label columns as ``k=v,...``, so a new counter column in any
    view needs no change here.
    """

    def __init__(self, catalog: Any, ring_size: int = 512) -> None:
        self._catalog = catalog
        self._lock = threading.Lock()
        self._ring: deque[tuple] = deque(maxlen=max(int(ring_size), 1))
        self._last: dict[tuple[str, str], float] = {}
        self._last_time: float | None = None
        #: Lifetime ticks; survives :meth:`reset`.
        self.total_ticks = 0

    def resize(self, ring_size: int) -> None:
        with self._lock:
            self._ring = deque(self._ring, maxlen=max(int(ring_size), 1))

    def _collect(self) -> dict[tuple[str, str], float]:
        """Current value of every counter cell, keyed (metric, label)."""
        values: dict[tuple[str, str], float] = {}
        for name in self._catalog.view_names():
            view = self._catalog.view(name)
            counters = view.columns_of(COUNTER)
            if not counters:
                continue
            for row in view.rows():
                label = ",".join(f"{k}={v}" for k, v in view.row_labels(row))
                for i, column in counters:
                    if row[i] is not None:
                        values[(f"{name}.{column}", label)] = row[i]
        return values

    def tick(self, now: float | None = None) -> int:
        """Record one delta window; returns the number of rows added.

        Deltas are computed against the previous tick's snapshot;
        a counter that went *backwards* (``pg_stat_reset()`` cleared a
        resettable family mid-window) is treated as freshly restarted,
        Prometheus ``rate()`` semantics.
        """
        sampled_at = time.time() if now is None else now
        values = self._collect()
        window = sampled_at - self._last_time if self._last_time is not None else 0.0
        rows = []
        for (metric, label), value in sorted(values.items()):
            last = self._last.get((metric, label), 0.0)
            delta = value - last if value >= last else value
            rows.append((sampled_at, metric, label, value, delta, window))
        with self._lock:
            self._ring.extend(rows)
            self.total_ticks += 1
        self._last = values
        self._last_time = sampled_at
        return len(rows)

    def rows(self) -> list[tuple]:
        """Snapshot of the retained ring, oldest first."""
        with self._lock:
            return list(self._ring)

    def reset(self) -> None:
        """``pg_stat_reset()``: drop history rows, keep tick totals.

        The ``_last`` snapshot survives so the first post-reset tick
        still produces correct deltas for the monotonic families.
        """
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class TimeSeriesSampler:
    """Daemon thread driving ASH sampling and stat-history ticks.

    The loop re-reads ``ash_sampling_interval_ms`` and
    ``stat_history_interval_ms`` on every pass, so ``SET`` takes
    effect without a restart; ``stop()`` joins the thread.
    """

    def __init__(self, catalog: Any, ash: ActiveSessionHistory, history: StatHistory) -> None:
        self._catalog = catalog
        self._ash = ash
        self._history = history
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _interval(self, name: str, default_ms: float) -> float:
        try:
            value = float(self._catalog.get_setting(name))
        except Exception:
            value = default_ms
        return max(value, 1.0) / 1e3

    def _run(self) -> None:
        last_tick = time.monotonic()
        while not self._stop.wait(self._interval("ash_sampling_interval_ms", 10.0)):
            self._ash.sample_once()
            now = time.monotonic()
            if now - last_tick >= self._interval("stat_history_interval_ms", 1000.0):
                self._history.tick()
                last_tick = now

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._run, name="pgsim-ash-sampler", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None


def install_timeseries_views(
    catalog: Any, ash: ActiveSessionHistory, history: StatHistory
) -> None:
    """Register ``pg_ash`` / ``pg_wait_profile`` / ``pg_stat_history``.

    All three are pure ring snapshots, so the lock-free virtual-view
    read path serves them without the statement lock — a blocked
    workload can be diagnosed *while* it is blocked.
    """
    for view in (
        StatView(
            "pg_ash",
            [
                "sampled_at",
                "pid",
                "name",
                "state",
                "wait_event_type",
                "wait_event",
                "query",
                "backend_xid",
            ],
            ash.samples,
        ),
        StatView(
            "pg_wait_profile",
            ["query", "wait_event_type", "wait_event", "samples", "share"],
            ash.wait_profile,
        ),
        StatView(
            "pg_stat_history",
            ["sampled_at", "metric", "label", "value", "delta", "window_seconds"],
            history.rows,
        ),
    ):
        catalog.register_view(view)
