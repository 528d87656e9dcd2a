"""Observability primitives shared by every layer of the stack.

The paper's root-cause methodology is counter- and profile-driven:
per-query page accesses expose RC#2, distance-computation counts
expose nprobe/efs amplification, and flamegraphs (Fig. 8) attribute
wall time to code regions.  This module holds the building blocks the
rest of the reproduction composes into pg_stat-style views and bench
reports:

* :class:`CounterDeltaMixin` — ``snapshot()``/``delta()`` for counter
  dataclasses, so per-query accounting reads two snapshots instead of
  mutating shared counters (which double-counts across nested scans);
* :class:`LatencyHistogram` — log-bucketed latency recording with
  p50/p95/p99, the shape ``pg_stat_statements`` summarises queries in;
* :class:`IndexScanStats` — cumulative per-index scan/candidate
  counters, shared by pgsim index AMs and the specialized engines;
* :class:`StatView` — a ``pg_stat_*`` virtual table whose columns
  declare which cells are labels, counters and gauges;
* :func:`write_bench_json` — the unified ``BENCH_*.json`` emitter all
  benchmark scripts report through.

This module must stay importable without :mod:`repro.pgsim` (pgsim's
own modules import it).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping, NamedTuple, Sequence

from repro.common.metrics import latency_stats


class CounterDeltaMixin:
    """snapshot/delta arithmetic for flat counter dataclasses.

    Mix into a ``@dataclass`` whose fields are all numeric counters.
    ``snapshot()`` copies the current values; ``delta(since)`` returns
    a new instance holding field-wise differences.  Readers never
    reset or mutate the live counters, so concurrent consumers (an
    EXPLAIN node, the per-query tracker and a pg_stat view) cannot
    double-count each other's windows.
    """

    def snapshot(self):
        """An independent copy of the current counter values."""
        return dataclasses.replace(self)  # type: ignore[type-var]

    def delta(self, since):
        """Field-wise ``self - since`` as a new instance."""
        if type(since) is not type(self):
            raise TypeError(
                f"cannot delta {type(self).__name__} against {type(since).__name__}"
            )
        diffs = {
            f.name: getattr(self, f.name) - getattr(since, f.name)
            for f in dataclasses.fields(self)  # type: ignore[arg-type]
        }
        return type(self)(**diffs)

    def as_dict(self) -> dict[str, Any]:
        """Plain ``{field: value}`` mapping (for JSON emission)."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)  # type: ignore[arg-type]
        }


# ----------------------------------------------------------------------
# wait events
# ----------------------------------------------------------------------

#: Canonical wait-event names (PostgreSQL's ``pg_stat_activity``
#: vocabulary).  pgsim records blocked time under these when a
#: statement waits on storage or the buffer clock instead of running
#: engine code; classification is exclusive — the events never overlap
#: — so summing them never double-counts.
EV_BUFFER_READ = "BufferRead"  #: buffer-miss handling minus read/evict
EV_DATA_FILE_READ = "DataFileRead"  #: block read from the disk manager
EV_WAL_WRITE = "WALWrite"  #: WAL file append
EV_WAL_SYNC = "WALSync"  #: WAL fsync
EV_LWLOCK_BUFFER_CLOCK = "LWLockBufferClock"  #: clock-sweep eviction
EV_STATEMENT_LOCK = "SessionStatementLock"  #: waiting on the statement lock

#: event name -> PostgreSQL-style wait-event class.
WAIT_EVENT_TYPES = {
    EV_BUFFER_READ: "IO",
    EV_DATA_FILE_READ: "IO",
    EV_WAL_WRITE: "IO",
    EV_WAL_SYNC: "IO",
    EV_LWLOCK_BUFFER_CLOCK: "LWLock",
    EV_STATEMENT_LOCK: "Lock",
}


class WaitEventStats:
    """Cumulative per-event wait accounting (count + blocked seconds).

    Dict-keyed rather than a counter dataclass so new event names need
    no schema change; supports the same snapshot/delta protocol as
    :class:`CounterDeltaMixin` plus an explicit :meth:`reset` (the
    ``pg_stat_reset()`` contract).
    """

    __slots__ = ("counts", "seconds")

    def __init__(
        self,
        counts: dict[str, int] | None = None,
        seconds: dict[str, float] | None = None,
    ) -> None:
        self.counts: dict[str, int] = dict(counts or {})
        self.seconds: dict[str, float] = dict(seconds or {})

    def record(self, event: str, elapsed: float) -> None:
        """Add one occurrence of ``event`` that blocked for ``elapsed`` s."""
        self.counts[event] = self.counts.get(event, 0) + 1
        self.seconds[event] = self.seconds.get(event, 0.0) + elapsed

    def snapshot(self) -> "WaitEventStats":
        return WaitEventStats(self.counts, self.seconds)

    def delta(self, since: "WaitEventStats") -> "WaitEventStats":
        counts = {}
        seconds = {}
        for event, n in self.counts.items():
            diff = n - since.counts.get(event, 0)
            if diff:
                counts[event] = diff
                seconds[event] = self.seconds.get(event, 0.0) - since.seconds.get(event, 0.0)
        return WaitEventStats(counts, seconds)

    def reset(self) -> None:
        self.counts.clear()
        self.seconds.clear()

    def events(self) -> list[str]:
        """Recorded event names, sorted."""
        return sorted(self.counts)

    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def as_dict(self) -> dict[str, Any]:
        return {
            event: {"count": self.counts[event], "seconds": self.seconds.get(event, 0.0)}
            for event in self.events()
        }

    def __bool__(self) -> bool:
        return bool(self.counts)


# ----------------------------------------------------------------------
# index-build progress
# ----------------------------------------------------------------------


class BuildProgress:
    """Live phase/tuple progress of one index build.

    The moral equivalent of a ``pg_stat_progress_create_index`` row:
    the access method reports its current phase (sample/kmeans/assign/
    flush for IVF, insert/link for HNSW) and ticks tuples as it
    processes them; observers read the fields at any time.
    """

    __slots__ = ("index_name", "am_name", "phase", "tuples_done", "tuples_total", "phases_seen", "finished")

    def __init__(self, index_name: str = "", am_name: str = "") -> None:
        self.index_name = index_name
        self.am_name = am_name
        self.phase = "initializing"
        self.tuples_done = 0
        self.tuples_total = 0
        #: Phases in the order the AM entered them.
        self.phases_seen: list[str] = []
        self.finished = False

    def set_phase(self, phase: str, tuples_total: int | None = None) -> None:
        """Enter a build phase; optionally (re)declare the tuple goal."""
        self.phase = phase
        self.phases_seen.append(phase)
        if tuples_total is not None:
            self.tuples_total = tuples_total
            self.tuples_done = 0

    def tick(self, n: int = 1) -> None:
        """Advance the current phase's tuple counter."""
        self.tuples_done += n


class _NullProgress(BuildProgress):
    """Do-nothing progress sink (default on every index AM)."""

    def set_phase(self, phase: str, tuples_total: int | None = None) -> None:
        return None

    def tick(self, n: int = 1) -> None:
        return None


#: Shared no-op progress reporter for builds nobody is watching.
NULL_PROGRESS = _NullProgress()


class VacuumProgress:
    """Live phase progress of one VACUUM (``pg_stat_progress_vacuum``).

    The executor drives the heap-scan / index-vacuum / cleanup phases;
    each index AM ticks :meth:`tick_index_entries` from inside its
    ``ambulkdelete`` so observers watch per-index reclamation advance
    in real time, the way PostgreSQL reports ``vacuuming indexes``.
    """

    __slots__ = (
        "table_name",
        "phase",
        "heap_blks_total",
        "heap_blks_scanned",
        "tuples_removed",
        "index_name",
        "index_vacuum_count",
        "index_entries_removed",
        "phases_seen",
        "finished",
    )

    def __init__(self, table_name: str = "") -> None:
        self.table_name = table_name
        self.phase = "initializing"
        self.heap_blks_total = 0
        self.heap_blks_scanned = 0
        self.tuples_removed = 0
        #: Index currently under ``ambulkdelete`` (empty between).
        self.index_name = ""
        self.index_vacuum_count = 0
        self.index_entries_removed = 0
        #: Phases in the order the executor entered them.
        self.phases_seen: list[str] = []
        self.finished = False

    def set_phase(self, phase: str) -> None:
        self.phase = phase
        self.phases_seen.append(phase)

    def tick_heap(self, n: int = 1) -> None:
        self.heap_blks_scanned += n

    def tick_index_entries(self, n: int = 1) -> None:
        self.index_entries_removed += n


class _NullVacuumProgress(VacuumProgress):
    """Do-nothing vacuum progress sink (default on every index AM)."""

    def set_phase(self, phase: str) -> None:
        return None

    def tick_heap(self, n: int = 1) -> None:
        return None

    def tick_index_entries(self, n: int = 1) -> None:
        return None


#: Shared no-op vacuum-progress reporter.
NULL_VACUUM_PROGRESS = _NullVacuumProgress()


@dataclass(slots=True)
class IndexScanStats(CounterDeltaMixin):
    """Cumulative index-AM work counters (``pg_stat_indexes``).

    ``candidates`` counts tuples the AM actually evaluated a distance
    for — the paper's nprobe/efs amplification factor — not the k
    results returned.
    """

    scans: int = 0
    candidates: int = 0


class LatencyHistogram:
    """Log-bucketed latency histogram with percentile estimation.

    Buckets are geometrically spaced (``_PER_DECADE`` per factor of
    ten, ~12% relative width) from 100 ns up; recording is O(1) and
    the memory footprint is a small dict, so per-statement histograms
    are cheap enough for ``pg_stat_statements`` to keep one each.
    Percentiles are bucket upper-bound estimates, conservative the way
    monitoring histograms usually are.
    """

    _PER_DECADE = 20
    _MIN_SECONDS = 1e-7

    __slots__ = ("_buckets", "count", "total_seconds", "max_seconds")

    def __init__(self) -> None:
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Add one sample (negative values clamp to zero)."""
        seconds = max(seconds, 0.0)
        self.count += 1
        self.total_seconds += seconds
        if seconds > self.max_seconds:
            self.max_seconds = seconds
        index = self._index(seconds)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @classmethod
    def _index(cls, seconds: float) -> int:
        if seconds <= cls._MIN_SECONDS:
            return 0
        return 1 + int(math.log10(seconds / cls._MIN_SECONDS) * cls._PER_DECADE)

    @classmethod
    def _upper_bound(cls, index: int) -> float:
        if index == 0:
            return cls._MIN_SECONDS
        return cls._MIN_SECONDS * 10 ** (index / cls._PER_DECADE)

    def percentile(self, q: float) -> float:
        """Latency (seconds) at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                return min(self._upper_bound(index), self.max_seconds)
        return self.max_seconds

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def mean(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0


class RecallStats:
    """Running recall@k summary for the online quality probes.

    Tracks count/sum/min and the most recent observation so
    ``pg_stat_vector_quality`` can show both the trend and "right now".
    """

    __slots__ = ("count", "total", "min_value", "last_value")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min_value = 1.0
        self.last_value = 0.0

    def record(self, recall: float) -> None:
        recall = min(max(recall, 0.0), 1.0)
        self.count += 1
        self.total += recall
        self.min_value = min(self.min_value, recall)
        self.last_value = recall

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


# ----------------------------------------------------------------------
# statistics views: the one declaration of every exported counter
# ----------------------------------------------------------------------

#: Column kinds of a :class:`StatView`.  A ``label`` column keys its
#: row; a ``counter`` only grows (until ``pg_stat_reset()``); a
#: ``gauge`` is a current level.  Plain columns carry neither kind and
#: are visible to SQL only.
LABEL, COUNTER, GAUGE = "label", "counter", "gauge"


class Column(NamedTuple):
    """One declared view column: its name and kind (None = plain)."""

    name: str
    kind: str | None = None


def label(name: str) -> Column:
    """Declare a column that keys its row (a Prometheus label)."""
    return Column(name, LABEL)


def counter(name: str) -> Column:
    """Declare a cumulative column (scraped ``_total``, kept in history)."""
    return Column(name, COUNTER)


def gauge(name: str) -> Column:
    """Declare a current-level column (scraped, not kept in history)."""
    return Column(name, GAUGE)


class StatView:
    """A read-only virtual table backed by a row-producing callable.

    Quacks enough like :class:`~repro.pgsim.catalog.TableInfo` for the
    planner's projection logic (``column_names()``) while carrying no
    heap — the executor materialises ``rows()`` on every scan, so a
    view always reflects the current counters.

    ``columns`` mixes bare names (plain columns) with :func:`label` /
    :func:`counter` / :func:`gauge` declarations.  Those kinds are the
    only registry of exported metrics: the Prometheus scrape
    (:mod:`repro.common.metrics_export`) and ``pg_stat_history``
    (:class:`~repro.pgsim.ash.StatHistory`) are generated from them.
    """

    __slots__ = ("name", "columns", "kinds", "_kinded", "_rows_fn")

    def __init__(
        self,
        name: str,
        columns: Sequence[str | Column],
        rows_fn: Callable[[], list[tuple]],
    ) -> None:
        declared = [c if isinstance(c, Column) else Column(c) for c in columns]
        self.name = name
        self.columns = [c.name for c in declared]
        self.kinds = [c.kind for c in declared]
        #: ``(position, name, kind)`` of the non-plain columns, which the
        #: exporters walk on every scrape and history tick.
        self._kinded = [(i, c.name, c.kind) for i, c in enumerate(declared) if c.kind]
        self._rows_fn = rows_fn

    def column_names(self) -> list[str]:
        return list(self.columns)

    def rows(self) -> list[tuple]:
        return self._rows_fn()

    def columns_of(self, *kinds: str) -> list[tuple[int, str]]:
        """``(position, name)`` of every column declared as one of ``kinds``."""
        return [(i, name) for i, name, kind in self._kinded if kind in kinds]

    def row_labels(self, row: tuple) -> list[tuple[str, Any]]:
        """The row's ``(label column, value)`` pairs, None cells skipped."""
        return [
            (name, row[i]) for i, name, kind in self._kinded if kind == LABEL and row[i] is not None
        ]


# ----------------------------------------------------------------------
# unified benchmark JSON emitter
# ----------------------------------------------------------------------

#: Schema identifier stamped into every emitted file.
BENCH_SCHEMA = "repro-bench/v1"

#: Environment variable overriding the output directory.
BENCH_DIR_ENV = "BENCH_RESULTS_DIR"


def latency_summary(latencies_seconds: Sequence[float]) -> dict[str, Any]:
    """:func:`~repro.common.metrics.latency_stats` of raw samples, in ms."""
    if not latencies_seconds:
        return {"count": 0}
    stats = latency_stats(latencies_seconds)
    return {
        "count": stats.count,
        "mean_ms": stats.mean * 1e3,
        "p50_ms": stats.p50 * 1e3,
        "p95_ms": stats.p95 * 1e3,
        "p99_ms": stats.p99 * 1e3,
        "min_ms": min(latencies_seconds) * 1e3,
        "max_ms": max(latencies_seconds) * 1e3,
    }


def write_bench_json(
    workload: str,
    *,
    params: Mapping[str, Any] | None = None,
    latencies_seconds: Sequence[float] | None = None,
    latency: Mapping[str, Any] | None = None,
    counters: Mapping[str, Any] | None = None,
    extra: Mapping[str, Any] | None = None,
    out_dir: str | Path | None = None,
) -> Path:
    """Emit one ``BENCH_<workload>.json`` through the unified schema.

    Every benchmark script reports through this one function so the
    perf trajectory is machine-comparable across PRs: fixed top-level
    keys (``schema``/``workload``/``params``/``latency``/``counters``),
    latency always in milliseconds, counters always raw deltas.

    Args:
        workload: short identifier; becomes the filename suffix.
        params: workload configuration (scale, k, nprobe, ...).
        latencies_seconds: raw per-query samples to summarise; mutually
            additive with ``latency`` (explicit summary wins per key).
        latency: pre-computed summary (e.g. from a LatencyHistogram).
        counters: counter deltas attributed to the run.
        extra: anything workload-specific.
        out_dir: target directory; defaults to ``$BENCH_RESULTS_DIR``
            or the current directory.

    Returns the path written.
    """
    summary: dict[str, Any] = {}
    if latencies_seconds is not None:
        summary.update(latency_summary(latencies_seconds))
    if latency is not None:
        summary.update(latency)
    doc: dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "workload": workload,
        "params": dict(params or {}),
        "latency": summary,
        "counters": {k: _plain(v) for k, v in (counters or {}).items()},
    }
    if extra:
        doc["extra"] = {k: _plain(v) for k, v in extra.items()}
    directory = Path(out_dir if out_dir is not None else os.environ.get(BENCH_DIR_ENV, "."))
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{workload}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def _plain(value: Any) -> Any:
    """Coerce counter dataclasses / numpy scalars to JSON-safe values."""
    if isinstance(value, CounterDeltaMixin):
        return value.as_dict()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        try:
            return value.item()
        except Exception:
            return value
    return value
