"""Cumulative statistics and per-query accounting (pgsim's pg_stat_*).

Three pieces, mirroring how PostgreSQL exposes its own bookkeeping:

* :class:`QueryStats` — counter deltas attributed to one executed
  statement (buffer, WAL, heap and index-AM work), attached to every
  :class:`~repro.pgsim.plan.QueryResult` by
  :meth:`~repro.pgsim.database.PgSimDatabase.execute`;
* :class:`StatsCollector` — the per-database aggregation point: it
  owns the shared heap-access counters, snapshots/deltas all counter
  families around statements, and keeps the
  ``pg_stat_statements``-style per-normalized-query histograms;
* :func:`install_stat_views` — read-only virtual tables
  (:class:`~repro.common.obs.StatView`: ``pg_stat_database``,
  ``pg_stat_buffers``, ``pg_stat_wal``, ``pg_stat_indexes``,
  ``pg_stat_statements``, ``pg_stat_wait_events``,
  ``pg_stat_progress_create_index``, ``pg_stat_progress_vacuum``,
  ``pg_stat_vector_quality``, and the ANALYZE-backed ``pg_stats`` /
  ``pg_stat_user_tables``) the planner exposes to ordinary SQL.
  ``pg_stat_activity`` and ``pg_slow_queries`` live in
  :mod:`repro.pgsim.activity` / :mod:`repro.pgsim.slowlog` and are
  installed by the database facade alongside these.

Per-query tracking is controlled by the ``track_query_stats`` GUC
(default on); the cumulative counters themselves are always live —
they are plain integer increments on hot paths that already exist.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.common.obs import (
    WAIT_EVENT_TYPES,
    BuildProgress,
    CounterDeltaMixin,
    IndexScanStats,
    LatencyHistogram,
    RecallStats,
    StatView,
    VacuumProgress,
    WaitEventStats,
    counter,
    gauge,
    label,
)
from repro.pgsim.buffer import BufferManager, BufferStats
from repro.pgsim.sql.lexer import Token, TokenType, tokenize
from repro.pgsim.wal import WalStats, WriteAheadLog


@dataclass(slots=True)
class HeapAccessStats(CounterDeltaMixin):
    """Cumulative heap-AM tuple traffic (``pg_stat_database``'s ``tup_*``).

    One instance is shared by every :class:`~repro.pgsim.heapam.HeapTable`
    of a database (wired up by the executor), so a single delta covers
    all relations a statement touched.
    """

    tuples_fetched: int = 0
    tuples_inserted: int = 0
    tuples_deleted: int = 0
    tuples_updated: int = 0


@dataclass
class QueryStats:
    """Counter deltas for one executed statement."""

    elapsed_seconds: float
    buffer: BufferStats
    wal: WalStats
    heap: HeapAccessStats
    index: IndexScanStats
    wait_events: WaitEventStats = field(default_factory=WaitEventStats)

    # Flat accessors for the counters the paper's analysis leans on.
    @property
    def buffer_hits(self) -> int:
        return self.buffer.hits

    @property
    def buffer_misses(self) -> int:
        return self.buffer.misses

    @property
    def heap_tuples_fetched(self) -> int:
        return self.heap.tuples_fetched

    @property
    def index_candidates(self) -> int:
        return self.index.candidates

    def as_dict(self) -> dict[str, Any]:
        """Nested plain-dict form (for the bench JSON emitter)."""
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "buffer": self.buffer.as_dict(),
            "wal": self.wal.as_dict(),
            "heap": self.heap.as_dict(),
            "index": self.index.as_dict(),
            "wait_events": self.wait_events.as_dict(),
        }


class StatementStats:
    """Cumulative execution record of one normalized statement."""

    __slots__ = ("calls", "rows", "histogram")

    def __init__(self) -> None:
        self.calls = 0
        self.rows = 0
        self.histogram = LatencyHistogram()

    def record(self, seconds: float, rows: int) -> None:
        self.calls += 1
        self.rows += rows
        self.histogram.record(seconds)


def normalize_sql(sql: str, tokens: list[Token] | None = None) -> list[str]:
    """Normalize a SQL string into per-statement fingerprint texts.

    Literal constants (numbers and strings) are replaced with ``?`` so
    queries differing only in parameters share one
    ``pg_stat_statements`` entry — e.g. every
    ``ORDER BY vec <-> '...'::PASE LIMIT 10`` probe of a workload
    collapses to a single line.  Statements are split on top-level
    ``;`` exactly like the parser splits them, so the i-th normalized
    text corresponds to the i-th parsed statement.

    ``tokens`` is ``sql``'s :func:`tokenize` stream when the caller
    already lexed it for the parser (the session does), so a statement
    is lexed once.  Nothing is memoized: statements carrying vector
    literals are nearly all distinct texts.
    """
    groups: list[list[str]] = [[]]
    for token in tokenize(sql) if tokens is None else tokens:
        if token.type == TokenType.EOF:
            break
        if token.type == TokenType.PUNCT and token.value == ";":
            groups.append([])
            continue
        if token.type in (TokenType.NUMBER, TokenType.STRING):
            groups[-1].append("?")
        else:
            groups[-1].append(token.value)
    return [" ".join(group) for group in groups if group]


@dataclass
class _Baseline:
    """Counter snapshots taken at statement start."""

    buffer: BufferStats
    wal: WalStats
    heap: HeapAccessStats
    index: IndexScanStats
    waits: WaitEventStats


#: Completed build-progress records the progress view keeps around.
_BUILD_HISTORY_LIMIT = 32

#: Completed vacuum-progress records pg_stat_progress_vacuum keeps.
_VACUUM_HISTORY_LIMIT = 32


class QualityEntry:
    """Accumulated recall-probe observations for one index."""

    __slots__ = ("index_name", "am_name", "recall")

    def __init__(self, index_name: str, am_name: str) -> None:
        self.index_name = index_name
        self.am_name = am_name
        self.recall = RecallStats()


class StatsCollector:
    """Aggregation point for one database's statistics."""

    def __init__(
        self,
        buffer: BufferManager,
        wal: WriteAheadLog,
        catalog: Any,
        waits: WaitEventStats | None = None,
    ) -> None:
        self.buffer = buffer
        self.wal = wal
        self.catalog = catalog
        #: Shared by every HeapTable of this database.
        self.heap = HeapAccessStats()
        #: Wait-event accumulator; the database facade passes the one
        #: instance it shared with the buffer manager and WAL.  The
        #: fallback to the buffer's own accumulator keeps direct
        #: ``Executor(...)`` constructions (tests) observable.
        self.waits = waits if waits is not None else buffer.waits
        self.statements: dict[str, StatementStats] = {}
        #: Index builds, most recent last; the in-flight one (if any)
        #: is ``self.current_build``.
        self.builds: list[BuildProgress] = []
        self.current_build: BuildProgress | None = None
        #: Vacuum runs, most recent last (pg_stat_progress_vacuum).
        self.vacuums: list[VacuumProgress] = []
        self.current_vacuum: VacuumProgress | None = None
        #: Online recall-probe accumulators, keyed by index name.
        self.quality: dict[str, QualityEntry] = {}
        #: Monotonic probe-ticket counter driving deterministic probe
        #: sampling (reset with pg_stat_reset for replayability).
        self._probe_ticket = 0
        #: Separate ticket stream for the estimation probes, so adding
        #: or removing estimation sampling never perturbs which scans
        #: the *recall* probes pick (and vice versa).
        self._estimation_ticket = 0
        #: External surfaces whose reset() joins pg_stat_reset()
        #: (slow-query ring, activity counters).
        self._resettables: list[Any] = []

    # ------------------------------------------------------------------
    # per-query windows
    # ------------------------------------------------------------------
    def begin(self) -> _Baseline:
        """Snapshot every counter family before a statement runs."""
        return _Baseline(
            buffer=self.buffer.stats.snapshot(),
            wal=self.wal.stats.snapshot(),
            heap=self.heap.snapshot(),
            index=self.index_totals(),
            waits=self.waits.snapshot(),
        )

    def finish(self, baseline: _Baseline, elapsed_seconds: float) -> QueryStats:
        """Delta against a :meth:`begin` snapshot."""
        return QueryStats(
            elapsed_seconds=elapsed_seconds,
            buffer=self.buffer.stats.delta(baseline.buffer),
            wal=self.wal.stats.delta(baseline.wal),
            heap=self.heap.delta(baseline.heap),
            index=self.index_totals().delta(baseline.index),
            wait_events=self.waits.delta(baseline.waits),
        )

    # ------------------------------------------------------------------
    # index-build progress (pg_stat_progress_create_index)
    # ------------------------------------------------------------------
    def start_build(self, index_name: str, am_name: str) -> BuildProgress:
        """Open a progress record for an index build about to run."""
        progress = BuildProgress(index_name=index_name, am_name=am_name)
        self.builds.append(progress)
        del self.builds[:-_BUILD_HISTORY_LIMIT]
        self.current_build = progress
        return progress

    def finish_build(self) -> None:
        """Close the in-flight build's progress record."""
        if self.current_build is not None:
            self.current_build.finished = True
            self.current_build = None

    # ------------------------------------------------------------------
    # vacuum progress (pg_stat_progress_vacuum)
    # ------------------------------------------------------------------
    def start_vacuum(self, table_name: str) -> VacuumProgress:
        """Open a progress record for a VACUUM about to run."""
        progress = VacuumProgress(table_name)
        self.vacuums.append(progress)
        del self.vacuums[:-_VACUUM_HISTORY_LIMIT]
        self.current_vacuum = progress
        return progress

    def finish_vacuum(self) -> None:
        """Close the in-flight vacuum's progress record."""
        if self.current_vacuum is not None:
            self.current_vacuum.finished = True
            self.current_vacuum = None

    # ------------------------------------------------------------------
    # online recall probes (pg_stat_vector_quality)
    # ------------------------------------------------------------------
    def next_probe_ticket(self) -> int:
        """Monotonic per-scan ticket feeding the probe sampling hash."""
        self._probe_ticket += 1
        return self._probe_ticket

    def next_estimation_ticket(self) -> int:
        """Monotonic per-statement ticket for estimation sampling."""
        self._estimation_ticket += 1
        return self._estimation_ticket

    def record_quality(self, index_name: str, am_name: str, recall: float) -> None:
        entry = self.quality.get(index_name)
        if entry is None:
            entry = self.quality[index_name] = QualityEntry(index_name, am_name)
        entry.recall.record(recall)

    # ------------------------------------------------------------------
    # reset wiring
    # ------------------------------------------------------------------
    def register_resettable(self, surface: Any) -> None:
        """Enroll an object with a ``reset()`` into ``pg_stat_reset()``."""
        self._resettables.append(surface)

    # ------------------------------------------------------------------
    # cumulative rollups
    # ------------------------------------------------------------------
    def iter_indexes(self) -> Iterator[Any]:
        for table_name in self.catalog.table_names():
            yield from self.catalog.table(table_name).indexes.values()

    def index_totals(self) -> IndexScanStats:
        """Sum of every index AM's scan counters."""
        total = IndexScanStats()
        for info in self.iter_indexes():
            stats = getattr(info.am, "scan_stats", None)
            if stats is not None:
                total.scans += stats.scans
                total.candidates += stats.candidates
        return total

    # ------------------------------------------------------------------
    # pg_stat_statements
    # ------------------------------------------------------------------
    def record_statement(self, normalized: str, seconds: float, rows: int) -> None:
        entry = self.statements.get(normalized)
        if entry is None:
            entry = self.statements[normalized] = StatementStats()
        entry.record(seconds, rows)

    def reset_statements(self) -> None:
        """The moral equivalent of ``pg_stat_statements_reset()``."""
        self.statements.clear()

    def reset(self) -> None:
        """``SELECT pg_stat_reset()``: zero the resettable accumulators.

        Clears ``pg_stat_statements``, the wait-event accumulator, the
        recall-probe accumulators (plus the probe and estimation
        tickets, so sampling replays deterministically after a reset)
        and every registered external surface — the slow-query ring,
        per-backend activity counters, the ASH and stat-history rings,
        and the estimation-error entries (each keeps its own lifetime
        totals).  The buffer/WAL/heap/index counters are monotonic by
        design (consumers window them with snapshot/delta, see
        :class:`~repro.common.obs.CounterDeltaMixin`) and are left
        untouched, as are the build/vacuum progress histories.
        """
        self.reset_statements()
        self.waits.reset()
        self.quality.clear()
        self._probe_ticket = 0
        self._estimation_ticket = 0
        for surface in self._resettables:
            surface.reset()


def install_stat_views(catalog: Any, collector: StatsCollector, xact: Any) -> None:
    """Register the pg_stat_* virtual tables on a catalog.

    ``xact`` is the database's transaction manager, whose commit and
    abort counts ``pg_stat_database`` reports beside the heap traffic.
    """

    def database_rows() -> list[tuple]:
        heap = collector.heap
        return [
            (
                xact.commits,
                xact.aborts,
                heap.tuples_fetched,
                heap.tuples_inserted,
                heap.tuples_updated,
                heap.tuples_deleted,
            )
        ]

    def buffers_rows() -> list[tuple]:
        s = collector.buffer.stats
        return [
            (s.hits, s.misses, s.evictions, s.dirty_writebacks, s.accesses, s.hit_ratio)
        ]

    def wal_rows() -> list[tuple]:
        s = collector.wal.stats
        return [
            (
                s.records,
                s.bytes_written,
                s.flushes,
                s.records_flushed,
                s.bytes_flushed,
                collector.wal.flushed_lsn,
            )
        ]

    def index_rows() -> list[tuple]:
        rows = []
        for info in collector.iter_indexes():
            stats = getattr(info.am, "scan_stats", None) or IndexScanStats()
            per_scan = stats.candidates / stats.scans if stats.scans else 0.0
            rows.append(
                (
                    info.name,
                    info.table_name,
                    info.am_name,
                    stats.scans,
                    stats.candidates,
                    per_scan,
                )
            )
        return rows

    def statement_rows() -> list[tuple]:
        rows = []
        # .copy(): the view may be read lock-free while another
        # session's statement inserts a new entry mid-iteration.
        for text, entry in collector.statements.copy().items():
            h = entry.histogram
            rows.append(
                (
                    text,
                    entry.calls,
                    entry.rows,
                    h.total_seconds * 1e3,
                    h.mean * 1e3,
                    h.p50 * 1e3,
                    h.p95 * 1e3,
                    h.p99 * 1e3,
                )
            )
        rows.sort(key=lambda r: r[3], reverse=True)
        return rows

    def wait_event_rows() -> list[tuple]:
        # snapshot(): lock-free readers vs a concurrent record().
        waits = collector.waits.snapshot()
        return [
            (
                WAIT_EVENT_TYPES.get(event, "Extension"),
                event,
                waits.counts[event],
                waits.seconds.get(event, 0.0) * 1e3,
            )
            for event in waits.events()
        ]

    def progress_rows() -> list[tuple]:
        return [
            (
                p.index_name,
                p.am_name,
                p.phase,
                p.tuples_done,
                p.tuples_total,
                "done" if p.finished else "in progress",
            )
            for p in collector.builds
        ]

    def vacuum_progress_rows() -> list[tuple]:
        return [
            (
                p.table_name,
                p.phase,
                p.heap_blks_total,
                p.heap_blks_scanned,
                p.tuples_removed,
                p.index_name or None,
                p.index_vacuum_count,
                p.index_entries_removed,
                ",".join(p.phases_seen),
                "done" if p.finished else "in progress",
            )
            for p in list(collector.vacuums)
        ]

    def vector_quality_rows() -> list[tuple]:
        rows = []
        for name in sorted(collector.quality.copy()):
            entry = collector.quality[name]
            h = entry.recall
            rows.append(
                (
                    entry.index_name,
                    entry.am_name,
                    h.count,
                    h.mean,
                    h.min_value if h.count else None,
                    h.last_value if h.count else None,
                )
            )
        return rows

    def _render_list(values: list) -> str | None:
        """pg_stats-style array text: ``{v1,v2,...}`` (None when empty)."""
        if not values:
            return None
        return "{" + ",".join(str(v) for v in values) + "}"

    def pg_stats_rows() -> list[tuple]:
        rows = []
        for table_name in catalog.table_names():
            table = catalog.table(table_name)
            if table.stats is None:
                continue
            for attname, col in sorted(table.stats.columns.items()):
                rows.append(
                    (
                        table_name,
                        attname,
                        col.null_frac,
                        col.n_distinct,
                        _render_list(col.mcv_values),
                        _render_list([f"{f:.6g}" for f in col.mcv_freqs]),
                        _render_list(col.histogram_bounds),
                        round(col.correlation, 6),
                    )
                )
        return rows

    def user_table_rows() -> list[tuple]:
        rows = []
        for table_name in catalog.table_names():
            table = catalog.table(table_name)
            stats = table.stats
            rows.append(
                (
                    table_name,
                    float(stats.reltuples) if stats is not None else None,
                    stats.relpages if stats is not None else None,
                    table.heap.tuple_count,
                    table.heap.n_dead_tup,
                    table.heap.n_tup_upd,
                    table.heap.vacuum_count,
                    table.heap.autovacuum_count,
                    stats.last_analyze if stats is not None else None,
                )
            )
        return rows

    for view in (
        StatView(
            "pg_stat_database",
            [
                counter("xact_commit"),
                counter("xact_rollback"),
                counter("tup_fetched"),
                counter("tup_inserted"),
                counter("tup_updated"),
                counter("tup_deleted"),
            ],
            database_rows,
        ),
        StatView(
            "pg_stat_buffers",
            [
                counter("hits"),
                counter("misses"),
                counter("evictions"),
                counter("dirty_writebacks"),
                counter("accesses"),
                gauge("hit_ratio"),
            ],
            buffers_rows,
        ),
        StatView(
            "pg_stat_wal",
            [
                counter("records"),
                counter("bytes_written"),
                counter("flushes"),
                counter("records_flushed"),
                counter("bytes_flushed"),
                gauge("flushed_lsn"),
            ],
            wal_rows,
        ),
        StatView(
            "pg_stat_indexes",
            [
                label("index"),
                label("table"),
                label("am"),
                counter("scans"),
                counter("candidates"),
                gauge("candidates_per_scan"),
            ],
            index_rows,
        ),
        StatView(
            "pg_stat_statements",
            [
                label("query"),
                counter("calls"),
                counter("rows"),
                counter("total_ms"),
                gauge("mean_ms"),
                gauge("p50_ms"),
                gauge("p95_ms"),
                gauge("p99_ms"),
            ],
            statement_rows,
        ),
        StatView(
            "pg_stat_wait_events",
            [label("wait_event_type"), label("wait_event"), counter("count"), counter("total_ms")],
            wait_event_rows,
        ),
        StatView(
            "pg_stat_progress_create_index",
            ["index", "am", "phase", "tuples_done", "tuples_total", "status"],
            progress_rows,
        ),
        StatView(
            "pg_stat_progress_vacuum",
            [
                "table",
                "phase",
                "heap_blks_total",
                "heap_blks_scanned",
                "tuples_removed",
                "index_name",
                "index_vacuum_count",
                "index_entries_removed",
                "phases",
                "status",
            ],
            vacuum_progress_rows,
        ),
        StatView(
            "pg_stat_vector_quality",
            [
                label("index"),
                label("am"),
                counter("probes"),
                gauge("mean_recall"),
                gauge("min_recall"),
                gauge("last_recall"),
            ],
            vector_quality_rows,
        ),
        StatView(
            "pg_stats",
            [
                "tablename",
                "attname",
                "null_frac",
                "n_distinct",
                "most_common_vals",
                "most_common_freqs",
                "histogram_bounds",
                "correlation",
            ],
            pg_stats_rows,
        ),
        StatView(
            "pg_stat_user_tables",
            [
                label("relname"),
                gauge("reltuples"),
                gauge("relpages"),
                gauge("n_live_tup"),
                gauge("n_dead_tup"),
                counter("n_tup_upd"),
                counter("vacuum_count"),
                counter("autovacuum_count"),
                "last_analyze",
            ],
            user_table_rows,
        ),
    ):
        catalog.register_view(view)
