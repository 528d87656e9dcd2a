"""Database facade: the ``psql`` of pgsim.

Wires disk, buffer manager, WAL, catalog and executor together and
exposes ``execute(sql)``.  Creating a database also registers the
vector index access methods (PASE and pgvector) so the paper's
``CREATE INDEX ... USING ivfflat_fun`` statements work out of the box.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any

from repro.common.metrics_export import render_metrics
from repro.common.obs import WaitEventStats
from repro.pgsim.activity import SessionRegistry, install_activity_view
from repro.pgsim.ash import (
    ActiveSessionHistory,
    StatHistory,
    TimeSeriesSampler,
    install_timeseries_views,
)
from repro.pgsim.buffer import BufferManager
from repro.pgsim.catalog import Catalog
from repro.pgsim.constants import DEFAULT_BUFFER_POOL_PAGES, DEFAULT_PAGE_SIZE
from repro.pgsim.estimation import install_estimation_view, install_strategy_view
from repro.pgsim.executor import Executor
from repro.pgsim.faults import FaultInjector
from repro.pgsim.plan import QueryResult
from repro.pgsim.session import Session
from repro.pgsim.slowlog import SlowQueryLog, install_slowlog_view
from repro.pgsim.sql import parse_sql
from repro.pgsim.sql import ast
from repro.pgsim.stats import StatsCollector, install_stat_views
from repro.pgsim.storage import DiskManager, FileDisk, MemoryDisk
from repro.pgsim.wal import WriteAheadLog, next_xid_after, replay
from repro.pgsim.xact import TransactionManager


def _register_default_ams() -> None:
    """Import the vector AM packages so they self-register.

    Function-level imports break the package-initialization cycle
    (those packages import :mod:`repro.pgsim` themselves).
    """
    import repro.bridged  # noqa: F401  (registers bridged_* AMs)
    import repro.pase  # noqa: F401  (registers pase_* AMs)
    import repro.pgvector  # noqa: F401  (registers the pgvector AM)


class PgSimDatabase:
    """One pgsim database instance.

    Args:
        page_size: storage page size; the paper's Table IV runs the
            HNSW size experiment at both 8192 and 4096.
        buffer_pool_pages: buffer-manager capacity.
        data_dir: when given, pages persist in files under this
            directory; otherwise everything lives in memory (the
            "tmpfs" configuration the paper uses to exclude I/O).
        fault_injector: when given, all durability-relevant file I/O
            (WAL appends/fsyncs, page writes, the checkpoint's
            data-file fsyncs) flows through it — the
            hook the crash-recovery harness uses to simulate torn
            writes, failed fsyncs and crashes at write boundaries.
    """

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        buffer_pool_pages: int = DEFAULT_BUFFER_POOL_PAGES,
        data_dir: str | Path | None = None,
        disk: DiskManager | None = None,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        self._catalog_log: Path | None = None
        if disk is not None:
            self.disk = disk
        elif data_dir is not None:
            self.disk = FileDisk(data_dir, page_size=page_size, faults=fault_injector)
        else:
            self.disk = MemoryDisk(page_size=page_size)
        #: One wait-event accumulator shared by the WAL and buffer
        #: manager, so ``pg_stat_wait_events`` sees all blocked time.
        self.waits = WaitEventStats()
        if data_dir is not None:
            wal_path = Path(data_dir) / "wal.log"
            self.wal = WriteAheadLog(wal_path, faults=fault_injector, waits=self.waits)
            self._catalog_log = Path(data_dir) / "catalog.sql"
        else:
            self.wal = WriteAheadLog(faults=fault_injector, waits=self.waits)
        self.buffer = BufferManager(
            self.disk, capacity=buffer_pool_pages, wal=self.wal, waits=self.waits
        )
        self.catalog = Catalog()
        #: Statistics aggregation point; backs the pg_stat_* views and
        #: the per-statement QueryStats on every execute() result.
        self.stats = StatsCollector(self.buffer, self.wal, self.catalog, waits=self.waits)
        #: Transaction manager shared by the executor and all sessions.
        self.xact = TransactionManager()
        self.executor = Executor(
            self.catalog, self.buffer, self.wal, stats=self.stats, xact=self.xact
        )
        #: Backend registry behind ``pg_stat_activity``; sessions mint
        #: their backend ids here.
        self.activity = SessionRegistry()
        #: Bounded ring behind ``pg_slow_queries`` (statement logging
        #: and auto_explain captures land here).
        try:
            slowlog_capacity = int(self.catalog.get_setting("slow_query_log_size"))
        except Exception:
            slowlog_capacity = 256
        self.slowlog = SlowQueryLog(capacity=slowlog_capacity)
        self.executor.slowlog = self.slowlog
        #: Active Session History ring + stat-history ring, fed by the
        #: background sampler thread while ``ash_enable`` is on (the
        #: rings also accept manual ``sample_once()``/``tick()`` calls,
        #: which is what deterministic tests and the report CLI use).
        self.ash = ActiveSessionHistory(
            self.activity, ring_size=self._int_setting("ash_ring_size", 4096)
        )
        self.stat_history = StatHistory(
            self.catalog, ring_size=self._int_setting("stat_history_ring_size", 512)
        )
        self._sampler = TimeSeriesSampler(self.catalog, self.ash, self.stat_history)
        self.executor.settings_listener = self._on_setting_changed
        install_stat_views(self.catalog, self.stats, self.xact)
        install_activity_view(self.catalog, self.activity)
        install_slowlog_view(self.catalog, self.slowlog)
        install_timeseries_views(self.catalog, self.ash, self.stat_history)
        install_estimation_view(self.catalog, self.executor.estimation)
        install_strategy_view(self.catalog, self.executor.strategies)
        # ``SELECT pg_stat_reset()`` clears these surfaces along with
        # the core counter families.
        self.stats.register_resettable(self.slowlog)
        self.stats.register_resettable(self.activity)
        self.stats.register_resettable(self.ash)
        self.stats.register_resettable(self.stat_history)
        self.stats.register_resettable(self.executor.estimation)
        self.stats.register_resettable(self.executor.strategies)
        _register_default_ams()
        #: Serializes statement execution across sessions; contention
        #: is recorded under the ``SessionStatementLock`` wait event.
        self._statement_lock = threading.Lock()
        self._replaying_catalog = False
        if data_dir is not None:
            try:
                self._recover()
            except BaseException:
                self.close()
                raise
        #: Default session backing the facade's own ``execute()``.
        self._default_session = Session(self, name="default")

    # ------------------------------------------------------------------
    # SQL entry points
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> QueryResult:
        """Run one or more statements; returns the last result.

        Runs on the facade's built-in default session, so ``BEGIN`` /
        ``COMMIT`` / ``ROLLBACK`` work here too.  With the
        ``track_query_stats`` GUC on (the default), each result
        carries a :class:`~repro.pgsim.stats.QueryStats` in
        ``result.stats`` and the statement is recorded in
        ``pg_stat_statements`` under its normalized text.
        """
        return self._default_session.execute(sql)

    def execute_all(self, sql: str) -> list[QueryResult]:
        """Run statements and return every result."""
        return self._default_session.execute_all(sql)

    def session(self, name: str | None = None) -> Session:
        """Open a new client session (one per simulated client/thread).

        Sessions share this database's storage, catalog and transaction
        manager but hold their own transaction state, so concurrent
        sessions see each other only through committed snapshots.  Each
        session gets a unique monotonic backend id (its ``pid`` in
        ``pg_stat_activity``); the default name is derived from it, so
        two unnamed sessions never collide in the view.
        """
        return Session(self, name=name)

    def metrics_text(self) -> str:
        """Every counter and gauge view column as Prometheus text.

        Generated from the catalog's views (see
        :mod:`repro.common.metrics_export`); also served by the
        ``repro-bench metrics`` CLI subcommand.
        """
        return render_metrics(self.catalog)

    def _tracking_enabled(self) -> bool:
        try:
            return self.catalog.get_bool("track_query_stats")
        except Exception:
            return False

    def _int_setting(self, name: str, default: int) -> int:
        try:
            return int(self.catalog.get_setting(name))
        except Exception:
            return default

    def _on_setting_changed(self, name: str, value: Any) -> None:
        """React to SET: drive the ASH sampler and ring sizes live.

        Installed as the executor's ``settings_listener``, so ``SET
        ash_enable = on`` starts the background sampler thread without
        polling and ``off`` joins it; ring-size GUCs re-bound their
        rings in place (keeping the newest entries).
        """
        if name == "ash_enable":
            try:
                enable = self.catalog.get_bool("ash_enable")
            except Exception:
                enable = False
            if enable:
                self._sampler.start()
            else:
                self._sampler.stop()
        elif name == "ash_ring_size":
            self.ash.resize(self._int_setting("ash_ring_size", 4096))
        elif name == "stat_history_ring_size":
            self.stat_history.resize(self._int_setting("stat_history_ring_size", 512))

    def close(self) -> None:
        """Shut the database down: stop the sampler, release every file.

        Idempotent.  Stops the ASH sampler thread (if running), flushes
        + closes the slow-query JSONL sink so every record is durable on
        disk when the process moves on, and closes the relation and WAL
        handles.  It neither flushes the buffer pool nor checkpoints, and
        the held handles are unbuffered, so closing an instance that a
        crash abandoned leaves every data file as the crash left it.
        """
        self._sampler.stop()
        self.slowlog.close_sink()
        self.disk.close()
        self.wal.close()

    def __enter__(self) -> "PgSimDatabase":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _sync_slowlog_sink(self) -> None:
        """Point the slow-query log's file sink at the current GUC."""
        try:
            path = str(self.catalog.get_setting("slow_query_log_file"))
        except Exception:
            path = ""
        self.slowlog.configure_sink(path or None)

    def _autovacuum_enabled(self) -> bool:
        try:
            return self.catalog.get_bool("autovacuum")
        except Exception:
            return False

    def maybe_autovacuum(self) -> list[str]:
        """Run one autovacuum cycle now (manual trigger for harnesses).

        Applies the same dead-tuple thresholds the after-statement hook
        uses; returns the names of vacuumed tables.  Takes the
        statement lock so it never interleaves with a session.
        """
        with self._statement_lock:
            return self.executor.maybe_autovacuum()

    def query(self, sql: str) -> list[tuple[Any, ...]]:
        """Run a query and return its rows."""
        return self.execute(sql).rows

    def explain(self, sql: str) -> str:
        """EXPLAIN a query, returning the plan listing."""
        result = self.execute(f"EXPLAIN {sql.rstrip().rstrip(';')}")
        return "\n".join(row[0] for row in result.rows)

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Crash recovery for file-backed databases.

        1. Redo durable WAL records onto the page files, then purge
           tuples of transactions without a durable commit record
           (see :func:`repro.pgsim.wal.replay`).
        2. Advance the xid allocator past every recovered xid, so new
           transactions never alias recovered tuples.
        3. Replay the DDL log (catalog.sql) to rebuild the catalog;
           CREATE TABLE re-attaches to the recovered heap pages and
           CREATE INDEX rebuilds the index from them.
        """
        replay(self.wal, self.disk)
        self.xact.advance_to(next_xid_after(self.wal))
        assert self._catalog_log is not None
        if not self._catalog_log.exists():
            return
        ddl = self._catalog_log.read_text()
        if not ddl.strip():
            return
        self._replaying_catalog = True
        try:
            for stmt in parse_sql(ddl):
                self.executor.execute_statement(stmt)
        finally:
            self._replaying_catalog = False

    def _log_ddl(self, stmt) -> None:
        """Append catalog-shaping statements to the DDL log."""
        if self._catalog_log is None or self._replaying_catalog:
            return
        sql = _ddl_to_sql(stmt)
        if sql is None:
            return
        with self._catalog_log.open("a") as f:
            f.write(sql + ";\n")

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Flush dirty pages, sync them, mark the WAL, truncate the log.

        Protocol (order matters):

        1. flush the WAL — pages may only be written once the records
           that produced them are durable (WAL-before-data);
        2. write back every dirty buffer page;
        3. fsync every relation written since the last checkpoint
           (:meth:`~repro.pgsim.storage.DiskManager.sync`), so the log
           up to here is no longer needed for redo.  If an fsync fails,
           the database panics as on a failed WAL fsync: no checkpoint
           record, no truncation, and every further write is refused
           until the database is reopened and recovered;
        4. append + flush a checkpoint record carrying the xid
           allocator position and the open and rolled-back transaction
           lists (their flushed-but-truncated changes must still be
           rolled back by recovery);
        5. truncate the log before the checkpoint record, bounding
           both the in-memory record list and the on-disk file.

        Takes the statement lock so a checkpoint never interleaves
        with a concurrent session's statement.  Returns the checkpoint
        record's LSN.
        """
        with self._statement_lock:
            self.wal.flush()
            self.buffer.flush_all()
            try:
                self.disk.sync()
            except Exception:
                self.wal.panic()
                raise
            lsn = self.wal.log_checkpoint(
                next_xid=self.xact.next_xid,
                in_progress=self.xact.in_progress_xids(),
                aborted=self.xact.aborted_xids(),
            )
            self.wal.truncate_before(lsn)
            return lsn

    @property
    def buffer_stats(self):
        """Buffer-manager hit/miss statistics."""
        return self.buffer.stats

    def settings(self) -> dict[str, Any]:
        """Copy of the current GUC settings."""
        return dict(self.catalog.settings)


def _ddl_to_sql(stmt) -> str | None:
    """Canonical SQL for catalog-shaping statements (the DDL log)."""
    if isinstance(stmt, ast.CreateTable):
        cols = ", ".join(f"{c.name} {c.type_name}" for c in stmt.columns)
        return f"CREATE TABLE IF NOT EXISTS {stmt.name} ({cols})"
    if isinstance(stmt, ast.DropTable):
        return f"DROP TABLE IF EXISTS {stmt.name}"
    if isinstance(stmt, ast.CreateIndex):
        sql = f"CREATE INDEX {stmt.name} ON {stmt.table} USING {stmt.am} ({stmt.column})"
        if stmt.options:
            parts = []
            for key, value in stmt.options:
                if isinstance(value, bool):
                    rendered = "true" if value else "false"
                elif isinstance(value, (int, float)):
                    rendered = repr(value)
                else:
                    rendered = "'" + str(value).replace("'", "''") + "'"
                parts.append(f"{key} = {rendered}")
            sql += " WITH (" + ", ".join(parts) + ")"
        return sql
    if isinstance(stmt, ast.DropIndex):
        return f"DROP INDEX IF EXISTS {stmt.name}"
    if isinstance(stmt, ast.Analyze):
        # Statistics are a catalog mutation: replaying ANALYZE after
        # WAL redo recomputes them over the recovered heap, so planner
        # stats (and the pg_stats views) survive checkpoint + crash.
        return f"ANALYZE {stmt.table}" if stmt.table else "ANALYZE"
    return None
