"""Utility statements: DDL, VACUUM / autovacuum, ANALYZE, REINDEX.

None of these has a plan tree.  Each handler takes the
:class:`~repro.pgsim.executor.Executor` it runs under (for the catalog,
buffer manager, WAL, statistics and transaction manager) and the parsed
statement; the executor's dispatch looks the statement type up in
:data:`UTILITY`.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro.pgsim import plan as P
from repro.pgsim.am import lookup_am
from repro.pgsim.analyze import analyze_table
from repro.pgsim.catalog import CatalogError, IndexInfo, TableInfo
from repro.pgsim.heapam import TID, HeapTable
from repro.pgsim.slowlog import SlowQueryRecord
from repro.pgsim.sql import ast
from repro.pgsim.tuple_format import Column, TypeOid

if TYPE_CHECKING:
    from repro.pgsim.executor import Executor


# ----------------------------------------------------------------------
# DDL
# ----------------------------------------------------------------------
def _create_table(ex: Executor, stmt: ast.CreateTable) -> P.QueryResult:
    if ex.catalog.has_table(stmt.name):
        if stmt.if_not_exists:
            return P.QueryResult(command="CREATE TABLE (exists)")
        raise CatalogError(f"table {stmt.name!r} already exists")
    columns = [Column.from_sql(c.name, c.type_name) for c in stmt.columns]
    if len({c.name for c in columns}) != len(columns):
        raise CatalogError("duplicate column names")
    heap = HeapTable(stmt.name, columns, ex.buffer, ex.wal, stats=ex.stats.heap, xact=ex.xact)
    ex.catalog.add_table(TableInfo(name=stmt.name, columns=columns, heap=heap))
    return P.QueryResult(command="CREATE TABLE")


def _drop_table(ex: Executor, stmt: ast.DropTable) -> P.QueryResult:
    if not ex.catalog.has_table(stmt.name):
        if stmt.if_exists:
            return P.QueryResult(command="DROP TABLE (skipped)")
        raise CatalogError(f"no such table: {stmt.name!r}")
    info = ex.catalog.drop_table(stmt.name)
    for index in list(info.indexes.values()):
        _release_index_storage(ex, index)
    ex.buffer.drop_relation(info.heap.relation)
    ex.buffer.disk.drop_relation(info.heap.relation)
    return P.QueryResult(command="DROP TABLE")


def _create_index(ex: Executor, stmt: ast.CreateIndex) -> P.QueryResult:
    table = ex.catalog.table(stmt.table)
    if ex.catalog.find_index(stmt.name) is not None:
        raise CatalogError(f"index {stmt.name!r} already exists")
    am_cls = lookup_am(stmt.am)
    column_index = table.heap.column_index(stmt.column)
    if table.columns[column_index].type_oid != TypeOid.FLOAT4_ARRAY:
        raise P.ExecutionError(
            f"access method {stmt.am!r} requires a float[] column, "
            f"got {table.columns[column_index].type_oid.name}"
        )
    options = dict(stmt.options)
    # Clear stale page files from a previous incarnation of this
    # index (crash recovery re-runs CREATE INDEX over old forks).
    _drop_relations_with_prefix(ex, f"{stmt.name}.")
    am = am_cls(
        index_name=stmt.name,
        table=table.heap,
        column_index=column_index,
        buffer=ex.buffer,
        catalog=ex.catalog,
        options=options,
    )
    if ex.am_profiler is not None:
        am.profiler = ex.am_profiler
    # Build-progress reporting (pg_stat_progress_create_index):
    # the AM flips phases and ticks tuple counters as it goes.
    am.progress = ex.stats.start_build(stmt.name, stmt.am)
    try:
        am.build()
    finally:
        ex.stats.finish_build()
    ex.catalog.add_index(
        IndexInfo(
            name=stmt.name,
            table_name=stmt.table,
            column_name=stmt.column,
            am_name=stmt.am,
            options=options,
            am=am,
        )
    )
    return P.QueryResult(command="CREATE INDEX")


def _drop_index(ex: Executor, stmt: ast.DropIndex) -> P.QueryResult:
    if ex.catalog.find_index(stmt.name) is None:
        if stmt.if_exists:
            return P.QueryResult(command="DROP INDEX (skipped)")
        raise CatalogError(f"no such index: {stmt.name!r}")
    _release_index_storage(ex, ex.catalog.drop_index(stmt.name))
    return P.QueryResult(command="DROP INDEX")


def _reindex(ex: Executor, stmt: ast.Reindex) -> P.QueryResult:
    """Rebuild an index in place, dropping dead index entries."""
    info = ex.catalog.find_index(stmt.index)
    if info is None:
        raise CatalogError(f"no such index: {stmt.index!r}")
    ex.catalog.drop_index(stmt.index)
    _release_index_storage(ex, info)
    create = ast.CreateIndex(
        name=info.name,
        table=info.table_name,
        am=info.am_name,
        column=info.column_name,
        options=tuple(info.options.items()),
    )
    _create_index(ex, create)
    return P.QueryResult(command="REINDEX")


def _release_index_storage(ex: Executor, info: IndexInfo) -> None:
    for rel in getattr(info.am, "relations", lambda: [])():
        if ex.buffer.disk.relation_exists(rel):
            ex.buffer.drop_relation(rel)
            ex.buffer.disk.drop_relation(rel)


def _drop_relations_with_prefix(ex: Executor, prefix: str) -> None:
    lister = getattr(ex.buffer.disk, "list_relations", None)
    if lister is None:
        return
    for rel in lister():
        if rel.startswith(prefix):
            ex.buffer.drop_relation(rel)
            ex.buffer.disk.drop_relation(rel)


# ----------------------------------------------------------------------
# maintenance
# ----------------------------------------------------------------------
def _analyze(ex: Executor, stmt: ast.Analyze) -> P.QueryResult:
    """ANALYZE [table]: collect planner statistics into the catalog."""
    names = [stmt.table] if stmt.table is not None else ex.catalog.table_names()
    for name in names:
        analyze_table(ex.catalog.table(name), ex.catalog)
    return P.QueryResult(command="ANALYZE")


def _vacuum(ex: Executor, stmt: ast.Vacuum) -> P.QueryResult:
    return vacuum_table(ex, stmt.table)


def vacuum_table(ex: Executor, table_name: str, autovacuum: bool = False) -> P.QueryResult:
    """VACUUM: reclaim dead heap tuples, then each index's entries.

    The heap pass collects the reclaimed TIDs and forwards them to
    every index AM's ``ambulkdelete`` so IVF lists compact and HNSW
    neighbor lists repair in the same pass.  Afterwards the
    planner's physical-shape stats rebase to the post-vacuum state.
    """
    table = ex.catalog.table(table_name)
    # Progress reporting (pg_stat_progress_vacuum): phase names
    # follow PostgreSQL's — "scanning heap", "vacuuming indexes",
    # "performing final cleanup".
    progress = ex.stats.start_vacuum(table_name)
    try:
        progress.set_phase("scanning heap")
        progress.heap_blks_total = table.heap.n_blocks()
        dead_tids: list[TID] = []
        reclaimed = table.heap.vacuum(horizon=ex.xact.safe_horizon(), dead_tids=dead_tids)
        progress.heap_blks_scanned = progress.heap_blks_total
        progress.tuples_removed = reclaimed
        if autovacuum:
            table.heap.autovacuum_count += 1
        index_entries = 0
        if dead_tids:
            dead = set(dead_tids)
            progress.set_phase("vacuuming indexes")
            for index in table.indexes.values():
                progress.index_name = index.name
                saved = index.am.vacuum_progress
                index.am.vacuum_progress = progress
                try:
                    index_entries += index.am.ambulkdelete(dead)
                finally:
                    index.am.vacuum_progress = saved
                progress.index_vacuum_count += 1
        progress.set_phase("performing final cleanup")
    finally:
        ex.stats.finish_vacuum()
    if table.stats is not None:
        # Like PostgreSQL's VACUUM updating pg_class: refresh
        # the physical shape so the planner's table_shape()
        # discount restarts from the post-vacuum baseline.
        table.stats.reltuples = float(table.heap.tuple_count)
        table.stats.relpages = max(table.heap.n_blocks(), 1)
        table.stats.dead_at_analyze = float(table.heap.n_dead_tup)
    return P.QueryResult(command=f"VACUUM {reclaimed}")


def maybe_autovacuum(ex: Executor) -> list[str]:
    """Autovacuum hook: vacuum tables past their dead-tuple threshold.

    Mirrors PostgreSQL's launcher decision rule — a table qualifies
    when ``n_dead_tup > autovacuum_vacuum_threshold +
    autovacuum_vacuum_scale_factor * n_live_tup`` — but runs
    synchronously when invoked (the session layer calls this after
    each statement while the ``autovacuum`` GUC is on; harnesses
    may call it directly).  Returns the names of vacuumed tables.
    """
    try:
        threshold = float(ex.catalog.get_setting("autovacuum_vacuum_threshold"))
        scale = float(ex.catalog.get_setting("autovacuum_vacuum_scale_factor"))
    except CatalogError:
        return []
    log_ms = ex._duration_setting_ms("log_autovacuum_min_duration")
    vacuumed: list[str] = []
    for name in ex.catalog.table_names():
        heap = ex.catalog.table(name).heap
        if heap.n_dead_tup > threshold + scale * heap.tuple_count:
            start = time.perf_counter()
            result = vacuum_table(ex, name, autovacuum=True)
            elapsed_ms = (time.perf_counter() - start) * 1e3
            vacuumed.append(name)
            if log_ms is not None and elapsed_ms >= log_ms and ex.slowlog is not None:
                ex.slowlog.record(
                    SlowQueryRecord(
                        logged_at=time.time(),
                        backend_id=0,
                        session="autovacuum",
                        kind="autovacuum",
                        query=f"VACUUM {name}",
                        elapsed_ms=elapsed_ms,
                        rows=int(result.command.split()[-1]),
                    )
                )
    return vacuumed


#: Statement type -> handler ``(executor, stmt) -> QueryResult``.
UTILITY: dict[type[ast.Statement], Callable[..., P.QueryResult]] = {
    ast.CreateTable: _create_table,
    ast.DropTable: _drop_table,
    ast.CreateIndex: _create_index,
    ast.DropIndex: _drop_index,
    ast.Reindex: _reindex,
    ast.Vacuum: _vacuum,
    ast.Analyze: _analyze,
}
