"""Statement execution: transaction lifecycle, dispatch, DML and SELECT.

Every statement enters through :meth:`Executor.execute_statement`, runs
inside a transaction and is dispatched on its type.  INSERT / UPDATE /
DELETE and SELECT live here; a SELECT is planned
(:func:`~repro.pgsim.planner.plan_select`) and its plan handed, in one
call, to the operator set in :mod:`repro.pgsim.operators` — there is one
execution path, and ``enable_batch_exec`` only changes the interface the
plan's leaves use.  Utility statements are in :mod:`repro.pgsim.utility`
and EXPLAIN in :mod:`repro.pgsim.explain`.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.common.profiling import AUTO_CAPTURE_MAX_SPANS, NULL_PROFILER, SEC_EXECUTOR
from repro.pgsim import explain, utility
from repro.pgsim import expr as E
from repro.pgsim import plan as P
from repro.pgsim.buffer import BufferManager
from repro.pgsim.catalog import Catalog, CatalogError, TableInfo
from repro.pgsim.estimation import EstimationStats, StrategyStats, node_strategy, record_plan
from repro.pgsim.heapam import TID
from repro.pgsim.operators import PlanRun
from repro.pgsim.plan import ExecutionError
from repro.pgsim.planner import plan_select
from repro.pgsim.probes import sampled
from repro.pgsim.sql import ast
from repro.pgsim.stats import StatsCollector
from repro.pgsim.tuple_format import Column, TypeOid
from repro.pgsim.wal import WalPanicError, WriteAheadLog
from repro.pgsim.xact import Snapshot, Transaction, TransactionManager


class Executor:
    """Statement dispatcher bound to one database instance.

    Every statement runs inside a transaction.  Callers without an
    explicit one (autocommit) get a per-statement transaction wrapped
    around the dispatch: begin, execute under a fresh snapshot, commit
    (or abort on any error).  Sessions running ``BEGIN`` blocks pass
    their open :class:`~repro.pgsim.xact.Transaction` in, and commit or
    roll back via :meth:`commit_transaction` / :meth:`abort_transaction`
    when the user says so.
    """

    def __init__(
        self,
        catalog: Catalog,
        buffer: BufferManager,
        wal: WriteAheadLog,
        stats: StatsCollector | None = None,
        xact: TransactionManager | None = None,
    ) -> None:
        self.catalog = catalog
        self.buffer = buffer
        self.wal = wal
        #: Statistics aggregation point (see :mod:`repro.pgsim.stats`).
        #: Always present so heap tables can share its counters; the
        #: database facade passes its own instance.
        self.stats = stats if stats is not None else StatsCollector(buffer, wal, catalog)
        #: Transaction manager (xid allocation, clog, snapshots); the
        #: database facade shares one instance with its sessions.
        self.xact = xact if xact is not None else TransactionManager()
        #: Transaction/snapshot of the statement currently dispatching.
        #: Instance state is safe here: the database's statement lock
        #: serializes execution, and nested dispatch (EXPLAIN ANALYZE
        #: on DML) must see the same transaction anyway.
        self._txn: Transaction | None = None
        self._snapshot: Snapshot | None = None
        #: Profiler installed on index AMs before build (set by
        #: harnesses that need construction-time breakdowns).
        self.am_profiler = None
        #: Profiler the executor itself reports into during an
        #: ``EXPLAIN (ANALYZE, TRACE)`` run: heap fetches on the index
        #: scan paths file under "Tuple Access".  NULL_PROFILER (and a
        #: cheap ``.enabled`` guard) outside trace runs.
        self.trace_profiler = NULL_PROFILER
        #: Span-recording profiler of the most recent
        #: EXPLAIN (ANALYZE, TRACE) run.
        self.last_trace = None
        #: Slow-query ring (installed by the database facade); None in
        #: bare-executor unit tests, which disables auto_explain and
        #: autovacuum logging without further checks.
        self.slowlog = None
        #: auto_explain capture of the most recent SELECT: the session
        #: layer pops it via :meth:`take_plan_capture` after the
        #: statement finishes.  ``{"plan": str, "rc": dict,
        #: "elapsed_ms": float}`` when the last SELECT crossed
        #: ``auto_explain_log_min_duration``, else None.
        self.last_plan_capture = None
        #: Estimate-vs-actual accumulator (pg_stat_estimation_errors).
        #: Fed by EXPLAIN ANALYZE / auto_explain runs and by ordinary
        #: SELECTs sampled via ``estimation_probe_rate``.
        self.estimation = EstimationStats()
        #: Per-strategy filtered-search accounting
        #: (pg_stat_filtered_search): chosen counts, over-fetch
        #: fallbacks, estimated vs. measured selectivity.
        self.strategies = StrategyStats()
        #: Normalized text of the statement currently dispatching, set
        #: by the session layer; keys the estimation entries.
        self.current_query: str | None = None
        #: Callback ``(name, value)`` invoked after a SET applies; the
        #: database facade uses it to start/stop the ASH sampler and
        #: resize the time-series rings without polling.
        self.settings_listener = None

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def commit_transaction(self, txn: Transaction) -> None:
        """Make ``txn`` durable and mark it committed.

        Read-only transactions never touched the WAL and commit
        without a record.  A WAL failure at the commit flush aborts
        the transaction instead — its data records may be durable, but
        without the commit record recovery rolls it back, so the
        in-memory state must agree.
        """
        if txn.wrote_wal:
            try:
                self.wal.log_commit(txn.xid)
            except BaseException:
                self.abort_transaction(txn)
                raise
        self.xact.commit(txn)

    def abort_transaction(self, txn: Transaction) -> None:
        """Roll ``txn`` back: advisory WAL record + clog abort."""
        if txn.wrote_wal:
            try:
                self.wal.log_abort(txn.xid)
            except WalPanicError:
                pass  # a panicked log recovers to the same rollback
        self.xact.abort(txn)

    def _ensure_wal_begin(self, txn: Transaction) -> None:
        """Log the BEGIN record before the transaction's first write."""
        if not txn.wrote_wal:
            self.wal.log_begin(txn.xid)
            txn.wrote_wal = True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def execute_statement(
        self, stmt: ast.Statement, txn: Transaction | None = None
    ) -> P.QueryResult:
        if isinstance(stmt, (ast.Begin, ast.Commit, ast.Rollback)):
            raise ExecutionError(
                "transaction control statements require a session "
                "(use Database.execute or Database.session())"
            )
        if txn is not None:
            return self._with_transaction(stmt, txn)
        txn = self.xact.begin()
        try:
            result = self._with_transaction(stmt, txn)
        except BaseException:
            self.abort_transaction(txn)
            raise
        self.commit_transaction(txn)
        return result

    def _with_transaction(self, stmt: ast.Statement, txn: Transaction) -> P.QueryResult:
        prev_txn, prev_snapshot = self._txn, self._snapshot
        self._txn = txn
        # Explicit transactions pin their snapshot at BEGIN (repeatable
        # read); autocommit statements see the latest commits.
        if txn.snapshot is not None:
            self._snapshot = txn.snapshot
        else:
            self._snapshot = self.xact.snapshot(txn.xid)
        try:
            return self.dispatch(stmt)
        finally:
            self._txn, self._snapshot = prev_txn, prev_snapshot

    def dispatch(self, stmt: ast.Statement) -> P.QueryResult:
        """Run one statement under the current transaction and snapshot."""
        if isinstance(stmt, ast.Insert):
            return self._insert(stmt)
        if isinstance(stmt, ast.Delete):
            return self._delete(stmt)
        if isinstance(stmt, ast.Update):
            return self._update(stmt)
        if isinstance(stmt, ast.Select):
            return self._select(stmt)
        if isinstance(stmt, ast.SetStatement):
            self.catalog.set_setting(stmt.name, stmt.value)
            if self.settings_listener is not None:
                self.settings_listener(stmt.name.lower(), stmt.value)
            return P.QueryResult(command="SET")
        if isinstance(stmt, ast.ShowStatement):
            if stmt.name == "all":
                rows = sorted(self.catalog.settings.items())
                return P.QueryResult(command="SHOW", columns=["name", "setting"], rows=rows)
            value = self.catalog.get_setting(stmt.name)
            return P.QueryResult(command="SHOW", columns=[stmt.name], rows=[(value,)])
        if isinstance(stmt, ast.Explain):
            return explain.explain(self, stmt)
        handler = utility.UTILITY.get(type(stmt))
        if handler is not None:
            return handler(self, stmt)
        raise ExecutionError(f"unsupported statement: {type(stmt).__name__}")

    def maybe_autovacuum(self) -> list[str]:
        """Autovacuum hook, called by the session layer after each
        statement (see :func:`repro.pgsim.utility.maybe_autovacuum`)."""
        return utility.maybe_autovacuum(self)

    def _duration_setting_ms(self, name: str) -> float | None:
        """Read a ``log_min_duration``-style GUC: -1 (or garbage)
        disables, 0 logs everything, N logs statements >= N ms."""
        try:
            value = float(self.catalog.get_setting(name))
        except (CatalogError, TypeError, ValueError):
            return None
        return value if value >= 0 else None

    # ------------------------------------------------------------------
    # DML
    # ------------------------------------------------------------------
    def _insert(self, stmt: ast.Insert) -> P.QueryResult:
        table = self.catalog.table(stmt.table)
        schema = table.columns
        names = table.column_names()
        if stmt.columns is not None:
            unknown = set(stmt.columns) - set(names)
            if unknown:
                raise ExecutionError(f"unknown columns in INSERT: {sorted(unknown)}")
        txn = self._txn
        assert txn is not None
        inserted = 0
        indexes = list(table.indexes.values())
        if stmt.rows:
            self._ensure_wal_begin(txn)
        for row_exprs in stmt.rows:
            values = self._row_values(schema, names, stmt.columns, row_exprs)
            tid = table.heap.insert(values, xid=txn.xid)
            for index in indexes:
                index.am.insert(tid, values[table.heap.column_index(index.column_name)])
            inserted += 1
        return P.QueryResult(command=f"INSERT 0 {inserted}")

    def _row_values(
        self,
        schema: list[Column],
        names: list[str],
        target_columns: tuple[str, ...] | None,
        row_exprs: tuple[ast.Expr, ...],
    ) -> list[Any]:
        provided = list(target_columns) if target_columns is not None else names
        if len(row_exprs) != len(provided):
            raise ExecutionError(
                f"INSERT has {len(row_exprs)} values for {len(provided)} columns"
            )
        by_name = {name: E.evaluate(e, row=None) for name, e in zip(provided, row_exprs)}
        values: list[Any] = []
        for col in schema:
            if col.name not in by_name:
                values.append(None)
                continue
            values.append(_coerce_for_column(col, by_name[col.name]))
        return values

    def _targets(self, table: TableInfo, where: ast.Expr | None) -> list[TID]:
        """TIDs of the rows an UPDATE / DELETE ``WHERE`` selects.

        One column-wise sequential scan under the statement snapshot
        that decodes only the columns ``where`` references (a projected
        :meth:`~repro.pgsim.heapam.HeapTable.scan_batches`), then one
        column-wise evaluation of ``where`` per chunk of pages
        (:func:`~repro.pgsim.expr.evaluate_batch`); TIDs are built for
        the targets only.  Target selection is not part of the RC#3
        toggle, so both values of ``enable_batch_exec`` run it.
        """
        names, positions = table.projection(E.column_refs(where))
        targets: list[TID] = []
        for chunk in table.heap.scan_batches(self._snapshot, columns=positions):
            if where is None:
                targets += chunk.tids()
                continue
            columns = {name: chunk.columns[i] for name, i in zip(names, positions)}
            targets += chunk.tids(np.flatnonzero(E.evaluate_batch(where, columns, len(chunk))))
        return targets

    def _delete(self, stmt: ast.Delete) -> P.QueryResult:
        """DELETE marks heap tuples dead; index entries remain until
        vacuum, and index scans skip them (PostgreSQL's model)."""
        table = self.catalog.table(stmt.table)
        txn = self._txn
        assert txn is not None
        victims = self._targets(table, stmt.where)
        if victims:
            self._ensure_wal_begin(txn)
        for tid in victims:
            table.heap.delete(tid, xid=txn.xid)
        return P.QueryResult(command=f"DELETE {len(victims)}")

    def _update(self, stmt: ast.Update) -> P.QueryResult:
        """UPDATE = MVCC delete + re-insert (new TID), like PostgreSQL.

        The old version keeps its index entries (searches skip it via
        the snapshot until VACUUM reclaims them); the new version is
        indexed in every AM on the table.
        """
        table = self.catalog.table(stmt.table)
        names = table.column_names()
        unknown = {col for col, __ in stmt.assignments} - set(names)
        if unknown:
            raise ExecutionError(f"unknown columns in UPDATE: {sorted(unknown)}")
        txn = self._txn
        assert txn is not None
        targets = self._targets(table, stmt.where)
        fetched = table.heap.fetch_many(targets, snapshot=self._snapshot)
        indexes = list(table.indexes.values())
        if targets:
            self._ensure_wal_begin(txn)
        for tid, values in zip(targets, fetched):
            row = dict(zip(names, values))
            new_values = list(values)
            for col, expr in stmt.assignments:
                idx = table.heap.column_index(col)
                new_values[idx] = _coerce_for_column(table.columns[idx], E.evaluate(expr, row))
            new_tid = table.heap.update(tid, new_values, xid=txn.xid)
            for index in indexes:
                index.am.insert(
                    new_tid, new_values[table.heap.column_index(index.column_name)]
                )
        return P.QueryResult(command=f"UPDATE {len(targets)}")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def plan_select(self, stmt: ast.Select) -> P.Project:
        # The module-level name is looked up on every call: the repo
        # benchmark's tracer times planning by replacing it.
        plan = plan_select(stmt, self.catalog)
        assert isinstance(plan, P.Project)
        return plan

    def run_plan(
        self, plan: P.Project, instrument: dict[int, list] | None = None
    ) -> list[tuple[Any, ...]]:
        """Execute a SELECT plan under the statement's snapshot.

        While a trace is armed the "Executor" root span covers the whole
        execution window, so the RC buckets (which partition recorded
        span time) reconcile against the query's elapsed time.
        """
        profiler = self.trace_profiler
        run = PlanRun(self, self._snapshot, profiler, instrument)
        with profiler.section(SEC_EXECUTOR):
            return run.execute(plan)

    def record_run(self, plan: P.Project, instrument: dict[int, list] | None) -> str | None:
        """Fold one executed SELECT into the planner-feedback views.

        An instrumented run feeds pg_stat_estimation_errors.  Every run
        feeds pg_stat_filtered_search: the plan is walked for the
        strategy-bearing scan (PreFilterScan, or an IndexScan with a
        pushed-down filter), recording which strategy ran, the planner's
        estimated selectivity, the measured one (from the
        ``actual_matched``/``actual_examined`` stashes the scan leaves
        behind on every execution, instrumented or not) and whether the
        over-fetch cap forced a brute-force fallback.  Returns the
        strategy name, None for non-hybrid plans.
        """
        if instrument is not None:
            record_plan(self.estimation, self._estimation_query_key(), plan, instrument)
        node: P.PlanNode | None = plan
        while node is not None:
            strategy = node_strategy(node)
            if strategy is not None:
                self.strategies.record(
                    strategy,
                    est_selectivity=node.est_selectivity,
                    actual_matched=getattr(node, "actual_matched", None),
                    actual_examined=getattr(node, "actual_examined", None),
                    fell_back=bool(getattr(node, "overfetch_fell_back", False)),
                )
                return strategy
            node = getattr(node, "child", None)
        return None

    def _select(self, stmt: ast.Select) -> P.QueryResult:
        if self._is_stat_reset_call(stmt):
            self.stats.reset()
            return P.QueryResult(
                command="SELECT 1", columns=["pg_stat_reset"], rows=[(None,)]
            )
        plan = self.plan_select(stmt)
        auto_ms = None
        if self.slowlog is not None:
            auto_ms = self._duration_setting_ms("auto_explain_log_min_duration")
        if auto_ms is not None:
            rows = self._run_captured(plan, auto_ms)
        else:
            # Ordinary SELECTs run instrumented when sampled by
            # ``estimation_probe_rate`` (its own ticket stream).
            chosen = sampled(
                self.catalog.settings, "estimation_probe", self.stats.next_estimation_ticket
            )
            instrument: dict[int, list] | None = {} if chosen else None
            rows = self.run_plan(plan, instrument)
            self.record_run(plan, instrument)
        return P.QueryResult(command=f"SELECT {len(rows)}", columns=plan.columns, rows=rows)

    def _run_captured(self, plan: P.Project, auto_ms: float) -> list[tuple[Any, ...]]:
        """auto_explain path: run the SELECT instrumented and traced.

        The plan executes exactly as the plain path would (same rows,
        same order) but with per-node instrumentation and a
        span-recording profiler armed, so a statement that crosses
        ``auto_explain_log_min_duration`` leaves behind its
        EXPLAIN (ANALYZE, BUFFERS) plan text plus the RC#1–RC#7
        attribution — reconstructed after the fact, like PostgreSQL's
        auto_explain logging the plan it already ran.  Under-threshold
        statements discard the capture.  The profiler keeps at most
        :data:`~repro.common.profiling.AUTO_CAPTURE_MAX_SPANS` spans so
        an always-on setting cannot grow memory without limit.
        """
        # Function-level import: repro.core imports pgsim packages.
        from repro.core.rc_attribution import attribute_profile

        self.last_plan_capture = None
        instrument: dict[int, list] = {}
        profiler, restore = explain.begin_trace(self, plan, max_spans=AUTO_CAPTURE_MAX_SPANS)
        waits_before = self.stats.waits.snapshot()
        start = time.perf_counter()
        try:
            rows = self.run_plan(plan, instrument)
        finally:
            restore()
        total = time.perf_counter() - start
        strategy = self.record_run(plan, instrument)
        if total * 1e3 >= auto_ms:
            waits_delta = self.stats.waits.delta(waits_before)
            attribution = attribute_profile(profiler, wait_events=waits_delta)
            self.last_plan_capture = {
                "plan": "\n".join(
                    explain.annotated_lines(plan, 0, instrument, buffers=True, timing=True)
                ),
                "rc": attribution.as_dict(),
                "elapsed_ms": total * 1e3,
                "strategy": strategy,
            }
        return rows

    def take_plan_capture(self) -> dict | None:
        """Pop the last auto_explain capture (one-shot, per statement)."""
        capture, self.last_plan_capture = self.last_plan_capture, None
        return capture

    def try_execute_virtual(self, stmt: ast.Statement) -> P.QueryResult | None:
        """Lock-free monitoring path: run a virtual-view SELECT without
        the statement lock and outside any transaction.

        Plans over virtual views bottom out in
        :class:`~repro.pgsim.plan.VirtualScan` leaves that read
        point-in-time snapshots of the stats surfaces — no heap, no
        MVCC snapshot, no executor transaction state.  That makes them
        safe to run concurrently with a statement holding the lock,
        which is the whole point: ``pg_stat_activity`` must answer
        while another session is stuck waiting.  Returns None for
        anything that is not a pure view SELECT, sending the statement
        down the ordinary locked path.
        """
        if not isinstance(stmt, ast.Select):
            return None
        if stmt.table is None or self.catalog.has_table(stmt.table):
            return None
        if not self.catalog.has_view(stmt.table):
            return None
        plan = self.plan_select(stmt)
        # Defensive: every leaf must be a VirtualScan.  Anything that
        # could touch heap or transaction state needs the lock.
        node: P.PlanNode | None = plan.child
        while node is not None:
            if isinstance(node, (P.SeqScan, P.IndexScan, P.PreFilterScan)):
                return None
            node = getattr(node, "child", None)
        # No snapshot and no trace profiler: neither belongs to this
        # thread while another statement holds the lock.
        rows = PlanRun(self).execute(plan)
        return P.QueryResult(command=f"SELECT {len(rows)}", columns=plan.columns, rows=rows)

    @staticmethod
    def _is_stat_reset_call(stmt: ast.Select) -> bool:
        """``SELECT pg_stat_reset()`` — statistics reset, like PostgreSQL's."""
        if stmt.table is not None or stmt.where is not None or len(stmt.targets) != 1:
            return False
        expr = stmt.targets[0].expr
        return (
            isinstance(expr, ast.FuncCall)
            and expr.name.lower() == "pg_stat_reset"
            and not expr.args
        )

    def _estimation_query_key(self) -> str:
        """Estimation-entry key: the normalized statement text.

        An ``EXPLAIN ANALYZE inner`` run is keyed under *inner*'s
        normalized text (the leading ``explain``/option tokens are
        stripped), so explained and sampled executions of the same
        statement accumulate into one entry.
        """
        text = self.current_query
        if not text:
            return "<unknown>"
        tokens = text.split()
        if tokens and tokens[0].lower() == "explain":
            i = 1
            if i < len(tokens) and tokens[i] == "(":
                while i < len(tokens) and tokens[i] != ")":
                    i += 1
                i += 1
            else:
                while i < len(tokens) and tokens[i].lower() in ("analyze", "verbose"):
                    i += 1
            stripped = " ".join(tokens[i:])
            if stripped:
                return stripped
        return text


def _coerce_for_column(col: Column, value: Any) -> Any:
    """Coerce an evaluated INSERT value to the column's storage type."""
    if value is None:
        return None
    oid = col.type_oid
    if oid in (TypeOid.INT4, TypeOid.INT8):
        return int(value)
    if oid in (TypeOid.FLOAT4, TypeOid.FLOAT8):
        return float(value)
    if oid == TypeOid.TEXT:
        return str(value)
    if oid == TypeOid.FLOAT4_ARRAY:
        return E.coerce_vector(value)
    raise ExecutionError(f"unsupported column type {oid!r}")
