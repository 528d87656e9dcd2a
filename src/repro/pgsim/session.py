"""Client sessions: per-connection transaction state over one database.

A :class:`Session` is pgsim's connection object — what a backend
process is to PostgreSQL.  N sessions (typically one per client
thread) share one :class:`~repro.pgsim.database.PgSimDatabase`; each
holds its own open transaction and snapshot, so concurrent clients get
snapshot isolation: readers never block writers across statements, a
rolled-back transaction leaves no trace visible to anyone else, and
write-write conflicts surface as
:class:`~repro.pgsim.xact.SerializationError` (retry, like SQLSTATE
40001).

Statement *execution* is serialized by the database's statement lock
(pgsim is pure Python, so the GIL would serialize the CPU work
anyway); time spent waiting for it is recorded under the
``SessionStatementLock`` wait event, which is exactly the contention
figure the concurrent-mixed benchmark reports.

Transaction-control semantics follow PostgreSQL:

- ``BEGIN`` pins the snapshot for the whole block (repeatable read);
  a nested ``BEGIN`` is a warning, not an error.
- A failed statement poisons the block: further statements raise
  *"current transaction is aborted"* until ``ROLLBACK`` (or ``COMMIT``,
  which then rolls back and reports ``ROLLBACK``).
- ``COMMIT``/``ROLLBACK`` outside a block warn and do nothing.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any

from repro.common.obs import EV_STATEMENT_LOCK
from repro.pgsim.executor import ExecutionError
from repro.pgsim.plan import QueryResult
from repro.pgsim.slowlog import SlowQueryRecord
from repro.pgsim.sql import ast, parse_sql
from repro.pgsim.sql.lexer import tokenize
from repro.pgsim.stats import normalize_sql
from repro.pgsim.xact import Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pgsim.database import PgSimDatabase


class Session:
    """One client connection to a shared database.

    Not thread-safe itself — use one session per client thread, the
    way one libpq connection serves one client.  The database-level
    statement lock makes cross-session interleaving safe.
    """

    def __init__(self, db: "PgSimDatabase", name: str | None = None) -> None:
        self.db = db
        #: Backend id — unique and monotonic per database, like a
        #: PostgreSQL backend pid.  Minted here so two sessions never
        #: collide in ``pg_stat_activity`` even with the same name.
        self.backend_id = db.activity.next_backend_id()
        self.name = name if name is not None else f"session-{self.backend_id}"
        self._activity = db.activity.register(self.backend_id, self.name)
        #: Open explicit transaction (``BEGIN`` ... ``COMMIT`` block).
        self._txn: Transaction | None = None

    @property
    def in_transaction(self) -> bool:
        return self._txn is not None

    # ------------------------------------------------------------------
    # SQL entry points (same surface as the database facade)
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> QueryResult:
        """Run one or more statements; returns the last result."""
        results = self.execute_all(sql)
        if not results:
            raise ValueError("no SQL statements to execute")
        return results[-1]

    def query(self, sql: str) -> list[tuple[Any, ...]]:
        """Run a query and return its rows."""
        return self.execute(sql).rows

    def execute_all(self, sql: str) -> list[QueryResult]:
        """Run statements and return every result."""
        db = self.db
        tokens = tokenize(sql)  # one lex feeds the parser and the fingerprints
        statements = parse_sql(sql, tokens)
        track = db._tracking_enabled()
        log_ms = db.executor._duration_setting_ms("log_min_duration_statement")
        normalized = normalize_sql(sql, tokens)
        activity = self._activity
        results: list[QueryResult] = []
        for i, stmt in enumerate(statements):
            query_text = (
                normalized[i] if i < len(normalized) else f"<{type(stmt).__name__}>"
            )
            # Lock-free monitoring path: a SELECT over a virtual view
            # runs without the statement lock, so ``pg_stat_activity``
            # answers even while another session's statement is in
            # flight (the scenario monitoring exists for).
            if self._txn is None and isinstance(stmt, ast.Select):
                activity.begin_statement(query_text, time.time())
                start = time.perf_counter()
                fast = db.executor.try_execute_virtual(stmt)
                if fast is not None:
                    elapsed = time.perf_counter() - start
                    if track:
                        db.stats.record_statement(query_text, elapsed, len(fast.rows))
                    if log_ms is not None and elapsed * 1e3 >= log_ms:
                        self._record_slow(query_text, elapsed * 1e3, fast, None)
                    activity.end_statement(False, None)
                    results.append(fast)
                    continue
                # Not a pure view read: fall through to the locked path
                # (begin_statement below re-arms the activity record).
            activity.begin_statement(query_text, time.time())
            # Non-blocking fast path: only actual contention between
            # sessions is recorded as blocked time.
            if not db._statement_lock.acquire(blocking=False):
                activity.wait_event = EV_STATEMENT_LOCK
                wait_start = time.perf_counter()
                db._statement_lock.acquire()
                waited = time.perf_counter() - wait_start
                db.waits.record(EV_STATEMENT_LOCK, waited)
                activity.note_lock_wait(waited)
                activity.wait_event = None
            try:
                # Key for the estimation accumulator (the executor has
                # no raw SQL of its own); stale values are harmless —
                # only instrumented runs read it.
                db.executor.current_query = query_text
                measure = track or log_ms is not None
                elapsed = None
                if track:
                    baseline = db.stats.begin()
                if measure:
                    start = time.perf_counter()
                result = self._execute_one(stmt)
                if measure:
                    elapsed = time.perf_counter() - start
                if track:
                    result.stats = db.stats.finish(baseline, elapsed)
                    db.stats.record_statement(query_text, elapsed, len(result.rows))
                self._maybe_log_slow(query_text, elapsed, result, log_ms)
                db._log_ddl(stmt)
                results.append(result)
                # Autovacuum hook: with the GUC on, check dead-tuple
                # thresholds after each statement while still holding
                # the statement lock (a vacuum never interleaves with
                # another session's statement).
                if not isinstance(stmt, ast.Vacuum) and db._autovacuum_enabled():
                    db.executor.maybe_autovacuum()
            finally:
                activity.end_statement(
                    self._txn is not None,
                    self._txn.xid if self._txn is not None else None,
                )
                db._statement_lock.release()
        return results

    # ------------------------------------------------------------------
    # slow-query logging (log_min_duration_statement / auto_explain)
    # ------------------------------------------------------------------
    def _maybe_log_slow(
        self,
        query_text: str,
        elapsed: float | None,
        result: QueryResult,
        log_ms: float | None,
    ) -> None:
        """Log the statement if it crossed a duration threshold.

        Two triggers, both PostgreSQL's: ``log_min_duration_statement``
        logs the statement line, and an auto_explain capture (armed by
        the executor when ``auto_explain_log_min_duration`` crossed)
        attaches the EXPLAIN (ANALYZE, BUFFERS) plan text and RC
        attribution.  The capture is popped here even when unused so a
        stale plan never leaks onto the next statement's record.
        """
        capture = self.db.executor.take_plan_capture()
        if elapsed is not None:
            elapsed_ms = elapsed * 1e3
        elif capture is not None:
            elapsed_ms = capture["elapsed_ms"]
        else:
            return
        if capture is None and (log_ms is None or elapsed_ms < log_ms):
            return
        self._record_slow(query_text, elapsed_ms, result, capture)

    def _record_slow(
        self,
        query_text: str,
        elapsed_ms: float,
        result: QueryResult,
        capture: dict | None,
    ) -> None:
        db = self.db
        if db.slowlog is None:
            return
        db._sync_slowlog_sink()
        wait_events: dict = {}
        stats = getattr(result, "stats", None)
        if stats is not None:
            wait_events = stats.wait_events.as_dict()
        db.slowlog.record(
            SlowQueryRecord(
                logged_at=time.time(),
                backend_id=self.backend_id,
                session=self.name,
                kind="statement",
                query=query_text,
                elapsed_ms=elapsed_ms,
                rows=len(result.rows),
                plan=capture["plan"] if capture is not None else None,
                rc=capture["rc"] if capture is not None else None,
                wait_events=wait_events,
                strategy=capture.get("strategy") if capture is not None else None,
            )
        )

    def close(self) -> None:
        """End the session, rolling back any open transaction."""
        if self._txn is not None:
            txn, self._txn = self._txn, None
            with self.db._statement_lock:
                self.db.executor.abort_transaction(txn)
        self.db.activity.deregister(self.backend_id)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # statement handling (caller holds the statement lock)
    # ------------------------------------------------------------------
    def _execute_one(self, stmt: ast.Statement) -> QueryResult:
        executor = self.db.executor
        if isinstance(stmt, ast.Begin):
            if self._txn is not None:
                return QueryResult(
                    command="BEGIN",
                    warnings=["there is already a transaction in progress"],
                )
            txn = executor.xact.begin()
            # Snapshot pinned for the whole block (repeatable read).
            txn.snapshot = executor.xact.snapshot(txn.xid)
            self._txn = txn
            return QueryResult(command="BEGIN")
        if isinstance(stmt, ast.Commit):
            if self._txn is None:
                return QueryResult(
                    command="COMMIT",
                    warnings=["there is no transaction in progress"],
                )
            txn, self._txn = self._txn, None
            if txn.failed:
                # PostgreSQL: COMMIT of a failed block rolls back and
                # reports ROLLBACK as the command tag.
                executor.abort_transaction(txn)
                return QueryResult(command="ROLLBACK")
            executor.commit_transaction(txn)
            return QueryResult(command="COMMIT")
        if isinstance(stmt, ast.Rollback):
            if self._txn is None:
                return QueryResult(
                    command="ROLLBACK",
                    warnings=["there is no transaction in progress"],
                )
            txn, self._txn = self._txn, None
            executor.abort_transaction(txn)
            return QueryResult(command="ROLLBACK")
        if self._txn is not None:
            if self._txn.failed:
                raise ExecutionError(
                    "current transaction is aborted, "
                    "commands ignored until end of transaction block"
                )
            try:
                return executor.execute_statement(stmt, txn=self._txn)
            except BaseException:
                self._txn.failed = True
                raise
        return executor.execute_statement(stmt)
