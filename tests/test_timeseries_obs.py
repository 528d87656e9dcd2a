"""Time-series observability: ASH, stat history, estimation errors.

Three load-bearing properties:

* the ``pg_ash`` / ``pg_wait_profile`` / ``pg_stat_history`` views
  answer through the lock-free virtual path, so a blocked workload is
  diagnosable *while* it is blocked;
* ``pg_stat_estimation_errors`` reconciles **exactly** with the
  ``actual rows=N`` annotations of ``EXPLAIN ANALYZE`` on both
  executor paths (tuple and batch) — they are fed from the same
  per-node instrument dict;
* ``pg_stat_reset()`` clears the rings and entries while the lifetime
  totals survive (exercised in ``test_activity_slowlog.py``'s
  resettable-family matrix, which includes the new views).
"""

import json
import random
import re
import threading
import time

from repro.pgsim import PgSimDatabase
from repro.pgsim.ash import ActiveSessionHistory, StatHistory
from repro.pgsim.estimation import q_error
from repro.pgsim.sql import parse_sql

DIM = 8


def _lit(rng: random.Random) -> str:
    return "[" + ",".join(f"{rng.random():.5f}" for _ in range(DIM)) + "]"


def _load(db: PgSimDatabase, n: int = 60, seed: int = 0) -> random.Random:
    rng = random.Random(seed)
    db.execute("CREATE TABLE items (id int, vec float[])")
    for i in range(n):
        db.execute(f"INSERT INTO items VALUES ({i}, '{_lit(rng)}')")
    db.execute(
        "CREATE INDEX ix ON items USING pase_ivfflat (vec) "
        "WITH (clusters = 4, sample_ratio = 1, seed = 42)"
    )
    db.execute("ANALYZE items")
    return rng


class TestActiveSessionHistory:
    def test_samples_only_active_backends(self):
        db = PgSimDatabase()
        with db.session("worker") as session:
            session.execute("CREATE TABLE t (id int)")
            # Idle backend: nothing sampled.
            assert db.ash.sample_once() == 0
            activity = db.activity.get(session.backend_id)
            activity.begin_statement("select 1", time.time())
            assert db.ash.sample_once() == 1
            activity.end_statement(False, None)
        rows = db.query("SELECT * FROM pg_ash")
        assert len(rows) == 1
        sampled_at, pid, name, state, wtype, wevent, query, xid = rows[0]
        assert (pid, name, state) == (session.backend_id, "worker", "active")
        assert (wtype, wevent) == (None, None)  # on-CPU sample
        assert query == "select 1"

    def test_ring_is_bounded_and_resizable(self):
        from repro.pgsim.activity import SessionRegistry

        registry = SessionRegistry()
        entry = registry.register(registry.next_backend_id(), "s")
        entry.begin_statement("q", 0.0)
        ash = ActiveSessionHistory(registry, ring_size=4)
        for i in range(10):
            ash.sample_once(now=float(i))
        assert len(ash) == 4
        assert ash.total_samples == 10
        assert [row[0] for row in ash.samples()] == [6.0, 7.0, 8.0, 9.0]
        ash.resize(2)  # newest survive a shrink
        assert [row[0] for row in ash.samples()] == [8.0, 9.0]
        ash.reset()
        assert len(ash) == 0 and ash.total_samples == 10

    def test_wait_profile_aggregates_shares(self):
        from repro.pgsim.activity import SessionRegistry

        registry = SessionRegistry()
        a = registry.register(registry.next_backend_id(), "a")
        b = registry.register(registry.next_backend_id(), "b")
        a.begin_statement("select x", 0.0)
        b.begin_statement("insert y", 0.0)
        ash = ActiveSessionHistory(registry)
        ash.sample_once(now=1.0)  # both on CPU
        b.wait_event = "SessionStatementLock"
        ash.sample_once(now=2.0)
        ash.sample_once(now=3.0)
        profile = {(row[0], row[2]): row for row in ash.wait_profile()}
        assert profile[("select x", "CPU")][3] == 3
        assert profile[("insert y", "SessionStatementLock")][3] == 2
        assert profile[("insert y", "SessionStatementLock")][1] == "Lock"
        # Shares sum to 1 over the retained window.
        assert abs(sum(row[4] for row in ash.wait_profile()) - 1.0) < 1e-9

    def test_blocked_session_shows_in_wait_profile(self):
        """The tentpole scenario with the time dimension: while one
        session queues on the statement lock, ASH samples taken from a
        monitor accumulate SessionStatementLock quanta, and the
        pg_wait_profile read itself runs lock-free (the test holds the
        statement lock the entire time)."""
        db = PgSimDatabase()
        db.execute("CREATE TABLE t (id int)")
        blocked = db.session("blocked")
        db._statement_lock.acquire()
        done = threading.Event()

        def run_blocked():
            blocked.execute("INSERT INTO t VALUES (1)")
            done.set()

        thread = threading.Thread(target=run_blocked)
        thread.start()
        try:
            monitor = db.session("monitor")
            got = None
            deadline = time.time() + 5.0
            while time.time() < deadline:
                db.ash.sample_once()
                rows = monitor.query("SELECT * FROM pg_wait_profile")
                hit = [r for r in rows if r[2] == "SessionStatementLock"]
                if hit:
                    got = hit[0]
                    break
                time.sleep(0.002)
            assert got is not None, "lock wait never sampled"
            assert got[1] == "Lock"
            assert "insert into t" in got[0]
            assert got[3] >= 1 and 0.0 < got[4] <= 1.0
        finally:
            db._statement_lock.release()
            thread.join(timeout=5.0)
        assert done.is_set()

    def test_sampler_thread_lifecycle_via_set(self):
        db = PgSimDatabase()
        db.execute("CREATE TABLE t (id int)")
        assert not db._sampler.running
        db.execute("SET ash_sampling_interval_ms = 2")
        db.execute("SET stat_history_interval_ms = 5")
        db.execute("SET ash_enable = on")
        assert db._sampler.running
        deadline = time.time() + 5.0
        while db.stat_history.total_ticks < 2 and time.time() < deadline:
            db.execute("INSERT INTO t VALUES (1)")
            time.sleep(0.002)
        db.execute("SET ash_enable = off")
        assert not db._sampler.running
        assert db.stat_history.total_ticks >= 2
        ticks_after_stop = db.stat_history.total_ticks
        time.sleep(0.02)
        assert db.stat_history.total_ticks == ticks_after_stop  # really stopped
        # Restart works.
        db.execute("SET ash_enable = on")
        assert db._sampler.running
        db.execute("SET ash_enable = off")

    def test_ring_size_gucs_apply_live(self):
        db = PgSimDatabase()
        db.execute("SET ash_ring_size = 3")
        with db.session("w") as session:
            activity = db.activity.get(session.backend_id)
            activity.begin_statement("q", time.time())
            for _ in range(5):
                db.ash.sample_once()
            activity.end_statement(False, None)
        assert len(db.ash) == 3
        db.execute("SET stat_history_ring_size = 7")
        for _ in range(3):
            db.stat_history.tick()
        assert len(db.stat_history) == 7


class TestStatHistory:
    """``pg_stat_history`` rows are generated from the views' counter
    columns: metric ``<view>.<column>``, label ``k=v,...``."""

    INSERTS = ("pg_stat_statements.calls", "query=insert into t values ( ? )")

    def test_deltas_between_ticks(self):
        db = PgSimDatabase()
        db.execute("CREATE TABLE t (id int)")
        db.stat_history.tick(now=100.0)
        for _ in range(5):
            db.execute("INSERT INTO t VALUES (1)")
        db.stat_history.tick(now=101.0)
        rows = {
            (r[1], r[2]): r
            for r in db.query("SELECT * FROM pg_stat_history")
            if r[0] == 101.0
        }
        inserted = rows[("pg_stat_database.tup_inserted", "")]
        assert inserted[3] >= 5  # cumulative value
        assert inserted[4] == 5  # delta over this window
        assert inserted[5] == 1.0  # window_seconds
        calls = rows[self.INSERTS]
        assert calls[4] == 5
        # Gauges are scrape-only: no history row for them.
        assert not any(metric.endswith(".hit_ratio") for metric, _ in rows)

    def test_counter_reset_clamps_delta(self):
        """A family cleared by pg_stat_reset mid-window must not
        produce a negative delta (Prometheus rate() semantics)."""
        db = PgSimDatabase()
        db.execute("CREATE TABLE t (id int)")
        for _ in range(4):
            db.execute("INSERT INTO t VALUES (1)")
        db.stat_history.tick(now=1.0)
        db.execute("SELECT pg_stat_reset()")  # clears pg_stat_statements
        db.execute("INSERT INTO t VALUES (2)")
        db.stat_history.tick(now=2.0)
        second = [
            r for r in db.stat_history.rows() if r[0] == 2.0 and (r[1], r[2]) == self.INSERTS
        ][0]
        assert second[4] >= 0  # clamped: treated as freshly restarted
        assert second[4] == second[3] == 1  # delta == value after restart

    def test_first_tick_window_is_zero(self):
        db = PgSimDatabase()
        n = db.stat_history.tick(now=5.0)
        assert n > 0
        assert all(r[5] == 0.0 for r in db.stat_history.rows())

    def test_per_index_and_quality_series(self):
        db = PgSimDatabase()
        rng = _load(db, n=40)
        db.execute("SET vector_quality_probe_rate = 1.0")
        db.stat_history.tick(now=1.0)
        db.query(f"SELECT id FROM items ORDER BY vec <-> '{_lit(rng)}' LIMIT 5")
        db.stat_history.tick(now=2.0)
        rows = {(r[1], r[2]): r for r in db.stat_history.rows() if r[0] == 2.0}
        index = "index=ix,table=items,am=pase_ivfflat"
        assert rows[("pg_stat_indexes.scans", index)][4] == 1
        assert rows[("pg_stat_indexes.candidates", index)][4] > 0
        assert rows[("pg_stat_vector_quality.probes", "index=ix,am=pase_ivfflat")][4] == 1

    def test_unit_stat_history_reset_keeps_last_snapshot(self):
        db = PgSimDatabase()
        db.execute("CREATE TABLE t (id int)")
        history = StatHistory(db.catalog, ring_size=64)
        history.tick(now=1.0)
        db.execute("INSERT INTO t VALUES (1)")
        history.reset()
        assert len(history) == 0
        history.tick(now=2.0)
        inserted = [
            r for r in history.rows() if r[1] == "pg_stat_database.tup_inserted"
        ][0]
        # _last survived the reset: the post-reset delta is the real
        # one-row movement, not the whole cumulative value.
        assert inserted[4] == 1


class TestEstimationErrors:
    def test_q_error_symmetric_and_clamped(self):
        assert q_error(10, 10) == 1.0
        assert q_error(100, 10) == 10.0
        assert q_error(10, 100) == 10.0
        assert q_error(0, 0) == 1.0  # both clamped to the 1-row floor
        assert q_error(0.5, 8) == 8.0

    def test_explain_analyze_reconciles_tuple_path(self):
        self._reconcile(batch=False)

    def test_explain_analyze_reconciles_batch_path(self):
        self._reconcile(batch=True)

    #: EXPLAIN node head -> plan-node class name in the view.
    _NODE_NAMES = {
        "Seq Scan": "SeqScan",
        "Index Scan": "IndexScan",
        "Filter": "Filter",
        "Limit": "Limit",
        "Sort": "Sort",
        "Project": "Project",
    }

    def _annotated_nodes(self, explain_rows) -> dict[str, int]:
        """Parse ``node head -> actual rows`` from EXPLAIN ANALYZE."""
        out: dict[str, int] = {}
        for (line,) in explain_rows:
            match = re.search(r"actual rows=(\d+)", line)
            if match is None:
                continue
            head = line.strip().lstrip("-> ").split("  (")[0].strip()
            for prefix, node in self._NODE_NAMES.items():
                if head.startswith(prefix):
                    out[node] = int(match.group(1))
                    break
            else:
                raise AssertionError(f"unmapped annotated node: {head!r}")
        return out

    def _reconcile(self, batch: bool) -> None:
        """The acceptance criterion: view actuals == EXPLAIN actuals,
        node for node, on a fresh database (probe rate 0, so EXPLAIN
        ANALYZE is the only recorder)."""
        db = PgSimDatabase()
        rng = _load(db, n=60)
        db.execute(f"SET enable_batch_exec = {'on' if batch else 'off'}")
        for sql, key in (
            (
                "SELECT id FROM items WHERE id < 17",
                "select id from items where id < ?",
            ),
            (
                f"SELECT id FROM items ORDER BY vec <-> '{_lit(rng)}' LIMIT 5",
                "select id from items order by vec <-> ? limit ?",
            ),
        ):
            explain = db.execute(f"EXPLAIN ANALYZE {sql}")
            annotated = self._annotated_nodes(explain.rows)
            assert annotated, "EXPLAIN ANALYZE produced no actual-rows nodes"
            recorded = {
                row[1]: row
                for row in db.query("SELECT * FROM pg_stat_estimation_errors")
                if row[0] == key
            }
            # Exact reconciliation: same node set, same actual counts.
            assert set(recorded) == set(annotated), (recorded, annotated)
            for node, actual in annotated.items():
                assert recorded[node][4] == actual, node
                assert recorded[node][2] == 1  # one EXPLAIN, one call

    def test_filter_selectivity_estimate_vs_actual(self):
        db = PgSimDatabase()
        _load(db, n=100)
        db.execute("EXPLAIN ANALYZE SELECT id FROM items WHERE id < 25")
        row = next(
            r
            for r in db.query("SELECT * FROM pg_stat_estimation_errors")
            if r[1] == "Filter"
        )
        est_sel, actual_sel = row[7], row[8]
        assert actual_sel == 0.25  # 25 of 100 rows pass
        assert est_sel is not None and 0.0 < est_sel <= 1.0

    def test_sampled_ordinary_statements_record(self):
        db = PgSimDatabase()
        _load(db, n=40)
        db.execute("SET estimation_probe_rate = 1.0")
        db.query("SELECT id FROM items WHERE id < 9")
        db.execute("SET estimation_probe_rate = 0")
        rows = [
            r
            for r in db.query("SELECT * FROM pg_stat_estimation_errors")
            if r[0] == "select id from items where id < ?"
        ]
        assert {r[1] for r in rows} == {"Filter", "SeqScan"}
        assert all(r[2] == 1 for r in rows)

    def test_probe_rate_zero_records_nothing(self):
        db = PgSimDatabase()
        _load(db, n=40)
        db.query("SELECT id FROM items WHERE id < 9")
        assert db.query("SELECT * FROM pg_stat_estimation_errors") == []

    def test_probe_sampling_deterministic(self):
        def run(seed: int) -> int:
            db = PgSimDatabase()
            _load(db, n=40)
            db.execute("SET estimation_probe_rate = 0.5")
            db.execute(f"SET estimation_probe_seed = {seed}")
            for i in range(12):
                db.query(f"SELECT id FROM items WHERE id < {i + 2}")
            return db.executor.estimation.total_recorded

        assert run(7) == run(7)

    def test_estimation_probes_leave_recall_probe_schedule_alone(self):
        """The estimation probe draws from its own ticket stream, so
        arming it must not perturb the deterministic recall-probe
        sampling (they would otherwise interleave tickets)."""

        def recall_probes(estimation_rate: float) -> int:
            db = PgSimDatabase()
            rng = _load(db, n=40)
            db.execute("SET vector_quality_probe_rate = 0.5")
            db.execute("SET vector_quality_probe_seed = 7")
            db.execute(f"SET estimation_probe_rate = {estimation_rate}")
            queries = random.Random(123)
            for _ in range(12):
                db.query(
                    f"SELECT id FROM items ORDER BY vec <-> '{_lit(queries)}' LIMIT 5"
                )
            rows = db.query("SELECT * FROM pg_stat_vector_quality")
            return rows[0][2] if rows else 0

        assert recall_probes(0.0) == recall_probes(1.0)

    def test_explain_analyze_keys_under_inner_statement(self):
        db = PgSimDatabase()
        _load(db, n=30)
        db.execute("EXPLAIN ANALYZE SELECT id FROM items WHERE id < 5")
        db.execute("EXPLAIN (ANALYZE, BUFFERS) SELECT id FROM items WHERE id < 5")
        keys = {r[0] for r in db.query("SELECT * FROM pg_stat_estimation_errors")}
        assert keys == {"select id from items where id < ?"}
        row = next(
            r
            for r in db.query("SELECT * FROM pg_stat_estimation_errors")
            if r[1] == "Filter"
        )
        assert row[2] == 2  # both EXPLAIN forms accumulated together

    def test_auto_explain_capture_records_estimation(self):
        db = PgSimDatabase()
        _load(db, n=30)
        db.execute("SET auto_explain_log_min_duration = 0")
        db.query("SELECT id FROM items WHERE id < 5")
        db.execute("SET auto_explain_log_min_duration = -1")
        keys = {r[0] for r in db.query("SELECT * FROM pg_stat_estimation_errors")}
        assert "select id from items where id < ?" in keys


class TestVirtualPathRouting:
    def test_virtual_path_rejects_heap_plans(self):
        db = PgSimDatabase()
        db.execute("CREATE TABLE t (id int)")
        db.execute("INSERT INTO t VALUES (1)")
        executor = db.executor
        (heap_stmt,) = parse_sql("SELECT id FROM t")
        assert executor.try_execute_virtual(heap_stmt) is None
        (agg_stmt,) = parse_sql("SELECT count(*) FROM t")
        assert executor.try_execute_virtual(agg_stmt) is None
        (view_stmt,) = parse_sql("SELECT * FROM pg_stat_buffers")
        result = executor.try_execute_virtual(view_stmt)
        assert result is not None and result.rows

    def test_virtual_path_rejects_non_selects_and_missing_views(self):
        db = PgSimDatabase()
        db.execute("CREATE TABLE t (id int)")
        executor = db.executor
        (insert_stmt,) = parse_sql("INSERT INTO t VALUES (1)")
        assert executor.try_execute_virtual(insert_stmt) is None
        (func_stmt,) = parse_sql("SELECT pg_stat_reset()")
        assert executor.try_execute_virtual(func_stmt) is None

    def test_new_views_served_lock_free(self):
        """All three time-series views answer while the statement lock
        is held by someone else — the diagnosability guarantee."""
        db = PgSimDatabase()
        session = db.session("monitor")
        db.stat_history.tick()
        with db._statement_lock:  # would deadlock on the locked path
            assert session.query("SELECT * FROM pg_stat_history") != []
            session.query("SELECT * FROM pg_ash")
            session.query("SELECT * FROM pg_wait_profile")
            session.query("SELECT * FROM pg_stat_estimation_errors")

    def test_open_transaction_routes_through_locked_path(self):
        """Inside a transaction block even a pure view SELECT takes
        the statement lock (snapshot semantics win over lock-freedom):
        with the lock held elsewhere, the read must queue."""
        db = PgSimDatabase()
        session = db.session("txn")
        session.execute("BEGIN")
        done = threading.Event()

        def read_view():
            session.query("SELECT * FROM pg_stat_activity")
            done.set()

        db._statement_lock.acquire()
        thread = threading.Thread(target=read_view)
        thread.start()
        try:
            assert not done.wait(0.15), "in-txn view read bypassed the lock"
        finally:
            db._statement_lock.release()
            thread.join(timeout=5.0)
        assert done.is_set()
        session.execute("COMMIT")
        session.close()


class TestDatabaseClose:
    def test_close_flushes_and_releases_slowlog_sink(self, tmp_path):
        db = PgSimDatabase()
        db.execute("CREATE TABLE t (id int)")
        sink = tmp_path / "slow.jsonl"
        db.execute(f"SET slow_query_log_file = '{sink}'")
        db.execute("SET log_min_duration_statement = 0")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.slowlog._sink_file is not None  # persistent handle open
        handle = db.slowlog._sink_file
        db.close()
        assert handle.closed
        assert db.slowlog._sink_file is None
        lines = [json.loads(line) for line in sink.read_text().splitlines()]
        assert any("insert into t" in rec["query"] for rec in lines)
        db.close()  # idempotent

    def test_close_stops_sampler(self):
        db = PgSimDatabase()
        db.execute("SET ash_enable = on")
        assert db._sampler.running
        db.close()
        assert not db._sampler.running

    def test_sink_reconfigure_closes_previous_handle(self, tmp_path):
        db = PgSimDatabase()
        db.execute("CREATE TABLE t (id int)")
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        db.execute(f"SET slow_query_log_file = '{first}'")
        db.execute("SET log_min_duration_statement = 0")
        db.execute("INSERT INTO t VALUES (1)")
        handle = db.slowlog._sink_file
        db.execute(f"SET slow_query_log_file = '{second}'")
        db.execute("INSERT INTO t VALUES (2)")
        assert handle.closed  # repointing closed the old handle
        assert second.read_text()  # and the new sink receives records
        db.close()


class TestWorkloadReport:
    def test_build_report_covers_every_surface(self):
        from repro.bench.report import build_report

        db = PgSimDatabase()
        rng = _load(db, n=40)
        db.execute("SET vector_quality_probe_rate = 1.0")
        db.execute("SET estimation_probe_rate = 1.0")
        db.execute("SET log_min_duration_statement = 0")
        with db.session("client") as session:
            for _ in range(4):
                session.query(
                    f"SELECT id FROM items ORDER BY vec <-> '{_lit(rng)}' LIMIT 5"
                )
            activity = db.activity.get(session.backend_id)
            activity.begin_statement("select id from items ...", time.time())
            db.ash.sample_once()
            activity.end_statement(False, None)
        db.stat_history.tick(now=1.0)
        text = build_report(db, "unit")
        assert "workload report: unit" in text
        assert "pg_stat_statements" in text
        assert "pg_wait_profile" in text
        assert "pg_stat_history" in text
        assert "pg_slow_queries" in text
        assert "pg_stat_estimation_errors" in text
        assert "pg_stat_vector_quality" in text
        assert "select id from items order by vec <-> ? lim" in text
        assert "ix" in text  # recall quality row made it in
        db.close()

    def test_build_report_handles_empty_database(self):
        from repro.bench.report import build_report

        text = build_report(PgSimDatabase(), "empty")
        assert "(none)" in text

    def test_write_report_lands_in_results_dir(self, tmp_path, monkeypatch):
        from repro.bench.report import write_report

        monkeypatch.setenv("BENCH_RESULTS_DIR", str(tmp_path / "out"))
        db = PgSimDatabase()
        path = write_report(db, "smoke")
        assert path == tmp_path / "out" / "REPORT_smoke.txt"
        assert "workload report: smoke" in path.read_text()

    def test_report_cli_subcommand(self, tmp_path, capsys):
        from repro.bench.cli import main

        out = tmp_path / "REPORT_demo.txt"
        code = main(
            ["report", "--out", str(out), "--rows", "30", "--queries", "4"]
        )
        assert code == 0
        text = out.read_text()
        assert "workload report: demo" in text
        assert "pg_stat_estimation_errors" in text
        assert "wrote report" in capsys.readouterr().out
