"""Tests for the pg_stat-style views and per-query QueryStats."""

import pytest

from repro.pgsim import PgSimDatabase
from repro.pgsim.catalog import CatalogError
from repro.pgsim.sql.lexer import tokenize
from repro.pgsim.sql.parser import SqlSyntaxError
from repro.pgsim.stats import normalize_sql


@pytest.fixture()
def db(fresh_db):
    fresh_db.execute("CREATE TABLE t (id int, vec float[])")
    for i in range(30):
        fresh_db.execute(f"INSERT INTO t VALUES ({i}, '{i}.0,{2 * i}.0'::PASE)")
    return fresh_db


@pytest.fixture()
def indexed_db(db):
    db.execute(
        "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
        "WITH (clusters = 4, sample_ratio = 1.0, seed = 1)"
    )
    return db


class TestNormalizeSql:
    def test_literals_collapse(self):
        assert normalize_sql("SELECT id FROM t WHERE id < 7") == [
            "select id from t where id < ?"
        ]

    def test_strings_collapse(self):
        one = normalize_sql("INSERT INTO t VALUES (1, '1.0,2.0'::PASE)")
        two = normalize_sql("INSERT INTO t VALUES (2, '9.0,8.0'::PASE)")
        assert one == two

    def test_statement_split_matches_parser(self):
        texts = normalize_sql("SELECT 1; SELECT id FROM t; ")
        assert len(texts) == 2
        assert texts[1] == "select id from t"

    def test_one_lex_per_statement(self, db, monkeypatch):
        """A statement is lexed once: the parser and the fingerprint
        read the same token stream, and the fingerprint is the one the
        text alone gives."""
        import repro.pgsim.session as session_mod
        import repro.pgsim.sql.parser as parser_mod
        import repro.pgsim.stats as stats_mod

        calls = []

        def counting(sql):
            calls.append(sql)
            return tokenize(sql)

        for module in (session_mod, parser_mod, stats_mod):
            monkeypatch.setattr(module, "tokenize", counting)
        sql = "SELECT id FROM t WHERE id < 7; SELECT 1"
        db.execute(sql)
        assert calls == [sql]
        assert normalize_sql(sql, tokenize(sql)) == normalize_sql(sql) == [
            "select id from t where id < ?",
            "select ?",
        ]
        assert "select id from t where id < ?" in db.stats.statements


class TestQueryStatsOnResults:
    def test_select_carries_stats(self, db):
        result = db.execute("SELECT id FROM t WHERE id < 5")
        assert result.stats is not None
        assert result.stats.buffer_hits + result.stats.buffer_misses > 0
        assert result.stats.heap_tuples_fetched >= 30  # full scan under the filter
        assert result.stats.elapsed_seconds > 0

    def test_insert_counts_wal_and_heap(self, db):
        result = db.execute("INSERT INTO t VALUES (99, '1.0,1.0'::PASE)")
        assert result.stats.heap.tuples_inserted == 1
        assert result.stats.wal.records >= 1
        assert result.stats.wal.bytes_written > 0

    def test_delete_counts_heap(self, db):
        result = db.execute("DELETE FROM t WHERE id = 3")
        assert result.stats.heap.tuples_deleted == 1

    def test_tracking_can_be_disabled(self, db):
        db.execute("SET track_query_stats = off")
        result = db.execute("SELECT id FROM t")
        assert result.stats is None
        before = len(db.query("SELECT query FROM pg_stat_statements"))
        db.execute("SELECT id FROM t WHERE id < 9")
        assert len(db.query("SELECT query FROM pg_stat_statements")) == before

    def test_index_scan_attributes_candidates(self, indexed_db):
        result = indexed_db.execute(
            "SELECT id FROM t ORDER BY vec <-> '0.0,0.0'::PASE LIMIT 5"
        )
        assert result.stats.index.scans == 1
        assert result.stats.index_candidates > 0


class TestStatViews:
    def test_pg_stat_buffers_tracks_totals(self, db):
        hits0, misses0 = db.query("SELECT hits, misses FROM pg_stat_buffers")[0]
        db.execute("SELECT id FROM t")
        hits1, misses1 = db.query("SELECT hits, misses FROM pg_stat_buffers")[0]
        assert hits1 + misses1 > hits0 + misses0

    def test_pg_stat_wal_tracks_appends(self, db):
        records0 = db.query("SELECT records FROM pg_stat_wal")[0][0]
        db.execute("INSERT INTO t VALUES (77, '1.0,1.0'::PASE)")
        records1 = db.query("SELECT records FROM pg_stat_wal")[0][0]
        assert records1 > records0

    def test_pg_stat_indexes_row_shape(self, indexed_db):
        indexed_db.execute("SELECT id FROM t ORDER BY vec <-> '0.0,0.0'::PASE LIMIT 5")
        rows = indexed_db.query("SELECT * FROM pg_stat_indexes")
        assert len(rows) == 1
        name, table, am, scans, candidates, per_scan = rows[0]
        assert (name, table, am) == ("ix", "t", "pase_ivfflat")
        assert scans >= 1
        assert candidates > 0
        assert per_scan == pytest.approx(candidates / scans)

    def test_pg_stat_statements_aggregates_calls(self, db):
        for i in range(5):
            db.execute(f"SELECT id FROM t WHERE id < {i}")
        rows = db.query(
            "SELECT query, calls, p50_ms, p95_ms, p99_ms FROM pg_stat_statements "
            "WHERE calls >= 5"
        )
        entry = next(r for r in rows if "where id < ?" in r[0])
        __, calls, p50, p95, p99 = entry
        assert calls == 5
        assert 0 <= p50 <= p95 <= p99

    def test_views_support_where_order_limit(self, db):
        db.execute("SELECT id FROM t")
        rows = db.query(
            "SELECT query, calls FROM pg_stat_statements ORDER BY calls LIMIT 1"
        )
        assert len(rows) == 1
        count = db.query("SELECT count(*) FROM pg_stat_buffers")
        assert count == [(1,)]

    def test_views_work_on_batch_path(self, db):
        db.execute("SET enable_batch_exec = on")
        try:
            rows = db.query("SELECT hits, misses FROM pg_stat_buffers")
            assert len(rows) == 1
        finally:
            db.execute("SET enable_batch_exec = off")

    def test_view_names_are_reserved(self, db):
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE pg_stat_buffers (id int)")

    def test_unknown_view_or_table_still_errors(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT * FROM pg_stat_nonexistent")

    def test_explain_shows_virtual_scan(self, db):
        plan = db.explain("SELECT hits FROM pg_stat_buffers")
        assert "Virtual Scan on pg_stat_buffers" in plan


class TestExplainBuffersDifferential:
    """EXPLAIN (ANALYZE, BUFFERS) per-node counters must sum to the
    pg_stat_buffers delta the same statement produces — the acceptance
    check tying the per-node and cumulative views together."""

    @staticmethod
    def _node_totals(lines):
        hits = misses = 0
        for line in lines:
            if "Buffers:" in line:
                hits += int(line.split("hits=")[1].split(" ")[0])
                misses += int(line.split("misses=")[1].split(" ")[0].rstrip())
        return hits, misses

    @pytest.mark.parametrize("batch", [False, True])
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t",
            "SELECT id FROM t WHERE id < 7",
            "SELECT id FROM t ORDER BY vec <-> '0.0,0.0'::PASE LIMIT 5",
        ],
    )
    def test_per_node_sums_to_cumulative_delta(self, indexed_db, sql, batch):
        db = indexed_db
        db.execute(f"SET enable_batch_exec = {'on' if batch else 'off'}")
        try:
            before = db.buffer.stats.snapshot()
            lines = [r[0] for r in db.execute(f"EXPLAIN (ANALYZE, BUFFERS) {sql}").rows]
            delta = db.buffer.stats.delta(before)
            hits, misses = self._node_totals(lines)
            assert (hits, misses) == (delta.hits, delta.misses)
        finally:
            db.execute("SET enable_batch_exec = off")


class TestExplainOptionParsing:
    def test_unknown_option_rejected(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("EXPLAIN (VERBOSE) SELECT id FROM t")

    def test_option_values(self, db):
        lines = [
            r[0]
            for r in db.execute(
                "EXPLAIN (ANALYZE on, BUFFERS off) SELECT id FROM t"
            ).rows
        ]
        assert any("actual rows=" in line for line in lines)
        assert not any("Buffers:" in line for line in lines)

    def test_plain_explain_insert(self, db):
        lines = [r[0] for r in db.execute("EXPLAIN INSERT INTO t VALUES (1, '1.0,1.0'::PASE)").rows]
        assert lines[0].startswith("Insert on t")
        # Plain EXPLAIN must not execute.
        assert db.query("SELECT count(*) FROM t") == [(30,)]

    def test_plain_explain_delete(self, db):
        lines = [r[0] for r in db.execute("EXPLAIN DELETE FROM t WHERE id = 1").rows]
        assert lines[0].startswith("Delete on t")
        assert db.query("SELECT count(*) FROM t") == [(30,)]


class TestStatementReset:
    def test_reset_statements(self, db):
        db.execute("SELECT id FROM t")
        assert db.query("SELECT count(*) FROM pg_stat_statements") != [(0,)]
        db.stats.reset_statements()
        # The count query itself gets tracked after the reset, so look
        # for the pre-reset entry specifically.
        rows = db.query("SELECT query FROM pg_stat_statements")
        assert ("select id from t",) not in rows

    def test_pg_stat_reset_clears_statements(self, db):
        db.execute("SELECT id FROM t")
        result = db.execute("SELECT pg_stat_reset()")
        assert result.columns == ["pg_stat_reset"]
        assert result.rows == [(None,)]
        rows = db.query("SELECT query FROM pg_stat_statements")
        assert ("select id from t",) not in rows

    def test_pg_stat_reset_clears_wait_events(self, db):
        db.stats.waits.record("DataFileRead", 0.25)
        assert db.query("SELECT count(*) FROM pg_stat_wait_events") != [(0,)]
        db.execute("SELECT pg_stat_reset()")
        assert db.query("SELECT count(*) FROM pg_stat_wait_events") == [(0,)]

    def test_pg_stat_reset_keeps_monotonic_counters(self, db):
        """Like PostgreSQL, pg_stat_reset() zeroes the *statistics*
        accumulators; engine-lifetime counters keep counting."""
        db.execute("SELECT id FROM t")
        hits0, misses0 = db.query("SELECT hits, misses FROM pg_stat_buffers")[0]
        db.execute("SELECT pg_stat_reset()")
        hits1, misses1 = db.query("SELECT hits, misses FROM pg_stat_buffers")[0]
        assert hits1 + misses1 >= hits0 + misses0


class TestWaitEventView:
    def test_wait_events_appear_under_buffer_pressure(self, tmp_path):
        # Tiny pages + a tiny pool force eviction on an ordinary scan.
        db = PgSimDatabase(page_size=512, buffer_pool_pages=8, data_dir=tmp_path)
        db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(120):
            db.execute(f"INSERT INTO t VALUES ({i}, '{i}.0,{2 * i}.0'::PASE)")
        db.execute("SELECT id FROM t")
        rows = db.query("SELECT * FROM pg_stat_wait_events")
        events = {r[1]: r for r in rows}
        # Eviction pressure: clock sweeps and re-reads from disk.
        assert "LWLockBufferClock" in events
        assert "DataFileRead" in events
        for wait_type, event, count, total_ms in rows:
            assert wait_type in ("IO", "LWLock")
            assert count > 0
            assert total_ms >= 0.0

    def test_wal_flush_records_write_and_sync(self, tmp_path):
        db = PgSimDatabase(data_dir=tmp_path)
        db.execute("CREATE TABLE t (id int)")
        db.execute("INSERT INTO t VALUES (1)")
        db.wal.flush()
        events = {r[1] for r in db.query("SELECT * FROM pg_stat_wait_events")}
        assert {"WALWrite", "WALSync"} <= events

    def test_per_statement_wait_delta(self, tmp_path):
        db = PgSimDatabase(page_size=512, buffer_pool_pages=8, data_dir=tmp_path)
        db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(120):
            db.execute(f"INSERT INTO t VALUES ({i}, '{i}.0,{2 * i}.0'::PASE)")
        result = db.execute("SELECT id FROM t")
        waits = result.stats.wait_events
        assert waits.counts.get("DataFileRead", 0) > 0
        assert "wait_events" in result.stats.as_dict()

    def test_memory_db_sees_no_io_waits_when_pool_fits(self, fresh_db):
        fresh_db.execute("CREATE TABLE t (id int)")
        fresh_db.execute("INSERT INTO t VALUES (1)")
        fresh_db.execute("SELECT id FROM t")
        events = {r[1] for r in fresh_db.query("SELECT * FROM pg_stat_wait_events")}
        assert "DataFileRead" not in events


class TestProgressView:
    def test_ivf_build_phases(self, db):
        db.execute(
            "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
            "WITH (clusters = 4, sample_ratio = 1.0, seed = 1)"
        )
        rows = db.query("SELECT * FROM pg_stat_progress_create_index")
        assert len(rows) == 1
        index, am, phase, done, total, status = rows[0]
        assert (index, am) == ("ix", "pase_ivfflat")
        assert status == "done"
        assert done == total == 30  # every heap tuple assigned
        (progress,) = db.stats.builds
        assert progress.phases_seen == ["sample", "kmeans", "assign", "flush"]

    def test_hnsw_build_phases(self, db):
        db.execute(
            "CREATE INDEX hx ON t USING pase_hnsw (vec) "
            "WITH (bnn = 4, efb = 8, seed = 1)"
        )
        (progress,) = db.stats.builds
        assert progress.phases_seen == ["insert", "link"]
        assert progress.tuples_done == 30

    def test_in_progress_status_mid_build(self, db):
        progress = db.stats.start_build("fake", "pase_ivfflat")
        progress.set_phase("kmeans")
        try:
            rows = db.query(
                "SELECT * FROM pg_stat_progress_create_index WHERE status = 'in progress'"
            )
            assert rows[0][:3] == ("fake", "pase_ivfflat", "kmeans")
        finally:
            db.stats.finish_build()

    def test_failed_build_still_finishes_progress(self, fresh_db):
        fresh_db.execute("CREATE TABLE empty_t (id int, vec float[])")
        with pytest.raises(RuntimeError):
            fresh_db.execute("CREATE INDEX ex ON empty_t USING pase_ivfflat (vec)")
        assert fresh_db.stats.current_build is None

    def test_build_history_is_bounded(self, db):
        from repro.pgsim.stats import _BUILD_HISTORY_LIMIT

        for i in range(_BUILD_HISTORY_LIMIT + 5):
            db.stats.start_build(f"ix{i}", "pase_ivfflat")
            db.stats.finish_build()
        assert len(db.stats.builds) == _BUILD_HISTORY_LIMIT


class TestViewsSurviveMaintenance:
    """pg_stat views must stay consistent across checkpoint() and a
    crash-recovery restart (the observability layer sits above the
    durability machinery and must not trip over it)."""

    def _populate(self, db):
        db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(40):
            db.execute(f"INSERT INTO t VALUES ({i}, '{i}.0,{2 * i}.0'::PASE)")
        db.execute(
            "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
            "WITH (clusters = 4, sample_ratio = 1.0, seed = 1)"
        )

    def test_views_after_checkpoint(self, tmp_path):
        db = PgSimDatabase(buffer_pool_pages=16, data_dir=tmp_path)
        self._populate(db)
        before = {r[1]: r[2] for r in db.query("SELECT * FROM pg_stat_wait_events")}
        db.checkpoint()
        after = {r[1]: r[2] for r in db.query("SELECT * FROM pg_stat_wait_events")}
        # Accumulators survive the checkpoint and keep growing (the
        # checkpoint itself fsyncs the WAL).
        for event, count in before.items():
            assert after.get(event, 0) >= count
        assert after.get("WALSync", 0) >= 1
        # The other stat views still answer.
        assert db.query("SELECT count(*) FROM pg_stat_buffers") == [(1,)]
        rows = db.query("SELECT * FROM pg_stat_progress_create_index")
        assert rows and rows[0][-1] == "done"

    def test_views_after_crash_recovery(self, tmp_path):
        db = PgSimDatabase(buffer_pool_pages=16, data_dir=tmp_path)
        self._populate(db)
        db.wal.flush()
        del db  # simulate a crash: no checkpoint, no clean shutdown

        recovered = PgSimDatabase(buffer_pool_pages=16, data_dir=tmp_path)
        # Recovery re-ran CREATE INDEX from the DDL log, so the
        # progress view reflects the rebuild.
        rows = recovered.query("SELECT * FROM pg_stat_progress_create_index")
        assert rows and rows[0][:2] == ("ix", "pase_ivfflat") and rows[0][-1] == "done"
        # Redo + rebuild went through the buffer manager: IO wait
        # events and buffer counters are already non-zero.
        events = {r[1] for r in recovered.query("SELECT * FROM pg_stat_wait_events")}
        assert "DataFileRead" in events
        # Statement stats start fresh but track new work immediately.
        recovered.execute("SELECT id FROM t")
        rows = recovered.query("SELECT query FROM pg_stat_statements")
        assert ("select id from t",) in rows
        assert recovered.query("SELECT count(*) FROM t") == [(40,)]
