"""Statistics, cost model and hybrid filtered-search tests.

Covers the three-stage optimizer end to end: ``ANALYZE`` populating
catalog statistics (and the ``pg_stats`` / ``pg_stat_user_tables``
views over them), selectivity estimation, the cost-based plan flip
between the hybrid index scan and seq-scan + sort, EXPLAIN's
``cost=..rows=..`` annotations with ``COSTS off``, and the exact-k
guarantee of the adaptive over-fetch executor.
"""

import numpy as np
import pytest

from repro.pgsim import PgSimDatabase
from repro.pgsim.analyze import clause_selectivity
from repro.pgsim.sql import parse_sql

DIM = 8
QUERY = ",".join(["0.5"] * DIM)


def _load(db: PgSimDatabase, n: int, n_values: int, seed: int = 0) -> None:
    """Bulk-load ``n`` rows: ``a = i % n_values``, random vector."""
    db.execute("CREATE TABLE t (a INT4, vec FLOAT4[])")
    rng = np.random.default_rng(seed)
    table = db.catalog.table("t")
    for i in range(n):
        table.heap.insert([i % n_values, rng.random(DIM).astype(np.float32)], xid=1)
    db.wal.log_commit(1)


def _where_sel(db: PgSimDatabase, predicate: str) -> float:
    (stmt,) = parse_sql(f"SELECT a FROM t WHERE {predicate}")
    return clause_selectivity(stmt.where, db.catalog.table("t"))


@pytest.fixture()
def analyzed_db():
    db = PgSimDatabase(buffer_pool_pages=256)
    _load(db, n=2000, n_values=1000)
    db.execute("ANALYZE t")
    return db


class TestAnalyze:
    def test_analyze_populates_table_stats(self, analyzed_db):
        stats = analyzed_db.catalog.table("t").stats
        assert stats is not None
        assert stats.reltuples == 2000.0
        assert stats.relpages >= 1
        col = stats.columns["a"]
        assert col.n_distinct == 1000
        assert col.null_frac == 0.0
        # Every value appears twice -> MCVs up to the statistics target,
        # and an equi-depth histogram over the rest.
        assert 0 < len(col.mcv_values) <= 100
        assert len(col.histogram_bounds) >= 2

    def test_analyze_skips_vector_columns(self, analyzed_db):
        stats = analyzed_db.catalog.table("t").stats
        assert "vec" not in stats.columns

    def test_analyze_without_table_analyzes_all(self):
        db = PgSimDatabase()
        _load(db, n=50, n_values=10)
        db.execute("CREATE TABLE u (b INT4)")
        db.execute("INSERT INTO u VALUES (1), (2), (3)")
        result = db.execute("ANALYZE")
        assert result.command == "ANALYZE"
        assert db.catalog.table("t").stats is not None
        assert db.catalog.table("u").stats is not None

    def test_analyze_unknown_table_raises(self):
        db = PgSimDatabase()
        with pytest.raises(Exception):
            db.execute("ANALYZE nope")

    def test_column_wise_analyze_matches_row_at_a_time_stats(self):
        """ANALYZE reads only the scalar columns, page-at-a-time.  On a
        table with NULLs, a TEXT column, scalars stored after the vector,
        deleted, updated and aborted rows, its ``pg_stats`` /
        ``pg_stat_user_tables`` rows are the ones the row-at-a-time
        ANALYZE over ``heap.scan()`` produced (recorded below), and its
        joint-selectivity sample is every live row's scalar columns."""
        db = PgSimDatabase()
        db.execute(
            "CREATE TABLE t (id int, score real, name text, vec float[], big bigint, w float8)"
        )
        for i in range(40):
            score = "NULL" if i % 7 == 0 else f"{(i * 37) % 50 / 4}"
            name = "NULL" if i % 5 == 0 else f"'n{i % 9}'"
            w = "NULL" if i % 11 == 3 else f"{(i * 13) % 17 - 8.5}"
            db.execute(
                f"INSERT INTO t VALUES ({i}, {score}, {name}, '{i}.0,1.0'::PASE, "
                f"{i * 1000003 % 97}, {w})"
            )
        db.execute("DELETE FROM t WHERE id > 10 AND id < 20")
        db.execute("UPDATE t SET name = 'moved' WHERE id > 35")
        writer = db.session("writer")
        writer.execute("BEGIN")
        writer.execute("INSERT INTO t VALUES (500, 1.5, 'gone', '1.0,1.0'::PASE, 5, 2.5)")
        writer.execute("ROLLBACK")
        db.execute("ANALYZE t")
        assert db.execute("SELECT * FROM pg_stats").rows == [
            ("t", "big", 0.0, 31, None, None,
             "{0,4,6,9,11,13,16,18,20,23,27,30,34,41,43,46,48,50,53,57,60,64,71,73,76,78,"
             "80,83,87,90,94}", 0.043145),
            ("t", "id", 0.0, 31, None, None,
             "{0,1,2,3,4,5,6,7,8,9,10,20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,"
             "37,38,39}", 1.0),
            ("t", "name", 0.22580645161290322, 10, "{moved,n4,n6,n1,n2,n3,n7,n8,n0,n5}",
             "{0.129032,0.0967742,0.0967742,0.0645161,0.0645161,0.0645161,0.0645161,"
             "0.0645161,0.0645161,0.0645161}", None, -0.305578),
            ("t", "score", 0.16129032258064516, 26, None, None,
             "{0.25,1.5,2.0,2.5,2.75,3.0,3.5,4.75,5.0,5.25,5.5,5.75,6.0,6.25,8.0,8.25,8.5,"
             "8.75,9.25,9.5,10.0,10.75,11.5,11.75,12.0,12.25}", -0.19453),
            ("t", "w", 0.0967741935483871, 17, "{-7.5,5.5,-8.5,4.5,1.5,-2.5,6.5,2.5,-3.5}",
             "{0.0967742,0.0967742,0.0645161,0.0645161,0.0645161,0.0645161,0.0645161,"
             "0.0645161,0.0645161}", "{-6.5,-5.5,-4.5,-1.5,-0.5,0.5,3.5,7.5}", 0.019471),
        ]
        user_tables = db.execute(
            "SELECT relname, reltuples, relpages, n_live_tup, n_dead_tup, n_tup_upd, "
            "vacuum_count, autovacuum_count FROM pg_stat_user_tables"
        ).rows
        assert user_tables == [("t", 31.0, 1, 31, 14, 4, 0, 0)]
        table = db.catalog.table("t")
        assert table.stats.sample == [
            {col.name: values[i] for i, col in enumerate(table.columns) if col.name != "vec"}
            for __, values in table.heap.scan()
        ]


class TestSelectivity:
    def test_range_estimates_track_truth(self, analyzed_db):
        # a is uniform over 0..999: true selectivity of a < c is c/1000.
        for cut, truth in ((50, 0.05), (500, 0.5), (900, 0.9)):
            est = _where_sel(analyzed_db, f"a < {cut}")
            assert abs(est - truth) < 0.05, (cut, est)

    def test_range_beyond_bounds_clamps(self, analyzed_db):
        assert _where_sel(analyzed_db, "a < 5000") == 1.0
        assert _where_sel(analyzed_db, "a < -1") == 0.0
        assert abs(_where_sel(analyzed_db, "a >= -1") - 1.0) < 1e-9

    def test_eq_uses_mcv_frequency(self, analyzed_db):
        # Every value appears twice in 2000 rows.
        est = _where_sel(analyzed_db, "a = 0")
        assert abs(est - 2 / 2000) < 1e-6

    def test_boolean_composition(self, analyzed_db):
        s_and = _where_sel(analyzed_db, "a < 500 AND a >= 0")
        s1, s2 = _where_sel(analyzed_db, "a < 500"), _where_sel(analyzed_db, "a >= 0")
        assert abs(s_and - s1 * s2) < 1e-9
        s_or = _where_sel(analyzed_db, "a < 100 OR a >= 900")
        assert 0.15 < s_or < 0.25
        s_not = _where_sel(analyzed_db, "NOT (a < 100)")
        assert abs(s_not - (1.0 - _where_sel(analyzed_db, "a < 100"))) < 1e-9

    def test_unanalyzed_falls_back_to_defaults(self):
        db = PgSimDatabase()
        _load(db, n=100, n_values=50)
        assert abs(_where_sel(db, "a < 10") - 1.0 / 3.0) < 1e-9


@pytest.fixture()
def indexed_analyzed_db(analyzed_db):
    analyzed_db.execute(
        "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
        "WITH (clusters = 16, sample_ratio = 0.5, seed = 1)"
    )
    return analyzed_db


def _hybrid_sql(cut: int, k: int = 10) -> str:
    return (
        f"SELECT a FROM t WHERE a < {cut} "
        f"ORDER BY vec <-> '{QUERY}'::PASE LIMIT {k}"
    )


class TestPlanFlip:
    """The acceptance golden test: cost estimates flip the plan from
    index scan to seq-scan + sort as the estimated selectivity drops."""

    def test_high_selectivity_picks_index_scan(self, indexed_analyzed_db):
        plan = indexed_analyzed_db.explain(_hybrid_sql(900))
        assert "Index Scan using ix" in plan
        assert "Filter: (a < 900)" in plan
        assert "Seq Scan" not in plan

    def test_low_selectivity_picks_seq_scan(self, indexed_analyzed_db):
        plan = indexed_analyzed_db.explain(_hybrid_sql(50))
        assert "Seq Scan on t" in plan
        assert "Index Scan" not in plan

    def test_explain_prints_cost_and_rows(self, indexed_analyzed_db):
        for cut in (50, 900):
            plan = indexed_analyzed_db.explain(_hybrid_sql(cut))
            assert "cost=" in plan and "rows=" in plan

    def test_row_estimates_track_selectivity(self, indexed_analyzed_db):
        plan = indexed_analyzed_db.explain("SELECT a FROM t WHERE a < 50")
        # Filter output estimate: 2000 * 0.05 = 100.
        assert "rows=100" in plan

    def test_costs_off_suppresses_estimates(self, indexed_analyzed_db):
        result = indexed_analyzed_db.execute(
            f"EXPLAIN (COSTS off) {_hybrid_sql(900)}"
        )
        plan = "\n".join(row[0] for row in result.rows)
        assert "Index Scan using ix" in plan
        assert "cost=" not in plan
        assert "rows=" not in plan
        assert "Over-fetch" not in plan
        # The pushed-down filter is structural, not a cost detail.
        assert "Filter: (a < 900)" in plan

    def test_over_fetch_sized_from_selectivity(self, indexed_analyzed_db):
        plan = indexed_analyzed_db.explain(_hybrid_sql(900))
        # fetch_k = ceil(k / 0.9) = 12 for k=10.
        assert "Over-fetch: fetch_k=12" in plan

    def test_pure_knn_still_pins_index(self, indexed_analyzed_db):
        plan = indexed_analyzed_db.explain(
            f"SELECT a FROM t ORDER BY vec <-> '{QUERY}'::PASE LIMIT 10"
        )
        assert "Index Scan using ix" in plan

    def test_enable_indexscan_off_forces_seq(self, indexed_analyzed_db):
        indexed_analyzed_db.execute("SET enable_indexscan = off")
        plan = indexed_analyzed_db.explain(_hybrid_sql(900))
        assert "Seq Scan on t" in plan
        assert "Index Scan" not in plan


class TestExactK:
    """Regression for the paper-adjacent bug: ``WHERE p AND ORDER BY
    vec <-> q LIMIT k`` over an index scan silently returned fewer than
    k rows.  The over-fetch/rescan loop must return exactly k whenever
    at least k rows match, at every selectivity, on both executors."""

    @pytest.mark.parametrize("batch", ["off", "on"])
    @pytest.mark.parametrize("cut", [20, 100, 500, 900])
    def test_exactly_k_rows(self, indexed_analyzed_db, batch, cut):
        db = indexed_analyzed_db
        db.execute("SET enable_seqscan = off")  # pin the index path
        db.execute(f"SET enable_batch_exec = {batch}")
        k = 10
        rows = db.query(_hybrid_sql(cut, k))
        # 2000 rows, a uniform over 0..999: 2*cut rows match, >= k here.
        assert len(rows) == k
        assert all(a < cut for (a,) in rows)

    @pytest.mark.parametrize("batch", ["off", "on"])
    def test_fewer_matches_than_k(self, indexed_analyzed_db, batch):
        db = indexed_analyzed_db
        db.execute("SET enable_seqscan = off")
        db.execute(f"SET enable_batch_exec = {batch}")
        rows = db.query(_hybrid_sql(2, k=10))  # only 4 rows have a < 2
        assert len(rows) == 4
        assert all(a < 2 for (a,) in rows)

    @pytest.mark.parametrize("batch", ["off", "on"])
    def test_paths_agree(self, indexed_analyzed_db, batch):
        db = indexed_analyzed_db
        db.execute("SET enable_seqscan = off")
        db.execute("SET enable_batch_exec = off")
        tuple_rows = db.query(_hybrid_sql(300))
        db.execute("SET enable_batch_exec = on")
        assert db.query(_hybrid_sql(300)) == tuple_rows


class TestStatViews:
    def test_pg_stats_rows(self, analyzed_db):
        rows = analyzed_db.query(
            "SELECT tablename, attname, n_distinct FROM pg_stats"
        )
        assert ("t", "a", 1000) in rows

    def test_pg_stats_renders_arrays(self, analyzed_db):
        rows = analyzed_db.query("SELECT * FROM pg_stats")
        row = next(r for r in rows if r[1] == "a")
        mcvs, freqs, bounds = row[4], row[5], row[6]
        assert mcvs.startswith("{") and mcvs.endswith("}")
        assert freqs.startswith("{") and bounds.startswith("{")

    def test_pg_stat_user_tables(self, analyzed_db):
        (row,) = analyzed_db.query("SELECT * FROM pg_stat_user_tables")
        relpages = analyzed_db.catalog.table("t").stats.relpages
        assert row[:4] == ("t", 2000.0, relpages, 2000)
        assert row[4] is not None  # last_analyze timestamp

    def test_unanalyzed_table_shows_null_stats(self):
        db = PgSimDatabase()
        _load(db, n=10, n_values=5)
        (row,) = db.query("SELECT * FROM pg_stat_user_tables")
        assert row[0] == "t"
        assert row[1] is None and row[2] is None
        assert row[3] == 10  # n_live_tup is live, not stats-derived
        assert db.query("SELECT count(*) FROM pg_stats") == [(0,)]


class TestStatsDurability:
    """ANALYZE is a catalog mutation: it must survive checkpoint and
    crash recovery like CREATE TABLE/INDEX (replayed from the DDL log
    over the recovered heap)."""

    def _populate(self, db):
        db.execute("CREATE TABLE t (a INT4, vec FLOAT4[])")
        for i in range(40):
            db.execute(f"INSERT INTO t VALUES ({i % 10}, '{i}.0,{2 * i}.0'::PASE)")
        db.execute("ANALYZE t")

    def test_stats_survive_checkpoint(self, tmp_path):
        db = PgSimDatabase(buffer_pool_pages=16, data_dir=tmp_path)
        self._populate(db)
        db.checkpoint()
        assert db.query("SELECT tablename, attname FROM pg_stats") == [("t", "a")]
        (row,) = db.query("SELECT relname, reltuples FROM pg_stat_user_tables")
        assert row == ("t", 40.0)

    def test_stats_survive_crash_recovery(self, tmp_path):
        db = PgSimDatabase(buffer_pool_pages=16, data_dir=tmp_path)
        self._populate(db)
        db.wal.flush()
        del db  # crash: no checkpoint, no clean shutdown

        recovered = PgSimDatabase(buffer_pool_pages=16, data_dir=tmp_path)
        stats = recovered.catalog.table("t").stats
        assert stats is not None and stats.reltuples == 40.0
        assert stats.columns["a"].n_distinct == 10
        assert recovered.query("SELECT tablename FROM pg_stats") == [("t",)]
        (row,) = recovered.query(
            "SELECT relname, reltuples, n_live_tup FROM pg_stat_user_tables"
        )
        assert row == ("t", 40.0, 40)

    def test_analyze_all_survives_recovery(self, tmp_path):
        db = PgSimDatabase(buffer_pool_pages=16, data_dir=tmp_path)
        db.execute("CREATE TABLE t (a INT4)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        db.execute("ANALYZE")
        db.wal.flush()
        del db
        recovered = PgSimDatabase(buffer_pool_pages=16, data_dir=tmp_path)
        assert recovered.catalog.table("t").stats is not None
