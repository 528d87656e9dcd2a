"""Tests for EXPLAIN ANALYZE (per-node rows and timing)."""

import pytest

from repro.pgsim import PgSimDatabase


@pytest.fixture()
def db(fresh_db):
    fresh_db.execute("CREATE TABLE t (id int, vec float[])")
    for i in range(40):
        fresh_db.execute(f"INSERT INTO t VALUES ({i}, '{i}.0,{2 * i}.0'::PASE)")
    return fresh_db


def _lines(db, sql):
    return [r[0] for r in db.execute(sql).rows]


class TestExplainAnalyze:
    def test_plain_explain_has_no_actuals(self, db):
        lines = _lines(db, "EXPLAIN SELECT id FROM t")
        assert not any("actual" in line for line in lines)

    def test_seqscan_counts_rows(self, db):
        lines = _lines(db, "EXPLAIN ANALYZE SELECT id FROM t")
        scan = next(line for line in lines if "Seq Scan" in line)
        assert "actual rows=40" in scan
        assert lines[-1].startswith("Execution: 40 rows")

    def test_filter_counts_survivors(self, db):
        lines = _lines(db, "EXPLAIN ANALYZE SELECT id FROM t WHERE id < 7")
        filt = next(line for line in lines if "Filter" in line)
        assert "actual rows=7" in filt

    def test_limit_stops_early(self, db):
        lines = _lines(db, "EXPLAIN ANALYZE SELECT id FROM t LIMIT 3")
        limit = next(line for line in lines if "Limit" in line)
        assert "actual rows=3" in limit
        # The scan below it was only pulled 3 times (pipelined).
        scan = next(line for line in lines if "Seq Scan" in line)
        assert "actual rows=3" in scan

    def test_index_scan_annotated(self, db):
        db.execute(
            "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
            "WITH (clusters = 4, sample_ratio = 1.0, seed = 1)"
        )
        lines = _lines(
            db,
            "EXPLAIN ANALYZE SELECT id FROM t ORDER BY vec <-> '0.0,0.0'::PASE LIMIT 5",
        )
        scan = next(line for line in lines if "Index Scan" in line)
        assert "actual rows=5" in scan
        assert "time=" in scan

    def test_aggregate_annotated(self, db):
        lines = _lines(db, "EXPLAIN ANALYZE SELECT count(*) FROM t")
        agg = next(line for line in lines if "Aggregate" in line)
        assert "actual rows=1" in agg

    def test_timings_are_nested_consistently(self, db):
        lines = _lines(db, "EXPLAIN ANALYZE SELECT id FROM t WHERE id < 100 LIMIT 50")

        def time_of(fragment):
            line = next(l for l in lines if fragment in l)
            return float(line.split("time=")[1].split(" ms")[0])

        # A parent's time includes its child's.
        assert time_of("Limit") >= time_of("Filter") * 0.5

    def test_analyze_insert_runs_and_annotates(self, db):
        lines = _lines(db, "EXPLAIN ANALYZE INSERT INTO t VALUES (99, '1.0,1.0'::PASE)")
        assert lines[0].startswith("Insert on t")
        assert "actual rows=1" in lines[0]
        assert lines[-1].startswith("Execution: 1 rows")
        # ANALYZE really executes: the row is in the table.
        assert db.query("SELECT count(*) FROM t WHERE id = 99") == [(1,)]

    def test_analyze_delete_runs(self, db):
        lines = _lines(db, "EXPLAIN ANALYZE DELETE FROM t WHERE id = 3")
        assert lines[0].startswith("Delete on t")
        assert "actual rows=1" in lines[0]
        assert db.query("SELECT count(*) FROM t WHERE id = 3") == [(0,)]

    def test_analyze_on_unsupported_statement_rejected(self, db):
        from repro.pgsim.executor import ExecutionError

        with pytest.raises(ExecutionError):
            db.execute("EXPLAIN ANALYZE CREATE TABLE u (id int)")

    def test_buffers_requires_analyze(self, db):
        from repro.pgsim.executor import ExecutionError

        with pytest.raises(ExecutionError):
            db.execute("EXPLAIN (BUFFERS) SELECT id FROM t")

    def test_analyze_buffers_per_node(self, db):
        lines = _lines(db, "EXPLAIN (ANALYZE, BUFFERS) SELECT id FROM t")
        buffers = [line for line in lines if "Buffers:" in line]
        assert buffers, lines
        assert all("hits=" in line and "misses=" in line for line in buffers)


class TestExplainTiming:
    """``TIMING`` follows PostgreSQL's grammar: it defaults to on under
    ANALYZE, can be switched off, and TIMING *on* without ANALYZE is an
    error (TIMING off without ANALYZE is accepted, as in PG)."""

    def test_timing_off_drops_times(self, db):
        lines = _lines(db, "EXPLAIN (ANALYZE, TIMING off) SELECT id FROM t")
        assert not any("time=" in line for line in lines)
        scan = next(line for line in lines if "Seq Scan" in line)
        assert "(actual rows=40)" in scan
        assert lines[-1] == "Execution: 40 rows"

    def test_timing_defaults_on_under_analyze(self, db):
        lines = _lines(db, "EXPLAIN (ANALYZE) SELECT id FROM t")
        assert any("time=" in line for line in lines)
        assert "ms" in lines[-1]

    def test_timing_on_requires_analyze(self, db):
        from repro.pgsim.executor import ExecutionError

        for sql in (
            "EXPLAIN (TIMING) SELECT id FROM t",
            "EXPLAIN (TIMING on) SELECT id FROM t",
        ):
            with pytest.raises(ExecutionError, match="TIMING"):
                db.execute(sql)

    def test_timing_off_without_analyze_allowed(self, db):
        lines = _lines(db, "EXPLAIN (TIMING off) SELECT id FROM t")
        assert not any("actual" in line for line in lines)

    def test_timing_off_for_dml(self, db):
        lines = _lines(db, "EXPLAIN (ANALYZE, TIMING off) DELETE FROM t WHERE id = 3")
        assert "(actual rows=1)" in lines[0]
        assert not any("time=" in line for line in lines)


class TestExplainTrace:
    """``EXPLAIN (ANALYZE, TRACE)`` — span-backed RC#1–RC#7 attribution."""

    @pytest.fixture()
    def indexed_db(self, db):
        db.execute(
            "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
            "WITH (clusters = 4, sample_ratio = 1.0, seed = 1)"
        )
        return db

    KNN_SQL = (
        "EXPLAIN (ANALYZE, TRACE) "
        "SELECT id FROM t ORDER BY vec <-> '0.0,0.0'::PASE LIMIT 5"
    )

    def test_trace_requires_analyze(self, db):
        from repro.pgsim.executor import ExecutionError

        with pytest.raises(ExecutionError, match="TRACE"):
            db.execute("EXPLAIN (TRACE) SELECT id FROM t")

    def test_trace_appends_rc_breakdown(self, indexed_db):
        lines = _lines(indexed_db, self.KNN_SQL)
        assert any("Root-cause attribution (spans):" in line for line in lines)
        body = "\n".join(lines)
        # The paper's memory-management cost (RC#2) shows up on any
        # index-backed KNN query; the executor itself books to RC#3.
        assert "RC#2 Memory Management" in body
        assert "RC#3 Parallel Execution" in body
        assert any("Total attributed" in line for line in lines)
        assert lines[-1].startswith("Trace: ")

    def test_trace_on_seqscan_query(self, db):
        """TRACE without a vector index still attributes executor time."""
        lines = _lines(db, "EXPLAIN (ANALYZE, TRACE) SELECT id FROM t WHERE id < 7")
        assert any("RC#3 Parallel Execution" in line for line in lines)
        assert any(line.startswith("Trace: ") for line in lines)

    @pytest.mark.parametrize("batch_mode", ["off", "on"])
    def test_trace_attribution_reconciles_with_elapsed(self, indexed_db, batch_mode):
        """Acceptance bar: bucket times sum to within 5% of elapsed on
        both executor paths."""
        indexed_db.execute(f"SET enable_batch_exec = {batch_mode}")
        try:
            lines = _lines(indexed_db, self.KNN_SQL)
        finally:
            indexed_db.execute("SET enable_batch_exec = off")

        exec_line = next(line for line in lines if line.startswith("Execution: "))
        elapsed_ms = float(exec_line.split(" in ")[1].split(" ms")[0])
        total_line = next(line for line in lines if "Total attributed" in line)
        attributed_ms = float(total_line.split("%")[1].split("ms")[0])
        assert attributed_ms == pytest.approx(elapsed_ms, rel=0.05)
        covered = float(
            next(line for line in lines if line.startswith("Trace: "))
            .split(", ")[1]
            .split("%")[0]
        )
        assert covered > 95.0

    def test_trace_restores_profilers(self, indexed_db):
        """TRACE must not leave the AM or executor instrumented."""
        from repro.common.profiling import NULL_PROFILER

        indexed_db.execute(self.KNN_SQL)
        am = indexed_db.catalog.find_index("ix").am
        assert am.profiler is NULL_PROFILER or not am.profiler.enabled
        assert not indexed_db.executor.trace_profiler.enabled

    def test_last_trace_exposes_spans(self, indexed_db):
        import json

        indexed_db.execute(self.KNN_SQL)
        profiler = indexed_db.executor.last_trace
        assert profiler is not None and profiler.spans
        doc = json.loads(profiler.to_chrome_trace())
        names = {e["name"] for e in doc["traceEvents"]}
        assert "Executor" in names

    def test_span_cap_leaves_attribution_exact(self, monkeypatch):
        """Dropping spans past the cap (auto_explain, long traces) must
        not move time between root causes: attribution reads the
        section totals, which are the same with or without a cap."""
        import time

        import numpy as np

        from repro.common.profiling import DEFAULT_MAX_SPANS
        from repro.core.rc_attribution import attribute_profile
        from repro.core.study import GeneralizedVectorDB
        from repro.pgsim import explain
        from repro.pgsim.sql import parse_sql

        rng = np.random.default_rng(7)
        gen = GeneralizedVectorDB()
        gen.load(rng.standard_normal((2000, 16)).astype(np.float32))
        gen.create_index("ivf_flat", clusters=16, sample_ratio=0.5, seed=1)
        gen.db.execute("SET pase.nprobe = 8")
        literal = ",".join(f"{x:.4f}" for x in rng.standard_normal(16))
        (stmt,) = parse_sql(
            f"SELECT id FROM vectors ORDER BY vec <-> '{literal}'::PASE LIMIT 10"
        )
        ex = gen.db.executor
        plan = ex.plan_select(stmt)
        ex.run_plan(plan)  # warm the buffer pool: both traced runs hit
        # One tick per clock read makes both runs' timings identical.
        ticks = iter(range(10**9))
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))

        def traced(max_spans):
            profiler, restore = explain.begin_trace(ex, plan, max_spans=max_spans)
            try:
                ex.run_plan(plan)
            finally:
                restore()
            return profiler

        capped, full = traced(50), traced(DEFAULT_MAX_SPANS)
        assert capped.dropped_spans > 1000 and full.dropped_spans == 0
        assert attribute_profile(capped).as_dict() == attribute_profile(full).as_dict()


class TestExplainAnalyzeBatch:
    """Batch-emitting nodes must report the same actual rows as the
    tuple path — counters advance by len(batch) per pull, not by 1."""

    @pytest.fixture()
    def batch_db(self, db):
        db.execute("SET enable_batch_exec = on")
        return db

    def _actual_rows(self, db, sql, fragment):
        lines = _lines(db, sql)
        line = next(line for line in lines if fragment in line)
        return int(line.split("actual rows=")[1].split(" ")[0])

    def test_seqscan_counts_whole_batches(self, batch_db):
        sql = "EXPLAIN ANALYZE SELECT id FROM t"
        assert self._actual_rows(batch_db, sql, "Seq Scan") == 40
        assert _lines(batch_db, sql)[-1].startswith("Execution: 40 rows")

    def test_filter_counts_survivors(self, batch_db):
        sql = "EXPLAIN ANALYZE SELECT id FROM t WHERE id < 7"
        assert self._actual_rows(batch_db, sql, "Filter") == 7

    def test_limit_truncates_final_batch(self, batch_db):
        sql = "EXPLAIN ANALYZE SELECT id FROM t LIMIT 3"
        assert self._actual_rows(batch_db, sql, "Limit") == 3

    def test_aggregate_rows(self, batch_db):
        sql = "EXPLAIN ANALYZE SELECT count(*) FROM t"
        assert self._actual_rows(batch_db, sql, "Aggregate") == 1

    def test_index_scan_batch_annotated(self, batch_db):
        batch_db.execute(
            "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
            "WITH (clusters = 4, sample_ratio = 1.0, seed = 1)"
        )
        lines = _lines(
            batch_db,
            "EXPLAIN ANALYZE SELECT id FROM t ORDER BY vec <-> '0.0,0.0'::PASE LIMIT 5",
        )
        scan = next(line for line in lines if "Index Scan" in line)
        assert "batch" in scan
        assert "actual rows=5" in scan
        assert "time=" in scan

    def test_limit_overshoot_is_at_most_one_batch(self, batch_db):
        """Unlike the tuple path, a batch scan below a Limit emits its
        current batch in full before truncation — the Limit node must
        still report exactly the limit."""
        lines = _lines(batch_db, "EXPLAIN ANALYZE SELECT id FROM t LIMIT 3")
        limit = next(line for line in lines if "Limit" in line)
        assert "actual rows=3" in limit
        scan = next(line for line in lines if "Seq Scan" in line)
        scanned = int(scan.split("actual rows=")[1].split(" ")[0])
        assert 3 <= scanned <= 40
        assert lines[-1].startswith("Execution: 3 rows")

    def test_pre_filter_child_seq_scan_keeps_its_accounting(self, db):
        """The batch pre-filter reads its child's heap itself, column-wise.
        The child Seq Scan still reports the visible tuples as its actual
        rows, the per-node buffer figures still sum to the statement's,
        and the scan pins exactly what the tuple path's scan pins."""
        db.execute(
            "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
            "WITH (clusters = 4, sample_ratio = 1.0, seed = 1)"
        )
        db.execute("DELETE FROM t WHERE id > 30")
        db.execute("SET filtered_search_strategy = 'pre-filter'")
        sql = (
            "EXPLAIN (ANALYZE, BUFFERS) SELECT id FROM t WHERE id < 10 "
            "ORDER BY vec <-> '0.0,0.0'::PASE LIMIT 5"
        )
        stats = db.buffer.stats
        scan_buffers = {}
        for mode in ("off", "on"):
            db.execute(f"SET enable_batch_exec = {mode}")
            before = stats.hits + stats.misses
            lines = _lines(db, sql)
            total = stats.hits + stats.misses - before
            assert "actual rows=5" in next(line for line in lines if "Pre-Filter Scan" in line)
            at = next(i for i, line in enumerate(lines) if "Seq Scan" in line)
            assert "actual rows=31" in lines[at]
            buffers = [
                sum(int(part.split("=")[1]) for part in line.split()[1:])
                for line in lines
                if "Buffers:" in line
            ]
            assert sum(buffers) == total
            scan_buffers[mode] = lines[at + 1]
        assert "Buffers: hits=" in scan_buffers["on"]
        assert scan_buffers["on"] == scan_buffers["off"]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM t",
            "SELECT id FROM t WHERE id < 7",
            "SELECT id FROM t ORDER BY id",
            "SELECT count(*) FROM t",
        ],
    )
    def test_counters_match_tuple_path(self, db, sql):
        """Every per-node 'actual rows=' figure is identical on both
        executor paths (modulo the batch annotation itself). Nodes
        directly below a LIMIT are exempt: the batch path overshoots
        by up to one batch (see test_limit_overshoot_is_at_most_one_batch)."""

        def counters(mode):
            db.execute(f"SET enable_batch_exec = {mode}")
            out = []
            for line in _lines(db, f"EXPLAIN ANALYZE {sql}"):
                if "actual rows=" in line:
                    node = line.split("(actual")[0].strip().replace(" (batch)", "")
                    rows = int(line.split("actual rows=")[1].split(" ")[0])
                    out.append((node, rows))
            return out

        try:
            assert counters("off") == counters("on")
        finally:
            db.execute("SET enable_batch_exec = off")
