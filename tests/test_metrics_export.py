"""Prometheus exporter: exposition round-trip, parser strictness,
and agreement between the scrape, ``pg_stat_history`` and the
``pg_stat_*`` views every metric is generated from."""

import random

import pytest

from repro.common.metrics_export import (
    check_family_name,
    family_name,
    parse_exposition,
    render_metrics,
)
from repro.common.obs import COUNTER, GAUGE
from repro.pgsim import PgSimDatabase
from repro.pgsim.catalog import Catalog
from repro.pgsim.stats import install_stat_views

DIM = 8


def _lit(rng: random.Random) -> str:
    return "[" + ",".join(f"{rng.random():.5f}" for _ in range(DIM)) + "]"


def _workload_db() -> PgSimDatabase:
    rng = random.Random(3)
    db = PgSimDatabase()
    db.execute("CREATE TABLE items (id int, vec float[])")
    for i in range(40):
        db.execute(f"INSERT INTO items VALUES ({i}, '{_lit(rng)}')")
    db.execute(
        "CREATE INDEX ix ON items USING pase_ivfflat (vec) "
        "WITH (clusters = 4, sample_ratio = 1, seed = 42)"
    )
    db.execute("SET vector_quality_probe_rate = 1.0")
    db.execute("SET log_min_duration_statement = 0")
    for _ in range(5):
        db.query(f"SELECT id FROM items ORDER BY vec <-> '{_lit(rng)}' LIMIT 5")
    db.execute("SET log_min_duration_statement = -1")
    return db


class TestExposition:
    def test_scrape_round_trips_through_strict_parser(self):
        db = _workload_db()
        exp = parse_exposition(db.metrics_text())
        assert exp.samples
        # Every sample belongs to a declared family (HELP + TYPE).
        declared = set(exp.types)
        assert declared == set(exp.helps)
        assert {s.name for s in exp.samples} <= declared

    def test_counters_agree_with_stat_views(self):
        db = _workload_db()
        exp = parse_exposition(db.metrics_text())
        for query, calls, rows in db.query(
            "SELECT query, calls, rows FROM pg_stat_statements"
        ):
            assert exp.value("pgsim_statements_calls_total", query=query) == calls
            assert exp.value("pgsim_statements_rows_total", query=query) == rows
        for index, am, probes, _mean, _min, last in db.query(
            "SELECT * FROM pg_stat_vector_quality"
        ):
            assert exp.value("pgsim_vector_quality_probes_total", index=index, am=am) == probes
            assert exp.value("pgsim_vector_quality_last_recall", index=index, am=am) == last
        # The facade's default session is the one backend.
        assert exp.value("pgsim_activity_statements_total", pid="1", name="default") > 0

    def test_statement_latency_is_exported_as_ordered_quantile_gauges(self):
        """No bucketed histogram is emitted: per-query latency is the
        view's p50/p95/p99 columns, in seconds and non-decreasing."""
        db = _workload_db()
        exp = parse_exposition(db.metrics_text())
        assert "histogram" not in exp.types.values()
        query = "select id from items order by vec <-> ? limit ?"
        p50, p95, p99 = (
            exp.value(f"pgsim_statements_{q}_seconds", query=query) for q in ("p50", "p95", "p99")
        )
        assert 0 < p50 <= p95 <= p99
        total_ms = db.query("SELECT query, total_ms FROM pg_stat_statements")
        assert exp.value("pgsim_statements_total_seconds_total", query=query) == (
            dict(total_ms)[query] / 1e3
        )

    def test_scrape_is_read_only(self):
        db = _workload_db()
        first = db.metrics_text()
        second = db.metrics_text()
        assert first == second

    def test_label_escaping_survives_round_trip(self):
        # Normalized statement texts never carry literals, so exercise
        # the writer's escaping directly with a hostile label value.
        from repro.common.metrics_export import _Writer

        hostile = 'he said "hi"\\and\nmore'
        w = _Writer()
        w.family("pgsim_demo_total", "counter", "demo")
        w.sample("pgsim_demo_total", 1, {"query": hostile})
        exp = parse_exposition(w.render())
        assert exp.samples[0].labels["query"] == hostile

    def test_bare_executor_renders_without_session_families(self):
        """The scrape exports exactly the views a catalog registers: a
        catalog with only the core stat views (no session layer) has no
        pg_stat_activity or pg_slow_queries families."""
        db = _workload_db()
        catalog = Catalog()
        install_stat_views(catalog, db.stats, db.xact)
        exp = parse_exposition(render_metrics(catalog))
        assert "pgsim_buffers_hits_total" in exp.types
        assert not any(name.startswith("pgsim_activity_") for name in exp.types)


class TestParserStrictness:
    def test_rejects_malformed_sample(self):
        with pytest.raises(ValueError, match="malformed sample"):
            parse_exposition("pgsim_thing one\n".replace("one", "not a number"))

    def test_rejects_unknown_metric_type(self):
        with pytest.raises(ValueError, match="unknown metric type"):
            parse_exposition("# TYPE pgsim_thing timer\npgsim_thing 1\n")

    def test_rejects_bad_value(self):
        with pytest.raises(ValueError, match="bad sample value"):
            parse_exposition("pgsim_thing fast\n")

    def test_rejects_non_cumulative_histogram(self):
        payload = (
            "# HELP h h\n"
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            'h_bucket{le="1"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_sum 1.0\n"
            "h_count 5\n"
        )
        with pytest.raises(ValueError, match="bucket le=1"):
            parse_exposition(payload)

    def test_rejects_missing_inf_bucket(self):
        payload = (
            "# HELP h h\n"
            "# TYPE h histogram\n"
            'h_bucket{le="0.1"} 5\n'
            "h_sum 1.0\n"
            "h_count 5\n"
        )
        with pytest.raises(ValueError, match=r"missing \+Inf"):
            parse_exposition(payload)

    def test_rejects_count_mismatch(self):
        payload = (
            "# HELP h h\n"
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_sum 1.0\n"
            "h_count 5\n"
        )
        with pytest.raises(ValueError, match="!= _count"):
            parse_exposition(payload)

    def test_label_escapes(self):
        exp = parse_exposition('m{q="a\\"b\\\\c\\nd"} 1\n')
        assert exp.samples[0].labels["q"] == 'a"b\\c\nd'


class TestNamingConventions:
    """Prometheus naming rules, enforced at both ends of the pipe."""

    def test_writer_rejects_counter_without_total(self):
        from repro.common.metrics_export import _Writer

        w = _Writer()
        with pytest.raises(ValueError, match="must end in '_total'"):
            w.family("pgsim_requests", "counter", "bad counter name")

    def test_writer_rejects_non_base_unit_suffix(self):
        from repro.common.metrics_export import _Writer

        w = _Writer()
        with pytest.raises(ValueError, match="non-base unit suffix"):
            w.family("pgsim_latency_ms", "gauge", "milliseconds are not a base unit")
        with pytest.raises(ValueError, match="non-base unit suffix"):
            w.family("pgsim_wal_kb_total", "counter", "kilobytes are not a base unit")

    def test_parser_rejects_convention_violations(self):
        with pytest.raises(ValueError, match="must end in '_total'"):
            parse_exposition("# HELP m m\n# TYPE m counter\nm 1\n")
        with pytest.raises(ValueError, match="non-base unit suffix"):
            parse_exposition("# HELP m_ms m\n# TYPE m_ms gauge\nm_ms 1\n")

    def test_every_exported_family_conforms(self):
        from repro.common.metrics_export import check_family_name

        exp = parse_exposition(_workload_db().metrics_text())
        for name, metric_type in exp.types.items():
            check_family_name(name, metric_type)  # raises on violation


class TestLegacyRenames:
    """Hand-written families are gone; only the generated names resolve."""

    def test_renamed_series_resolve_and_old_names_are_absent(self):
        db = _workload_db()
        exp = parse_exposition(db.metrics_text())
        for old in (
            "pgsim_index_recall_last_ratio",
            "pgsim_index_recall_ratio_count",
            "pgsim_buffer_ops_total",
            "pgsim_heap_tuples_total",
            "pgsim_statement_duration_seconds_count",
            "pgsim_backends",
            "pgsim_slow_queries_total",
        ):
            assert not exp.family(old), old
        labels = {"index": "ix", "am": "pase_ivfflat"}
        assert exp.value("pgsim_vector_quality_last_recall", **labels) is not None
        assert exp.value("pgsim_vector_quality_probes_total", **labels) == 5
        assert exp.value("pgsim_database_tup_inserted_total") == 40

    def test_unknown_names_still_miss(self):
        exp = parse_exposition(_workload_db().metrics_text())
        assert exp.value("pgsim_index_recall_nonsense") is None


class TestCli:
    def test_metrics_subcommand_writes_parseable_file(self, tmp_path, capsys):
        from repro.bench.cli import main

        out = tmp_path / "metrics.prom"
        code = main(
            ["metrics", "--out", str(out), "--rows", "30", "--queries", "4"]
        )
        assert code == 0
        exp = parse_exposition(out.read_text())
        assert exp.value("pgsim_database_tup_deleted_total") > 0
        assert any(s.name == "pgsim_vector_quality_probes_total" for s in exp.samples)
        assert "samples" in capsys.readouterr().out

    def test_metrics_subcommand_stdout(self, capsys):
        from repro.bench.cli import main

        assert main(["metrics", "--rows", "20", "--queries", "2"]) == 0
        exp = parse_exposition(capsys.readouterr().out)
        assert exp.value("pgsim_wal_records_total") > 0


def _metric_views() -> list[str]:
    db = PgSimDatabase()
    catalog = db.catalog
    db.close()
    return [n for n in catalog.view_names() if catalog.view(n).columns_of(COUNTER, GAUGE)]


def _history_label(view, row) -> str:
    return ",".join(f"{k}={v}" for k, v in view.row_labels(row))


@pytest.fixture(scope="module")
def surfaces(tmp_path_factory):
    """One scripted workload observed through every surface.

    A file-backed table with a small buffer pool (so reads, evictions
    and WAL waits happen), ticked into ``pg_stat_history`` between two
    halves of: INSERT/UPDATE/DELETE, COMMIT and ROLLBACK, KNN with
    recall probes, one hybrid query per filtered-search strategy,
    VACUUM and estimation probes.  Returns the database, each metric
    view's rows at both ticks, the second tick's history rows and the
    scrape taken right after it.
    """
    rng = random.Random(11)
    db = PgSimDatabase(data_dir=tmp_path_factory.mktemp("surfaces"), buffer_pool_pages=16)
    db.execute("CREATE TABLE items (id int, tag int, vec float[])")
    db.execute("SET vector_quality_probe_rate = 1.0")
    db.execute("SET estimation_probe_rate = 1.0")

    def workload(first_id: int) -> None:
        for i in range(first_id, first_id + 60):
            db.execute(f"INSERT INTO items VALUES ({i}, {i % 10}, '{_lit(rng)}')")
        if first_id == 0:
            db.execute(
                "CREATE INDEX ix ON items USING pase_ivfflat (vec) "
                "WITH (clusters = 4, sample_ratio = 1, seed = 42)"
            )
            db.execute("ANALYZE items")
        db.execute(f"UPDATE items SET tag = 11 WHERE id < {first_id + 5}")
        db.execute(f"DELETE FROM items WHERE id >= {first_id + 55}")
        db.execute(f"BEGIN; INSERT INTO items VALUES (-1, 0, '{_lit(rng)}'); COMMIT")
        db.execute(f"BEGIN; INSERT INTO items VALUES (-2, 0, '{_lit(rng)}'); ROLLBACK")
        for _ in range(3):
            db.query(f"SELECT id FROM items ORDER BY vec <-> '{_lit(rng)}' LIMIT 5")
        for strategy in ("pre-filter", "post-filter", "in-filter"):
            db.execute(f"SET filtered_search_strategy = '{strategy}'")
            db.query(f"SELECT id FROM items WHERE tag < 3 ORDER BY vec <-> '{_lit(rng)}' LIMIT 5")
        db.execute("SET filtered_search_strategy = 'auto'")
        db.execute("VACUUM items")

    def snapshot() -> dict[str, list[tuple]]:
        return {name: db.catalog.view(name).rows() for name in _metric_views()}

    workload(0)
    db.stat_history.tick(now=1.0)
    before = snapshot()
    workload(100)
    db.stat_history.tick(now=2.0)
    after = snapshot()
    history = {(r[1], r[2]): r for r in db.stat_history.rows() if r[0] == 2.0}
    exp = parse_exposition(db.metrics_text())
    yield db, before, after, history, exp
    db.close()


class TestGeneratedSurfaces:
    """Each metric cell surfaces identically in its view, the scrape
    and the history ring, under one generated name."""

    def test_metric_views_include_filtered_search_and_database(self):
        views = _metric_views()
        assert {"pg_stat_filtered_search", "pg_stat_database"} <= set(views)

    @pytest.mark.parametrize("view_name", _metric_views())
    def test_view_scrape_and_history_agree(self, surfaces, view_name):
        db, before, after, history, exp = surfaces
        view = db.catalog.view(view_name)
        rows = after[view_name]
        assert rows, f"the workload left {view_name} empty"
        keys = [_history_label(view, row) for row in rows]
        assert len(set(keys)) == len(keys), "label sets must be unique"
        previous = {_history_label(view, row): row for row in before[view_name]}
        for i, column in view.columns_of(COUNTER, GAUGE):
            kind = view.kinds[i]
            name = family_name(view_name, column, kind)
            check_family_name(name, kind)
            assert exp.types[name] == kind
            cells = [row for row in rows if row[i] is not None]
            assert len(exp.family(name)) >= len(cells)
            for row in cells:
                labels = {k: str(v) for k, v in view.row_labels(row)}
                want = row[i] / 1e3 if column.endswith("_ms") else row[i]
                assert exp.value(name, **labels) == want, (name, labels)
                if kind == COUNTER:
                    key = _history_label(view, row)
                    old = previous.get(key)
                    moved = row[i] - (old[i] if old is not None and old[i] is not None else 0)
                    assert history[(f"{view_name}.{column}", key)][4] == moved, (column, key)


class TestStatDatabase:
    def _read(self, db):
        (row,) = db.query("SELECT * FROM pg_stat_database")
        exp = parse_exposition(db.metrics_text())
        scraped = (
            exp.value("pgsim_database_xact_commit_total"),
            exp.value("pgsim_database_xact_rollback_total"),
        )
        return row[:2], scraped

    def test_commit_and_rollback_move_xact_counters(self):
        db = PgSimDatabase()
        db.execute("CREATE TABLE t (id int)")
        for now, block, moved in (
            (2.0, "COMMIT", (1, 0)),
            (3.0, "ROLLBACK", (0, 1)),
        ):
            db.stat_history.tick(now=now - 0.5)
            view0, scrape0 = self._read(db)
            db.execute(f"BEGIN; INSERT INTO t VALUES (1); {block}")
            db.stat_history.tick(now=now)
            view1, scrape1 = self._read(db)
            assert tuple(b - a for a, b in zip(view0, view1)) == moved
            assert tuple(b - a for a, b in zip(scrape0, scrape1)) == moved
            deltas = {r[1]: r[4] for r in db.stat_history.rows() if r[0] == now}
            assert (
                deltas["pg_stat_database.xact_commit"],
                deltas["pg_stat_database.xact_rollback"],
            ) == moved

    def test_tuple_traffic_matches_query_stats(self):
        db = PgSimDatabase()
        db.execute("CREATE TABLE t (id int, v int)")
        columns = ["tup_fetched", "tup_inserted", "tup_updated", "tup_deleted"]
        sql = "SELECT tup_fetched, tup_inserted, tup_updated, tup_deleted FROM pg_stat_database"
        (before,) = db.query(sql)
        results = [db.execute(f"INSERT INTO t VALUES ({i}, 0)") for i in range(12)]
        results.append(db.execute("UPDATE t SET v = 1 WHERE id < 4"))
        results.append(db.execute("DELETE FROM t WHERE id > 9"))
        results.append(db.execute("SELECT id FROM t WHERE v = 1"))
        (after,) = db.query(sql)
        for pos, column in enumerate(columns):
            field = column.replace("tup_", "tuples_")
            counted = sum(getattr(r.stats.heap, field) for r in results)
            assert after[pos] - before[pos] == counted, column
        assert after[1] - before[1] == 12
