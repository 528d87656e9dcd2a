"""Prometheus exporter: exposition round-trip, parser strictness,
and agreement between the scrape and the SQL-visible stat views."""

import random

import pytest

from repro.common.metrics_export import MetricsRegistry, parse_exposition
from repro.pgsim import PgSimDatabase

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
        text = db.metrics_text()
        exp = parse_exposition(text)
        assert exp.samples
        # Every sample belongs to a declared family (HELP + TYPE).
        declared = set(exp.types)
        assert declared == set(exp.helps)
        for sample in exp.samples:
            base = sample.name
            for suffix in ("_bucket", "_sum", "_count"):
                if base.endswith(suffix) and base.removesuffix(suffix) in declared:
                    base = base.removesuffix(suffix)
                    break
            assert base in declared, sample.name

    def test_counters_agree_with_stat_views(self):
        db = _workload_db()
        exp = parse_exposition(db.metrics_text())
        # pg_stat_statements vs statement counters.
        for query, calls, rows in db.query(
            "SELECT query, calls, rows FROM pg_stat_statements"
        ):
            assert exp.value("pgsim_statement_calls_total", query=query) == calls
            assert exp.value("pgsim_statement_rows_total", query=query) == rows
        # pg_stat_vector_quality vs the recall histogram series.
        for row in db.query("SELECT * FROM pg_stat_vector_quality"):
            index, am, probes, _mean, _min, last = row
            assert (
                exp.value("pgsim_index_recall_ratio_count", index=index, am=am)
                == probes
            )
            assert (
                exp.value("pgsim_index_recall_last_ratio", index=index, am=am) == last
            )
        # Slow-query ring vs its gauge/counter pair.
        assert exp.value("pgsim_slow_queries_total") == db.slowlog.total_logged
        assert exp.value("pgsim_slow_queries_retained") == len(db.slowlog.records())
        # Live backends: exactly the facade's default session, idle.
        assert exp.value("pgsim_backends", state="idle") == 1.0

    def test_histogram_series_are_cumulative(self):
        db = _workload_db()
        exp = parse_exposition(db.metrics_text())
        buckets = [
            s
            for s in exp.samples
            if s.name == "pgsim_statement_duration_seconds_bucket"
        ]
        assert buckets
        values = [s.value for s in buckets]  # emitted in ascending-le order
        assert values == sorted(values)
        assert buckets[-1].labels["le"] == "+Inf"
        assert buckets[-1].value == exp.value("pgsim_statement_duration_seconds_count")

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
        """The registry is duck-typed: no activity/slowlog attributes
        means those families are skipped, not an AttributeError."""

        class Shim:
            def __init__(self, db):
                self.stats = db.stats

        db = _workload_db()
        text = MetricsRegistry(Shim(db)).render()
        exp = parse_exposition(text)
        assert exp.value("pgsim_slow_queries_total") is None
        assert "pgsim_buffer_ops_total" in exp.types


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
    """The recall family is scraped under its base-unit names only."""

    def test_renamed_series_resolve_and_old_names_are_absent(self):
        db = _workload_db()
        exp = parse_exposition(db.metrics_text())
        assert not any(s.name.startswith("pgsim_index_recall_last ") for s in exp.samples)
        assert not any(s.name == "pgsim_index_recall_count" for s in exp.samples)
        new_last = exp.value("pgsim_index_recall_last_ratio", index="ix", am="pase_ivfflat")
        new_count = exp.value("pgsim_index_recall_ratio_count", index="ix", am="pase_ivfflat")
        assert new_last is not None and new_count is not None

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
        assert exp.value("pgsim_slow_queries_total") > 0
        assert any(s.name == "pgsim_index_recall_ratio_count" for s in exp.samples)
        assert "samples" in capsys.readouterr().out

    def test_metrics_subcommand_stdout(self, capsys):
        from repro.bench.cli import main

        assert main(["metrics", "--rows", "20", "--queries", "2"]) == 0
        exp = parse_exposition(capsys.readouterr().out)
        assert exp.value("pgsim_wal_records_total") > 0
