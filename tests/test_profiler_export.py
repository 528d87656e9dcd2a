"""Tests for profiler exports, NULL_PROFILER, and counter snapshots."""

import json
import re
import time

import pytest

from repro.common.obs import (
    CounterDeltaMixin,
    IndexScanStats,
    LatencyHistogram,
    latency_summary,
    write_bench_json,
)
from repro.common.profiling import DEFAULT_MAX_SPANS, NULL_PROFILER, Profiler

#: flamegraph.pl accepts ``frame[;frame...] <count>`` — frames split on
#: semicolons, the weight split off at the *last* whitespace run, so
#: frame names may contain spaces.
_COLLAPSED_LINE = re.compile(r"^(?P<stack>.+) (?P<weight>\d+)$")


def _busy(profiler):
    with profiler.section("build"):
        with profiler.section("Distance"):
            pass
        with profiler.section("Tuple Access"):
            pass
    with profiler.section("search"):
        with profiler.section("Distance"):
            pass


class TestNullProfiler:
    def test_enable_raises(self):
        with pytest.raises(TypeError):
            NULL_PROFILER.enabled = True

    def test_disable_is_idempotent(self):
        NULL_PROFILER.enabled = False
        assert not NULL_PROFILER.enabled

    def test_sections_stay_no_ops(self):
        with NULL_PROFILER.section("anything"):
            pass
        assert NULL_PROFILER.total_seconds() == 0.0


class TestProfilerEdgeCases:
    def test_exception_exit_closes_section(self):
        prof = Profiler()
        with pytest.raises(ValueError):
            with prof.section("outer"):
                with prof.section("inner"):
                    raise ValueError("boom")
        # Both sections were closed; reset succeeds and counts recorded.
        assert {r.name: r.calls for r in prof.breakdown(within="outer")}["inner"] == 1
        prof.reset()
        assert prof.total_seconds() == 0.0

    def test_reset_with_open_section_rejected(self):
        prof = Profiler()
        section = prof.section("open")
        section.__enter__()
        with pytest.raises(RuntimeError):
            prof.reset()
        section.__exit__(None, None, None)
        prof.reset()


class TestCollapsedExport:
    def test_empty_profiler_exports_empty(self):
        assert Profiler().to_collapsed() == ""

    def test_grammar_and_frames(self):
        prof = Profiler()
        _busy(prof)
        out = prof.to_collapsed()
        assert out.endswith("\n")
        lines = out.splitlines()
        assert lines  # every recorded path appears
        for line in lines:
            match = _COLLAPSED_LINE.match(line)
            assert match, f"not collapsed-stack grammar: {line!r}"
            assert int(match.group("weight")) >= 1
        stacks = {_COLLAPSED_LINE.match(line).group("stack") for line in lines}
        assert "build;Tuple Access" in stacks  # space inside a frame survives
        assert "search;Distance" in stacks

    def test_zero_time_called_paths_kept_with_weight_one(self):
        prof = Profiler()
        with prof.section("instant"):
            pass
        prof._exclusive[("instant",)] = 0.0  # force the rounding edge
        out = prof.to_collapsed()
        assert out == "instant 1\n"


class TestChromeTraceExport:
    @staticmethod
    def _traced(monkeypatch):
        # One microsecond per clock read: a reproducible timeline.
        ticks = iter(range(1000))
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks) * 1e-6)
        prof = Profiler(max_spans=DEFAULT_MAX_SPANS)
        _busy(prof)
        return prof

    def test_valid_json_with_events(self, monkeypatch):
        doc = json.loads(self._traced(monkeypatch).to_chrome_trace())
        events = doc["traceEvents"]
        assert len(events) == 5  # one per section entry
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 1
            assert {"span_id", "parent_id"} <= set(event["args"])

    def test_children_nest_inside_parents(self, monkeypatch):
        events = json.loads(self._traced(monkeypatch).to_chrome_trace())["traceEvents"]
        by_name = {e["name"]: e for e in events}
        build = by_name["build"]
        tuple_access = by_name["Tuple Access"]
        assert tuple_access["args"]["parent_id"] == build["args"]["span_id"]
        assert build["ts"] <= tuple_access["ts"]
        assert tuple_access["ts"] + tuple_access["dur"] <= build["ts"] + build["dur"]

    def test_deterministic(self, monkeypatch):
        first = self._traced(monkeypatch).to_chrome_trace()
        assert first == self._traced(monkeypatch).to_chrome_trace()


class TestCounterSnapshots:
    def test_index_scan_stats_delta(self):
        stats = IndexScanStats()
        stats.scans, stats.candidates = 2, 100
        before = stats.snapshot()
        stats.scans, stats.candidates = 5, 160
        delta = stats.delta(before)
        assert (delta.scans, delta.candidates) == (3, 60)
        # The snapshot is independent of the live counters.
        assert (before.scans, before.candidates) == (2, 100)

    def test_delta_requires_same_type(self):
        from repro.pgsim.buffer import BufferStats

        with pytest.raises(TypeError):
            BufferStats().delta(IndexScanStats())

    def test_buffer_stats_mixin(self):
        from repro.pgsim.buffer import BufferStats

        stats = BufferStats()
        stats.hits = 7
        stats.misses = 3
        delta = stats.delta(BufferStats())
        assert (delta.hits, delta.misses) == (7, 3)
        assert isinstance(stats, CounterDeltaMixin)
        assert stats.as_dict()["hits"] == 7

    def test_wal_stats_flush_accounting(self):
        from repro.pgsim.wal import WriteAheadLog

        wal = WriteAheadLog()
        before = wal.stats.snapshot()
        wal.log_insert(1, "t", 0, b"payload")
        assert wal.stats.delta(before).records == 1
        assert wal.stats.records_flushed == before.records_flushed
        wal.flush()
        delta = wal.stats.delta(before)
        assert delta.records_flushed == 1
        assert delta.bytes_flushed == delta.bytes_written > 0
        assert delta.flushes == 1
        # Flushing with nothing pending does not inflate the counters.
        wal.flush()
        assert wal.stats.delta(before).flushes == 1


class TestLatencyHistogram:
    def test_percentiles_ordered_and_bounded(self):
        hist = LatencyHistogram()
        for ms in range(1, 101):
            hist.record(ms / 1e3)
        assert hist.count == 100
        assert 0 < hist.p50 <= hist.p95 <= hist.p99 <= hist.max_seconds
        assert hist.p50 == pytest.approx(0.050, rel=0.15)
        assert hist.p99 == pytest.approx(0.100, rel=0.15)

    def test_negative_clamps_empty_is_zero(self):
        hist = LatencyHistogram()
        assert hist.percentile(0.5) == 0.0
        hist.record(-1.0)
        assert hist.count == 1
        assert hist.total_seconds == 0.0

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(1.5)


class TestBenchJson:
    def test_schema_and_roundtrip(self, tmp_path):
        path = write_bench_json(
            "unit_test",
            params={"k": 10},
            latencies_seconds=[0.001, 0.002, 0.003],
            counters={"index": IndexScanStats(scans=3, candidates=90)},
            extra={"note": "roundtrip"},
            out_dir=tmp_path,
        )
        assert path.name == "BENCH_unit_test.json"
        doc = json.loads(path.read_text())
        assert doc["schema"] == "repro-bench/v1"
        assert doc["workload"] == "unit_test"
        assert doc["latency"]["count"] == 3
        assert doc["latency"]["p50_ms"] == pytest.approx(2.0)
        assert doc["counters"]["index"] == {"scans": 3, "candidates": 90}
        assert doc["extra"]["note"] == "roundtrip"

    def test_env_var_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_RESULTS_DIR", str(tmp_path / "out"))
        path = write_bench_json("env_test", latencies_seconds=[0.001])
        assert path.parent == tmp_path / "out"

    def test_empty_latency_summary(self):
        assert latency_summary([]) == {"count": 0}
