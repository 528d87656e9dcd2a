"""Tests for metrics, the profiler, and the parallel scheduler."""

import time

import numpy as np
import pytest

from repro.common import parallel
from repro.common.metrics import LatencyStats, latency_stats, mean_recall_at_k, recall_at_k
from repro.common.obs import LatencyHistogram, latency_summary
from repro.common.profiling import NULL_PROFILER, Profiler
from repro.common.rng import derive_seed, make_rng


class TestRecall:
    def test_perfect_recall(self):
        assert recall_at_k([1, 2, 3], [1, 2, 3], 3) == 1.0

    def test_partial_recall(self):
        assert recall_at_k([1, 9, 8], [1, 2, 3], 3) == pytest.approx(1 / 3)

    def test_order_does_not_matter(self):
        assert recall_at_k([3, 2, 1], [1, 2, 3], 3) == 1.0

    def test_only_first_k_considered(self):
        assert recall_at_k([9, 9, 1, 2], [1, 2, 7], 2) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            recall_at_k([1], [1], 0)

    def test_mean_recall(self):
        truth = np.array([[1, 2], [3, 4]])
        assert mean_recall_at_k([[1, 2], [9, 9]], truth, 2) == pytest.approx(0.5)

    def test_mean_recall_length_mismatch(self):
        with pytest.raises(ValueError):
            mean_recall_at_k([[1]], np.array([[1], [2]]), 1)


class TestLatencyStats:
    def test_basic_stats(self):
        stats = latency_stats([0.001, 0.002, 0.003, 0.004])
        assert stats.count == 4
        assert stats.mean == pytest.approx(0.0025)
        assert stats.total == pytest.approx(0.010)
        assert stats.p50 in (0.002, 0.003)

    def test_qps(self):
        stats = LatencyStats(count=10, mean=0.1, p50=0.1, p95=0.1, p99=0.1, total=1.0)
        assert stats.qps == 10.0
        assert stats.mean_ms == pytest.approx(100.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            latency_stats([])

    def test_percentiles_are_nearest_rank(self):
        stats = latency_stats([ms / 1e3 for ms in range(1, 11)])
        assert (stats.p50, stats.p95, stats.p99) == (0.005, 0.010, 0.010)
        # Even n: the lower middle sample, not the upper one.
        assert latency_stats([0.001, 0.002, 0.003, 0.004]).p50 == 0.002
        assert latency_stats([0.007]).p50 == 0.007

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 20, 99, 100, 101])
    def test_bench_summary_pinned_to_stats(self, n):
        """``BENCH_*.json`` latency blocks use the same rank rule, and
        the histogram's bucket bound lies within one bucket of it."""
        samples = [(7 * i % n + 1) / 1e3 for i in range(n)]
        stats = latency_stats(samples)
        summary = latency_summary(samples)
        hist = LatencyHistogram()
        for value in samples:
            hist.record(value)
        for q, key in ((0.50, "p50"), (0.95, "p95"), (0.99, "p99")):
            exact = getattr(stats, key)
            assert summary[f"{key}_ms"] == exact * 1e3
            assert exact <= hist.percentile(q) <= exact * 10 ** (1 / 20) * (1 + 1e-9)
        assert summary["mean_ms"] == pytest.approx(stats.mean * 1e3)


class TestProfiler:
    def test_exclusive_vs_inclusive(self):
        prof = Profiler()
        with prof.section("outer"):
            time.sleep(0.002)
            with prof.section("inner"):
                time.sleep(0.002)
        exclusive = {r.name: r.seconds for r in prof.breakdown(within="outer")}
        assert prof.inclusive_seconds("outer") >= exclusive["Others"]
        assert exclusive["inner"] >= 0.001
        assert prof.inclusive_seconds("outer") >= 0.003

    def test_breakdown_top_level(self):
        prof = Profiler()
        with prof.section("a"):
            with prof.section("b"):
                pass
        with prof.section("c"):
            pass
        names = {row.name for row in prof.breakdown()}
        assert names == {"a", "c"}

    def test_breakdown_within(self):
        prof = Profiler()
        with prof.section("phase"):
            with prof.section("x"):
                time.sleep(0.001)
            time.sleep(0.001)
        rows = {r.name: r for r in prof.breakdown(within="phase")}
        assert "x" in rows
        assert "Others" in rows
        assert sum(r.fraction for r in rows.values()) == pytest.approx(1.0)

    def test_fractions_sum_to_one(self):
        prof = Profiler()
        for name in ("a", "b", "a"):
            with prof.section(name):
                pass
        assert sum(r.fraction for r in prof.breakdown()) == pytest.approx(1.0)

    def test_call_counts(self):
        prof = Profiler()
        for __ in range(3):
            with prof.section("s"):
                pass
        (row,) = prof.breakdown()
        assert row.calls == 3

    def test_breakdown_calls_exclude_nested_children(self):
        """Regression: nested-child entries must not inflate the parent
        bucket's "calls" column (Table III/V over-reporting)."""
        prof = Profiler()
        with prof.section("top"):
            for __ in range(5):
                with prof.section("child"):
                    pass
        rows = {r.name: r for r in prof.breakdown()}
        assert rows["top"].calls == 1

    def test_breakdown_within_calls_exclude_grandchildren(self):
        prof = Profiler()
        with prof.section("top"):
            with prof.section("child"):
                for __ in range(7):
                    with prof.section("grandchild"):
                        pass
        rows = {r.name: r for r in prof.breakdown(within="top")}
        assert rows["child"].calls == 1

    def test_breakdown_within_self_label_calls(self):
        prof = Profiler()
        for __ in range(4):
            with prof.section("top"):
                with prof.section("child"):
                    pass
        rows = {r.name: r for r in prof.breakdown(within="top")}
        assert rows["child"].calls == 4
        assert rows["Others"].calls == 4

    def test_disabled_profiler_records_nothing(self):
        prof = Profiler(enabled=False)
        with prof.section("x"):
            pass
        assert prof.total_seconds() == 0.0

    def test_null_profiler_shared(self):
        with NULL_PROFILER.section("anything"):
            pass
        assert NULL_PROFILER.total_seconds() == 0.0

    def test_reset_rejects_open_sections(self):
        prof = Profiler()
        ctx = prof.section("open")
        ctx.__enter__()
        with pytest.raises(RuntimeError):
            prof.reset()
        ctx.__exit__(None, None, None)
        prof.reset()
        assert prof.total_seconds() == 0.0

class TestParallelScheduler:
    def test_lpt_balanced(self):
        makespan, loads = parallel.lpt_makespan([1.0] * 8, 4)
        assert makespan == pytest.approx(2.0)
        assert loads == [2.0] * 4

    def test_lpt_single_thread_is_sum(self):
        makespan, __ = parallel.lpt_makespan([0.5, 0.25, 0.25], 1)
        assert makespan == pytest.approx(1.0)

    def test_lpt_empty(self):
        makespan, loads = parallel.lpt_makespan([], 3)
        assert makespan == 0.0

    def test_lpt_invalid_threads(self):
        with pytest.raises(ValueError):
            parallel.lpt_makespan([1.0], 0)

    def test_lock_free_scales_nearly_linearly(self):
        units = [parallel.WorkUnit(0.01) for __ in range(64)]
        curve = parallel.scaling_curve(units, [1, 8])
        speed = parallel.speedups(curve)
        assert speed[8] > 6.0

    def test_lock_heavy_does_not_scale(self):
        # 50k lock ops of 250 ns each vs 10 ms compute: the serial
        # section dominates and grows with contention.
        units = [parallel.WorkUnit(0.0005, serial_ops=2500) for __ in range(20)]
        curve = parallel.scaling_curve(units, [1, 2, 4, 8])
        speed = parallel.speedups(curve)
        assert speed[8] < 2.0
        assert speed[8] <= speed[2] * 1.5

    def test_serial_seconds_grow_with_threads(self):
        units = [parallel.WorkUnit(0.001, serial_ops=1000)]
        r1 = parallel.simulate_schedule(units, 1)
        r8 = parallel.simulate_schedule(units, 8)
        assert r8.serial_seconds > r1.serial_seconds

    def test_speedups_require_baseline(self):
        units = [parallel.WorkUnit(0.001)]
        curve = parallel.scaling_curve(units, [2, 4])
        with pytest.raises(ValueError):
            parallel.speedups(curve)


class TestRng:
    def test_default_seed_stable(self):
        assert make_rng().random() == make_rng().random()

    def test_derive_seed_stable_across_processes(self):
        # crc32-based: this exact value must never change.
        assert derive_seed(7, "base") == derive_seed(7, "base")
        assert derive_seed(7, "base") != derive_seed(7, "query")

    def test_derive_seed_int_salt(self):
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
