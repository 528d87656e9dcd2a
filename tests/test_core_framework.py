"""Tests for root causes, ablations, guidelines, and report rendering."""

import pytest

from repro.common.profiling import BreakdownRow
from repro.core import ablation, guidelines, report
from repro.core.root_causes import ROOT_CAUSES, Phase, RootCause, causes_for, summary_table
from repro.core.study import ComparativeStudy


class TestRootCauses:
    def test_all_seven_present(self):
        assert len(ROOT_CAUSES) == 7
        assert {c.value for c in ROOT_CAUSES} == set(range(1, 8))

    def test_info_accessor(self):
        info = RootCause.SGEMM.info
        assert info.title == "SGEMM Optimization"
        assert info.affects == Phase.BUILD

    def test_all_bridgeable(self):
        """The paper's headline: no fundamental limitations."""
        assert all(info.bridgeable for info in ROOT_CAUSES.values())

    def test_causes_for_hnsw_size(self):
        causes = causes_for("hnsw", Phase.SIZE)
        assert [c.cause for c in causes] == [RootCause.PAGE_STRUCTURE]

    def test_causes_for_ivf_pq_search(self):
        names = {c.cause for c in causes_for("ivf_pq", Phase.SEARCH)}
        assert RootCause.PRECOMPUTED_TABLE in names
        assert RootCause.HEAP_SIZE in names
        assert RootCause.SGEMM not in names

    def test_summary_table_mentions_every_cause(self):
        text = summary_table()
        for i in range(1, 8):
            assert f"RC#{i}" in text


class TestAblationRegistry:
    def test_togglable_causes(self):
        togglable = set(ablation.SWITCHES)
        assert togglable == {
            RootCause.SGEMM,
            RootCause.KMEANS_IMPLEMENTATION,
            RootCause.HEAP_SIZE,
            RootCause.PRECOMPUTED_TABLE,
        }

    @pytest.mark.parametrize(
        "cause",
        [RootCause.MEMORY_MANAGEMENT, RootCause.PARALLEL_EXECUTION, RootCause.PAGE_STRUCTURE],
        ids=lambda cause: cause.name,
    )
    def test_architectural_causes_raise(self, small_dataset, cause):
        """RC#2-RC#4 have no toggle: the profiler, parallelism and size
        figures measure them instead."""
        with pytest.raises(KeyError):
            ablation.run_ablation(cause, small_dataset, {})

    def test_sgemm_ablation_closes_build_gap(self, medium_dataset):
        result = ablation.run_ablation(
            RootCause.SGEMM,
            medium_dataset,
            {"clusters": 20, "sample_ratio": 0.2, "seed": 6},
        )
        assert result.metric == "build"
        assert result.gap_without_cause < result.gap_with_cause
        assert result.gap_closed_fraction > 0.3

    def test_kmeans_ablation_is_paired_and_restores_the_trained_index(self, small_dataset):
        """RC#5's transplant keeps the Faiss-trained index, so its restore
        puts it back and the row pairs like the setting toggles."""
        params = {"clusters": 8, "sample_ratio": 0.5, "seed": 1}
        switch = ablation.SWITCHES[RootCause.KMEANS_IMPLEMENTATION]
        study = ComparativeStudy(small_dataset, "ivf_flat", params)
        study.compare_build()
        trained = study.specialized.index
        switch.neutralize(study)
        assert study.specialized.index is not trained
        switch.restore(study)
        assert study.specialized.index is trained
        result = ablation.run_ablation(
            RootCause.KMEANS_IMPLEMENTATION, small_dataset, params, nprobe=8, n_queries=3, pairs=3
        )
        assert len(result.pair_ratios) == 3

    def test_heap_ablation_runs(self, small_dataset):
        result = ablation.run_ablation(
            RootCause.HEAP_SIZE,
            small_dataset,
            {"clusters": 8, "sample_ratio": 0.5, "seed": 1},
            k=10,
            nprobe=8,
            n_queries=4,
        )
        assert result.gap_with_cause > 0
        assert result.gap_without_cause > 0


class TestGuidelines:
    def test_five_steps(self):
        assert [g.step for g in guidelines.GUIDELINES] == [1, 2, 3, 4, 5]

    def test_specialized_profile_scores_full(self):
        result = guidelines.evaluate(guidelines.SPECIALIZED_PROFILE)
        assert result.score == result.total == 5

    def test_pase_profile_scores_zero(self):
        result = guidelines.evaluate(guidelines.PASE_PROFILE)
        assert result.score == 0

    def test_partial_profile(self):
        result = guidelines.evaluate({"uses_sgemm": True, "k_sized_heap": True})
        assert result.score == 2
        missing_steps = {g.step for g in result.missing}
        assert missing_steps == {1, 4, 5}

    def test_every_root_cause_addressed_by_some_step(self):
        covered = {c for g in guidelines.GUIDELINES for c in g.addresses}
        assert covered == set(RootCause)

    def test_report_render(self):
        text = guidelines.evaluate(guidelines.SPECIALIZED_PROFILE).report()
        assert "[x] Step#1" in text
        text = guidelines.evaluate({}).report()
        assert "[ ] Step#2" in text and "RC#1" in text


class TestReport:
    def test_format_seconds(self):
        assert report.format_seconds(5e-7) == "0.5us"
        assert report.format_seconds(2.5e-3) == "2.50ms"
        assert report.format_seconds(3.0) == "3.00s"

    def test_format_bytes(self):
        assert report.format_bytes(512) == "512.0B"
        assert report.format_bytes(2048) == "2.0KiB"
        assert report.format_bytes(3 * 1024**2) == "3.0MiB"

    def test_render_table_alignment(self):
        text = report.render_table(["a", "bb"], [["x", "y"], ["long", "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[1].startswith("-")

    def test_grouped_series_with_gap(self):
        text = report.render_grouped_series(
            "t", ["d1", "d2"], {"A": [2.0, 4.0], "B": [1.0, 1.0]}, gap_of=("A", "B")
        )
        assert "2.0x" in text and "4.0x" in text

    def test_grouped_series_length_check(self):
        with pytest.raises(ValueError):
            report.render_grouped_series("t", ["d1"], {"A": [1.0, 2.0]})

    def test_render_breakdown_folds_others(self):
        rows = {
            "sys": [
                BreakdownRow("keep", 0.9, 0.9, 1),
                BreakdownRow("fold", 0.1, 0.1, 1),
            ]
        }
        text = report.render_breakdown("t", rows, columns=("keep",))
        assert "keep" in text and "Others" in text and "90.00%" in text
