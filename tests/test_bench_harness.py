"""Tests for the benchmark harness (runner, registry, CLI plumbing)."""

import pytest

from repro.bench import EXPERIMENTS, run_experiment
from repro.bench.runner import (
    ALL_DATASETS,
    HNSW_DATASETS,
    bench_dataset,
    default_params,
    timed,
)
from repro.common import kmeans
from repro.core.ablation import SWITCHES
from repro.core.root_causes import RootCause
from repro.core.study import make_specialized_index

#: Tiny scale so harness smoke tests stay fast.
TINY = 0.0006


class TestRegistry:
    def test_every_paper_artifact_covered(self):
        """Figs. 2-19 (except the architecture diagram Fig. 1) and
        Tables III-V all have an experiment."""
        expected = {f"fig{i}" for i in range(2, 20)} | {
            "tab3",
            "tab4",
            "tab5",
            "ablation",
            "recall",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_dataset_lists(self):
        assert len(ALL_DATASETS) == 6
        assert set(HNSW_DATASETS) <= set(ALL_DATASETS)


class TestRunner:
    def test_timed_protocol(self):
        calls = []
        mean, result = timed(lambda: calls.append(1) or len(calls), repeats=3, warmup=1)
        assert len(calls) == 4  # 1 warmup + 3 timed
        assert result == 4
        assert mean >= 0

    def test_default_params_ivf(self):
        ds = bench_dataset("sift1m", scale=0.001)
        params = default_params(ds, "ivf_flat")
        assert params["clusters"] == pytest.approx(ds.n**0.5, rel=0.1)
        assert 0 < params["sample_ratio"] <= 1

    def test_default_params_pq_uses_profile_m(self):
        ds = bench_dataset("gist1m", scale=0.001)
        params = default_params(ds, "ivf_pq")
        assert params["m"] == 60  # Table II's GIST1M value
        assert ds.dim % params["m"] == 0

    def test_default_params_hnsw(self):
        ds = bench_dataset("sift1m", scale=0.001)
        params = default_params(ds, "hnsw")
        assert params == {"seed": 42, "bnn": 16, "efb": 40}


class TestExperimentSmoke:
    """Each experiment runs end-to-end at micro scale and reports the
    right structure.  (Shape assertions live in benchmarks/.)"""

    def test_fig3_structure(self):
        result = run_experiment("fig3", scale=TINY, datasets=("sift1m",))
        assert result.exp_id == "fig3"
        assert "PASE total" in result.data["series"]
        assert len(result.data["series"]["Faiss add"]) == 1
        assert "gap" in result.rendered

    def test_fig11_structure(self):
        result = run_experiment("fig11", scale=TINY, datasets=("deep1m",))
        assert result.data["series"]["PASE"][0] > 0

    def test_fig14_structure(self):
        result = run_experiment("fig14", scale=TINY, datasets=("sift1m",))
        assert result.data["series"]["PASE"][0] > result.data["series"]["Faiss"][0] * 0

    def test_tab5_structure(self):
        result = run_experiment("tab5", scale=TINY)
        assert "PASE" in result.data and "Faiss" in result.data
        assert "fvec_L2sqr" in result.data["PASE"]

    def test_fig18_structure(self):
        """Structure only: the curves schedule *measured* unit costs, so
        which one is steeper is a wall-clock shape, gated in
        ``benchmarks/bench_fig18_parallel_search.py``; the same finding
        from counted costs is ``tests/test_parallel_drivers.py::
        TestPaseParallel::test_global_heap_scales_worse_than_local``."""
        result = run_experiment("fig18", scale=TINY)
        assert set(result.data) == {
            f"{engine} {index}" for engine in ("PASE", "Faiss") for index in ("IVF_FLAT", "IVF_PQ")
        }
        for curve in result.data.values():
            assert sorted(curve) == [1, 2, 4, 8]
            assert curve[1] == pytest.approx(1.0)
            assert all(speedup > 0 for speedup in curve.values())

    def test_cli_list_and_run(self, capsys):
        from repro.bench.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "tab5" in out
        assert main([]) == 2  # no args -> help + error code
        assert main(["--experiment", "bogus"]) == 2


class TestMoreExperimentSmoke:
    def test_fig9_structure(self):
        result = run_experiment("fig9", scale=TINY)
        assert set(result.data) == {
            "IVF_FLAT with SGEMM",
            "IVF_FLAT no SGEMM",
            "IVF_PQ with SGEMM",
            "IVF_PQ no SGEMM",
        }
        for curve in result.data.values():
            assert sorted(curve) == [1, 2, 4, 8]
            assert curve[8] <= curve[1]  # more threads never slower

    def test_ablation_structure(self):
        """Structure only: "with" and "without" are measured gaps, so
        their order is a wall-clock shape (``benchmarks/
        bench_ablation_root_causes.py``); what the SGEMM toggle removes
        is counted in :meth:`test_ablation_sgemm_toggle_counted`."""
        result = run_experiment("ablation", scale=TINY)
        assert "SGEMM" in result.rendered
        assert set(result.data) == {cause.name for cause in SWITCHES}
        for cause, row in result.data.items():
            assert row["metric"] == SWITCHES[RootCause[cause]].metric
            assert row["with"] > 0 and row["without"] > 0
        assert result.data["SGEMM"]["metric"] == "build"

    def test_ablation_sgemm_toggle_counted(self, monkeypatch):
        """Neutralizing RC#1 takes every SGEMM call out of the
        specialized build while its distance computations stay equal."""
        calls: list[int] = []
        sgemm = kmeans.l2_sqr_batch

        def counted(*args):
            calls.append(1)
            return sgemm(*args)

        monkeypatch.setattr(kmeans, "l2_sqr_batch", counted)
        ds = bench_dataset("sift1m", scale=TINY)
        counts = {}
        for use_sgemm in (True, False):
            params = {**default_params(ds, "ivf_flat"), "use_sgemm": use_sgemm}
            index = make_specialized_index("ivf_flat", ds.dim, params)
            calls.clear()
            index.train(ds.base)
            index.add(ds.base)
            counts[use_sgemm] = (len(calls), index.build_stats.distance_computations)
        assert counts[True][0] > 0 and counts[False][0] == 0
        assert counts[True][1] == counts[False][1] > 0

    def test_fig15_structure(self):
        result = run_experiment("fig15", scale=TINY, datasets=("sift1m",))
        series = result.data["series"]
        assert set(series) == {"PASE", "Faiss", "Faiss*"}
        assert len(series["Faiss*"]) == 1

    def test_fig5_structure(self):
        result = run_experiment("fig5", scale=TINY, datasets=("sift1m",))
        assert result.data["series"]["PASE total"][0] > 0
        assert "gap" in result.rendered

    def test_fig2_structure(self):
        """The Fig. 2 ordering's cause, counted: pgvector's TID-only
        pages add a heap pin per candidate to PASE's page walk.  The
        wall-clock ordering is gated in ``benchmarks/
        bench_fig02_generalized_compare.py``."""
        result = run_experiment("fig2", scale=TINY)
        systems = result.data["systems"]
        assert set(systems) == {"PASE", "pgvector"}
        assert all(latency[0] > 0 for latency in systems.values())
        accesses = result.data["buffer_accesses"]
        assert accesses["pgvector"] > accesses["PASE"] > 0
