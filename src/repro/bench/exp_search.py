"""Search-latency experiments: Figs. 2, 14-17, 19 and Table V."""

from __future__ import annotations

from typing import Sequence

from repro.bench.exp_build import _hnsw_scale
from repro.bench.runner import (
    ALL_DATASETS,
    HNSW_DATASETS,
    ExperimentResult,
    bench_dataset,
    default_params,
)
from repro.common.metrics import latency_stats
from repro.common.profiling import Profiler
from repro.core.report import render_breakdown, render_grouped_series
from repro.core.study import ComparativeStudy, GeneralizedVectorDB, SpecializedVectorDB

#: Table V column order.
_TAB5_COLUMNS = ("fvec_L2sqr", "Tuple Access", "Min-heap")

#: paper defaults (Table II), rescaled k for the smaller datasets.
DEFAULT_K = 50
DEFAULT_NPROBE = 20
DEFAULT_EFS = 200
N_QUERIES = 15


def _search_series(
    index_type: str,
    datasets: Sequence[str],
    scale: float | None,
    nprobe: int | None = DEFAULT_NPROBE,
    efs: int | None = None,
    hnsw_scaled: bool = False,
) -> tuple[list[str], dict[str, list[float]], dict[str, list[float]]]:
    groups: list[str] = []
    series: dict[str, list[float]] = {"PASE": [], "Faiss": []}
    recalls: dict[str, list[float]] = {"PASE": [], "Faiss": []}
    for name in datasets:
        ds_scale = _hnsw_scale(scale, name) if hnsw_scaled else scale
        ds = bench_dataset(name, scale=ds_scale)
        params = default_params(ds, index_type)
        study = ComparativeStudy(ds, index_type, params)
        cmp = study.compare_search(
            k=DEFAULT_K, nprobe=nprobe, efs=efs, n_queries=N_QUERIES, recall=True
        )
        groups.append(f"{name}(n={ds.n})")
        series["PASE"].append(cmp.generalized.mean)
        series["Faiss"].append(cmp.specialized.mean)
        recalls["PASE"].append(cmp.generalized_recall)
        recalls["Faiss"].append(cmp.specialized_recall)
    return groups, series, recalls


def fig02(scale: float | None = None, dataset: str = "sift1m") -> ExperimentResult:
    """Generalized systems compared: PASE vs pgvector (the paper's Fig. 2).

    Both run IVF_FLAT with the same parameters on pgsim; pgvector's
    TID-only index pages force one heap fetch per scanned candidate.
    """
    ds = bench_dataset(dataset, scale=scale)
    params = default_params(ds, "ivf_flat")

    systems: dict[str, list[float]] = {}
    #: Mean buffer accesses per query: the counted cause of the ordering.
    accesses: dict[str, float] = {}
    for label, am_name in (("PASE", "pase_ivfflat"), ("pgvector", "ivfflat")):
        gen = GeneralizedVectorDB()
        gen.load(ds.base)
        opts = ", ".join(
            f"{k} = {v}" for k, v in params.items() if k in ("clusters", "sample_ratio", "seed")
        )
        gen.db.execute(
            f"CREATE INDEX {gen.index_name} ON {gen.table_name} USING {am_name} (vec) WITH ({opts})"
        )
        info = gen.db.catalog.find_index(gen.index_name)
        assert info is not None
        gen.am = info.am
        latencies = []
        touched = 0
        gen.db.execute(f"SET pase.nprobe = {DEFAULT_NPROBE}")
        for q in ds.queries[:N_QUERIES]:
            r = gen.search(q, DEFAULT_K)
            latencies.append(r.elapsed_seconds)
            touched += r.tuples_accessed
        systems[label] = [latency_stats(latencies).mean]
        accesses[label] = touched / len(latencies)
    rendered = render_grouped_series(
        f"IVF_FLAT search on {dataset}",
        [f"{dataset}(n={ds.n})"],
        systems,
        unit="s",
        gap_of=("pgvector", "PASE"),
    )
    return ExperimentResult(
        exp_id="fig2",
        title="Generalized vector databases compared (PASE vs pgvector)",
        expected_shape="PASE is the fastest generalized system; pgvector trails it",
        rendered=rendered,
        data={"systems": systems, "buffer_accesses": accesses},
    )


def fig14(scale: float | None = None, datasets: Sequence[str] = ALL_DATASETS) -> ExperimentResult:
    """IVF_FLAT search time (Fig. 14)."""
    groups, series, recalls = _search_series("ivf_flat", datasets, scale)
    rendered = render_grouped_series(
        "IVF_FLAT search", groups, series, unit="s", gap_of=("PASE", "Faiss")
    )
    return ExperimentResult(
        exp_id="fig14",
        title="Search time for IVF_FLAT",
        expected_shape="PASE 2.0x-3.4x slower (k-means diff, tuple access, n-sized heap)",
        rendered=rendered,
        data={"groups": groups, "series": series, "recalls": recalls},
    )


def tab05(scale: float | None = None, dataset: str = "sift1m") -> ExperimentResult:
    """IVF_FLAT search-time breakdown (the paper's Table V)."""
    ds = bench_dataset(dataset, scale=scale)
    params = default_params(ds, "ivf_flat")
    profs = {"PASE": Profiler(), "Faiss": Profiler()}
    study = ComparativeStudy(
        ds,
        "ivf_flat",
        params,
        generalized=GeneralizedVectorDB(profiler=profs["PASE"]),
        specialized=SpecializedVectorDB(profiler=profs["Faiss"]),
    )
    study.compare_search(k=DEFAULT_K, nprobe=DEFAULT_NPROBE, n_queries=N_QUERIES)
    rendered = render_breakdown(
        f"IVF_FLAT search on {dataset}",
        {name: prof.breakdown(within=None) for name, prof in profs.items()},
        columns=_TAB5_COLUMNS,
    )
    data = {
        name: {row.name: row.seconds for row in prof.breakdown(within=None)}
        for name, prof in profs.items()
    }
    return ExperimentResult(
        exp_id="tab5",
        title="Time breakdown of IVF_FLAT search",
        expected_shape=(
            "Faiss ~95% in fvec_L2sqr; PASE's distance share much lower with "
            "large Tuple Access and Min-heap shares"
        ),
        rendered=rendered,
        data=data,
    )


def fig15(scale: float | None = None, datasets: Sequence[str] = ("sift1m", "deep1m")) -> ExperimentResult:
    """IVF_FLAT search with PASE's centroids transplanted into Faiss (Fig. 15)."""
    groups: list[str] = []
    series: dict[str, list[float]] = {"PASE": [], "Faiss": [], "Faiss*": []}
    for name in datasets:
        ds = bench_dataset(name, scale=scale)
        params = default_params(ds, "ivf_flat")
        study = ComparativeStudy(ds, "ivf_flat", params)
        before = study.compare_search(k=DEFAULT_K, nprobe=DEFAULT_NPROBE, n_queries=N_QUERIES)
        study.transplant_centroids()
        after = study.compare_search(k=DEFAULT_K, nprobe=DEFAULT_NPROBE, n_queries=N_QUERIES)
        groups.append(f"{name}(n={ds.n})")
        series["PASE"].append(before.generalized.mean)
        series["Faiss"].append(before.specialized.mean)
        series["Faiss*"].append(after.specialized.mean)
    rendered = render_grouped_series(
        "IVF_FLAT search with replaced centroids",
        groups,
        series,
        unit="s",
        gap_of=("PASE", "Faiss*"),
    )
    return ExperimentResult(
        exp_id="fig15",
        title="IVF_FLAT search with replaced centroids (Faiss*)",
        expected_shape="gap PASE/Faiss* smaller than PASE/Faiss (RC#5 isolated)",
        rendered=rendered,
        data={"groups": groups, "series": series},
    )


def fig16(scale: float | None = None, datasets: Sequence[str] = ALL_DATASETS) -> ExperimentResult:
    """IVF_PQ search time (Fig. 16)."""
    groups, series, recalls = _search_series("ivf_pq", datasets, scale)
    rendered = render_grouped_series(
        "IVF_PQ search", groups, series, unit="s", gap_of=("PASE", "Faiss")
    )
    return ExperimentResult(
        exp_id="fig16",
        title="Search time for IVF_PQ",
        expected_shape="PASE 3.9x-11.2x slower; precomputed table (RC#7) adds to the gap",
        rendered=rendered,
        data={"groups": groups, "series": series, "recalls": recalls},
    )


def fig17(scale: float | None = None, datasets: Sequence[str] = HNSW_DATASETS) -> ExperimentResult:
    """HNSW search time (Fig. 17)."""
    groups, series, recalls = _search_series(
        "hnsw", datasets, scale, nprobe=None, efs=DEFAULT_EFS, hnsw_scaled=True
    )
    rendered = render_grouped_series(
        "HNSW search", groups, series, unit="s", gap_of=("PASE", "Faiss")
    )
    return ExperimentResult(
        exp_id="fig17",
        title="Search time for HNSW",
        expected_shape="PASE 2.2x-7.3x slower; gap is almost entirely tuple access (RC#2)",
        rendered=rendered,
        data={"groups": groups, "series": series, "recalls": recalls},
    )


def fig19(scale: float | None = None, dataset: str = "sift1m") -> ExperimentResult:
    """Search gap vs. nprobe (IVF) and efs (HNSW) — the paper's Fig. 19."""
    ds = bench_dataset(dataset, scale=scale)
    nprobes = [10, 20, 50]
    gaps: dict[str, list[float]] = {"IVF_FLAT": [], "IVF_PQ": []}
    for index_type in ("ivf_flat", "ivf_pq"):
        params = default_params(ds, index_type)
        study = ComparativeStudy(ds, index_type, params)
        study.compare_build()
        for nprobe in nprobes:
            cmp = study.compare_search(k=DEFAULT_K, nprobe=nprobe, n_queries=N_QUERIES)
            gaps[index_type.upper()].append(cmp.gap)
    ivf_table = render_grouped_series(
        f"search gap vs nprobe ({dataset})",
        [f"nprobe={p}" for p in nprobes],
        gaps,
        unit="x",
    )

    hnsw_ds = bench_dataset(dataset, scale=_hnsw_scale(scale, dataset))
    efs_values = [16, 100, 200]
    hnsw_gaps: dict[str, list[float]] = {"HNSW": []}
    params = default_params(hnsw_ds, "hnsw")
    study = ComparativeStudy(hnsw_ds, "hnsw", params)
    study.compare_build()
    for efs in efs_values:
        cmp = study.compare_search(k=min(DEFAULT_K, efs), nprobe=None, efs=efs, n_queries=N_QUERIES)
        hnsw_gaps["HNSW"].append(cmp.gap)
    hnsw_table = render_grouped_series(
        f"search gap vs efs ({dataset})",
        [f"efs={e}" for e in efs_values],
        hnsw_gaps,
        unit="x",
    )
    return ExperimentResult(
        exp_id="fig19",
        title="Impact of parameters on the search gap",
        expected_shape=(
            "IVF_FLAT gap roughly flat in nprobe; IVF_PQ gap grows with "
            "nprobe; HNSW gap grows with efs"
        ),
        rendered=ivf_table + "\n\n" + hnsw_table,
        data={"nprobes": nprobes, "ivf_gaps": gaps, "efs": efs_values, "hnsw_gaps": hnsw_gaps},
    )
