"""Search-latency figures: Figs. 2, 14-17, 19 and Table V."""

from __future__ import annotations

from typing import Any

from repro.bench.runner import (
    Figure,
    Scale,
    Verdict,
    grouped,
    per_group,
    ratio,
    ratios,
    within,
)
from repro.common.metrics import latency_stats
from repro.common.profiling import DEFAULT_MAX_SPANS, Profiler
from repro.core.rc_attribution import attribute_profile, format_rc_breakdown
from repro.core.report import render_breakdown, render_grouped_series
from repro.core.root_causes import RootCause
from repro.core.study import ComparativeStudy, GeneralizedVectorDB, SpecializedVectorDB

#: Table V column order.
_TAB5_COLUMNS = ("fvec_L2sqr", "Tuple Access", "Min-heap")

#: Recall may differ across engines only by the two k-means flavours (RC#5).
_RECALL_TOLERANCE = 0.3


def _fig02_build(scale: Scale) -> dict[str, Any]:
    """Generalized systems compared: PASE vs pgvector.

    Both run IVF_FLAT with the same parameters on pgsim; pgvector's
    TID-only index pages force one heap fetch per scanned candidate.
    """
    name = scale.datasets[0]
    ds = scale.dataset(name)
    params = scale.index_params(ds, "ivf_flat")
    search = scale.search
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
        gen.am = gen.db.catalog.find_index(gen.index_name).am
        results = [
            gen.search(q, search.k, nprobe=search.nprobe) for q in ds.queries[: search.n_queries]
        ]
        systems[label] = [latency_stats([r.elapsed_seconds for r in results]).mean]
        accesses[label] = sum(r.tuples_accessed for r in results) / len(results)
    return {
        "dataset": name, "group": f"{name}(n={ds.n})", "systems": systems,
        "buffer_accesses": accesses,
    }


FIG2 = Figure(
    "fig2",
    "Generalized vector databases compared (PASE vs pgvector)",
    "PASE is the fastest generalized system; pgvector trails it",
    build=_fig02_build,
    shape=lambda rows: [
        within(
            "pgvector/PASE search time",
            ratio(rows["systems"]["pgvector"][0], rows["systems"]["PASE"][0]), lo=1.0,
        )
    ],
    render=lambda rows: render_grouped_series(
        f"IVF_FLAT search on {rows['dataset']}", [rows["group"]], rows["systems"], unit="s",
        gap_of=("pgvector", "PASE"),
    ),
)


def _search_series(scale: Scale, index_type: str) -> dict[str, Any]:
    """PASE vs Faiss mean search latency and recall per dataset."""
    groups: list[str] = []
    series: dict[str, list[float]] = {"PASE": [], "Faiss": []}
    recalls: dict[str, list[float]] = {"PASE": [], "Faiss": []}
    for name in scale.hnsw_datasets if index_type == "hnsw" else scale.datasets:
        study, __ = scale.study(name, index_type)
        cmp = scale.search.run(study, recall=True)
        groups.append(f"{name}(n={study.dataset.n})")
        series["PASE"].append(cmp.generalized.mean)
        series["Faiss"].append(cmp.specialized.mean)
        recalls["PASE"].append(cmp.generalized_recall)
        recalls["Faiss"].append(cmp.specialized_recall)
    return {"groups": groups, "series": series, "recalls": recalls}


def _fig14_shape(rows: dict[str, Any]) -> list[Verdict]:
    recalls = zip(rows["groups"], rows["recalls"]["PASE"], rows["recalls"]["Faiss"])
    return per_group("PASE/Faiss search time", ratios(rows), lo=1.5) + [
        Verdict(
            f"{group} |PASE - Faiss recall|", abs(pase - faiss), f"< {_RECALL_TOLERANCE:g}",
            pase == faiss or abs(pase - faiss) < _RECALL_TOLERANCE,
        )
        for group, pase, faiss in recalls
    ]


FIG14 = Figure(
    "fig14",
    "Search time for IVF_FLAT",
    "PASE 2.0x-3.4x slower (k-means diff, tuple access, n-sized heap)",
    build=lambda scale: _search_series(scale, "ivf_flat"),
    shape=_fig14_shape,
    render=grouped("IVF_FLAT search"),
)


def _fig16_build(scale: Scale) -> dict[str, Any]:
    rows = _search_series(scale, "ivf_pq")
    rows["flat_gaps"] = [
        scale.search.run(scale.study(name, "ivf_flat")[0]).gap for name in scale.datasets
    ]
    return rows


FIG16 = Figure(
    "fig16",
    "Search time for IVF_PQ",
    "PASE 3.9x-11.2x slower; precomputed table (RC#7) adds to the gap",
    build=_fig16_build,
    # The PQ gap is at least comparable to the FLAT gap, usually larger.
    shape=lambda rows: per_group("PASE/Faiss IVF_PQ search time", ratios(rows), lo=1.5)
    + per_group(
        "IVF_PQ gap / IVF_FLAT gap",
        [(g, ratio(gap, flat)) for (g, gap), flat in zip(ratios(rows), rows["flat_gaps"])],
        lo=0.8,
    ),
    render=grouped("IVF_PQ search"),
)

FIG17 = Figure(
    "fig17",
    "Search time for HNSW",
    "PASE 2.2x-7.3x slower; gap is almost entirely tuple access (RC#2)",
    build=lambda scale: _search_series(scale, "hnsw"),
    shape=lambda rows: per_group("PASE/Faiss search time", ratios(rows), 1.5, 30.0),
    render=grouped("HNSW search"),
)


def _tab05_build(scale: Scale) -> dict[str, Any]:
    """IVF_FLAT search profiled on both engines.  The profilers keep
    spans, so one run yields the breakdown (from the section totals),
    the RC#1-RC#7 attribution and a chrome-trace timeline."""
    name = scale.datasets[0]
    ds = scale.dataset(name)
    profs = {engine: Profiler(max_spans=DEFAULT_MAX_SPANS) for engine in ("PASE", "Faiss")}
    study = ComparativeStudy(
        ds,
        "ivf_flat",
        scale.index_params(ds, "ivf_flat"),
        generalized=GeneralizedVectorDB(profiler=profs["PASE"]),
        specialized=SpecializedVectorDB(profiler=profs["Faiss"]),
    )
    scale.search.run(study)
    attribution = attribute_profile(profs["PASE"])
    return {
        "dataset": name,
        **{engine: {r.name: r for r in prof.breakdown()} for engine, prof in profs.items()},
        "spans": {
            engine: {
                "kept": len(prof.spans),
                "dropped": prof.dropped_spans,
                "root_seconds": sum(s.end - s.start for s in prof.spans if s.parent_id == 0),
                "total_seconds": prof.total_seconds(),
            }
            for engine, prof in profs.items()
        },
        "rc_attribution": attribution.as_dict(),
        "rc_seconds": {cause: attribution.seconds_for(cause) for cause in RootCause},
        "rc_report": format_rc_breakdown(attribution, title="Table V (PASE, from spans):"),
        "chrome_trace": profs["PASE"].to_chrome_trace(),
    }


def _close(a: float, b: float, rel: float) -> bool:
    """``a == pytest.approx(b, rel=rel)``."""
    return abs(a - b) <= max(rel * abs(b), 1e-12)


def _tab05_shape(rows: dict[str, Any]) -> list[Verdict]:
    faiss, pase = rows["Faiss"], rows["PASE"]
    faiss_dist = faiss["fvec_L2sqr"].fraction
    out = [
        within("Faiss fvec_L2sqr share", faiss_dist, lo=0.35),
        Verdict(
            "Faiss fvec_L2sqr share", faiss_dist, "is the largest",
            faiss_dist == max(r.fraction for r in faiss.values()),
        ),
        within("PASE Tuple Access share", pase["Tuple Access"].fraction, lo=0.2),
        within("PASE Min-heap share", pase["Min-heap"].fraction, lo=0.05),
        # PASE's distance share is well below Faiss's.
        within("PASE fvec_L2sqr share", pase["fvec_L2sqr"].fraction, hi=faiss_dist),
    ]
    # The root spans cover exactly the time the section totals hold.
    for engine, spans in sorted(rows["spans"].items()):
        out.append(
            Verdict(
                f"{engine} spans kept / dropped", spans["kept"], f"> 0, {spans['dropped']} dropped",
                spans["kept"] > 0 and not spans["dropped"],
            )
        )
        out.append(
            Verdict(
                f"{engine} root-span / section-total seconds",
                ratio(spans["root_seconds"], spans["total_seconds"]), "== 1 (rel 1e-6)",
                _close(spans["root_seconds"], spans["total_seconds"], 1e-6),
            )
        )
    # The paper's Table V conclusions, restated as an RC attribution:
    # buckets partition the recorded span time exactly, and PASE search
    # pays RC#2 (page indirection) and RC#6 (size-n heap).
    rc = rows["rc_attribution"]
    bucket_seconds = sum(b["seconds"] for b in rc["buckets"])
    out.append(Verdict("RC buckets", len(rc["buckets"]), "> 0", bool(rc["buckets"])))
    out.append(
        Verdict(
            "RC bucket seconds / attributed total", ratio(bucket_seconds, rc["total_seconds"]),
            "== 1 (rel 1e-6)", _close(bucket_seconds, rc["total_seconds"], 1e-6),
        )
    )
    for cause in (RootCause.MEMORY_MANAGEMENT, RootCause.HEAP_SIZE):
        out.append(within(f"PASE RC#{cause.value} seconds", rows["rc_seconds"][cause], lo=0.0))
    missing = [label for label in ("RC#2", "RC#6") if label not in rows["rc_report"]]
    out.append(Verdict("RC report names RC#2 and RC#6", len(missing), "== 0 missing", not missing))
    return out


TAB5 = Figure(
    "tab5",
    "Time breakdown of IVF_FLAT search",
    "Faiss ~95% in fvec_L2sqr; PASE's distance share much lower with "
    "large Tuple Access and Min-heap shares",
    build=_tab05_build,
    shape=_tab05_shape,
    render=lambda rows: render_breakdown(
        f"IVF_FLAT search on {rows['dataset']}",
        {engine: list(rows[engine].values()) for engine in ("PASE", "Faiss")},
        columns=_TAB5_COLUMNS,
    )
    + "\n\n"
    + rows["rc_report"],
)

#: Queries whose PASE and Faiss* result ids Fig. 15 compares.
_FIG15_ID_QUERIES = 4


def _fig15_build(scale: Scale) -> dict[str, Any]:
    """IVF_FLAT search with PASE's centroids transplanted into Faiss."""
    search = scale.search
    groups: list[str] = []
    series: dict[str, list[float]] = {"PASE": [], "Faiss": [], "Faiss*": []}
    star_gaps: list[float] = []
    ids: list[list[tuple[list[int], list[int]]]] = []
    for name in scale.pair_datasets:
        ds = scale.dataset(name)
        study = ComparativeStudy(ds, "ivf_flat", scale.index_params(ds, "ivf_flat"))
        before = search.run(study)
        study.transplant_centroids()
        ids.append(
            [
                tuple(
                    engine.search(q, search.k, nprobe=search.nprobe).ids
                    for engine in (study.generalized, study.specialized)
                )
                for q in ds.queries[:_FIG15_ID_QUERIES]
            ]
        )
        after = search.run(study)
        groups.append(f"{name}(n={ds.n})")
        series["PASE"].append(before.generalized.mean)
        series["Faiss"].append(before.specialized.mean)
        series["Faiss*"].append(after.specialized.mean)
        # Gated on the post-transplant pair, measured back to back.
        star_gaps.append(after.gap)
    return {"groups": groups, "series": series, "faiss_star_gaps": star_gaps, "ids": ids}


def _fig15_shape(rows: dict[str, Any]) -> list[Verdict]:
    out = []
    for group, gap, ids in zip(rows["groups"], rows["faiss_star_gaps"], rows["ids"]):
        differing = sum(gen != spec for gen, spec in ids)
        out.append(
            Verdict(
                f"{group} queries where PASE and Faiss* ids differ", differing,
                f"== 0 of {len(ids)}", differing == 0,
            )
        )
        # Even with RC#5 removed, RC#2/RC#6 keep PASE slower.
        out.append(within(f"{group} PASE/Faiss* search time", gap, lo=1.5))
    return out


FIG15 = Figure(
    "fig15",
    "IVF_FLAT search with replaced centroids (Faiss*)",
    "gap PASE/Faiss* smaller than PASE/Faiss (RC#5 isolated)",
    build=_fig15_build,
    shape=_fig15_shape,
    render=grouped("IVF_FLAT search with replaced centroids", gap_of=("PASE", "Faiss*")),
)


def _fig19_build(scale: Scale) -> dict[str, Any]:
    """Search gap vs nprobe (IVF) and efs (HNSW)."""
    name = scale.datasets[0]
    search = scale.search
    ivf_gaps = {
        index_type.upper(): [
            search.run(scale.study(name, index_type)[0], nprobe=nprobe).gap
            for nprobe in scale.fig19_nprobe
        ]
        for index_type in ("ivf_flat", "ivf_pq")
    }
    hnsw, __ = scale.study(name, "hnsw")
    hnsw_gaps = [search.run(hnsw, k=k, efs=efs).gap for efs, k in scale.fig19_efs]
    return {
        "dataset": name,
        "nprobes": list(scale.fig19_nprobe),
        "ivf_gaps": ivf_gaps,
        "efs": [efs for efs, __ in scale.fig19_efs],
        "hnsw_gaps": {"HNSW": hnsw_gaps},
    }


def _fig19_shape(rows: dict[str, Any]) -> list[Verdict]:
    flat, pq = rows["ivf_gaps"]["IVF_FLAT"], rows["ivf_gaps"]["IVF_PQ"]
    nprobes = rows["nprobes"]
    out = [within(f"IVF_FLAT gap at nprobe={p}", g, lo=1.0) for p, g in zip(nprobes, flat)]
    # Grows (or holds within noise).
    out.append(
        within(
            f"IVF_PQ gap at nprobe={nprobes[-1]} / at nprobe={nprobes[0]}",
            ratio(pq[-1], pq[0]), lo=0.7, detail=f"gaps {pq[0]:.2f} -> {pq[-1]:.2f}",
        )
    )
    out += [
        within(f"HNSW gap at efs={efs}", g, lo=1.3)
        for efs, g in zip(rows["efs"], rows["hnsw_gaps"]["HNSW"])
    ]
    return out


FIG19 = Figure(
    "fig19",
    "Impact of parameters on the search gap",
    "IVF_FLAT gap roughly flat in nprobe; IVF_PQ gap grows with "
    "nprobe; HNSW gap grows with efs",
    build=_fig19_build,
    shape=_fig19_shape,
    render=lambda rows: render_grouped_series(
        f"search gap vs nprobe ({rows['dataset']})", [f"nprobe={p}" for p in rows["nprobes"]],
        rows["ivf_gaps"], unit="x",
    )
    + "\n\n"
    + render_grouped_series(
        f"search gap vs efs ({rows['dataset']})", [f"efs={e}" for e in rows["efs"]],
        rows["hnsw_gaps"], unit="x",
    ),
)
