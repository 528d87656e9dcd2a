"""Index-construction figures: Figs. 3-8, 10 and Table III."""

from __future__ import annotations

import statistics
from typing import Any

from repro.bench.runner import (
    Figure,
    Scale,
    Verdict,
    alternating_builds,
    grouped,
    ratio,
    within,
)
from repro.common.profiling import (
    SEC_ADD_LINK,
    SEC_DISTANCE,
    SEC_GREEDY_UPDATE,
    SEC_NEIGHBOR_FETCH,
    SEC_SEARCH_NB_TO_ADD,
    SEC_SHRINK_NB_LIST,
    SEC_TUPLE_ACCESS,
    SEC_VISITED,
)
from repro.core.report import render_breakdown, render_grouped_series
from repro.core.study import ComparativeStudy

_PHASES = ("total", "train", "add")


def _pair_gaps(pairs: list[dict[str, Any]], phase: str = "total") -> list[float]:
    """Per alternating build pair, PASE's ``phase`` time over Faiss's."""
    seconds = f"{phase}_seconds"
    return [ratio(getattr(p["PASE"][0], seconds), getattr(p["Faiss"][0], seconds)) for p in pairs]


def _pairs_detail(values: list[float]) -> str:
    return "pairs " + ", ".join(f"{v:.2f}" for v in values)


def _paired(
    rows: dict[str, Any], name: str, phase: str, lo: float | None = None, hi: float | None = None
) -> list[Verdict]:
    """One verdict per dataset on the median of its pairs' PASE/Faiss
    ``phase`` time ratios, every pair's ratio in the detail."""
    return [
        within(
            f"{group} median PASE/Faiss {name}", statistics.median(gaps), lo, hi,
            detail=_pairs_detail(gaps),
        )
        for group, gaps in zip(rows["groups"], rows["pair_gaps"][phase])
    ]


def _build_series(scale: Scale, index_type: str, use_sgemm: bool) -> dict[str, Any]:
    """PASE vs Faiss build phases per dataset, over alternating build
    pairs: each engine's median per phase, and every pair's ratio;
    Faiss builds without SGEMM when ``use_sgemm`` is off (PASE has no
    SGEMM to turn off)."""
    groups: list[str] = []
    series: dict[str, list[float]] = {
        f"{engine} {phase}": [] for engine in ("PASE", "Faiss") for phase in _PHASES
    }
    pair_gaps: dict[str, list[list[float]]] = {phase: [] for phase in _PHASES}
    for name in scale.datasets:
        ds, pairs = scale.builds(name, index_type, scale.build_pairs, use_sgemm=use_sgemm)
        groups.append(f"{name}(n={ds.n})")
        for phase in _PHASES:
            for engine in ("PASE", "Faiss"):
                series[f"{engine} {phase}"].append(
                    statistics.median(getattr(p[engine][0], f"{phase}_seconds") for p in pairs)
                )
            pair_gaps[phase].append(_pair_gaps(pairs, phase))
    return {"groups": groups, "series": series, "pair_gaps": pair_gaps}


FIG3 = Figure(
    "fig3",
    "IVF_FLAT index construction time",
    "PASE 35.0x-84.8x slower; adding phase dominates both systems",
    build=lambda scale: _build_series(scale, "ivf_flat", use_sgemm=True),
    # The gap lives in the adding phase (SGEMM vs per-row loops).
    shape=lambda rows: _paired(rows, "build time", "total", lo=1.0)
    + _paired(rows, "adding time", "add", lo=3.0),
    render=grouped("IVF_FLAT build", gap_of=("PASE total", "Faiss total")),
)

FIG4 = Figure(
    "fig4",
    "IVF_FLAT construction with SGEMM disabled in Faiss",
    "adding phases converge (gap ~1x); remaining minor gap is the "
    "k-means implementation difference",
    build=lambda scale: _build_series(scale, "ivf_flat", use_sgemm=False),
    # Converged, vs > 3x with SGEMM on.
    shape=lambda rows: _paired(rows, "adding time", "add", 0.4, 3.0),
    render=grouped("IVF_FLAT build (no SGEMM)", gap_of=("PASE add", "Faiss add")),
)

FIG5 = Figure(
    "fig5",
    "IVF_PQ index construction time",
    "PASE 6.5x-20.2x slower, same trend as IVF_FLAT",
    build=lambda scale: _build_series(scale, "ivf_pq", use_sgemm=True),
    shape=lambda rows: _paired(rows, "build time", "total", lo=1.0),
    render=grouped("IVF_PQ build", gap_of=("PASE total", "Faiss total")),
)

FIG6 = Figure(
    "fig6",
    "IVF_PQ construction with SGEMM disabled in Faiss",
    "gap becomes negligible (k-means/PQ implementation noise only)",
    build=lambda scale: _build_series(scale, "ivf_pq", use_sgemm=False),
    shape=lambda rows: _paired(rows, "adding time", "add", hi=3.0),
    render=grouped("IVF_PQ build (no SGEMM)", gap_of=("PASE add", "Faiss add")),
)


def _fig07_build(scale: Scale) -> dict[str, Any]:
    groups: list[str] = []
    series: dict[str, list[float]] = {"PASE": [], "Faiss": []}
    pair_gaps: list[list[float]] = []
    for name in scale.hnsw_datasets:
        ds, pairs = scale.builds(name, "hnsw", scale.build_pairs)
        groups.append(f"{name}(n={ds.n})")
        for engine in series:
            series[engine].append(statistics.median(p[engine][0].total_seconds for p in pairs))
        pair_gaps.append(_pair_gaps(pairs))
    return {"groups": groups, "series": series, "pair_gaps": {"total": pair_gaps}}


FIG7 = Figure(
    "fig7",
    "HNSW index construction time",
    "PASE 1.6x-8.7x slower; cause is buffer-manager indirection (RC#2)",
    build=_fig07_build,
    # The median PASE/Faiss build-time ratio of alternating build pairs.
    shape=lambda rows: _paired(rows, "build time", "total", lo=1.3, hi=30.0),
    render=grouped("HNSW build (median of pairs)"),
)

_TAB3_COLUMNS = (SEC_SEARCH_NB_TO_ADD, SEC_ADD_LINK, SEC_GREEDY_UPDATE, SEC_SHRINK_NB_LIST)
_FIG8_COLUMNS = (SEC_DISTANCE, SEC_TUPLE_ACCESS, SEC_VISITED, SEC_NEIGHBOR_FETCH)


def _tab03_build(scale: Scale) -> dict[str, Any]:
    """Profiled alternating HNSW build pairs: per pair, each engine's
    breakdown rows and its inclusive SearchNbToAdd time."""
    name = scale.hnsw_datasets[0]
    __, pairs = scale.builds(name, "hnsw", scale.build_pairs, profiled=True)
    return {
        "dataset": name,
        "breakdowns": [
            {engine: {r.name: r for r in prof.breakdown()} for engine, (__, prof) in p.items()}
            for p in pairs
        ],
        "search_nb_to_add": [
            {
                engine: prof.inclusive_seconds(SEC_SEARCH_NB_TO_ADD)
                for engine, (__, prof) in p.items()
            }
            for p in pairs
        ],
    }


def _tab03_shape(rows: dict[str, Any]) -> list[Verdict]:
    out = []
    for i, pair in enumerate(rows["breakdowns"]):
        for engine, breakdown in sorted(pair.items()):
            top = max(breakdown.values(), key=lambda r: r.fraction)
            snta = breakdown.get(SEC_SEARCH_NB_TO_ADD)
            share = snta.fraction if snta is not None else 0.0
            out.append(
                Verdict(
                    f"pair {i} {engine} {SEC_SEARCH_NB_TO_ADD} share", share,
                    f"is the largest (largest: {top.name})", top.name == SEC_SEARCH_NB_TO_ADD,
                )
            )
    pair_ratios = [ratio(p["PASE"], p["Faiss"]) for p in rows["search_nb_to_add"]]
    out.append(
        within(
            f"median PASE/Faiss {SEC_SEARCH_NB_TO_ADD} time", statistics.median(pair_ratios),
            lo=1.5, detail=_pairs_detail(pair_ratios),
        )
    )
    return out


TAB3 = Figure(
    "tab3",
    "Time breakdown of HNSW building",
    "SearchNbToAdd dominates both systems (~70-76%), with PASE's "
    "absolute time several times Faiss's",
    build=_tab03_build,
    shape=_tab03_shape,
    render=lambda rows: render_breakdown(
        f"HNSW build on {rows['dataset']} (first pair)",
        {engine: list(b.values()) for engine, b in rows["breakdowns"][0].items()},
        columns=_TAB3_COLUMNS,
    ),
)


def _fig08_build(scale: Scale) -> dict[str, Any]:
    name = scale.hnsw_datasets[0]
    __, (pair,) = scale.builds(name, "hnsw", 1, profiled=True)
    return {
        "dataset": name,
        **{
            engine: {r.name: r for r in prof.breakdown(within=SEC_SEARCH_NB_TO_ADD)}
            for engine, (__, prof) in pair.items()
        },
    }


def _seconds(rows: dict[str, Any], engine: str, section: str, default: float = 0.0) -> float:
    row = rows[engine].get(section)
    return row.seconds if row is not None else default


def _fig08_shape(rows: dict[str, Any]) -> list[Verdict]:
    pase_dist = _seconds(rows, "PASE", SEC_DISTANCE)
    # Tuple Access + pasepfirst + HVTGet dwarf distance time in PASE.
    indirection = sum(
        _seconds(rows, "PASE", s) for s in (SEC_TUPLE_ACCESS, SEC_NEIGHBOR_FETCH, SEC_VISITED)
    )
    return [
        within(
            f"PASE/Faiss {SEC_DISTANCE} time",
            ratio(pase_dist, _seconds(rows, "Faiss", SEC_DISTANCE)), lo=0.4, hi=2.5,
        ),
        within(f"PASE indirection / {SEC_DISTANCE} time", ratio(indirection, pase_dist), lo=2.0),
        within(
            f"Faiss {SEC_NEIGHBOR_FETCH} / {SEC_DISTANCE} time",
            ratio(
                _seconds(rows, "Faiss", SEC_NEIGHBOR_FETCH),
                _seconds(rows, "Faiss", SEC_DISTANCE, default=1e9),
            ),
            hi=1.5,
        ),
    ]


FIG8 = Figure(
    "fig8",
    "Time breakdown of SearchNbToAdd",
    "Faiss spends ~80% on fvec_L2sqr; PASE's distance share is small "
    "because Tuple Access / HVTGet / pasepfirst dominate — absolute "
    "distance time is similar on both sides",
    build=_fig08_build,
    shape=_fig08_shape,
    render=lambda rows: render_breakdown(
        f"SearchNbToAdd on {rows['dataset']}",
        {engine: list(rows[engine].values()) for engine in ("PASE", "Faiss")},
        columns=_FIG8_COLUMNS,
    ),
)


def _fig10_build(scale: Scale) -> dict[str, Any]:
    """Build-time gap vs c (IVF) and bnn (HNSW).  The paper sweeps c in
    {100, 500, 1000} on SIFT1M (n=1e6); the default keeps the same
    c/sqrt(n) proportions on the scaled dataset.  Each IVF gap is the
    median of alternating build pairs (every pair kept in
    ``ivf_pair_gaps``); each HNSW gap is one build of each engine."""
    name = scale.datasets[0]
    ds = scale.dataset(name)
    hnsw_ds = scale.dataset(name, hnsw=True)

    def params(dataset, index_type, **sweep):
        base = (
            scale.fig10_params[index_type]
            if scale.fig10_params is not None
            else scale.index_params(dataset, index_type)
        )
        return {**base, **sweep}

    def gap(dataset, index_type, **sweep) -> float:
        study = ComparativeStudy(dataset, index_type, params(dataset, index_type, **sweep))
        return study.compare_build().gap

    c_values = scale.fig10_c
    if c_values is None:
        base_c = scale.index_params(ds, "ivf_flat")["clusters"]
        c_values = (max(base_c // 3, 4), base_c, base_c * 2)
    ivf_pair_gaps = {
        index_type.upper(): [
            _pair_gaps(alternating_builds(
                ds, index_type, params(ds, index_type, clusters=c), scale.build_pairs
            ))
            for c in c_values
        ]
        for index_type in ("ivf_flat", "ivf_pq")
    }
    return {
        "dataset": name,
        "c_values": list(c_values),
        "ivf_gaps": {
            label: [statistics.median(pairs) for pairs in per_c]
            for label, per_c in ivf_pair_gaps.items()
        },
        "ivf_pair_gaps": ivf_pair_gaps,
        "bnn_values": list(scale.fig10_bnn),
        "hnsw_gaps": {"HNSW": [gap(hnsw_ds, "hnsw", bnn=b) for b in scale.fig10_bnn]},
    }


def _fig10_shape(rows: dict[str, Any]) -> list[Verdict]:
    pq = rows["ivf_gaps"]["IVF_PQ"]
    pq_pairs = rows["ivf_pair_gaps"]["IVF_PQ"]
    points = [len(g) for g in rows["ivf_gaps"].values()]
    out = [
        Verdict(
            "IVF gaps per c value", min(points), f"== {len(rows['c_values'])}",
            set(points) == {len(rows["c_values"])},
        ),
        # Growth, modulo micro-scale noise: the median gaps of the pairs.
        within(
            f"IVF_PQ median gap at c={rows['c_values'][-1]} / at c={rows['c_values'][0]}",
            ratio(pq[-1], pq[0]), lo=0.8,
            detail=f"gaps {pq[0]:.2f} -> {pq[-1]:.2f}; {_pairs_detail(pq_pairs[0])} -> "
            f"{_pairs_detail(pq_pairs[-1])}",
        ),
    ]
    out += [
        within(f"HNSW gap at bnn={bnn}", g, lo=1.2)
        for bnn, g in zip(rows["bnn_values"], rows["hnsw_gaps"]["HNSW"])
    ]
    return out


FIG10 = Figure(
    "fig10",
    "Impact of parameters on construction gap",
    "gap grows with c (IVF) and with bnn (HNSW)",
    build=_fig10_build,
    shape=_fig10_shape,
    render=lambda rows: render_grouped_series(
        f"build gap vs c ({rows['dataset']})", [f"c={c}" for c in rows["c_values"]],
        rows["ivf_gaps"], unit="x",
    )
    + "\n\n"
    + render_grouped_series(
        f"build gap vs bnn ({rows['dataset']})", [f"bnn={b}" for b in rows["bnn_values"]],
        rows["hnsw_gaps"], unit="x",
    ),
)
