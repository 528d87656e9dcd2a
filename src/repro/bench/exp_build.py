"""Index-construction figures: Figs. 3-8, 10 and Table III."""

from __future__ import annotations

import statistics
from dataclasses import replace
from typing import Any, Callable

from repro.bench.runner import Figure, Scale, Verdict, grouped, median_within
from repro.common.metrics import Pairs, paired, ratio
from repro.common.profiling import (
    SEC_ADD_LINK,
    SEC_DISTANCE,
    SEC_GREEDY_UPDATE,
    SEC_NEIGHBOR_FETCH,
    SEC_SEARCH_NB_TO_ADD,
    SEC_SHRINK_NB_LIST,
    SEC_TUPLE_ACCESS,
    SEC_VISITED,
    BreakdownRow,
)
from repro.core.report import render_breakdown, render_grouped_series

_PHASES = ("total", "train", "add")


def _phase(phase: str) -> Callable[[tuple[Any, Any]], float]:
    """A :meth:`Scale.builds` result's ``phase`` seconds."""
    return lambda build: getattr(build[0], f"{phase}_seconds")


def _gap_verdicts(
    rows: dict[str, Any], name: str, phase: str, lo: float | None = None, hi: float | None = None
) -> list[Verdict]:
    """One verdict per dataset on the median of its pairs' PASE/Faiss
    ``phase`` time ratios."""
    return [
        median_within(f"{group} PASE/Faiss {name}", gaps, lo, hi)
        for group, gaps in zip(rows["groups"], rows["pair_gaps"][phase])
    ]


def _build_series(
    scale: Scale, index_type: str, phases: tuple[str, ...] = _PHASES, **override: Any
) -> dict[str, Any]:
    """PASE vs Faiss build ``phases`` per dataset over paired build
    pairs, with ``override`` over the preset's parameters: each engine's
    median per phase, and every pair's ratio."""
    groups: list[str] = []
    series: dict[str, list[float]] = {
        f"{engine} {phase}": [] for engine in ("PASE", "Faiss") for phase in phases
    }
    pair_gaps: dict[str, list[list[float]]] = {phase: [] for phase in phases}
    for name in scale.hnsw_datasets if index_type == "hnsw" else scale.datasets:
        ds, pairs = scale.builds(name, index_type, scale.build_pairs, **override)
        groups.append(f"{name}(n={ds.n})")
        for phase in phases:
            key = _phase(phase)
            series[f"PASE {phase}"].append(statistics.median(map(key, pairs.a)))
            series[f"Faiss {phase}"].append(statistics.median(map(key, pairs.b)))
            pair_gaps[phase].append(pairs.ratios(key))
    return {"groups": groups, "series": series, "pair_gaps": pair_gaps}


FIG3 = Figure(
    "fig3",
    "IVF_FLAT index construction time",
    "PASE 35.0x-84.8x slower; adding phase dominates both systems",
    build=lambda scale: _build_series(scale, "ivf_flat", use_sgemm=True),
    # The gap lives in the adding phase (SGEMM vs per-row loops).
    shape=lambda rows: _gap_verdicts(rows, "build time", "total", lo=1.0)
    + _gap_verdicts(rows, "adding time", "add", lo=3.0),
    render=grouped("IVF_FLAT build", gap_of=("PASE total", "Faiss total")),
)

FIG4 = Figure(
    "fig4",
    "IVF_FLAT construction with SGEMM disabled in Faiss",
    "adding phases converge (gap ~1x); remaining minor gap is the "
    "k-means implementation difference",
    build=lambda scale: _build_series(scale, "ivf_flat", use_sgemm=False),
    # Converged, vs > 3x with SGEMM on.
    shape=lambda rows: _gap_verdicts(rows, "adding time", "add", 0.4, 3.0),
    render=grouped("IVF_FLAT build (no SGEMM)", gap_of=("PASE add", "Faiss add")),
)

FIG5 = Figure(
    "fig5",
    "IVF_PQ index construction time",
    "PASE 6.5x-20.2x slower, same trend as IVF_FLAT",
    build=lambda scale: _build_series(scale, "ivf_pq", use_sgemm=True),
    shape=lambda rows: _gap_verdicts(rows, "build time", "total", lo=1.0),
    render=grouped("IVF_PQ build", gap_of=("PASE total", "Faiss total")),
)

FIG6 = Figure(
    "fig6",
    "IVF_PQ construction with SGEMM disabled in Faiss",
    "gap becomes negligible (k-means/PQ implementation noise only)",
    build=lambda scale: _build_series(scale, "ivf_pq", use_sgemm=False),
    shape=lambda rows: _gap_verdicts(rows, "adding time", "add", hi=3.0),
    render=grouped("IVF_PQ build (no SGEMM)", gap_of=("PASE add", "Faiss add")),
)


FIG7 = Figure(
    "fig7",
    "HNSW index construction time",
    "PASE 1.6x-8.7x slower; cause is buffer-manager indirection (RC#2)",
    build=lambda scale: _build_series(scale, "hnsw", phases=("total",)),
    shape=lambda rows: _gap_verdicts(rows, "build time", "total", lo=1.3, hi=30.0),
    render=grouped("HNSW build (median of pairs)", gap_of=("PASE total", "Faiss total")),
)

_TAB3_COLUMNS = (SEC_SEARCH_NB_TO_ADD, SEC_ADD_LINK, SEC_GREEDY_UPDATE, SEC_SHRINK_NB_LIST)
_FIG8_COLUMNS = (SEC_DISTANCE, SEC_TUPLE_ACCESS, SEC_VISITED, SEC_NEIGHBOR_FETCH)


def _breakdowns(
    pairs: Pairs, within: str | None = None
) -> list[dict[str, dict[str, BreakdownRow]]]:
    """Per profiled build pair, each engine's breakdown rows by section."""
    return [
        {
            engine: {r.name: r for r in prof.breakdown(within=within)}
            for engine, (__, prof) in (("PASE", pase), ("Faiss", faiss))
        }
        for pase, faiss in zip(pairs.a, pairs.b)
    ]


def _tab03_build(scale: Scale) -> dict[str, Any]:
    """Profiled paired HNSW build pairs: per pair, each engine's
    breakdown rows and the PASE/Faiss inclusive SearchNbToAdd time."""
    name = scale.hnsw_datasets[0]
    __, pairs = scale.builds(name, "hnsw", scale.build_pairs, profiled=True)
    return {
        "dataset": name,
        "breakdowns": _breakdowns(pairs),
        "search_nb_to_add": pairs.ratios(lambda b: b[1].inclusive_seconds(SEC_SEARCH_NB_TO_ADD)),
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
    out.append(
        median_within(f"PASE/Faiss {SEC_SEARCH_NB_TO_ADD} time", rows["search_nb_to_add"], lo=1.5)
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
    __, pairs = scale.builds(name, "hnsw", scale.build_pairs, profiled=True)
    return {"dataset": name, "breakdowns": _breakdowns(pairs, within=SEC_SEARCH_NB_TO_ADD)}


def _seconds(rows: dict[str, BreakdownRow], section: str, default: float = 0.0) -> float:
    row = rows.get(section)
    return row.seconds if row is not None else default


def _fig08_shape(rows: dict[str, Any]) -> list[Verdict]:
    pairs = rows["breakdowns"]
    # Tuple Access + pasepfirst + HVTGet dwarf distance time in PASE.
    indirection = (SEC_TUPLE_ACCESS, SEC_NEIGHBOR_FETCH, SEC_VISITED)
    return [
        median_within(
            f"PASE/Faiss {SEC_DISTANCE} time",
            [ratio(_seconds(p["PASE"], SEC_DISTANCE), _seconds(p["Faiss"], SEC_DISTANCE))
             for p in pairs],
            lo=0.4, hi=2.5,
        ),
        median_within(
            f"PASE indirection / {SEC_DISTANCE} time",
            [ratio(sum(_seconds(p["PASE"], s) for s in indirection),
                   _seconds(p["PASE"], SEC_DISTANCE)) for p in pairs],
            lo=2.0,
        ),
        median_within(
            f"Faiss {SEC_NEIGHBOR_FETCH} / {SEC_DISTANCE} time",
            [ratio(_seconds(p["Faiss"], SEC_NEIGHBOR_FETCH),
                   _seconds(p["Faiss"], SEC_DISTANCE, default=1e9)) for p in pairs],
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
        f"SearchNbToAdd on {rows['dataset']} (first pair)",
        {engine: list(b.values()) for engine, b in rows["breakdowns"][0].items()},
        columns=_FIG8_COLUMNS,
    ),
)


def _fig10_build(scale: Scale) -> dict[str, Any]:
    """Build-time gap vs c (IVF) and bnn (HNSW).  The paper sweeps c in
    {100, 500, 1000} on SIFT1M (n=1e6); the default keeps the same
    c/sqrt(n) proportions on the scaled dataset.  Each gap is the
    median of ``Scale.build_pairs`` paired PASE/Faiss build pairs.  The
    IVF end points come from :func:`paired` runs of one build pair at
    the largest c against one at the smallest, so each of those pairs
    also gives one gap-at-largest / gap-at-smallest ratio."""
    name = scale.datasets[0]
    sweep = scale if scale.fig10_params is None else replace(scale, params=scale.fig10_params)

    def gaps(index_type: str, pairs: int, **swept: Any) -> list[float]:
        return sweep.builds(name, index_type, pairs, **swept)[1].ratios(_phase("total"))

    c_values = scale.fig10_c
    if c_values is None:
        base_c = scale.index_params(scale.dataset(name), "ivf_flat")["clusters"]
        c_values = (max(base_c // 3, 4), base_c, base_c * 2)
    ivf_gaps, ivf_c_ratios = {}, {}
    for index_type in ("ivf_flat", "ivf_pq"):
        ends = paired(
            lambda: gaps(index_type, 1, clusters=c_values[-1])[0],
            lambda: gaps(index_type, 1, clusters=c_values[0])[0],
            scale.build_pairs,
        )
        middle = [
            statistics.median(gaps(index_type, scale.build_pairs, clusters=c))
            for c in c_values[1:-1]
        ]
        label = index_type.upper()
        ivf_gaps[label] = [statistics.median(ends.b), *middle, statistics.median(ends.a)]
        ivf_c_ratios[label] = ends.ratios()
    hnsw_pair_gaps = [gaps("hnsw", scale.build_pairs, bnn=b) for b in scale.fig10_bnn]
    return {
        "dataset": name,
        "c_values": list(c_values),
        "ivf_gaps": ivf_gaps,
        "ivf_c_ratios": ivf_c_ratios,
        "bnn_values": list(scale.fig10_bnn),
        "hnsw_gaps": {"HNSW": [statistics.median(g) for g in hnsw_pair_gaps]},
        "hnsw_pair_gaps": hnsw_pair_gaps,
    }


def _fig10_shape(rows: dict[str, Any]) -> list[Verdict]:
    c_values = rows["c_values"]
    points = [len(g) for g in rows["ivf_gaps"].values()]
    return [
        Verdict(
            "IVF gaps per c value", min(points), f"== {len(c_values)}",
            set(points) == {len(c_values)},
        ),
        # Growth, modulo micro-scale noise.
        median_within(
            f"IVF_PQ gap at c={c_values[-1]} / at c={c_values[0]}",
            rows["ivf_c_ratios"]["IVF_PQ"], lo=0.8,
        ),
    ] + [
        median_within(f"HNSW gap at bnn={bnn}", gaps, lo=1.2)
        for bnn, gaps in zip(rows["bnn_values"], rows["hnsw_pair_gaps"])
    ]


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
