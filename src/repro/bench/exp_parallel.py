"""Parallelism figures: Figs. 9 and 18 (RC#3).

Work is executed for real; wall-clock under t threads comes from the
deterministic scheduler (DESIGN.md §2 explains the substitution).
"""

from __future__ import annotations

from typing import Any

from repro.bench.runner import Figure, Scale, Verdict, bench_dataset, ratio, within
from repro.common.datasets import PROFILES
from repro.common.parallel import parallel_search, speedups
from repro.core.report import render_grouped_series
from repro.core.study import make_specialized_index
from repro.specialized import parallel as spec_parallel

THREADS = [1, 2, 4, 8]


def _thread_labels() -> list[str]:
    return [f"{t} thr" for t in THREADS]


def _fig09_build(scale: Scale) -> dict[str, Any]:
    """Parallel IVF construction in Faiss, SGEMM on/off.

    PASE supports no parallel construction, so — like the paper —
    only the specialized engine is swept.
    """
    name = scale.datasets[0]
    base = scale.scale if scale.scale is not None else PROFILES[name].default_scale
    ds = bench_dataset(name, base * scale.parallel_build_factor)
    curves: dict[str, dict[int, float]] = {}
    for index_type in scale.parallel_index_types:
        for use_sgemm in (True, False):
            params = scale.index_params(ds, index_type)
            params["use_sgemm"] = use_sgemm
            index = make_specialized_index(index_type, ds.dim, params)
            index.train(ds.base)
            label = f"{index_type.upper()} {'with' if use_sgemm else 'no'} SGEMM"
            curves[label] = spec_parallel.simulate_parallel_build(index, ds.base, THREADS)
    return curves


def _fig09_shape(rows: dict[str, Any]) -> list[Verdict]:
    if "IVF_FLAT no SGEMM" not in rows:
        return []
    without, with_sgemm = rows["IVF_FLAT no SGEMM"], rows["IVF_FLAT with SGEMM"]
    return [
        within(
            "IVF_FLAT 8-thread speedup, no SGEMM / with SGEMM",
            ratio(without[1] / without[8], with_sgemm[1] / with_sgemm[8]), lo=1.0,
        )
    ]


def _fig09_render(rows: dict[str, Any]) -> str:
    return "\n\n".join(
        render_grouped_series(
            label, _thread_labels(), {"build time": [curve[t] for t in THREADS]}, unit="s"
        )
        + "\n"
        + render_grouped_series(
            "", _thread_labels(), {"speedup": [curve[1] / curve[t] for t in THREADS]}, unit="x"
        )
        for label, curve in rows.items()
    )


FIG9 = Figure(
    "fig9",
    "Parallel index construction (Faiss), SGEMM enabled/disabled",
    "all configurations scale with threads except IVF_FLAT with "
    "SGEMM, whose adding phase is already too fast to matter",
    build=_fig09_build,
    shape=_fig09_shape,
    render=_fig09_render,
)


def _fig18_build(scale: Scale) -> dict[str, Any]:
    """Intra-query parallel search scaling.

    Faiss partitions buckets across threads with local heaps merged at
    the end; PASE pushes every candidate into one global locked heap
    (one driver, the two heap designs).  The parallel Faiss answer to a
    second query is compared with the serial one.
    """
    name = scale.datasets[0]
    k, nprobe = scale.search.k, scale.search.nprobe

    def faiss(index, query):
        return parallel_search(
            index.probe_order(query, nprobe), index.list_scores(query), k, THREADS
        )

    speedup: dict[str, dict[int, float]] = {}
    ids_match: dict[str, bool] = {}
    for index_type in scale.parallel_index_types:
        study, __ = scale.study(name, index_type)
        query = study.dataset.queries[0]
        spec_index = study.specialized.index
        label = index_type.upper()
        __, spec_curve = faiss(spec_index, query)
        speedup[f"Faiss {label}"] = speedups(spec_curve)
        __, pase_curve = study.generalized.am.parallel_search(query, k, nprobe, THREADS)
        speedup[f"PASE {label}"] = speedups(pase_curve)
        other = study.dataset.queries[2]
        parallel, __ = faiss(spec_index, other)
        ids_match[label] = parallel.ids == study.specialized.search(other, k, nprobe=nprobe).ids
    return {"speedups": speedup, "ids_match": ids_match}


def _fig18_shape(rows: dict[str, Any]) -> list[Verdict]:
    out = []
    for label, match in rows["ids_match"].items():
        spec, pase = rows["speedups"][f"Faiss {label}"], rows["speedups"][f"PASE {label}"]
        # Local heaps scale; the global locked heap falls clearly behind
        # (thresholds kept loose: unit costs are measured under load).
        out.append(within(f"Faiss {label} 8-thread speedup", spec[8], lo=2.0))
        out.append(
            Verdict(
                f"Faiss - PASE {label} 8-thread speedup", spec[8] - pase[8], "> 0.3",
                spec[8] > pase[8] + 0.3, detail=f"{spec[8]:.2f} vs {pase[8]:.2f}",
            )
        )
        out.append(Verdict(f"Faiss {label} parallel ids == serial ids", match, "is true", match))
    return out


FIG18 = Figure(
    "fig18",
    "Intra-query parallel search scaling",
    "Faiss scales nearly linearly; PASE's global locked heap keeps "
    "its speedup flat",
    build=_fig18_build,
    shape=_fig18_shape,
    render=lambda rows: "\n\n".join(
        render_grouped_series(
            f"{label} intra-query speedup",
            _thread_labels(),
            {
                legend: [rows["speedups"][f"{engine} {label}"][t] for t in THREADS]
                for engine, legend in (
                    ("Faiss", "Faiss (local heaps)"),
                    ("PASE", "PASE (global locked heap)"),
                )
            },
            unit="x",
        )
        for label in rows["ids_match"]
    ),
)
