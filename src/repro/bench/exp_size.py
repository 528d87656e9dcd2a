"""Index-size figures: Figs. 11-13 and Table IV."""

from __future__ import annotations

from typing import Any

from repro.bench.runner import Figure, Scale, Verdict, grouped, per_group, ratio, ratios
from repro.core.report import format_bytes, render_table
from repro.core.study import GeneralizedVectorDB


def _size_series(scale: Scale, index_type: str) -> dict[str, Any]:
    """Allocated and live index bytes per dataset, plus PASE's page
    accounting (``detail``: pages per kind, ``waste``: unused share)."""
    groups: list[str] = []
    series: dict[str, list[float]] = {"PASE": [], "Faiss": []}
    used: dict[str, list[int]] = {"PASE": [], "Faiss": []}
    pages: list[int] = []
    detail: list[dict[str, Any]] = []
    waste: list[float] = []
    names = scale.hnsw_datasets if index_type == "hnsw" else scale.datasets
    for name in names:
        study, __ = scale.study(name, index_type)
        cmp = study.compare_size()
        groups.append(f"{name}(n={study.dataset.n})")
        for engine, info in (("PASE", cmp.generalized), ("Faiss", cmp.specialized)):
            series[engine].append(float(info.allocated_bytes))
            used[engine].append(info.used_bytes)
        pages.append(cmp.generalized.page_count)
        detail.append(dict(cmp.generalized.detail))
        waste.append(cmp.generalized.waste_ratio)
    return {
        "groups": groups,
        "series": series,
        "used": used,
        "pase_pages": pages,
        "pase_detail": detail,
        "pase_waste": waste,
    }


FIG11 = Figure(
    "fig11",
    "IVF_FLAT index size",
    "almost the same in PASE and Faiss (page layout aligns with memory layout)",
    build=lambda scale: _size_series(scale, "ivf_flat"),
    shape=lambda rows: per_group("PASE/Faiss index size", ratios(rows), 0.7, 2.0),  # paper: ~1x
    render=grouped("IVF_FLAT size", unit="bytes"),
)


def _fig12_build(scale: Scale) -> dict[str, Any]:
    rows = _size_series(scale, "ivf_pq")
    rows["series"]["Faiss IVF_FLAT"] = [
        float(scale.study(name, "ivf_flat")[0].specialized.index_size().allocated_bytes)
        for name in scale.datasets
    ]
    return rows


FIG12 = Figure(
    "fig12",
    "IVF_PQ index size",
    "no significant size difference",
    build=_fig12_build,
    # At micro scale, page-granularity rounding (one page minimum per
    # bucket chain) inflates PASE's allocated bytes; the live payload
    # is the scale-free comparison and must be ~equal, as in Fig. 12.
    shape=lambda rows: per_group("PASE/Faiss live payload", ratios(rows, key="used"), 0.5, 2.0)
    + per_group("PASE/Faiss allocated size", ratios(rows), hi=8.0)
    + per_group(
        "Faiss IVF_PQ / IVF_FLAT allocated size", ratios(rows, "Faiss", "Faiss IVF_FLAT"), hi=1.0
    ),
    render=grouped("IVF_PQ size", unit="bytes"),
)


def _fig13_shape(rows: dict[str, Any]) -> list[Verdict]:
    groups = rows["groups"]
    # The waste comes from one fresh page per adjacency list.
    pages = [ratio(d["neighbors_pages"], d["data_pages"]) for d in rows["pase_detail"]]
    return (
        per_group("PASE/Faiss index size", ratios(rows), lo=2.5)  # paper: 2.9x-13.3x
        + per_group("PASE neighbor / data pages", list(zip(groups, pages)), lo=1.0)
        + per_group("PASE unused page share", list(zip(groups, rows["pase_waste"])), lo=0.5)
    )


FIG13 = Figure(
    "fig13",
    "HNSW index size",
    "PASE 2.9x-13.3x larger: 24-byte neighbor tuples plus one fresh "
    "page per adjacency list",
    build=lambda scale: _size_series(scale, "hnsw"),
    shape=_fig13_shape,
    render=grouped("HNSW size", unit="bytes"),
)


def _tab04_build(scale: Scale) -> dict[str, Any]:
    """PASE HNSW allocated bytes at 8 KB (the shared default build) and
    4 KB pages."""
    groups: list[str] = []
    sizes: list[dict[int, int]] = []
    for name in scale.hnsw_datasets:
        study, __ = scale.study(name, "hnsw")
        gen = GeneralizedVectorDB(page_size=4096)
        gen.load(study.dataset.base)
        gen.create_index("hnsw", **study.params)
        groups.append(f"{name}(n={study.dataset.n})")
        sizes.append(
            {
                8192: study.generalized.index_size().allocated_bytes,
                4096: gen.index_size().allocated_bytes,
            }
        )
    return {"groups": groups, "sizes": sizes}


TAB4 = Figure(
    "tab4",
    "PASE HNSW index size with 8KB/4KB page size",
    "halving the page size roughly halves the index (ratio ~2x)",
    build=_tab04_build,
    # Paper: 1.41x-1.87x.
    shape=lambda rows: per_group(
        "8 KB / 4 KB index size",
        [(group, ratio(s[8192], s[4096])) for group, s in zip(rows["groups"], rows["sizes"])],
        1.4, 2.2,
    ),
    render=lambda rows: render_table(
        ["dataset", "8KB pages", "4KB pages", "ratio"],
        [
            [group, format_bytes(s[8192]), format_bytes(s[4096]), f"{s[8192] / s[4096]:.2f}x"]
            for group, s in zip(rows["groups"], rows["sizes"])
        ],
    ),
)
