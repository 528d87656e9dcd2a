"""Per-root-cause ablation sweep (beyond the paper's figures).

DESIGN.md calls out the toggles the reproduction exposes for each
root cause; this experiment measures how much of the gap each toggle
closes, turning Sec. IX-B's qualitative claims into numbers.
"""

from __future__ import annotations

from typing import Any

from repro.bench.runner import Figure, Scale, Verdict, median_within
from repro.core.ablation import SWITCHES, run_ablation
from repro.core.report import render_table

#: Cause -> how far the gap without it may sit above the gap with it.
#: Removing SGEMM must close the build gap; the k-heap and the
#: optimized PQ table must not make PASE slower (they usually help a
#: little, inside search-time noise).  Each is gated on the median
#: ratio of alternating with/without pairs: ``Scale.build_pairs`` for
#: the build toggle, ``Scale.search_pairs`` for the search ones.
#: RC#5's centroid transplant is paired the same way but not gated
#: (EXPERIMENTS note 3).
_SLACK = {"SGEMM": 1.0, "HEAP_SIZE": 1.3, "PRECOMPUTED_TABLE": 1.2}


def _ablation_build(scale: Scale) -> dict[str, Any]:
    """Run every togglable root-cause ablation on one dataset."""
    ds = scale.dataset(scale.datasets[0])
    search = scale.ablation_search
    data = {}
    for cause, switch in SWITCHES.items():
        result = run_ablation(
            cause, ds, scale.index_params(ds, switch.index_type),
            k=search.k, nprobe=search.nprobe, n_queries=search.n_queries,
            pairs=scale.build_pairs if switch.metric == "build" else scale.search_pairs,
        )
        data[cause.name] = {
            "metric": switch.metric,
            "with": result.gap_with_cause,
            "without": result.gap_without_cause,
            "closed": result.gap_closed_fraction,
            "pair_ratios": result.pair_ratios,
        }
    return data


def _ablation_shape(rows: dict[str, Any]) -> list[Verdict]:
    return [
        median_within(
            f"{cause} gap without / with the cause ({row['with']:.2f}x -> {row['without']:.2f}x)",
            row["pair_ratios"], hi=_SLACK[cause],
        )
        for cause, row in rows.items()
        if cause in _SLACK
    ]


ABLATION = Figure(
    "ablation",
    "Root-cause ablation sweep",
    "each toggle reduces its gap: SGEMM closes most of the build "
    "gap; heap/pctable/k-means toggles each shave the search gap",
    build=_ablation_build,
    shape=_ablation_shape,
    render=lambda rows: render_table(
        ["root cause", "metric", "gap with", "gap without", "gap closed"],
        [
            [
                f"RC#{cause.value} {cause.name}", row["metric"], f"{row['with']:.2f}x",
                f"{row['without']:.2f}x", f"{row['closed'] * 100:.0f}%",
            ]
            for cause, row in ((c, rows[c.name]) for c in SWITCHES)
        ],
    ),
)
