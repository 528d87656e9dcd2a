"""Recall parity check (the paper's Sec. IV-D premise).

The paper omits recall plots because "the recall rate will be the same
in PASE and Faiss" when both run the same index with the same
parameters.  This experiment validates that premise in the
reproduction: HNSW recall is *bit-identical* (same seeded graph), and
IVF recall matches within the small RC#5 wiggle caused by the two
k-means flavours.
"""

from __future__ import annotations

from typing import Any

from repro.bench.exp_search import _RECALL_TOLERANCE
from repro.bench.runner import Figure, Scale, Verdict
from repro.core.report import render_table

_INDEX_TYPES = ("ivf_flat", "ivf_pq", "hnsw")


def _recall_build(scale: Scale) -> dict[str, Any]:
    """Recall@k of every index type on both engines."""
    data: dict[str, dict[str, tuple[float, float]]] = {}
    for name in scale.pair_datasets:
        data[name] = {}
        for index_type in _INDEX_TYPES:
            cmp = scale.recall_search.run(scale.study(name, index_type)[0], recall=True)
            data[name][index_type] = (cmp.generalized_recall, cmp.specialized_recall)
    return {"k": scale.recall_search.k, "recalls": data}


def _recall_shape(rows: dict[str, Any]) -> list[Verdict]:
    out = []
    for name, by_index in rows["recalls"].items():
        for index_type, (pase, faiss) in by_index.items():
            # HNSW builds the same seeded graph on both engines.
            tolerance = 0.0 if index_type == "hnsw" else _RECALL_TOLERANCE
            out.append(
                Verdict(
                    f"{name} {index_type} |PASE - Faiss recall|", abs(pase - faiss),
                    "== 0" if index_type == "hnsw" else f"< {tolerance:g}",
                    pase == faiss or abs(pase - faiss) < tolerance,
                )
            )
    return out


RECALL = Figure(
    "recall",
    "Recall parity between the engines (Sec. IV-D premise)",
    "recall matches across engines: exactly for HNSW (identical "
    "graphs), within RC#5 noise for the IVF family",
    build=_recall_build,
    shape=_recall_shape,
    render=lambda rows: render_table(
        ["dataset", "index", f"PASE recall@{rows['k']}", f"Faiss recall@{rows['k']}", "parity"],
        [
            [
                name, index_type, f"{pase:.3f}", f"{faiss:.3f}",
                "exact" if index_type == "hnsw" else "same clusters modulo RC#5",
            ]
            for name, by_index in rows["recalls"].items()
            for index_type, (pase, faiss) in by_index.items()
        ],
    ),
)
