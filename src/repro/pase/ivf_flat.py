"""PASE IVF_FLAT: the paged IVF core with raw float32 vectors on the page.

Data tuples are ``heap_blkno (u32) | heap_offset (u16) | pad (2) |
vector (d * f32)``, so a candidate is scored straight off the index
page with one float kernel call — no decode, no heap round trip.
Everything else (build, insert, VACUUM, the scans, costs, sizes) is
:class:`repro.pase.ivf_core.PagedIVF`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.distance import pairwise_kernel, rows_kernel
from repro.pase.ivf_core import (
    SEC_DISTANCE,
    SEC_HEAP,
    SEC_TUPLE_ACCESS,
    PagedIVF,
    RowsScorer,
    TupleScorer,
    _key_tid,
)
from repro.pgsim.am import ScanBatch, register_am, topk_batch
from repro.pgsim.paths import DISTANCE_OP_WEIGHT


@register_am
class PaseIVFFlat(PagedIVF):
    """IVF_FLAT access method (PASE page layout)."""

    amname = "pase_ivfflat"
    aliases = ("ivfflat_fun",)
    PAYLOAD_IS_VECTOR = True

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return vectors

    def _tuple_scorer(self, query: np.ndarray) -> TupleScorer:
        kernel = pairwise_kernel(self._metric())
        section = self.profiler.section

        def score_one(_tid, vec):
            with section(SEC_DISTANCE):
                return kernel(query, vec)

        return score_one

    def _rows_scorer(self, query: np.ndarray) -> RowsScorer:
        rows = rows_kernel(self._metric())
        section = self.profiler.section

        def score_rows(keys, vectors):
            with section(SEC_DISTANCE):
                return keys, rows(query, vectors)

        return score_rows

    def _candidate_cost(self, cost: Any) -> float:
        return cost.cpu_index_tuple_cost + DISTANCE_OP_WEIGHT * cost.cpu_operator_cost

    def amsearch_filtered_batch(self, query: np.ndarray, k: int, mask_fn: Any) -> ScanBatch:
        """Batched in-filter: each visited list is decoded in one pass
        and masked by TID, then the survivors of every list are scored
        with one row-kernel call (the other page-backed variants mask
        tuple-at-a-time)."""
        query = self._check_query(query)
        order, heads = self._rank_centroids(query, batch=True)
        section = self.profiler.section
        key_parts: list[np.ndarray] = []
        vector_parts: list[np.ndarray] = []

        def visit(bucket: int) -> tuple[int, int]:
            with section(SEC_TUPLE_ACCESS):
                keys, vectors = self._gather_buckets([heads[bucket]])
            if keys.shape[0] == 0:
                return 0, 0
            mask = np.asarray(list(mask_fn([_key_tid(key) for key in keys.tolist()])), dtype=bool)
            key_parts.append(keys[mask])
            vector_parts.append(vectors[mask])
            return int(keys.shape[0]), int(mask.sum())

        self._widen_probes(order.tolist(), k, visit)
        if not key_parts:
            return ScanBatch.empty()
        keys, dists = self._rows_scorer(query)(np.concatenate(key_parts), np.vstack(vector_parts))
        self.scan_stats.candidates += int(keys.shape[0])
        with section(SEC_HEAP):
            return topk_batch(keys, dists, k)
