"""PASE IVF_FLAT: the paged IVF core with raw float32 vectors on the page.

Data tuples carry the vector (``ivf_data`` in :mod:`repro.pase.layout`),
so a candidate is scored straight off the index page with one timed
distance call — no decode, no heap round trip.
Everything else (build, insert, VACUUM, the scans, costs, sizes) is
:class:`repro.pase.ivf_core.PagedIVF`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.common.distance import pairwise_kernel, rows_kernel
from repro.common.profiling import SEC_DISTANCE, SEC_HEAP, SEC_TUPLE_ACCESS
from repro.common.types import DistanceType
from repro.pase.ivf_core import PagedIVF, RowsScorer, TupleScorer
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
        """One timed call per candidate: L2 and inner product are the
        per-pair kernels' arithmetic written out (same values to the
        bit), cosine calls its kernel."""
        distance_type = DistanceType(self.ivf.distance_type)
        if distance_type == DistanceType.L2:

            def score_one(_key, vec):
                diff = query - vec
                return float(diff.dot(diff))

        elif distance_type == DistanceType.INNER_PRODUCT:

            def score_one(_key, vec):
                return -float(query.dot(vec))

        else:
            kernel = pairwise_kernel(distance_type)

            def score_one(_key, vec):
                return kernel(query, vec)

        return self.profiler.timed(SEC_DISTANCE, score_one)

    def _rows_scorer(self, query: np.ndarray) -> RowsScorer:
        rows = rows_kernel(self.ivf.distance_type)
        section = self.profiler.section

        def score_rows(keys, vectors):
            with section(SEC_DISTANCE):
                return keys, rows(query, vectors)

        return score_rows

    def _candidate_cost(self, cost: Any) -> float:
        return cost.cpu_index_tuple_cost + DISTANCE_OP_WEIGHT * cost.cpu_operator_cost

    def amsearch_filtered_batch(self, query: np.ndarray, k: int, mask_fn: Any) -> ScanBatch:
        """Batched in-filter: each widening round's lists are read
        page-granular in one pass and masked by packed TID key with one
        ``mask_fn`` call, then the survivors of every round are scored
        with one row-kernel call (the other page-backed variants mask
        tuple-at-a-time)."""
        query = self._check_query(query)
        order, heads = self._rank_centroids(query, batch=True)
        section = self.profiler.section
        key_parts: list[np.ndarray] = []
        vector_parts: list[np.ndarray] = []

        def visit(buckets: Sequence[int]) -> tuple[int, int]:
            with section(SEC_TUPLE_ACCESS):
                keys, vectors = self._gather_buckets([heads[bucket] for bucket in buckets])
            if keys.shape[0] == 0:
                return 0, 0
            mask = np.asarray(mask_fn(keys), dtype=bool)
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
