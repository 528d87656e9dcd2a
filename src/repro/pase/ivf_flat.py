"""PASE IVF_FLAT: the paged IVF core with raw float32 vectors on the page.

Data tuples carry the vector (``ivf_data`` in :mod:`repro.pase.layout`),
so a candidate is scored straight off the index page with one timed
distance call — no decode, no heap round trip.
Everything else (build, insert, VACUUM, the scans, costs, sizes) is
:class:`repro.pase.ivf_core.PagedIVF`.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.distance import pairwise_kernel, rows_kernel
from repro.common.profiling import SEC_DISTANCE
from repro.common.types import DistanceType
from repro.pase.ivf_core import PagedIVF, RowsScorer, TupleScorer
from repro.pgsim.am import register_am
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
        """One row-kernel call over the gathered vectors, which the scan
        owns: L2 takes its difference in place."""
        rows = rows_kernel(self.ivf.distance_type)
        section = self.profiler.section

        def score_rows(keys, vectors):
            with section(SEC_DISTANCE):
                return keys, rows(query, vectors)

        return score_rows

    def _candidate_cost(self, cost: Any) -> float:
        return cost.cpu_index_tuple_cost + DISTANCE_OP_WEIGHT * cost.cpu_operator_cost
