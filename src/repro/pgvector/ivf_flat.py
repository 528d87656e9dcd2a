"""pgvector-style IVF_FLAT: TID-only index pages, heap fetch per candidate.

The paged IVF core (:class:`repro.pase.ivf_core.PagedIVF`), built like
PASE's IVF_FLAT through :class:`~repro.specialized.ivf_flat.IVFFlatIndex`
in PASE's flavour, with an *empty* ``ivf_data`` payload: data-fork
tuples hold **only the heap TID**, not the vector, and there is no meta
page — so every scanned candidate costs an extra heap-table round trip
through the buffer manager to get its vector.  Centroid pages and
chains are otherwise identical to PASE's.

This makes the index much smaller but the scan slower, which is the
architectural gap behind the paper's Fig. 2 ordering (PASE fastest
among the generalized systems).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.common.distance import pairwise_kernel, rows_kernel
from repro.common.profiling import SEC_DISTANCE, SEC_HEAP_FETCH
from repro.pase.ivf_core import PagedIVF, RowsScorer, TupleScorer
from repro.pgsim.am import register_am
from repro.pgsim.heapam import TID, key_tid
from repro.pgsim.paths import DISTANCE_OP_WEIGHT


@register_am
class PgVectorIVFFlat(PagedIVF):
    """IVF_FLAT with TID-only index entries (pgvector's design)."""

    amname = "ivfflat"
    FORKS = ("centroid", "data")

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        return np.empty((vectors.shape[0], 0), dtype=np.uint8)

    def _tuple_scorer(self, query: np.ndarray) -> TupleScorer:
        timed = self.profiler.timed
        kernel = timed(SEC_DISTANCE, pairwise_kernel(self.ivf.distance_type))
        fetch = timed(SEC_HEAP_FETCH, self.table.fetch_column_any)
        column = self.column_index

        def score_one(key, _payload):
            # The defining pgvector cost: fetch the candidate's vector
            # from the base heap table.  Any-version fetch: tombstoned
            # tuples still score (the executor filters by snapshot);
            # only physically reclaimed slots skip.
            vec = fetch(key_tid(key), column)
            if vec is None:
                return None
            return kernel(query, np.asarray(vec, dtype=np.float32))

        return score_one

    def _rows_scorer(self, query: np.ndarray) -> RowsScorer:
        """One bucket's vectors come from the heap via
        :meth:`HeapTable.fetch_column_many_any` — one buffer pin per
        heap block instead of one per candidate — and are scored in a
        single row-wise kernel call, in place: the fetched matrix is the
        scorer's own."""
        rows = rows_kernel(self.ivf.distance_type)
        fetch_many = self.table.fetch_column_many_any
        column = self.column_index
        section = self.profiler.section

        def score_rows(keys, _payloads):
            with section(SEC_HEAP_FETCH):
                tids = [TID(b, o) for b, o in zip((keys >> 16).tolist(), (keys & 0xFFFF).tolist())]
                columns = fetch_many(tids, column)
                if any(c is None for c in columns):
                    # Entries lagging a completed heap VACUUM: drop them.
                    keys = keys[[c is not None for c in columns]]
                    columns = [c for c in columns if c is not None]
                if not columns:
                    return keys, np.empty(0, dtype=np.float64)
                vectors = np.asarray(columns, dtype=np.float32)
            with section(SEC_DISTANCE):
                return keys, rows(query, vectors)

        return score_rows

    def _candidate_cost(self, cost: Any) -> float:
        """Buckets store bare TIDs: every probed candidate pays an extra
        heap-tuple fetch for its vector before the distance (pgvector's
        layout, vs PASE's vector-in-index)."""
        return (
            cost.cpu_index_tuple_cost
            + cost.cpu_tuple_cost
            + DISTANCE_OP_WEIGHT * cost.cpu_operator_cost
        )
