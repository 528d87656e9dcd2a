"""Bridged IVF_FLAT: PASE's page layout + the Sec. IX-C optimizations.

A :class:`repro.pase.ivf_flat.PaseIVFFlat` (same forks, so durability,
VACUUM and DROP cleanup are inherited) that differs from PASE in its
build flavour — Faiss's k-means, SGEMM assignment — and keeps the
trained model, the specialized engine's
:class:`~repro.specialized.ivf_flat.IVFFlatIndex`, as a memory index
keyed by packed heap TIDs: same centroids, same rows per list as the
pages.  That memory index is where its lists live for search: it ranks
the lists and hands them over, one part per list, to
:class:`~repro.pase.ivf_core.PagedIVF`'s batch search, whose answer
both scan interfaces return.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.common.parallel import ScheduleResult, parallel_search
from repro.common.profiling import SEC_DISTANCE
from repro.common.types import SearchResult
from repro.pase.ivf_core import Part, RowsScorer, record_keys
from repro.pase.ivf_flat import PaseIVFFlat
from repro.pgsim.am import register_am
from repro.pgsim.heapam import TID, key_tid, tid_key
from repro.specialized.ivf_flat import IVFFlatIndex


@register_am
class BridgedIVFFlat(PaseIVFFlat):
    """IVF_FLAT with all seven root causes neutralized (Sec. IX-C)."""

    amname = "bridged_ivfflat"
    aliases = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Step#1: the memory-optimized copy serving the hot path; None
        #: until built, and again whenever its pages change under it.
        self._index: IVFFlatIndex | None = None

    # build (Steps #2 and #5) and the memory residence (Step #1)
    #: Step#5: the well-tuned k-means (RC#5); Step#2: SGEMM assignment (RC#1).
    KMEANS_STYLE, USE_SGEMM = "faiss", True

    def _flush(
        self, model: IVFFlatIndex, keys: np.ndarray, payloads: np.ndarray,
        assignments: np.ndarray,
    ) -> None:
        """Durability first — the same page layout PASE uses — then the
        trained model becomes the memory index, its lists the pages'."""
        super()._flush(model, keys, payloads, assignments)
        model.add_core(keys, assignments, payloads)
        model.lists()
        self._index = model

    def _memory(self) -> IVFFlatIndex:
        """The memory index, rebuilt from the pages when dropped: each
        chain read page-granular in item order, its rows joining the
        list whose chain holds them, nothing re-assigned."""
        if self._index is not None:
            return self._index
        buffer, rel = self.buffer, self.relation_name("data")
        cents = self.layouts["centroid"].read_packed(
            buffer, self.relation_name("centroid"), item_order=True
        )
        index = IVFFlatIndex(self.dim, len(cents), distance_type=self.ivf.distance_type)
        index.set_centroids(cents["payload"])
        for bucket, head in enumerate(cents["bucket_head"].tolist()):
            rows = self.layouts["data"].read_packed(buffer, rel, [head], item_order=True)
            index.add_core(record_keys(rows), np.full(len(rows), bucket), rows["payload"])
        index.lists()
        self._index = index
        return index

    def insert(self, tid: TID, value: Any) -> int:
        """Pages first (durability), then the memory index: the row
        joins the list the pages chose for it."""
        bucket = super().insert(tid, value)
        if self._index is not None:
            self._index.add_core([tid_key(tid)], [bucket], value)
        return bucket

    def ambulkdelete(self, dead_tids: set[TID]) -> int:
        """Page compaction via the base class, then drop the memory
        index: the next scan rebuilds it from the compacted pages."""
        removed = super().ambulkdelete(dead_tids)
        if removed:
            self._index = None
        return removed

    def _recenter(self, centroid_id: int, centroid: np.ndarray) -> None:
        """A centroid moved on its page: rebuild from the pages next."""
        super()._recenter(centroid_id, centroid)
        self._index = None

    # search (Steps #1-#3): the residence, so PagedIVF's batch search serves both interfaces
    def _rank_lists(self, query: np.ndarray, reuse: bool = False) -> tuple[np.ndarray, Sequence]:
        """The memory index's ranking (no page pinned) and its lists."""
        index = self._memory()
        return index.probe_order(query, index.n_clusters), index.lists()

    def _list_parts(self, lists: Sequence, buckets: Sequence[int]) -> list[Part]:
        """One part per list, as the memory index holds it."""
        return [lists[bucket] for bucket in buckets]

    def _rows_scorer(self, query: np.ndarray) -> RowsScorer:
        """The memory index's per-list SGEMM scorer, the one
        :meth:`parallel_search` scores its work units with."""
        score, section = self._memory()._list_scorer(query), self.profiler.section

        def score_rows(keys, vectors):
            with section(SEC_DISTANCE):
                return keys, score(vectors).astype(np.float64)

        return score_rows

    def _tuple_scan(self, query: np.ndarray, k: int, reuse: bool) -> Iterator[tuple[TID, float]]:
        """The batch scan's answer as a stream."""
        return iter(self._batch_scan(query, k, reuse).pairs())

    def amsearch_filtered(self, query: np.ndarray, k: int, mask_fn: Any) -> Iterator:
        """The batch in-filter scan's answer, the mask given TIDs."""
        batch = self.amsearch_filtered_batch(
            query, k, lambda keys: mask_fn([key_tid(key) for key in keys.tolist()])
        )
        return iter(batch.pairs())

    def amcostestimate(self, ntuples: float, fetch_k: int, cost: Any) -> tuple[float, float]:
        """PASE IVF_FLAT's probe shape without the per-tuple page toll,
        modeled as half the page-structured cost."""
        startup, total = super().amcostestimate(ntuples, fetch_k, cost)
        return startup * 0.5, total * 0.5

    def parallel_search(
        self, query: np.ndarray, k: int, nprobe: int, thread_counts: list[int]
    ) -> tuple[SearchResult, dict[int, ScheduleResult]]:
        """Step#4: each probed list of the memory index is a work unit
        with a *local* heap (one serial merge per list, no per-push
        lock).  Result ids are packed heap TID keys."""
        query, index = self._check_query(query), self._memory()
        probes = index.probe_order(query, max(nprobe, 1)).tolist()
        return parallel_search(probes, index.list_scores(query), k, thread_counts)
