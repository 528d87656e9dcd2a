"""Bridged IVF_FLAT: PASE's page layout + the Sec. IX-C optimizations.

A :class:`repro.pase.ivf_flat.PaseIVFFlat` (same forks, so durability,
VACUUM and DROP cleanup are inherited) whose lists also *live* in
memory as the specialized engine's :class:`~repro.specialized.ivf_flat.IVFFlatIndex`,
keyed by packed heap TIDs: same centroids, same rows per list as the
pages.  Construction and search follow the paper's five guidelines.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.common.distance import batch_kernel
from repro.common.kmeans import assign_nearest_batch, faiss_kmeans
from repro.common.parallel import ScheduleResult, parallel_search
from repro.common.types import SearchResult
from repro.pase.ivf_core import topk_parts
from repro.pase.ivf_flat import PaseIVFFlat
from repro.pgsim.am import ScanBatch, register_am
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
    def _train_coarse(self, sample: np.ndarray, n_clusters: int) -> np.ndarray:
        """Step#5: the well-tuned k-means flavour (RC#5)."""
        ivf = self.ivf
        return faiss_kmeans(sample, n_clusters, ivf.kmeans_iterations, seed=ivf.seed).centroids

    def _assign(self, vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """Step#2: SGEMM-batched assignment (RC#1) — one batched call,
        so the assign phase ticks once for the whole table."""
        assignments, __ = assign_nearest_batch(vectors, centroids)
        self.progress.tick(vectors.shape[0])
        return assignments

    def _flush(
        self, centroids: np.ndarray, keys: np.ndarray, payloads: np.ndarray,
        buckets: list[list[int]],
    ) -> None:
        """Durability first — the same page layout PASE uses — then the
        memory index, straight from the build's arrays."""
        super()._flush(centroids, keys, payloads, buckets)
        list_ids = np.empty(len(keys), dtype=np.int64)
        for bucket, rows in enumerate(buckets):
            list_ids[rows] = bucket
        self._load(centroids, keys, list_ids, payloads)

    def _load(self, centroids: np.ndarray, keys, list_ids, vectors: np.ndarray) -> IVFFlatIndex:
        """Install the memory index: each row joins the list given (its
        rows in the order given), nothing re-assigned."""
        index = IVFFlatIndex(self.dim, len(centroids), distance_type=self.ivf.distance_type)
        index.set_centroids(centroids)
        if len(keys):  # a VACUUM may have emptied every list
            index.add_core(keys, list_ids, vectors)
        index.lists()
        self._index = index
        return index

    def _memory(self) -> IVFFlatIndex:
        """The memory index, rebuilt from the pages when dropped: rows stay
        in the list whose chain holds them (views copied under the pin)."""
        if self._index is not None:
            return self._index
        centroids = [(head, vec.copy()) for __, head, vec in self._iter_centroids()]
        keys: list[int] = []
        list_ids: list[int] = []
        vectors = [np.empty((0, self.dim), np.float32)]
        for bucket, (head, __) in enumerate(centroids):
            for page_keys, payloads in self._chain_pages(head):
                keys += page_keys
                list_ids += [bucket] * len(page_keys)
                if payloads:
                    vectors.append(np.vstack(payloads))
        return self._load(np.vstack([c for __, c in centroids]), keys, list_ids, np.vstack(vectors))

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

    # search (Steps #1-#3): PagedIVF's dispatch points, so its continuations are inherited
    def _tuple_scan(self, query: np.ndarray, k: int, reuse: bool) -> Iterator[tuple[TID, float]]:
        """The specialized engine's search loop (k-sized heap); its
        distance count less the ranked centroids is the candidates."""
        query, index = self._check_query(query), self._memory()
        result = index._search(query, k, self._nprobe())
        self.scan_stats.scans += 1
        self.scan_stats.candidates += result.distance_computations - index.n_clusters
        return iter([(key_tid(n.vector_id), n.distance) for n in result.neighbors])

    def _batch_scan(self, query: np.ndarray, k: int, reuse: bool) -> ScanBatch:
        """One SGEMM call per probed list, then one lexsort over all."""
        query, index = self._check_query(query), self._memory()
        score = index.list_scores(query)
        parts = [score(bucket) for bucket in index.probe_order(query, self._nprobe()).tolist()]
        keys = [keys for keys, __ in parts]
        self.scan_stats.scans += 1
        self.scan_stats.candidates += sum(part.shape[0] for part in keys)
        return topk_parts(keys, [dists.astype(np.float64) for __, dists in parts], k)

    def amsearch_filtered(self, query: np.ndarray, k: int, mask_fn: Any) -> Iterator:
        """Tuple-stream form of the batch in-filter scan below: each
        round's keys become TIDs for the tuple-form mask."""
        batch = self.amsearch_filtered_batch(
            query, k, lambda keys: mask_fn([key_tid(key) for key in keys.tolist()])
        )
        return iter(batch.pairs())

    def amsearch_filtered_batch(self, query: np.ndarray, k: int, mask_fn: Any) -> ScanBatch:
        """In-filter off the memory index: one mask call over each widening
        round's packed TID keys, then one SGEMM call per list on the rows
        that passed; ``_widen_probes`` widens while fewer than k pass."""
        query, index = self._check_query(query), self._memory()
        lists, kernel = index.lists(), batch_kernel(self.ivf.distance_type)
        key_parts: list[np.ndarray] = []
        dist_parts: list[np.ndarray] = []

        def visit(buckets: Sequence[int]) -> tuple[int, int]:
            round_lists = [lists[bucket] for bucket in buckets]
            sizes = [keys.shape[0] for keys, __ in round_lists]
            if not sum(sizes):
                return 0, 0
            mask = np.asarray(mask_fn(np.concatenate([keys for keys, __ in round_lists])), bool)
            for (keys, vectors), keep in zip(round_lists, np.split(mask, np.cumsum(sizes)[:-1])):
                if keep.any():
                    dist_parts.append(kernel(query, vectors[keep])[0].astype(np.float64))
                    key_parts.append(keys[keep])
            return sum(sizes), int(mask.sum())

        self._widen_probes(index.probe_order(query, index.n_clusters).tolist(), k, visit)
        self.scan_stats.candidates += sum(int(part.shape[0]) for part in key_parts)
        return topk_parts(key_parts, dist_parts, k)

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
