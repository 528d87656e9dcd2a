"""Bridged IVF_FLAT: PASE's page layout + the Sec. IX-C optimizations.

A :class:`repro.pase.ivf_flat.PaseIVFFlat` (same meta/centroid/data
forks, so durability, VACUUM and DROP cleanup are inherited) whose
vectors additionally *live* in a memory mirror.  Construction and
search follow the paper's five guidelines: SGEMM assignment,
Faiss-flavour k-means, the mirror served without buffer-manager
indirection, and a k-sized heap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.common.distance import BatchKernel, batch_kernel, squared_norms
from repro.common.heap import BoundedMaxHeap, offer_topk
from repro.common.kmeans import assign_nearest_batch, faiss_kmeans
from repro.common.parallel import WorkUnit
from repro.pase.ivf_core import topk_parts
from repro.pase.ivf_flat import PaseIVFFlat
from repro.pgsim.am import ScanBatch, register_am
from repro.pgsim.heapam import TID, key_tid, tid_key


@dataclass(slots=True)
class _MemoryMirror:
    """Step#1: the memory-optimized table serving the hot path."""

    centroids: np.ndarray
    centroid_sq_norms: np.ndarray
    #: Per list, aligned: the vectors and their packed heap TID keys
    #: (what the in-filter mask and top-k take).
    bucket_vectors: list[np.ndarray]
    bucket_keys: list[np.ndarray]


@register_am
class BridgedIVFFlat(PaseIVFFlat):
    """IVF_FLAT with all seven root causes neutralized (Sec. IX-C)."""

    amname = "bridged_ivfflat"
    aliases = ()

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._mirror: _MemoryMirror | None = None

    # ------------------------------------------------------------------
    # build (Steps #2 and #5)
    # ------------------------------------------------------------------
    def _train_coarse(self, sample: np.ndarray, n_clusters: int) -> np.ndarray:
        """Step#5: the well-tuned k-means flavour (RC#5)."""
        return faiss_kmeans(
            sample, n_clusters, self.ivf.kmeans_iterations, seed=self.ivf.seed
        ).centroids

    def _assign(self, vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """Step#2: SGEMM-batched assignment (RC#1) — one batched call,
        so the assign phase ticks once for the whole table."""
        assignments, __ = assign_nearest_batch(vectors, centroids)
        self.progress.tick(vectors.shape[0])
        return assignments

    def _flush(
        self,
        centroids: np.ndarray,
        tids: list[TID],
        payloads: np.ndarray,
        buckets: list[list[int]],
    ) -> None:
        """Durability first — the same page layout PASE uses — then the
        mirror, straight from the build's arrays."""
        super()._flush(centroids, tids, payloads, buckets)
        keys = np.asarray([tid_key(tid) for tid in tids], dtype=np.int64)
        self._set_mirror(centroids, [(keys[rows], payloads[rows]) for rows in buckets])

    def _set_mirror(
        self, centroids: np.ndarray, buckets: list[tuple[np.ndarray, np.ndarray]]
    ) -> _MemoryMirror:
        """Install the mirror from per-list ``(packed TID keys, vectors)``."""
        self._mirror = _MemoryMirror(
            centroids=np.ascontiguousarray(centroids, dtype=np.float32),
            centroid_sq_norms=squared_norms(centroids),
            bucket_vectors=[vectors for __, vectors in buckets],
            bucket_keys=[keys for keys, __ in buckets],
        )
        return self._mirror

    def _ensure_mirror(self) -> _MemoryMirror:
        if self._mirror is not None:
            return self._mirror
        if self.dim is None:
            raise RuntimeError("index has not been built")
        # Rebuild the mirror from the durable pages (restart path).
        # The readers' payloads are views of pinned pages: each is
        # copied (by vstack) before its page is unpinned.
        centroids = []
        heads = []
        for __, head, vec in self._iter_centroids():
            centroids.append(vec.copy())
            heads.append(head)
        buckets = []
        for head in heads:
            keys: list[int] = []
            vectors: list[np.ndarray] = [np.empty((0, self.dim), np.float32)]
            for page_keys, payloads in self._chain_pages(head):
                keys += page_keys
                if payloads:
                    vectors.append(np.vstack(payloads))
            matrix = np.vstack(vectors)
            buckets.append((np.asarray(keys, dtype=np.int64), matrix))
        return self._set_mirror(np.vstack(centroids), buckets)

    # ------------------------------------------------------------------
    # insert — pages first (durability), then the mirror
    # ------------------------------------------------------------------
    def insert(self, tid: TID, value: Any) -> None:
        super().insert(tid, value)
        mirror = self._mirror
        if mirror is None:
            return
        vec = np.ascontiguousarray(value, dtype=np.float32)
        bucket = int(np.argmin(mirror.centroid_sq_norms - 2.0 * (mirror.centroids @ vec)))
        mirror.bucket_vectors[bucket] = np.vstack(
            [mirror.bucket_vectors[bucket], vec.reshape(1, -1)]
        )
        mirror.bucket_keys[bucket] = np.append(mirror.bucket_keys[bucket], tid_key(tid))

    # ------------------------------------------------------------------
    # vacuum (ambulkdelete)
    # ------------------------------------------------------------------
    def ambulkdelete(self, dead_tids: set[TID]) -> int:
        """Page compaction via the base class, then drop the mirror.

        The mirror is rebuilt lazily from the compacted pages on the
        next scan, so dead vectors leave both representations at once
        (and a centroid re-centered by the base class is picked up too).
        Vacuum-progress ticks come from the inherited compaction loop —
        ticking here as well would double-count reclaimed entries.
        """
        removed = super().ambulkdelete(dead_tids)
        if removed:
            self._mirror = None
        return removed

    # ------------------------------------------------------------------
    # search (Steps #1, #2, #3)
    # ------------------------------------------------------------------
    def _probe(
        self, query: np.ndarray, nprobe: int | None
    ) -> tuple[_MemoryMirror, BatchKernel, list[int]]:
        """Rank the mirror's centroids with one SGEMM row.

        Returns the mirror, the batch kernel and the ``nprobe`` nearest
        lists nearest-first — or, with ``nprobe=None``, the full ranking
        the in-filter widening walks.  Equal distances rank the smaller
        centroid id first, as the page-path ranking does.
        """
        mirror = self._ensure_mirror()
        kernel = batch_kernel(self.ivf.distance_type)
        order = np.argsort(kernel(query, mirror.centroids)[0], kind="stable")
        return mirror, kernel, (order if nprobe is None else order[: max(nprobe, 1)]).tolist()

    def scan(self, query: np.ndarray, k: int) -> Iterator[tuple[TID, float]]:
        query = self._check_query(query)
        mirror, kernel, probes = self._probe(query, self._nprobe())
        heap = BoundedMaxHeap(k)
        self.scan_stats.scans += 1
        for bucket in probes:
            vectors = mirror.bucket_vectors[bucket]
            if vectors.shape[0] == 0:
                continue
            self.scan_stats.candidates += int(vectors.shape[0])
            offer_topk(heap, kernel(query, vectors)[0], mirror.bucket_keys[bucket])
        for neighbor in heap.results():
            yield key_tid(neighbor.vector_id), neighbor.distance

    def get_batch(self, query: np.ndarray, k: int) -> ScanBatch:
        """Batched scan straight off the memory mirror.

        Same SGEMM distances as :meth:`scan`; selection is a single
        lexsort over all probed candidates.
        """
        query = self._check_query(query)
        mirror, kernel, probes = self._probe(query, self._nprobe())
        key_parts: list[np.ndarray] = []
        dist_parts: list[np.ndarray] = []
        self.scan_stats.scans += 1
        for bucket in probes:
            vectors = mirror.bucket_vectors[bucket]
            if vectors.shape[0] == 0:
                continue
            self.scan_stats.candidates += int(vectors.shape[0])
            dist_parts.append(kernel(query, vectors)[0].astype(np.float64))
            key_parts.append(mirror.bucket_keys[bucket])
        return topk_parts(key_parts, dist_parts, k)

    def amrescan_continue(self, query: np.ndarray, k: int) -> Iterator[tuple[TID, float]]:
        """Rescan off the mirror — the inherited page-path continuation
        (cached centroid ranking) does not apply here."""
        return self.scan(query, k)

    def amrescan_continue_batch(self, query: np.ndarray, k: int) -> ScanBatch:
        """Batched mirror rescan (see :meth:`amrescan_continue`)."""
        return self.get_batch(query, k)

    # ------------------------------------------------------------------
    # in-filter search (amsearch_filtered)
    # ------------------------------------------------------------------
    def amsearch_filtered(
        self, query: np.ndarray, k: int, mask_fn: Any
    ) -> Iterator[tuple[TID, float]]:
        """Tuple-stream form of the mirror-based in-filter scan: the
        keys of each round become TIDs for the tuple-form mask."""

        def key_mask(keys: np.ndarray) -> Any:
            return mask_fn([key_tid(key) for key in keys.tolist()])

        return iter(self.amsearch_filtered_batch(query, k, key_mask).pairs())

    def amsearch_filtered_batch(self, query: np.ndarray, k: int, mask_fn: Any) -> ScanBatch:
        """In-filter off the memory mirror: one boolean mask over each
        widening round's packed TID keys ahead of the per-list SGEMM
        distance calls, widened by the core's probe loop while fewer
        than k survive."""
        query = self._check_query(query)
        mirror, kernel, order = self._probe(query, None)
        key_parts: list[np.ndarray] = []
        dist_parts: list[np.ndarray] = []

        def visit(buckets: Sequence[int]) -> tuple[int, int]:
            lists = [mirror.bucket_keys[bucket] for bucket in buckets]
            keys = np.concatenate(lists) if lists else np.empty(0, dtype=np.int64)
            if not len(keys):
                return 0, 0
            mask = np.asarray(mask_fn(keys), dtype=bool)
            start = 0
            for bucket, bucket_keys in zip(buckets, lists):
                keep = mask[start : start + len(bucket_keys)]
                start += len(bucket_keys)
                if keep.any():
                    vectors = mirror.bucket_vectors[bucket][keep]
                    dist_parts.append(kernel(query, vectors)[0].astype(np.float64))
                    key_parts.append(bucket_keys[keep])
            return len(keys), int(mask.sum())

        self._widen_probes(order, k, visit)
        self.scan_stats.candidates += sum(int(part.shape[0]) for part in key_parts)
        return topk_parts(key_parts, dist_parts, k)

    # ------------------------------------------------------------------
    # planner contract
    # ------------------------------------------------------------------
    def amcostestimate(self, ntuples: float, fetch_k: int, cost: Any) -> tuple[float, float]:
        """Same probe shape as PASE IVF_FLAT but memory-resident: the
        SGEMM bucket scoring skips the per-tuple page toll, modeled as
        half the page-structured cost."""
        startup, total = super().amcostestimate(ntuples, fetch_k, cost)
        return startup * 0.5, total * 0.5

    # ------------------------------------------------------------------
    # Step#4: parallel search with local heaps
    # ------------------------------------------------------------------
    def parallel_search_units(
        self, query: np.ndarray, k: int, nprobe: int
    ) -> tuple[list[tuple[TID, float]], list[WorkUnit]]:
        """Scan each probed bucket as a unit with a *local* heap.

        Returns the merged results and the measured work units (zero
        serial sections except the final lock-free merge), ready for
        :func:`repro.common.parallel.scaling_curve`.
        """
        query = np.ascontiguousarray(query, dtype=np.float32)
        mirror, kernel, probes = self._probe(query, nprobe)
        global_heap = BoundedMaxHeap(k)
        units: list[WorkUnit] = []
        for bucket in probes:
            start = time.perf_counter()
            local = BoundedMaxHeap(k)
            vectors = mirror.bucket_vectors[bucket]
            if vectors.shape[0]:
                dists = kernel(query, vectors)[0]
                for key, d in zip(mirror.bucket_keys[bucket].tolist(), dists.tolist()):
                    local.push(d, key)
            cost = time.perf_counter() - start
            global_heap.merge(local)
            units.append(WorkUnit(compute_seconds=cost, serial_ops=1))
        merged = [(key_tid(n.vector_id), n.distance) for n in global_heap.results()]
        return merged, units
