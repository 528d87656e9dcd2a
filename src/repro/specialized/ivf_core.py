"""The one IVF model: the inverted-file index every IVF variant is built on.

Faiss has one ``IndexIVF`` skeleton; its variants differ only in how a
list entry is *encoded* and how it is *scored* against a query.
:class:`IVFIndex` is that skeleton; the page-backed access methods
(:mod:`repro.pase.ivf_core`) build through it too.  Construction has
the paper's two phases (Sec. II-B): *training* runs k-means over a
sample to produce ``c`` centroids; *adding* assigns each base vector to
its nearest centroid (:meth:`IVFIndex.assign`) and appends its encoding
to that list.  Both phases use the SGEMM decomposition by default
(RC#1, ``use_sgemm=False`` for the Fig. 4 ablation and for PASE);
``kmeans_style="pase"`` swaps in PASE's k-means (RC#5, Fig. 15).
Search scans the ``nprobe`` closest lists with one batched kernel call
per list into a size-``k`` heap, under the Table V sections ``Coarse
Quantizer`` / ``Tuple Access`` / ``fvec_L2sqr`` / ``Min-heap``.

What a variant overrides:

=========================  ============================================
``_codec_training_floor``  rows the training sample must keep (PQ: c_pq)
``_train_codec``           fit the payload codec on the training sample
``_encode``                vectors -> payload matrix, one row per entry
``_list_scorer``           per-query ``score(payload) -> distances``
``_payload_sizes``         ``size_info`` rows of the payloads and codec
=========================  ============================================
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.common.distance import batch_kernel, squared_norms
from repro.common.heap import BoundedMaxHeap, offer_topk
from repro.common.kmeans import (
    assign_nearest_batch,
    assign_nearest_loop,
    faiss_kmeans,
    pase_kmeans,
    sample_training_rows,
)
from repro.common.obs import NULL_PROGRESS, BuildProgress
from repro.common.profiling import SEC_COARSE, SEC_DISTANCE, SEC_HEAP, SEC_TUPLE_ACCESS
from repro.common.types import IndexSizeInfo, SearchResult
from repro.specialized.base import VectorIndex

#: ``score(payload) -> distances``: one query against one list's payloads.
ListScorer = Callable[[np.ndarray], np.ndarray]


class IVFIndex(VectorIndex):
    """Inverted-file index: coarse quantizer, lists, probe-and-scan.

    Args:
        dim: vector dimensionality.
        n_clusters: the paper's ``c``.
        sample_ratio: the paper's ``sr`` — fraction of added data used
            for k-means when :meth:`train` receives the full corpus.
        use_sgemm: RC#1 switch; affects training and adding.
        kmeans_style: ``"faiss"`` (default) or ``"pase"`` — RC#5 switch.
        kmeans_iterations: k-means iterations (coarse and codec).
        seed: RNG seed for sampling and k-means init.
    """

    search_params = ("nprobe",)
    #: Build phase sink (``sample``, ``kmeans``, ``assign``); an access
    #: method points it at ``pg_stat_progress_create_index``.
    progress: BuildProgress = NULL_PROGRESS

    def __init__(
        self,
        dim: int,
        n_clusters: int,
        sample_ratio: float = 0.01,
        use_sgemm: bool = True,
        kmeans_style: str = "faiss",
        kmeans_iterations: int = 10,
        seed: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(dim, **kwargs)
        if n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {n_clusters}")
        if kmeans_style not in ("faiss", "pase"):
            raise ValueError(f"kmeans_style must be 'faiss' or 'pase', got {kmeans_style!r}")
        self.n_clusters = n_clusters
        self.sample_ratio = sample_ratio
        self.use_sgemm = use_sgemm
        self.kmeans_style = kmeans_style
        self.kmeans_iterations = kmeans_iterations
        self.seed = seed
        self.centroids: np.ndarray | None = None
        self._centroid_sq_norms: np.ndarray | None = None
        #: ``(ids, list ids, payloads)`` of each add not yet in :meth:`lists`.
        self._staged: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._lists: list[tuple[np.ndarray, np.ndarray]] | None = None

    # ------------------------------------------------------------------
    # what a variant supplies
    # ------------------------------------------------------------------
    def _codec_training_floor(self) -> int:
        """Rows the training sample must keep for the codec (PQ: c_pq)."""
        return 0

    def _train_codec(self, sample: np.ndarray) -> None:
        """Fit the payload codec on the training sample (default: none)."""

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        """``(n, d)`` float32 vectors -> ``(n, width)`` payload matrix."""
        raise NotImplementedError

    def _list_scorer(self, query: np.ndarray) -> ListScorer:
        """Per-query scorer of one list's payload matrix; called once
        per search, ahead of the list scan."""
        raise NotImplementedError

    def _payload_sizes(self) -> dict[str, int]:
        """``size_info`` detail rows of the stored payloads and codec."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _train(self, data: np.ndarray) -> None:
        start = time.perf_counter()
        self.progress.set_phase("sample")
        floor = max(self.n_clusters, self._codec_training_floor())
        sample = sample_training_rows(data, self.sample_ratio, floor, self.seed)
        self.progress.set_phase("kmeans")
        if self.kmeans_style == "faiss":
            result = faiss_kmeans(
                sample,
                self.n_clusters,
                self.kmeans_iterations,
                seed=self.seed,
                use_sgemm=self.use_sgemm,
            )
        else:
            result = pase_kmeans(sample, self.n_clusters, self.kmeans_iterations)
        self.set_centroids(result.centroids)
        self._train_codec(sample)
        self.build_stats.train_seconds += time.perf_counter() - start

    def set_centroids(self, centroids: np.ndarray) -> None:
        """Install externally-trained centroids (Fig. 15 transplant).

        Must be called before :meth:`add`; marks the index trained.
        """
        cents = np.ascontiguousarray(centroids, dtype=np.float32)
        if cents.ndim != 2 or cents.shape[1] != self.dim:
            raise ValueError(f"centroids must be (c, {self.dim}), got {cents.shape}")
        if self.ntotal:
            raise RuntimeError("cannot replace centroids after vectors were added")
        self.centroids = cents
        self.n_clusters = cents.shape[0]
        self._centroid_sq_norms = squared_norms(cents)
        self._staged = []
        self._lists = None
        self.is_trained = True

    def assign(self, vectors: np.ndarray) -> np.ndarray:
        """Each row's list: its nearest centroid in L2, by SGEMM or, with
        ``use_sgemm=False``, one distance row per vector (RC#1)."""
        assert self.centroids is not None
        self.progress.set_phase("assign", tuples_total=vectors.shape[0])
        if self.use_sgemm:
            assignments, __ = assign_nearest_batch(vectors, self.centroids, self._centroid_sq_norms)
        else:
            assignments, __ = assign_nearest_loop(vectors, self.centroids)
        self.progress.tick(vectors.shape[0])
        return assignments

    def _add(self, data: np.ndarray) -> None:
        start = time.perf_counter()
        assignments = self.assign(data)
        self.build_stats.distance_computations += data.shape[0] * self.n_clusters
        ids = np.arange(self.ntotal, self.ntotal + data.shape[0], dtype=np.int64)
        self._staged.append((ids, assignments, self._encode(data)))
        self.build_stats.add_seconds += time.perf_counter() - start

    def add_core(self, ids, list_ids, vectors: np.ndarray) -> None:
        """Faiss's ``IndexIVF::add_core`` with precomputed list ids: the
        rows join the lists given, under the caller's ids; nothing is
        assigned, and an empty batch changes nothing.  Call
        :meth:`set_centroids` first."""
        arr = self._check_matrix(vectors, allow_empty=True)
        if not arr.shape[0]:
            return
        ids, list_ids = np.asarray(ids, dtype=np.int64), np.asarray(list_ids, dtype=np.int64)
        self._staged.append((ids, list_ids, self._encode(arr)))
        self.ntotal += arr.shape[0]

    def lists(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(ids, payloads)`` of every list, rows in add order (so ids
        ascend unless :meth:`add_core` chose them).  Staged adds join
        the lists with one stable sort; a list they do not touch is kept
        as it was, so a one-row add costs O(its list), not a re-sort."""
        if self._staged:
            ids, list_ids, payloads = (np.concatenate(parts) for parts in zip(*self._staged))
            self._staged = []
            order = np.argsort(list_ids, kind="stable")
            bounds = np.searchsorted(list_ids[order], np.arange(self.n_clusters + 1)).tolist()
            old = self._lists or [(ids[:0], payloads[:0])] * self.n_clusters
            self._lists = [
                (np.concatenate([lst[0], ids[order[lo:hi]]]),
                 np.concatenate([lst[1], payloads[order[lo:hi]]])) if hi > lo else lst
                for lst, lo, hi in zip(old, bounds[:-1], bounds[1:])
            ]
        if self._lists is None:
            return [(np.empty(0, dtype=np.int64), np.empty((0, self.dim)))] * self.n_clusters
        return self._lists

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def probe_order(self, query: np.ndarray, nprobe: int) -> np.ndarray:
        """The ``nprobe`` list ids closest to ``query``, nearest first,
        equal distances smaller id first: a stable sort's prefix, but
        only the lists up to the ``nprobe``-th distance (ties included,
        found with one ``np.partition``) are sorted."""
        assert self.centroids is not None
        dists = batch_kernel(self.distance_type)(query, self.centroids)[0]
        nprobe = min(nprobe, self.n_clusters)
        # ``~(d > kth)`` rather than ``d <= kth``: NaNs stay in and sort last.
        near = np.flatnonzero(~(dists > np.partition(dists, nprobe - 1)[nprobe - 1]))
        return near[np.argsort(dists[near], kind="stable")][:nprobe]

    def list_scores(self, query: np.ndarray) -> Callable[[int], tuple[np.ndarray, np.ndarray]]:
        """Per-query ``score(list) -> (ids, distances)``, one scorer call
        per non-empty list (what ``common.parallel.parallel_search`` takes)."""
        lists, score, empty = self.lists(), self._list_scorer(query), np.empty(0, np.float32)
        return lambda b: (lists[b][0], score(lists[b][1]) if len(lists[b][0]) else empty)

    def _search(self, query: np.ndarray, k: int, nprobe: int = 20) -> SearchResult:
        if nprobe <= 0:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        lists = self.lists()
        prof = self.profiler
        start = time.perf_counter()
        with prof.section(SEC_COARSE):
            probes = self.probe_order(query, nprobe)
        ndis = self.n_clusters
        score = self._list_scorer(query)
        heap = BoundedMaxHeap(k)
        for bucket in probes.tolist():
            with prof.section(SEC_TUPLE_ACCESS):
                ids, payloads = lists[bucket]
            if ids.shape[0] == 0:
                continue
            with prof.section(SEC_DISTANCE):
                dists = score(payloads)
            ndis += ids.shape[0]
            with prof.section(SEC_HEAP):
                offer_topk(heap, dists, ids)
        return SearchResult(
            neighbors=heap.results(),
            elapsed_seconds=time.perf_counter() - start,
            distance_computations=ndis,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def bucket_sizes(self) -> np.ndarray:
        """Number of entries per list."""
        return np.asarray([ids.shape[0] for ids, __ in self.lists()], dtype=np.int64)

    def bucket_members(self, bucket: int) -> np.ndarray:
        """Vector ids assigned to ``bucket``."""
        return self.lists()[bucket][0].copy()

    def size_info(self) -> IndexSizeInfo:
        assert self.centroids is not None
        detail = {
            **self._payload_sizes(),
            "ids": self.ntotal * 8,
            "centroids": int(self.centroids.nbytes),
        }
        total = sum(detail.values())
        return IndexSizeInfo(allocated_bytes=total, used_bytes=total, detail=detail)
