"""The inverted-file index every specialized IVF variant is built on.

Faiss has one ``IndexIVF`` skeleton; its variants differ only in how a
list entry is *encoded* and how it is *scored* against a query.
:class:`IVFIndex` is that skeleton.  Construction has the paper's two
phases (Sec. II-B): *training* runs k-means over a sample to produce
``c`` centroids; *adding* assigns each base vector to its nearest
centroid and appends its encoding to that list.  Both phases use the
SGEMM decomposition by default (RC#1, ``use_sgemm=False`` for the
Fig. 4 ablation); ``kmeans_style="pase"`` swaps in PASE's k-means
(RC#5, Fig. 15).  Search scans the ``nprobe`` closest lists with one
batched kernel call per list into a size-``k`` heap, under the Table V
sections ``Coarse Quantizer`` / ``Tuple Access`` / ``fvec_L2sqr`` /
``Min-heap``.

What a variant overrides (the hook names of
:class:`repro.pase.ivf_core.PagedIVF`):

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
        #: ``(assignments, payloads)`` per :meth:`add`, rows in id order.
        self._staged: list[tuple[np.ndarray, np.ndarray]] = []
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
        floor = max(self.n_clusters, self._codec_training_floor())
        sample = sample_training_rows(data, self.sample_ratio, floor, self.seed)
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

    def _add(self, data: np.ndarray) -> None:
        assert self.centroids is not None
        start = time.perf_counter()
        if self.use_sgemm:
            assignments, __ = assign_nearest_batch(data, self.centroids, self._centroid_sq_norms)
        else:
            assignments, __ = assign_nearest_loop(data, self.centroids)
        self.build_stats.distance_computations += data.shape[0] * self.n_clusters
        self._staged.append((assignments, self._encode(data)))
        self._lists = None
        self.build_stats.add_seconds += time.perf_counter() - start

    def lists(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(ids, payloads)`` of every list; ids ascend within a list."""
        if not self._staged:
            return [(np.empty(0, dtype=np.int64), np.empty((0, self.dim)))] * self.n_clusters
        if self._lists is None:
            assignments = np.concatenate([a for a, __ in self._staged])
            payloads = np.concatenate([p for __, p in self._staged])
            self._staged = [(assignments, payloads)]
            # Ids are add order, so a stable sort by list keeps them ascending.
            order = np.argsort(assignments, kind="stable")
            bounds = np.searchsorted(assignments[order], np.arange(self.n_clusters + 1))
            self._lists = [
                (order[lo:hi], payloads[order[lo:hi]])
                for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
            ]
        return self._lists

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def probe_order(self, query: np.ndarray, nprobe: int) -> np.ndarray:
        """The ``nprobe`` list ids closest to ``query``, nearest first."""
        assert self.centroids is not None
        dists = batch_kernel(self.distance_type)(query, self.centroids)[0]
        nprobe = min(nprobe, self.n_clusters)
        part = np.argpartition(dists, nprobe - 1)[:nprobe]
        return part[np.argsort(dists[part], kind="stable")]

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
