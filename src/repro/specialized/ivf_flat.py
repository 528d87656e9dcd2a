"""IVF_FLAT for the specialized engine (Faiss's ``IndexIVFFlat``).

Construction has the paper's two phases (Sec. II-B): *training* runs
k-means over a sample to produce ``c`` centroids; *adding* assigns each
base vector to its nearest centroid and appends it to that bucket.
Both phases use the SGEMM decomposition by default (RC#1); passing
``use_sgemm=False`` reproduces the Fig. 4 ablation.

Search scans the ``nprobe`` closest buckets with batched kernels and
keeps a size-``k`` bounded heap — the Faiss behaviours the paper
contrasts with PASE in Table V.
"""

from __future__ import annotations

import time

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
from repro.common.types import IndexSizeInfo, SearchResult
from repro.specialized.base import VectorIndex

# Table V section names.
SEC_DISTANCE = "fvec_L2sqr"
SEC_TUPLE_ACCESS = "Tuple Access"
SEC_HEAP = "Min-heap"
SEC_COARSE = "Coarse Quantizer"


class IVFFlatIndex(VectorIndex):
    """Inverted-file index with exact in-bucket distances.

    Args:
        dim: vector dimensionality.
        n_clusters: the paper's ``c``.
        sample_ratio: the paper's ``sr`` — fraction of added data used
            for k-means when :meth:`train` receives the full corpus.
        use_sgemm: RC#1 switch; affects training and adding.
        kmeans_style: ``"faiss"`` (default) or ``"pase"`` — RC#5 switch
            used by the Fig. 15 centroid-transplant experiment.
        seed: RNG seed for sampling and k-means init.
    """

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
        # Per-bucket staging lists, finalized to arrays lazily.
        self._bucket_rows: list[list[np.ndarray]] = []
        self._bucket_ids: list[list[int]] = []
        self._bucket_vectors: list[np.ndarray] | None = None
        self._bucket_id_arrays: list[np.ndarray] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _train(self, data: np.ndarray) -> None:
        start = time.perf_counter()
        sample = sample_training_rows(data, self.sample_ratio, self.n_clusters, self.seed)
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
        self._bucket_rows = [[] for _ in range(self.n_clusters)]
        self._bucket_ids = [[] for _ in range(self.n_clusters)]
        self.is_trained = True

    def _add(self, data: np.ndarray) -> None:
        assert self.centroids is not None
        start = time.perf_counter()
        if self.use_sgemm:
            assignments, _ = assign_nearest_batch(data, self.centroids, self._centroid_sq_norms)
        else:
            assignments, _ = assign_nearest_loop(data, self.centroids)
        self.build_stats.distance_computations += data.shape[0] * self.n_clusters
        next_id = self.ntotal
        for offset, bucket in enumerate(assignments.tolist()):
            self._bucket_rows[bucket].append(data[offset])
            self._bucket_ids[bucket].append(next_id + offset)
        self._bucket_vectors = None  # invalidate finalized arrays
        self._bucket_id_arrays = None
        self.build_stats.add_seconds += time.perf_counter() - start

    def _finalize(self) -> None:
        if self._bucket_vectors is not None:
            return
        self._bucket_vectors = []
        self._bucket_id_arrays = []
        for rows, ids in zip(self._bucket_rows, self._bucket_ids):
            if rows:
                self._bucket_vectors.append(np.vstack(rows))
                self._bucket_id_arrays.append(np.asarray(ids, dtype=np.int64))
            else:
                self._bucket_vectors.append(np.empty((0, self.dim), dtype=np.float32))
                self._bucket_id_arrays.append(np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def probe_order(self, query: np.ndarray, nprobe: int) -> np.ndarray:
        """The ``nprobe`` bucket ids closest to ``query``, nearest first."""
        assert self.centroids is not None
        kernel = batch_kernel(self.distance_type)
        dists = kernel(query, self.centroids)[0]
        nprobe = min(nprobe, self.n_clusters)
        part = np.argpartition(dists, nprobe - 1)[:nprobe]
        return part[np.argsort(dists[part], kind="stable")]

    def _search(self, query: np.ndarray, k: int, nprobe: int = 20) -> SearchResult:
        if nprobe <= 0:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        self._finalize()
        prof = self.profiler
        start = time.perf_counter()
        ndis = 0
        with prof.section(SEC_COARSE):
            probes = self.probe_order(query, nprobe)
        ndis += self.n_clusters
        heap = BoundedMaxHeap(k)
        kernel = batch_kernel(self.distance_type)
        for bucket in probes.tolist():
            with prof.section(SEC_TUPLE_ACCESS):
                vectors = self._bucket_vectors[bucket]
                ids = self._bucket_id_arrays[bucket]
            if vectors.shape[0] == 0:
                continue
            with prof.section(SEC_DISTANCE):
                dists = kernel(query, vectors)[0]
            ndis += vectors.shape[0]
            with prof.section(SEC_HEAP):
                offer_topk(heap, dists, ids)
        neighbors = heap.results()
        return SearchResult(
            neighbors=neighbors,
            elapsed_seconds=time.perf_counter() - start,
            distance_computations=ndis,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def bucket_sizes(self) -> np.ndarray:
        """Number of vectors per bucket."""
        return np.asarray([len(ids) for ids in self._bucket_ids], dtype=np.int64)

    def bucket_members(self, bucket: int) -> np.ndarray:
        """Vector ids assigned to ``bucket``."""
        return np.asarray(self._bucket_ids[bucket], dtype=np.int64)

    def size_info(self) -> IndexSizeInfo:
        assert self.centroids is not None
        vector_bytes = self.ntotal * self.dim * 4
        id_bytes = self.ntotal * 8
        centroid_bytes = int(self.centroids.nbytes)
        total = vector_bytes + id_bytes + centroid_bytes
        return IndexSizeInfo(
            allocated_bytes=total,
            used_bytes=total,
            detail={
                "vectors": vector_bytes,
                "ids": id_bytes,
                "centroids": centroid_bytes,
            },
        )
