"""IVF_PQ for the specialized engine (Faiss's ``IndexIVFPQ``).

Same inverted-file skeleton as :mod:`repro.specialized.ivf_flat`, but
each bucket stores product-quantization codes instead of raw vectors
(Sec. II-B).  Search computes asymmetric distances against a per-query
precomputed table; the *optimized* table construction (norms cached at
train time + inner products, RC#7) is the default and can be disabled
with ``optimized_pctable=False`` for the Sec. VII-B ablation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.common import pq
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

SEC_DISTANCE = "fvec_L2sqr"
SEC_TUPLE_ACCESS = "Tuple Access"
SEC_HEAP = "Min-heap"
SEC_COARSE = "Coarse Quantizer"
SEC_PCTABLE = "Pctable"


class IVFPQIndex(VectorIndex):
    """Inverted-file index with product-quantized buckets.

    Args:
        dim: vector dimensionality (must be divisible by ``m``).
        n_clusters: the paper's ``c``.
        m: sub-vector count (paper's ``m``).
        c_pq: codewords per sub-space (paper's ``c_pq``).
        optimized_pctable: RC#7 switch — optimized vs. naive ADC table.
        use_sgemm: RC#1 switch for training/adding.
    """

    def __init__(
        self,
        dim: int,
        n_clusters: int,
        m: int,
        c_pq: int = 256,
        sample_ratio: float = 0.01,
        use_sgemm: bool = True,
        optimized_pctable: bool = True,
        kmeans_style: str = "faiss",
        kmeans_iterations: int = 10,
        seed: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(dim, **kwargs)
        if dim % m != 0:
            raise ValueError(f"dim {dim} not divisible by m={m}")
        if n_clusters <= 0:
            raise ValueError(f"n_clusters must be positive, got {n_clusters}")
        self.n_clusters = n_clusters
        self.m = m
        self.c_pq = c_pq
        self.sample_ratio = sample_ratio
        self.use_sgemm = use_sgemm
        self.optimized_pctable = optimized_pctable
        self.kmeans_style = kmeans_style
        self.kmeans_iterations = kmeans_iterations
        self.seed = seed
        self.centroids: np.ndarray | None = None
        self._centroid_sq_norms: np.ndarray | None = None
        self.codebook: pq.PQCodebook | None = None
        self._bucket_codes: list[list[np.ndarray]] = []
        self._bucket_ids: list[list[int]] = []
        self._bucket_code_arrays: list[np.ndarray] | None = None
        self._bucket_id_arrays: list[np.ndarray] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _train(self, data: np.ndarray) -> None:
        start = time.perf_counter()
        sample = sample_training_rows(
            data, self.sample_ratio, max(self.n_clusters, self.c_pq), self.seed
        )
        if self.kmeans_style == "faiss":
            coarse = faiss_kmeans(
                sample,
                self.n_clusters,
                self.kmeans_iterations,
                seed=self.seed,
                use_sgemm=self.use_sgemm,
            )
        else:
            coarse = pase_kmeans(sample, self.n_clusters, self.kmeans_iterations)
        self.centroids = coarse.centroids
        self._centroid_sq_norms = squared_norms(self.centroids)
        self.codebook = pq.train_codebook(
            sample,
            self.m,
            self.c_pq,
            max_iterations=self.kmeans_iterations,
            seed=self.seed,
            style=self.kmeans_style,
        )
        self._bucket_codes = [[] for _ in range(self.n_clusters)]
        self._bucket_ids = [[] for _ in range(self.n_clusters)]
        self.build_stats.train_seconds += time.perf_counter() - start

    def _add(self, data: np.ndarray) -> None:
        assert self.centroids is not None and self.codebook is not None
        start = time.perf_counter()
        if self.use_sgemm:
            assignments, _ = assign_nearest_batch(data, self.centroids, self._centroid_sq_norms)
        else:
            assignments, _ = assign_nearest_loop(data, self.centroids)
        self.build_stats.distance_computations += data.shape[0] * self.n_clusters
        codes = pq.encode(self.codebook, data)
        next_id = self.ntotal
        for offset, bucket in enumerate(assignments.tolist()):
            self._bucket_codes[bucket].append(codes[offset])
            self._bucket_ids[bucket].append(next_id + offset)
        self._bucket_code_arrays = None
        self._bucket_id_arrays = None
        self.build_stats.add_seconds += time.perf_counter() - start

    def _finalize(self) -> None:
        if self._bucket_code_arrays is not None:
            return
        self._bucket_code_arrays = []
        self._bucket_id_arrays = []
        for codes, ids in zip(self._bucket_codes, self._bucket_ids):
            if codes:
                self._bucket_code_arrays.append(np.vstack(codes))
                self._bucket_id_arrays.append(np.asarray(ids, dtype=np.int64))
            else:
                self._bucket_code_arrays.append(np.empty((0, self.m), dtype=np.uint8))
                self._bucket_id_arrays.append(np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _search(self, query: np.ndarray, k: int, nprobe: int = 20) -> SearchResult:
        if nprobe <= 0:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        assert self.centroids is not None and self.codebook is not None
        self._finalize()
        prof = self.profiler
        start = time.perf_counter()
        ndis = self.n_clusters
        with prof.section(SEC_COARSE):
            kernel = batch_kernel(self.distance_type)
            cent_dists = kernel(query, self.centroids)[0]
            nprobe = min(nprobe, self.n_clusters)
            part = np.argpartition(cent_dists, nprobe - 1)[:nprobe]
            probes = part[np.argsort(cent_dists[part], kind="stable")]
        with prof.section(SEC_PCTABLE):
            if self.optimized_pctable:
                table = pq.optimized_adc_table(self.codebook, query)
            else:
                table = pq.naive_adc_table(self.codebook, query)
        heap = BoundedMaxHeap(k)
        for bucket in probes.tolist():
            with prof.section(SEC_TUPLE_ACCESS):
                codes = self._bucket_code_arrays[bucket]
                ids = self._bucket_id_arrays[bucket]
            if codes.shape[0] == 0:
                continue
            with prof.section(SEC_DISTANCE):
                dists = pq.adc_distances(table, codes)
            ndis += codes.shape[0]
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
        """Number of codes per bucket."""
        return np.asarray([len(ids) for ids in self._bucket_ids], dtype=np.int64)

    def size_info(self) -> IndexSizeInfo:
        assert self.centroids is not None and self.codebook is not None
        code_bytes = self.ntotal * self.m  # one uint8 per sub-code
        id_bytes = self.ntotal * 8
        centroid_bytes = int(self.centroids.nbytes)
        codebook_bytes = self.codebook.nbytes()
        total = code_bytes + id_bytes + centroid_bytes + codebook_bytes
        return IndexSizeInfo(
            allocated_bytes=total,
            used_bytes=total,
            detail={
                "codes": code_bytes,
                "ids": id_bytes,
                "centroids": centroid_bytes,
                "codebooks": codebook_bytes,
            },
        )
