"""IVF_SQ8 for the specialized engine (Faiss's ``IndexIVFScalarQuantizer``).

Same inverted-file skeleton as IVF_FLAT, but buckets store one-byte
scalar-quantized codes (Sec. II-B's third quantization index) —
4 bytes/dim savings at a small, bounded recall cost.  Search
dequantizes each probed bucket in one vectorized step and scores it
with the batched kernel.
"""

from __future__ import annotations

import time

import numpy as np

from repro.common import sq
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


class IVFSQ8Index(VectorIndex):
    """Inverted-file index over scalar-quantized (1 byte/dim) codes."""

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
        self.n_clusters = n_clusters
        self.sample_ratio = sample_ratio
        self.use_sgemm = use_sgemm
        self.kmeans_style = kmeans_style
        self.kmeans_iterations = kmeans_iterations
        self.seed = seed
        self.centroids: np.ndarray | None = None
        self._centroid_sq_norms: np.ndarray | None = None
        self.codec: sq.SQ8Codec | None = None
        self._bucket_codes: list[list[np.ndarray]] = []
        self._bucket_ids: list[list[int]] = []
        self._bucket_code_arrays: list[np.ndarray] | None = None
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
        self.centroids = result.centroids
        self._centroid_sq_norms = squared_norms(self.centroids)
        self.codec = sq.train_codec(sample)
        self._bucket_codes = [[] for __ in range(self.n_clusters)]
        self._bucket_ids = [[] for __ in range(self.n_clusters)]
        self.build_stats.train_seconds += time.perf_counter() - start

    def _add(self, data: np.ndarray) -> None:
        assert self.centroids is not None and self.codec is not None
        start = time.perf_counter()
        if self.use_sgemm:
            assignments, __ = assign_nearest_batch(data, self.centroids, self._centroid_sq_norms)
        else:
            assignments, __ = assign_nearest_loop(data, self.centroids)
        self.build_stats.distance_computations += data.shape[0] * self.n_clusters
        codes = sq.encode(self.codec, data)
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
                self._bucket_code_arrays.append(np.empty((0, self.dim), dtype=np.uint8))
                self._bucket_id_arrays.append(np.empty(0, dtype=np.int64))

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _search(self, query: np.ndarray, k: int, nprobe: int = 20) -> SearchResult:
        if nprobe <= 0:
            raise ValueError(f"nprobe must be positive, got {nprobe}")
        assert self.centroids is not None and self.codec is not None
        self._finalize()
        prof = self.profiler
        start = time.perf_counter()
        kernel = batch_kernel(self.distance_type)
        ndis = self.n_clusters
        with prof.section(SEC_COARSE):
            cent_dists = kernel(query, self.centroids)[0]
            nprobe = min(nprobe, self.n_clusters)
            part = np.argpartition(cent_dists, nprobe - 1)[:nprobe]
            probes = part[np.argsort(cent_dists[part], kind="stable")]
        heap = BoundedMaxHeap(k)
        for bucket in probes.tolist():
            with prof.section(SEC_TUPLE_ACCESS):
                codes = self._bucket_code_arrays[bucket]
                ids = self._bucket_id_arrays[bucket]
            if codes.shape[0] == 0:
                continue
            with prof.section(SEC_DISTANCE):
                vectors = sq.decode(self.codec, codes)
                dists = kernel(query, vectors)[0]
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
        assert self.centroids is not None and self.codec is not None
        code_bytes = self.ntotal * self.dim  # one byte per dimension
        id_bytes = self.ntotal * 8
        centroid_bytes = int(self.centroids.nbytes)
        codec_bytes = self.codec.nbytes()
        total = code_bytes + id_bytes + centroid_bytes + codec_bytes
        return IndexSizeInfo(
            allocated_bytes=total,
            used_bytes=total,
            detail={
                "codes": code_bytes,
                "ids": id_bytes,
                "centroids": centroid_bytes,
                "codec": codec_bytes,
            },
        )
