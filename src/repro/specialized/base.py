"""Common interface of the specialized engine's indexes."""

from __future__ import annotations

import abc

import numpy as np

from repro.common.obs import IndexScanStats
from repro.common.profiling import NULL_PROFILER, Profiler
from repro.common.types import (
    BuildStats,
    DistanceType,
    IndexSizeInfo,
    SearchResult,
    as_float32_matrix,
    as_float32_vector,
)


class VectorIndex(abc.ABC):
    """Abstract base of all specialized indexes.

    Mirrors the Faiss index lifecycle: an index is created with its
    hyper-parameters, optionally :meth:`train`-ed on a sample, filled
    with :meth:`add`, then queried with :meth:`search`.
    """

    requires_training: bool = True
    #: Keyword arguments :meth:`search` accepts beyond the query and k.
    search_params: tuple[str, ...] = ()

    def __init__(
        self,
        dim: int,
        distance_type: DistanceType = DistanceType.L2,
        profiler: Profiler | None = None,
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.distance_type = DistanceType(distance_type)
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.is_trained = not self.requires_training
        self.ntotal = 0
        self.build_stats = BuildStats()
        #: Cumulative scan statistics (same shape the pgsim index AMs
        #: expose), fed from each SearchResult's distance_computations.
        self.scan_stats = IndexScanStats()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def train(self, data: np.ndarray) -> None:
        """Train internal quantizers from a data sample."""
        arr = self._check_matrix(data)
        self._train(arr)
        self.is_trained = True

    def add(self, data: np.ndarray) -> None:
        """Add base vectors; ids are assigned sequentially from ``ntotal``."""
        arr = self._check_matrix(data)
        if not self.is_trained:
            raise RuntimeError(f"{type(self).__name__} must be trained before add()")
        self._add(arr)
        self.ntotal += arr.shape[0]
        self.build_stats.vectors_added = self.ntotal

    def search_batch(self, queries: np.ndarray, k: int, **kwargs) -> list[SearchResult]:
        """Top-``k`` search for a query batch.

        The base implementation loops :meth:`search`; indexes with a
        batched fast path (e.g. the flat index's single SGEMM distance
        matrix) override it.
        """
        arr = self._check_matrix(queries)
        results = [self._search(arr[i], k, **kwargs) for i in range(arr.shape[0])]
        for result in results:
            self._note_search(result)
        return results

    def search(self, query: np.ndarray, k: int, **kwargs) -> SearchResult:
        """Top-``k`` search for one query vector."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        if self.ntotal == 0:
            raise RuntimeError("index is empty; add vectors before searching")
        vec = as_float32_vector(query)
        if vec.shape[0] != self.dim:
            raise ValueError(f"query dim {vec.shape[0]} != index dim {self.dim}")
        result = self._search(vec, k, **kwargs)
        self._note_search(result)
        return result

    def _note_search(self, result: SearchResult) -> None:
        self.scan_stats.scans += 1
        self.scan_stats.candidates += result.distance_computations

    # ------------------------------------------------------------------
    # to implement
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _train(self, data: np.ndarray) -> None: ...

    @abc.abstractmethod
    def _add(self, data: np.ndarray) -> None: ...

    @abc.abstractmethod
    def _search(self, query: np.ndarray, k: int, **kwargs) -> SearchResult: ...

    @abc.abstractmethod
    def size_info(self) -> IndexSizeInfo:
        """Byte-level accounting of the built index."""
        ...

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _check_matrix(self, data: np.ndarray, allow_empty: bool = False) -> np.ndarray:
        arr = np.ascontiguousarray(data, dtype=np.float32)
        if not (allow_empty and arr.ndim == 2 and arr.shape[0] == 0):
            arr = as_float32_matrix(arr)
        if arr.shape[1] != self.dim:
            raise ValueError(f"vector dim {arr.shape[1]} != index dim {self.dim}")
        return arr
