"""HNSW for the specialized engine: array-backed graph store.

The graph *algorithm* lives in :mod:`repro.common.graph`; this module
provides the Faiss-style substrate: vectors in one contiguous float32
matrix, adjacency lists as plain Python lists of 4-byte ids, and a
flat boolean array as the visited set.  Every access is a direct
memory dereference — the baseline against which the paper measures
PASE's buffer-manager indirection (RC#2) and page blow-up (RC#4).
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.common import graph
from repro.common.rng import make_rng
from repro.common.types import DistanceType, IndexSizeInfo, SearchResult
from repro.specialized.base import VectorIndex

#: bytes per stored neighbor id — Faiss stores plain int32 ids
#: ("Faiss HNSW uses only 4 bytes as expected", Sec. VI-C2).
NEIGHBOR_ID_BYTES = 4


class _ArrayVisited:
    """Visited set over a dense boolean array (O(1), cache-friendly)."""

    __slots__ = ("_flags",)

    def __init__(self, capacity: int) -> None:
        self._flags = np.zeros(capacity, dtype=bool)

    def add(self, node: int) -> None:
        self._flags[node] = True

    def __contains__(self, node: int) -> bool:
        return bool(self._flags[node])


class ArrayGraphStore:
    """Array-backed :class:`repro.common.graph.GraphStore`."""

    def __init__(self, dim: int, profiler=None) -> None:
        from repro.common.profiling import NULL_PROFILER

        self.dim = dim
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.counters = graph.GraphCounters()
        self.entry_point: int | None = None
        self.max_level = -1
        self._capacity = 1024
        self._vectors = np.empty((self._capacity, dim), dtype=np.float32)
        self._count = 0
        #: per node: list of per-level neighbor-id lists
        self._neighbors: list[list[list[int]]] = []
        self._levels: list[int] = []

    # -- GraphStore protocol ------------------------------------------
    def vector(self, node: int) -> np.ndarray:
        return self._vectors[node]

    def vectors(self, nodes: Sequence[int]) -> np.ndarray:
        return self._vectors[np.asarray(nodes, dtype=np.int64)]

    def neighbors(self, node: int, level: int) -> list[int]:
        lists = self._neighbors[node]
        if level >= len(lists):
            return []
        return list(lists[level])

    def set_neighbors(self, node: int, level: int, ids: Sequence[int]) -> None:
        lists = self._neighbors[node]
        while len(lists) <= level:
            lists.append([])
        lists[level] = list(ids)

    def add_node(self, vector: np.ndarray, level: int) -> int:
        if self._count == self._capacity:
            self._capacity *= 2
            grown = np.empty((self._capacity, self.dim), dtype=np.float32)
            grown[: self._count] = self._vectors[: self._count]
            self._vectors = grown
        node = self._count
        self._vectors[node] = vector
        self._count += 1
        self._neighbors.append([[] for _ in range(level + 1)])
        self._levels.append(level)
        return node

    def node_count(self) -> int:
        return self._count

    def make_visited(self) -> _ArrayVisited:
        return _ArrayVisited(self._count)

    # -- size accounting ----------------------------------------------
    def edge_count(self) -> int:
        """Total directed edges across all levels."""
        return sum(len(lst) for lists in self._neighbors for lst in lists)

    def size_bytes(self) -> dict[str, int]:
        """In-memory payload sizes (vectors + 4-byte neighbor ids)."""
        return {
            "vectors": self._count * self.dim * 4,
            "neighbors": self.edge_count() * NEIGHBOR_ID_BYTES,
            "levels": self._count * 4,
        }


class HNSWIndex(VectorIndex):
    """Faiss-style HNSW index (direct memory access)."""

    requires_training = False
    search_params = ("efs",)

    def __init__(
        self,
        dim: int,
        bnn: int = 16,
        efb: int = 40,
        efs: int = 200,
        seed: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(dim, **kwargs)
        if self.distance_type != DistanceType.L2:
            raise ValueError(f"HNSW supports only L2 distance, got {self.distance_type.name}")
        self.params = graph.HNSWParams(bnn=bnn, efb=efb, efs=efs)
        self.store = ArrayGraphStore(dim, profiler=self.profiler)
        self._rng = make_rng(seed)

    def _train(self, data: np.ndarray) -> None:  # pragma: no cover - not reached
        pass

    def _add(self, data: np.ndarray) -> None:
        start = time.perf_counter()
        for row in data:
            graph.insert(self.store, self.params, row, self._rng)
        self.build_stats.add_seconds += time.perf_counter() - start
        self.build_stats.distance_computations = self.store.counters.distance_computations

    def _search(self, query: np.ndarray, k: int, efs: int | None = None) -> SearchResult:
        start = time.perf_counter()
        before = self.store.counters.distance_computations
        neighbors = graph.search(self.store, self.params, query, k, efs=efs)
        return SearchResult(
            neighbors=neighbors,
            elapsed_seconds=time.perf_counter() - start,
            distance_computations=self.store.counters.distance_computations - before,
        )

    def size_info(self) -> IndexSizeInfo:
        parts = self.store.size_bytes()
        total = sum(parts.values())
        return IndexSizeInfo(allocated_bytes=total, used_bytes=total, detail=parts)
