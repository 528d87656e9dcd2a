"""Seeded inputs for the end-to-end benchmark.

Everything the engine receives is generated here from ``--seed``: base
vectors, held-out queries, the vectors of later INSERT/UPDATE
statements and the scalar column ``a = id % 1000`` the hybrid
statements cut on.  Base rows and queries are draws from the *same*
Gaussian mixture (same means, same spread), so a query has true
neighbours inside the clusters the index learned.

``repro.common.datasets.load_dataset/tiny_dataset`` is not used for
queries: it seeds the query mixture's means differently from the base
mixture's, which makes every query out-of-distribution (measured
recall@10 = 0.54 at efs = 100 on data where an in-distribution query
gets 0.99).  That is a defect to fix outside this benchmark.

:class:`LiveSet` mirrors the table's visible rows in NumPy so exact
ground truth (top-k, predicate match counts, row count) is available
at any point of a workload that inserts, updates and deletes.
"""

from __future__ import annotations

import numpy as np

DIM = 128
K = 10
#: ``a`` takes the values 0..A_MODULUS-1 uniformly, so ``a < cut`` has
#: selectivity cut / A_MODULUS.
A_MODULUS = 1000
#: Mixture components.  With 64 means drawn from N(0, I) a spread of
#: 1.8 puts IVF recall@10 at 0.94-0.97 for nprobe 8-20 of ~sqrt(n)
#: lists; at 1.6 it is pinned near 1.0 and at 2.0 it drops below 0.90.
N_MEANS = 64


class Mixture:
    """A seeded Gaussian mixture; every draw advances one RNG stream."""

    def __init__(self, seed: int, spread: float, dim: int = DIM) -> None:
        self.rng = np.random.default_rng(seed)
        self.spread = spread
        self.means = self.rng.standard_normal((N_MEANS, dim)).astype(np.float32)

    def draw(self, count: int) -> np.ndarray:
        """``count`` vectors as a float32 matrix."""
        which = self.rng.integers(0, N_MEANS, size=count)
        noise = self.rng.standard_normal((count, self.means.shape[1]))
        return (self.means[which] + self.spread * noise).astype(np.float32)

    def draw_one(self) -> np.ndarray:
        return self.draw(1)[0]


def vector_literal(vec: np.ndarray) -> str:
    """Render a vector the way the SQL front end parses it (``'..'::PASE``)."""
    return "'" + ",".join(f"{x:.6f}" for x in vec.tolist()) + "'::PASE"


class LiveSet:
    """NumPy mirror of the table's visible rows; row ``id`` is its index
    (ids reserved for statements that have not run yet are not alive)."""

    def __init__(self, base: np.ndarray) -> None:
        n = base.shape[0]
        self._vecs = np.empty((max(2 * n, 1024), base.shape[1]), dtype=np.float32)
        self._vecs[:n] = base
        self._sq = np.zeros(self._vecs.shape[0], dtype=np.float32)
        self._sq[:n] = np.einsum("ij,ij->i", base, base)
        self._alive = np.zeros(self._vecs.shape[0], dtype=bool)
        self._alive[:n] = True
        self.size = n

    def insert(self, row_id: int, vec: np.ndarray) -> None:
        while row_id >= self._vecs.shape[0]:
            grow = self._vecs.shape[0]
            self._vecs = np.concatenate([self._vecs, np.empty_like(self._vecs)])
            self._sq = np.concatenate([self._sq, np.zeros(grow, dtype=np.float32)])
            self._alive = np.concatenate([self._alive, np.zeros(grow, dtype=bool)])
        self.size = max(self.size, row_id + 1)
        self._alive[row_id] = True
        self.update(row_id, vec)

    def update(self, row_id: int, vec: np.ndarray) -> None:
        self._vecs[row_id] = vec
        self._sq[row_id] = float(vec @ vec)

    def delete(self, row_id: int) -> None:
        self._alive[row_id] = False

    def is_alive(self, row_id: int) -> bool:
        return 0 <= row_id < self.size and bool(self._alive[row_id])

    def count(self) -> int:
        return int(np.count_nonzero(self._alive[: self.size]))

    def matching(self, cut: int) -> int:
        """Visible rows with ``a < cut``."""
        ids = np.flatnonzero(self._alive[: self.size])
        return int(np.count_nonzero(ids % A_MODULUS < cut))

    def vectors(self) -> np.ndarray:
        """Visible vectors as one contiguous matrix (id order)."""
        return np.ascontiguousarray(self._vecs[: self.size][self._alive[: self.size]])

    def squared_distances(self, ids: list[int], query: np.ndarray) -> np.ndarray:
        diff = self._vecs[ids] - query
        return np.einsum("ij,ij->i", diff, diff)

    def topk(self, query: np.ndarray, k: int = K) -> set[int]:
        """Exact ids of the ``k`` nearest visible rows (brute force)."""
        dist = self._sq[: self.size] - 2.0 * (self._vecs[: self.size] @ query)
        dist[~self._alive[: self.size]] = np.inf
        k = min(k, self.count())
        return set(np.argpartition(dist, k - 1)[:k].tolist())
