"""Dataset registry and synthetic workload generators.

The paper evaluates on six public datasets (Table I): SIFT1M, GIST1M,
Deep1M, SIFT10M, Deep10M and TURING10M.  Those corpora are not
shipped with this reproduction, so the registry generates *seeded
synthetic stand-ins* with the same dimensionality and a clustered
(Gaussian-mixture) structure, scaled down to laptop size.  Every gap
the paper reports is a ratio between two implementations of the same
algorithm on the same data, so preserving ``d`` and the cluster
structure — while scaling ``n`` — preserves the comparisons' shape.
See DESIGN.md §2 for the substitution rationale.

If real ``.fvecs``/``.ivecs`` files are available, :func:`read_fvecs`
and :func:`read_ivecs` load them and :func:`Dataset.from_arrays` wraps
them in the same interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.common.distance import l2_sqr_batch
from repro.common.heap import exact_topk
from repro.common.rng import derive_seed, make_rng


@dataclass(frozen=True, slots=True)
class DatasetProfile:
    """Static description of one of the paper's datasets (Table I)."""

    name: str
    dim: int
    paper_n: int
    paper_queries: int
    default_scale: float
    #: paper's default number of sub-vectors m for IVF_PQ (Table II)
    default_m: int
    #: number of mixture components used by the synthetic generator
    mixture_components: int = 64

    def scaled_n(self, scale: float | None = None) -> int:
        """Base-vector count after applying ``scale`` (default profile scale)."""
        s = self.default_scale if scale is None else scale
        return max(int(round(self.paper_n * s)), 1000)

    def scaled_queries(self, scale: float | None = None) -> int:
        """Query count after scaling, clamped to a useful minimum."""
        s = self.default_scale if scale is None else scale
        return int(min(max(round(self.paper_queries * s * 10), 20), 200))


#: The six datasets of the paper's Table I.  ``default_scale`` keeps the
#: 10M-class datasets larger than the 1M-class ones so size-dependent
#: effects keep their relative ordering.
PROFILES: dict[str, DatasetProfile] = {
    "sift1m": DatasetProfile("sift1m", 128, 1_000_000, 10_000, 5e-3, 16),
    "gist1m": DatasetProfile("gist1m", 960, 1_000_000, 1_000, 4e-3, 60),
    "deep1m": DatasetProfile("deep1m", 256, 1_000_000, 1_000, 5e-3, 16),
    "sift10m": DatasetProfile("sift10m", 128, 10_000_000, 10_000, 8e-4, 16),
    "deep10m": DatasetProfile("deep10m", 96, 10_000_000, 10_000, 8e-4, 12),
    "turing10m": DatasetProfile("turing10m", 100, 10_000_000, 10_000, 8e-4, 10),
}

#: Dataset order used by the paper's figures.
PAPER_ORDER = ["sift1m", "gist1m", "deep1m", "sift10m", "deep10m", "turing10m"]


@dataclass(slots=True)
class Dataset:
    """A loaded workload: base vectors, query vectors, lazy ground truth."""

    name: str
    base: np.ndarray  # (n, d) float32
    queries: np.ndarray  # (nq, d) float32
    _ground_truth: np.ndarray | None = field(default=None, repr=False)
    _ground_truth_k: int = 0

    @property
    def n(self) -> int:
        """Number of base vectors."""
        return int(self.base.shape[0])

    @property
    def dim(self) -> int:
        """Vector dimensionality."""
        return int(self.base.shape[1])

    @property
    def n_queries(self) -> int:
        """Number of query vectors."""
        return int(self.queries.shape[0])

    def default_clusters(self) -> int:
        """Paper convention: about sqrt(n) IVF clusters for large data."""
        return max(int(round(math.sqrt(self.n))), 4)

    def ground_truth(self, k: int = 100) -> np.ndarray:
        """Exact top-``k`` neighbor ids per query, ``(nq, k)`` int64.

        Computed by brute force on first use and cached; recomputed if a
        larger ``k`` is requested later.
        """
        if self._ground_truth is None or self._ground_truth_k < k:
            self._ground_truth = self._compute_ground_truth(k)
            self._ground_truth_k = k
        return self._ground_truth[:, :k]

    def _compute_ground_truth(self, k: int) -> np.ndarray:
        k = min(k, self.n)
        out = np.empty((self.n_queries, k), dtype=np.int64)
        # Chunk queries to bound the (chunk, n) distance matrix.
        chunk = max(1, (1 << 22) // max(self.n, 1))
        for start in range(0, self.n_queries, chunk):
            stop = min(start + chunk, self.n_queries)
            dists = l2_sqr_batch(self.queries[start:stop], self.base)
            for row in range(stop - start):
                nbrs = exact_topk(dists[row], k)
                out[start + row] = [nb.vector_id for nb in nbrs]
        return out

    @classmethod
    def from_arrays(
        cls, name: str, base: np.ndarray, queries: np.ndarray
    ) -> "Dataset":
        """Wrap pre-loaded arrays (e.g. real fvecs data) as a Dataset."""
        base = np.ascontiguousarray(base, dtype=np.float32)
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if base.ndim != 2 or queries.ndim != 2:
            raise ValueError("base and queries must be 2-D arrays")
        if base.shape[1] != queries.shape[1]:
            raise ValueError(
                f"dimension mismatch: base d={base.shape[1]}, queries d={queries.shape[1]}"
            )
        return cls(name=name, base=base, queries=queries)


def generate_clustered(
    n: int,
    dim: int,
    n_components: int,
    seed: int,
    spread: float = 0.25,
) -> np.ndarray:
    """Sample ``n`` vectors from a seeded Gaussian mixture.

    Component means are drawn uniformly from the unit hypercube and
    points scatter around them with standard deviation ``spread`` —
    enough cluster structure for IVF partitioning to behave like it
    does on real embedding corpora.
    """
    if n <= 0 or dim <= 0 or n_components <= 0:
        raise ValueError("n, dim and n_components must all be positive")
    rng = make_rng(seed)
    means = rng.uniform(0.0, 1.0, size=(n_components, dim)).astype(np.float32)
    component = rng.integers(0, n_components, size=n)
    noise = rng.normal(0.0, spread, size=(n, dim)).astype(np.float32)
    return means[component] + noise


def load_dataset(
    name: str, scale: float | None = None, seed: int | None = None
) -> Dataset:
    """Generate the synthetic stand-in for one of the paper's datasets.

    Args:
        name: profile key — one of :data:`PAPER_ORDER` (case-insensitive).
        scale: fraction of the paper's vector count to generate; the
            profile default keeps runs laptop-sized.
        seed: top-level seed; base and query streams are derived from it.

    Queries come from a *separately seeded* mixture: the query stream's
    seed draws its own component means, so queries fall outside the
    base vectors' clusters (out of distribution), unlike real benchmark
    queries, which are held-out corpus samples.
    """
    key = name.lower()
    if key not in PROFILES:
        known = ", ".join(sorted(PROFILES))
        raise KeyError(f"unknown dataset {name!r}; known: {known}")
    profile = PROFILES[key]
    base_seed = derive_seed(seed if seed is not None else 0, key, "base")
    query_seed = derive_seed(seed if seed is not None else 0, key, "query")
    n = profile.scaled_n(scale)
    nq = profile.scaled_queries(scale)
    base = generate_clustered(n, profile.dim, profile.mixture_components, base_seed)
    queries = generate_clustered(nq, profile.dim, profile.mixture_components, query_seed)
    return Dataset(name=key, base=base, queries=queries)


def tiny_dataset(
    n: int = 500, dim: int = 16, n_queries: int = 10, seed: int = 7
) -> Dataset:
    """A very small clustered dataset for unit tests."""
    base = generate_clustered(n, dim, n_components=16, seed=derive_seed(seed, "b"))
    queries = generate_clustered(n_queries, dim, n_components=16, seed=derive_seed(seed, "q"))
    return Dataset(name=f"tiny-{n}x{dim}", base=base, queries=queries)


def read_fvecs(path: str | Path, max_rows: int | None = None) -> np.ndarray:
    """Read a ``.fvecs`` file (the format SIFT/GIST corpora ship in).

    Each record is ``int32 d`` followed by ``d`` float32 components.
    """
    raw = np.fromfile(str(path), dtype=np.int32)
    if raw.size == 0:
        raise ValueError(f"empty fvecs file: {path}")
    dim = int(raw[0])
    if dim <= 0:
        raise ValueError(f"corrupt fvecs file {path}: leading dim {dim}")
    record = dim + 1
    if raw.size % record != 0:
        raise ValueError(f"corrupt fvecs file {path}: size not a multiple of {record}")
    mat = raw.reshape(-1, record)
    if max_rows is not None:
        mat = mat[:max_rows]
    return mat[:, 1:].view(np.float32).copy()


def read_ivecs(path: str | Path, max_rows: int | None = None) -> np.ndarray:
    """Read a ``.ivecs`` file (ground-truth format of the SIFT corpora)."""
    raw = np.fromfile(str(path), dtype=np.int32)
    if raw.size == 0:
        raise ValueError(f"empty ivecs file: {path}")
    dim = int(raw[0])
    if dim <= 0:
        raise ValueError(f"corrupt ivecs file {path}: leading dim {dim}")
    record = dim + 1
    if raw.size % record != 0:
        raise ValueError(f"corrupt ivecs file {path}: size not a multiple of {record}")
    mat = raw.reshape(-1, record)
    if max_rows is not None:
        mat = mat[:max_rows]
    return mat[:, 1:].copy()
