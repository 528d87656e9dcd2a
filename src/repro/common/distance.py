"""Distance kernels: the heart of the paper's RC#1.

Two computation paths are provided for every metric:

* **SGEMM path** (:func:`l2_sqr_batch`): expresses all-pairs squared
  Euclidean distance as ``||x||^2 + ||c||^2 - 2 x.c`` and computes the
  cross term with one matrix-matrix multiplication, exactly the trick
  the paper credits Faiss's use of BLAS SGEMM for (Sec. V-A2).  NumPy's
  ``@`` on float32 operands dispatches to the platform BLAS ``sgemm``.

* **per-pair path** (:func:`l2_sqr` / :func:`l2_sqr_pairwise_loop`):
  computes one distance per call, the way PASE's ``fvec_L2sqr_ref``
  does.  The generalized engine uses only this path; the specialized
  engine falls back to it when ``use_sgemm=False`` to reproduce the
  paper's ablation (Figs. 4, 6, 9).

All kernels operate on float32 and return float32/float64 scalars or
float32 matrices.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.common.types import DistanceType


def l2_sqr(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two vectors (per-pair path).

    This is the Python analogue of PASE's ``fvec_L2sqr_ref``: one call
    per pair, no batching.  ``ndarray.dot`` is the same BLAS ``sdot``
    as ``np.dot`` with the same value, minus its Python-level dispatch.
    """
    diff = a - b
    return float(diff.dot(diff))


def inner_product(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product between two vectors (per-pair path)."""
    return float(a.dot(b))


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine distance (1 - cosine similarity) between two vectors."""
    denom = float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    if denom == 0.0:
        return 1.0
    return 1.0 - float(a.dot(b)) / denom


def l2_sqr_batch(
    queries: np.ndarray,
    targets: np.ndarray,
    target_sq_norms: np.ndarray | None = None,
) -> np.ndarray:
    """All-pairs squared L2 distances via the SGEMM decomposition.

    Computes the ``(len(queries), len(targets))`` distance matrix as
    ``||q||^2 + ||t||^2 - 2 q @ t.T``, with the cross term produced by a
    single BLAS SGEMM call — the optimization the paper identifies as
    RC#1.

    Args:
        queries: ``(nq, d)`` float32 matrix.
        targets: ``(nt, d)`` float32 matrix.
        target_sq_norms: optional precomputed ``||t||^2`` row; Faiss
            caches these in a table "to avoid redundant computing"
            (Sec. V-A2), and callers that loop over query batches
            should do the same.

    Returns:
        ``(nq, nt)`` float32 matrix of squared distances, clipped at 0
        to absorb floating-point cancellation.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    t = np.atleast_2d(np.asarray(targets, dtype=np.float32))
    if target_sq_norms is None:
        target_sq_norms = squared_norms(t)
    q_sq = squared_norms(q)
    cross = q @ t.T  # BLAS sgemm
    dists = q_sq[:, None] + target_sq_norms[None, :] - 2.0 * cross
    np.maximum(dists, 0.0, out=dists)
    return dists


def inner_product_batch(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """All-pairs (negated) inner products via SGEMM.

    Negated so that, like L2, *smaller is more similar*; both engines
    rank by ascending distance regardless of metric.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    t = np.atleast_2d(np.asarray(targets, dtype=np.float32))
    return -(q @ t.T)


def cosine_distance_batch(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """All-pairs cosine distances via SGEMM plus norm scaling."""
    q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    t = np.atleast_2d(np.asarray(targets, dtype=np.float32))
    q_norms = np.sqrt(squared_norms(q))
    t_norms = np.sqrt(squared_norms(t))
    denom = np.outer(q_norms, t_norms)
    # Zero-norm vectors are maximally distant from everything.
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0.0, (q @ t.T) / denom, 0.0)
    return (1.0 - sims).astype(np.float32)


def l2_sqr_pairwise_loop(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """All-pairs squared L2 distances via one :func:`l2_sqr` per pair.

    The non-SGEMM reference path: identical output to
    :func:`l2_sqr_batch` but computed pair-at-a-time, the way PASE (and
    Faiss with SGEMM disabled) does it.  Deliberately not vectorized —
    its cost relative to :func:`l2_sqr_batch` *is* the RC#1 experiment.
    """
    q = np.atleast_2d(np.asarray(queries, dtype=np.float32))
    t = np.atleast_2d(np.asarray(targets, dtype=np.float32))
    out = np.empty((q.shape[0], t.shape[0]), dtype=np.float32)
    for i in range(q.shape[0]):
        qi = q[i]
        for j in range(t.shape[0]):
            out[i, j] = l2_sqr(qi, t[j])
    return out


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] . b[i]`` for each row (``b`` may be one vector), float32.

    A stacked ``(1, d) @ (d, 1)`` matmul, which NumPy runs as one BLAS
    ``sdot`` per row: the per-pair kernels' ``a.dot(b)``, so the row
    kernels below return their values to the bit (an ``einsum`` or a
    gemv sums in another order and differs in the last bits).
    """
    return np.matmul(a[:, None, :], b[..., :, None])[:, 0, 0]


def l2_sqr_rows(query: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Squared L2 distance from one query to each target row.

    The one-query batched kernel backing the batch executor path: the
    same ``(t - q)`` difference arithmetic as :func:`l2_sqr` (not the
    SGEMM decomposition, whose cancellation error would let the two
    executor paths disagree), reduced row by row as it does.  It
    consumes ``targets``: a float32 matrix is overwritten with its
    difference from ``query`` (no temporary matrix), so a caller passes
    only a matrix it owns.
    """
    t = np.atleast_2d(np.asarray(targets, dtype=np.float32))
    diff = np.subtract(t, np.asarray(query, dtype=np.float32), out=t)
    return _row_dots(diff, diff).astype(np.float64)


def inner_product_rows(query: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Negated inner product from one query to each target row."""
    t = np.atleast_2d(np.asarray(targets, dtype=np.float32))
    return -_row_dots(t, np.asarray(query, dtype=np.float32)).astype(np.float64)


def cosine_distance_rows(query: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Cosine distance from one query to each target row.

    Zero-norm operands map to distance 1.0, as in
    :func:`cosine_distance`, whose float64 arithmetic this repeats.
    """
    q = np.asarray(query, dtype=np.float32)
    t = np.atleast_2d(np.asarray(targets, dtype=np.float32))
    dots = _row_dots(t, q).astype(np.float64)
    denom = float(np.linalg.norm(q)) * np.sqrt(_row_dots(t, t)).astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0.0, 1.0 - dots / denom, 1.0)


def squared_norms(matrix: np.ndarray) -> np.ndarray:
    """Row-wise squared L2 norms ``||x_i||^2`` as a float32 vector."""
    m = np.atleast_2d(np.asarray(matrix, dtype=np.float32))
    return np.einsum("ij,ij->i", m, m, dtype=np.float32)


PairwiseKernel = Callable[[np.ndarray, np.ndarray], float]
BatchKernel = Callable[[np.ndarray, np.ndarray], np.ndarray]

_PAIRWISE: dict[DistanceType, PairwiseKernel] = {
    DistanceType.L2: l2_sqr,
    DistanceType.INNER_PRODUCT: lambda a, b: -inner_product(a, b),
    DistanceType.COSINE: cosine_distance,
}

_BATCH: dict[DistanceType, BatchKernel] = {
    DistanceType.L2: l2_sqr_batch,
    DistanceType.INNER_PRODUCT: inner_product_batch,
    DistanceType.COSINE: cosine_distance_batch,
}

_ROWS: dict[DistanceType, BatchKernel] = {
    DistanceType.L2: l2_sqr_rows,
    DistanceType.INNER_PRODUCT: inner_product_rows,
    DistanceType.COSINE: cosine_distance_rows,
}


def pairwise_kernel(distance_type: DistanceType) -> PairwiseKernel:
    """Per-pair kernel for ``distance_type`` (smaller = more similar)."""
    try:
        return _PAIRWISE[DistanceType(distance_type)]
    except KeyError:
        raise ValueError(f"unsupported distance type: {distance_type!r}") from None


def batch_kernel(distance_type: DistanceType) -> BatchKernel:
    """SGEMM-backed batch kernel for ``distance_type``."""
    try:
        return _BATCH[DistanceType(distance_type)]
    except KeyError:
        raise ValueError(f"unsupported distance type: {distance_type!r}") from None


def rows_kernel(distance_type: DistanceType) -> BatchKernel:
    """One-query row-wise kernel for ``distance_type`` (float64 out; the
    L2 one consumes its targets, see :func:`l2_sqr_rows`)."""
    try:
        return _ROWS[DistanceType(distance_type)]
    except KeyError:
        raise ValueError(f"unsupported distance type: {distance_type!r}") from None
