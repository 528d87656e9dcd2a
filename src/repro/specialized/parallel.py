"""Parallel build/search drivers for the specialized engine (RC#3).

Faiss parallelizes IVF construction by splitting the base vectors
across threads, and intra-query search by scanning different buckets
on different threads with *local* top-k heaps merged lock-free at the
end (Secs. V-D, VII-D).  These drivers execute that partitioning for
real, record per-unit costs, and hand them to the deterministic
scheduler in :mod:`repro.common.parallel` (see DESIGN.md §2 for why
the clock — not the work — is simulated).
"""

from __future__ import annotations

import time

import numpy as np

from repro.common.distance import batch_kernel
from repro.common.heap import BoundedMaxHeap, offer_topk
from repro.common.parallel import ScheduleResult, WorkUnit, scaling_curve
from repro.common.types import SearchResult
from repro.specialized.ivf_flat import IVFFlatIndex
from repro.specialized.ivf_pq import IVFPQIndex


def build_work_units(
    index: IVFFlatIndex | IVFPQIndex,
    data: np.ndarray,
    n_chunks: int = 16,
) -> list[WorkUnit]:
    """Measure per-chunk *adding*-phase costs for parallel construction.

    The index must already be trained (training is serial in both
    systems).  Each chunk of base vectors becomes one work unit; no
    serial sections — Faiss's adder keeps per-thread bucket lists.
    """
    if not index.is_trained:
        raise RuntimeError("train the index before measuring parallel build units")
    units: list[WorkUnit] = []
    for chunk in np.array_split(data, n_chunks):
        if chunk.shape[0] == 0:
            continue
        start = time.perf_counter()
        index.add(chunk)
        units.append(WorkUnit(compute_seconds=time.perf_counter() - start))
    return units


def simulate_parallel_build(
    index: IVFFlatIndex | IVFPQIndex,
    data: np.ndarray,
    thread_counts: list[int],
    train_seconds: float | None = None,
    n_chunks: int = 16,
) -> dict[int, float]:
    """Total build time (serial train + scheduled add) per thread count.

    Mirrors Fig. 9's setup: training is not parallelized, adding is.
    """
    units = build_work_units(index, data, n_chunks=n_chunks)
    if train_seconds is None:
        train_seconds = index.build_stats.train_seconds
    curve = scaling_curve(units, thread_counts)
    return {t: train_seconds + r.wall_seconds for t, r in curve.items()}


def parallel_search(
    index: IVFFlatIndex | IVFPQIndex,
    query: np.ndarray,
    k: int,
    nprobe: int,
    thread_counts: list[int],
) -> tuple[SearchResult, dict[int, ScheduleResult]]:
    """Intra-query parallel search with local heaps (the Faiss design).

    Each probed bucket is a work unit: scan the bucket, fill a *local*
    heap.  The final lock-free merge is charged as one serial op per
    bucket (a few comparisons).  Returns the (correct) search result
    and the simulated scaling curve.
    """
    from repro.common import pq as pq_mod

    index._finalize()
    query = np.ascontiguousarray(query, dtype=np.float32)
    probes = _probe_order(index, query, nprobe)

    global_heap = BoundedMaxHeap(k)
    units: list[WorkUnit] = []
    kernel = batch_kernel(index.distance_type)
    is_pq = isinstance(index, IVFPQIndex)
    table = None
    if is_pq:
        assert index.codebook is not None
        table = pq_mod.optimized_adc_table(index.codebook, query)

    for bucket in probes.tolist():
        start = time.perf_counter()
        local = BoundedMaxHeap(k)
        ids = index._bucket_id_arrays[bucket]
        if ids.shape[0] > 0:
            if is_pq:
                codes = index._bucket_code_arrays[bucket]
                dists = pq_mod.adc_distances(table, codes)
            else:
                vectors = index._bucket_vectors[bucket]
                dists = kernel(query, vectors)[0]
            offer_topk(local, dists, ids)
        cost = time.perf_counter() - start
        global_heap.merge(local)
        # One lock-free merge handoff per bucket at the end.
        units.append(WorkUnit(compute_seconds=cost, serial_ops=1))

    curve = scaling_curve(units, thread_counts)
    result = SearchResult(neighbors=global_heap.results())
    return result, curve


def _probe_order(index, query: np.ndarray, nprobe: int) -> np.ndarray:
    if isinstance(index, IVFFlatIndex):
        return index.probe_order(query, nprobe)
    assert index.centroids is not None
    kernel = batch_kernel(index.distance_type)
    dists = kernel(query, index.centroids)[0]
    nprobe = min(nprobe, index.n_clusters)
    part = np.argpartition(dists, nprobe - 1)[:nprobe]
    return part[np.argsort(dists[part], kind="stable")]
