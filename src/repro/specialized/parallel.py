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

from repro.common.heap import BoundedMaxHeap, offer_topk
from repro.common.parallel import ScheduleResult, WorkUnit, scaling_curve
from repro.common.types import SearchResult
from repro.specialized.ivf_core import IVFIndex


def build_work_units(
    index: IVFIndex,
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
    index: IVFIndex,
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
    index: IVFIndex,
    query: np.ndarray,
    k: int,
    nprobe: int,
    thread_counts: list[int],
) -> tuple[SearchResult, dict[int, ScheduleResult]]:
    """Intra-query parallel search with local heaps (the Faiss design).

    Each probed list is a work unit: score it with the index's own
    scorer, fill a *local* heap.  The final lock-free merge is charged
    as one serial op per list (a few comparisons).  Returns the
    (correct) search result and the simulated scaling curve.
    """
    query = np.ascontiguousarray(query, dtype=np.float32)
    lists = index.lists()
    probes = index.probe_order(query, nprobe)
    score = index._list_scorer(query)
    global_heap = BoundedMaxHeap(k)
    units: list[WorkUnit] = []
    for bucket in probes.tolist():
        start = time.perf_counter()
        local = BoundedMaxHeap(k)
        ids, payloads = lists[bucket]
        if ids.shape[0] > 0:
            offer_topk(local, score(payloads), ids)
        cost = time.perf_counter() - start
        global_heap.merge(local)
        # One lock-free merge handoff per list at the end.
        units.append(WorkUnit(compute_seconds=cost, serial_ops=1))

    curve = scaling_curve(units, thread_counts)
    return SearchResult(neighbors=global_heap.results()), curve
