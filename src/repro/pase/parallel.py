"""PASE-style intra-query parallelism: global heap + lock (RC#3).

The paper finds (Sec. VII-D) that PASE's parallel IVF search does not
scale because all worker threads "directly use a global heap with
locks to support concurrent insertions".  This driver executes the
bucket scans for real (one work unit per probed bucket), routes every
candidate through a :class:`~repro.common.heap.LockedGlobalHeap`, and
feeds the measured unit costs plus the counted lock operations into
the deterministic scheduler — each heap push is a serial critical
section, which is precisely why the curves in Fig. 18 stay flat.
"""

from __future__ import annotations

import time

import numpy as np

from repro.common.heap import LockedGlobalHeap
from repro.common.parallel import ScheduleResult, WorkUnit, scaling_curve
from repro.common.types import SearchResult
from repro.pase.ivf_core import PagedIVF


def parallel_search(
    am: PagedIVF,
    query: np.ndarray,
    k: int,
    nprobe: int,
    thread_counts: list[int],
) -> tuple[SearchResult, dict[int, ScheduleResult]]:
    """Intra-query parallel IVF search, PASE's shared-heap design.

    Works on any page-backed IVF variant: ranking and scoring are the
    access method's own.  Returns the (correct) search result plus
    simulated wall-clock per thread count.
    """
    query = am._check_query(query)
    order, heads = am._rank_centroids(query)
    score_one = am._tuple_scorer(query)

    heap = LockedGlobalHeap(k)
    units: list[WorkUnit] = []
    for bucket in order[: max(nprobe, 1)].tolist():
        start = time.perf_counter()
        ops_before = heap.lock_acquisitions
        for keys, payloads in am._chain_pages(heads[bucket]):
            for key, payload in zip(keys, payloads):
                dist = score_one(key, payload)
                if dist is not None:
                    # Every candidate goes through the global locked heap.
                    heap.push(dist, key)
        cost = time.perf_counter() - start
        units.append(
            WorkUnit(
                compute_seconds=cost,
                serial_ops=heap.lock_acquisitions - ops_before,
            )
        )

    curve = scaling_curve(units, thread_counts)
    neighbors = heap.results()
    return SearchResult(neighbors=neighbors), curve
