"""Deterministic parallel-execution model: the paper's RC#3 substrate.

The paper's multi-threading experiments (Figs. 9 and 18) measure how
index construction and intra-query search scale with 1–8 OS threads.
CPython's GIL makes real thread scaling of scalar code unmeasurable in
Python, so — per the substitution policy in DESIGN.md — this module
*executes the work for real but simulates the clock*: callers run each
work unit serially, record its measured cost, and the scheduler below
computes the wall-clock a ``t``-thread execution would take.

Two effects the paper identifies are modelled explicitly:

* **Work partitioning** — units are placed on threads with the classic
  LPT (longest-processing-time-first) greedy heuristic, giving
  near-linear scaling when units are plentiful and balanced.
* **Shared-structure contention** — PASE's parallel search pushes every
  candidate into one *global heap under a lock* (Sec. VII-D), so each
  push is a serial section; Faiss's local-heap-merge design has almost
  none.  Serial sections cannot overlap, and every handoff between
  threads costs extra (cache-line bouncing), so lock-heavy designs stop
  scaling — exactly Fig. 18's PASE curves.

:func:`parallel_search` is the one intra-query search driver, for both
heap designs and every engine.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.common.heap import BoundedMaxHeap, LockedGlobalHeap, offer_topk
from repro.common.types import SearchResult

#: ``score(list) -> (ids, distances)``: one probed list's ids and its
#: candidates' distances, as aligned arrays.
ListScores = Callable[[int], "tuple[np.ndarray, np.ndarray]"]

#: Modelled cost of one uncontended lock acquire/release + heap push
#: critical section, in seconds.  Calibrated to a few hundred ns, the
#: order of a real pthread mutex handoff.
DEFAULT_LOCK_OP_SECONDS = 2.5e-7

#: Extra cost multiplier per additional contending thread: each handoff
#: of a contended lock bounces the cache line between cores.
DEFAULT_CONTENTION_FACTOR = 0.6


@dataclass(slots=True)
class WorkUnit:
    """One schedulable unit of measured work.

    Attributes:
        compute_seconds: perfectly parallelizable part (distance
            computations, bucket scans, ...).
        serial_ops: number of global-lock critical sections the unit
            executes (0 for lock-free designs).
    """

    compute_seconds: float
    serial_ops: int = 0


@dataclass(slots=True)
class ScheduleResult:
    """Outcome of simulating one thread count."""

    n_threads: int
    wall_seconds: float
    compute_seconds: float
    serial_seconds: float


def lpt_makespan(costs: list[float], n_threads: int) -> tuple[float, list[float]]:
    """Greedy LPT schedule: place each unit on the least-loaded thread.

    Returns ``(makespan, per-thread loads)``.  LPT is within 4/3 of the
    optimal makespan, plenty for modelling benchmark-scale scheduling.
    """
    if n_threads <= 0:
        raise ValueError(f"n_threads must be positive, got {n_threads}")
    loads = [0.0] * n_threads
    if not costs:
        return 0.0, loads
    heap = [(0.0, t) for t in range(n_threads)]
    heapq.heapify(heap)
    for cost in sorted(costs, reverse=True):
        load, tid = heapq.heappop(heap)
        load += cost
        loads[tid] = load
        heapq.heappush(heap, (load, tid))
    return max(loads), loads


def simulate_schedule(units: list[WorkUnit], n_threads: int) -> ScheduleResult:
    """Simulate wall-clock of running ``units`` on ``n_threads`` threads.

    The model: compute parts schedule freely (LPT); serial sections
    form a single global critical path whose per-op cost grows with the
    number of *other* threads contending:

    ``serial = total_ops * DEFAULT_LOCK_OP_SECONDS * (1 + DEFAULT_CONTENTION_FACTOR * (t - 1))``

    Wall time is the compute makespan plus the serial critical path —
    a conservative (paper-consistent) Amdahl-style composition.
    """
    compute = sum(u.compute_seconds for u in units)
    total_ops = sum(u.serial_ops for u in units)
    makespan, __ = lpt_makespan([u.compute_seconds for u in units], n_threads)
    contention = 1.0 + DEFAULT_CONTENTION_FACTOR * max(n_threads - 1, 0)
    serial = total_ops * DEFAULT_LOCK_OP_SECONDS * contention
    return ScheduleResult(
        n_threads=n_threads,
        wall_seconds=makespan + serial,
        compute_seconds=compute,
        serial_seconds=serial,
    )


def scaling_curve(units: list[WorkUnit], thread_counts: list[int]) -> dict[int, ScheduleResult]:
    """Simulate a whole thread sweep (the paper uses 1, 2, 4, 8)."""
    return {t: simulate_schedule(units, t) for t in thread_counts}


def speedups(curve: dict[int, ScheduleResult]) -> dict[int, float]:
    """Speedup of each thread count relative to the 1-thread result."""
    if 1 not in curve:
        raise ValueError("scaling curve must include the 1-thread baseline")
    base = curve[1].wall_seconds
    return {t: (base / r.wall_seconds if r.wall_seconds > 0 else float("inf")) for t, r in curve.items()}


def parallel_search(
    probes: Sequence[int], score: ListScores, k: int, thread_counts: list[int], heap: str = "local"
) -> tuple[SearchResult, dict[int, ScheduleResult]]:
    """Intra-query parallel IVF search: each probed list, scored for
    real, is one work unit; the clock is the scheduler's.

    ``heap="local"`` is Faiss's design (Sec. VII-D): each list fills its
    own k-sized heap, merged lock-free at the end, one serial op per
    list.  ``heap="global"`` is PASE's: every candidate is pushed into
    one :class:`~repro.common.heap.LockedGlobalHeap`, each push a serial
    op, which is why its Fig. 18 curves stay flat.
    """
    if heap not in ("local", "global"):
        raise ValueError(f"heap must be 'local' or 'global', got {heap!r}")
    shared, merged = LockedGlobalHeap(k), BoundedMaxHeap(k)
    units: list[WorkUnit] = []
    for bucket in probes:
        start = time.perf_counter()
        ids, dists = score(bucket)
        if heap == "global":
            ops = shared.lock_acquisitions
            for dist, vid in zip(dists.tolist(), ids.tolist()):
                shared.push(dist, vid)
            units.append(WorkUnit(time.perf_counter() - start, shared.lock_acquisitions - ops))
        else:
            local = BoundedMaxHeap(k)
            offer_topk(local, dists, ids)
            units.append(WorkUnit(time.perf_counter() - start, serial_ops=1))
            merged.merge(local)
    result = SearchResult(neighbors=(shared if heap == "global" else merged).results())
    return result, scaling_curve(units, thread_counts)
