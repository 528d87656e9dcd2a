"""Parallel build driver for the specialized engine (RC#3, Fig. 9).

Faiss parallelizes IVF construction by splitting the base vectors
across threads (Sec. V-D).  This driver executes that partitioning for
real, records per-unit costs, and hands them to the deterministic
scheduler in :mod:`repro.common.parallel` (see DESIGN.md §2 for why
the clock — not the work — is simulated).  Intra-query search has one
driver for every engine, :func:`repro.common.parallel.parallel_search`.
"""

from __future__ import annotations

import time

import numpy as np

from repro.common.parallel import WorkUnit, scaling_curve
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
