"""Evaluation metrics: recall@k, latency statistics, QPS.

The paper's metrics (Sec. IV-D) are index construction time, index
size, query time, and recall rate.  Construction time and size are
reported by the indexes themselves (:class:`~repro.common.types.BuildStats`,
:class:`~repro.common.types.IndexSizeInfo`); this module covers the
query-side metrics.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def recall_at_k(result_ids: Sequence[int], truth_ids: Sequence[int], k: int) -> float:
    """Fraction of the true top-``k`` found in the returned top-``k``.

    This is the standard ANN-benchmarks definition the paper's
    datasets ship ground truth for.
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    truth = set(int(i) for i in truth_ids[:k])
    if not truth:
        return 0.0
    found = sum(1 for i in result_ids[:k] if int(i) in truth)
    return found / len(truth)


def mean_recall_at_k(
    all_result_ids: Sequence[Sequence[int]],
    ground_truth: np.ndarray,
    k: int,
) -> float:
    """Average :func:`recall_at_k` over a query batch."""
    if len(all_result_ids) != ground_truth.shape[0]:
        raise ValueError(
            f"result count {len(all_result_ids)} != ground truth rows {ground_truth.shape[0]}"
        )
    total = 0.0
    for ids, truth in zip(all_result_ids, ground_truth):
        total += recall_at_k(ids, truth.tolist(), k)
    return total / len(all_result_ids)


@dataclass(slots=True)
class LatencyStats:
    """Summary statistics over per-query latencies (seconds)."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    total: float

    @property
    def qps(self) -> float:
        """Queries per second over the whole batch."""
        if self.total <= 0.0:
            return float("inf")
        return self.count / self.total

    @property
    def mean_ms(self) -> float:
        """Mean latency in milliseconds, the unit the paper plots."""
        return self.mean * 1e3


def latency_stats(latencies: Iterable[float]) -> LatencyStats:
    """Summarize a sequence of per-query wall-clock latencies.

    Percentiles are nearest-rank: the ``ceil(q * n)``-th smallest
    sample, the rank :meth:`repro.common.obs.LatencyHistogram.percentile`
    also uses.
    """
    values = sorted(float(v) for v in latencies)
    if not values:
        raise ValueError("need at least one latency sample")

    def pct(q: float) -> float:
        return values[max(math.ceil(q * len(values)) - 1, 0)]

    return LatencyStats(
        count=len(values),
        mean=statistics.fmean(values),
        p50=pct(0.50),
        p95=pct(0.95),
        p99=pct(0.99),
        total=sum(values),
    )
