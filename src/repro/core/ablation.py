"""Root-cause ablations: measure each gap with its cause neutralized.

The paper argues every root cause is an *implementation issue* by
showing the gap closes when the cause is removed (disable SGEMM in
Faiss, Figs. 4/6; transplant centroids, Fig. 15; halve the page size,
Table IV; ...).  This module packages those toggles: each
:class:`AblationSwitch` knows how to configure a study so one root
cause no longer differentiates the engines, and
:func:`run_ablation` measures the before/after gap.
"""

from __future__ import annotations

import functools
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.common.datasets import Dataset
from repro.common.metrics import paired, ratio
from repro.core.root_causes import RootCause
from repro.core.study import ComparativeStudy


@dataclass(slots=True)
class AblationResult:
    """Gap factors with the root cause active vs. neutralized."""

    cause: RootCause
    metric: str  # "build", "size" or "search"
    gap_with_cause: float
    gap_without_cause: float
    #: ``without / with`` of each back-to-back pair of measurements.
    pair_ratios: list[float] = field(default_factory=list)

    @property
    def gap_closed_fraction(self) -> float:
        """How much of the (log-scale) gap the toggle removed."""
        import math

        if self.gap_with_cause <= 1.0:
            return 0.0
        before = math.log(max(self.gap_with_cause, 1.0))
        after = math.log(max(self.gap_without_cause, 1.0))
        return max(0.0, min(1.0, (before - after) / before))


@dataclass(frozen=True, slots=True)
class AblationSwitch:
    """How to neutralize one root cause inside a study."""

    cause: RootCause
    metric: str
    index_type: str
    description: str
    #: Mutates study params (specialized side) before the baseline run.
    baseline_params: dict[str, Any]
    #: Callable applying the neutralizing configuration.
    neutralize: Callable[[ComparativeStudy], None]
    #: Callable undoing it, so the two sides are measured in
    #: alternating pairs.
    restore: Callable[[ComparativeStudy], None]


def _neutralize_sgemm(study: ComparativeStudy) -> None:
    # Fig. 4/6: disable SGEMM in the specialized engine so both sides
    # use the per-row assignment loop (the next compare_build rebuilds).
    study.params["use_sgemm"] = False


def _restore_sgemm(study: ComparativeStudy) -> None:
    study.params["use_sgemm"] = True


def _neutralize_kmeans(study: ComparativeStudy) -> None:
    # Fig. 15: run the specialized engine on PASE's exact centroids.
    study.transplant_centroids()


def _restore_kmeans(study: ComparativeStudy) -> None:
    # Back to the specialized engine's own, Faiss-trained index.
    if study.trained_index is not None:
        study.specialized.index = study.trained_index


def _neutralize_heap(study: ComparativeStudy) -> None:
    # RC#6: switch PASE to a k-sized heap.
    study.generalized.set_fixed_heap(True)


def _restore_heap(study: ComparativeStudy) -> None:
    study.generalized.set_fixed_heap(False)


def _neutralize_pctable(study: ComparativeStudy) -> None:
    # RC#7: give PASE the optimized ADC-table construction.
    study.generalized.set_optimized_pctable(True)


def _restore_pctable(study: ComparativeStudy) -> None:
    study.generalized.set_optimized_pctable(False)


SWITCHES: dict[RootCause, AblationSwitch] = {
    RootCause.SGEMM: AblationSwitch(
        cause=RootCause.SGEMM,
        metric="build",
        index_type="ivf_flat",
        description="disable SGEMM in the specialized engine (Fig. 4)",
        baseline_params={},
        neutralize=_neutralize_sgemm,
        restore=_restore_sgemm,
    ),
    RootCause.KMEANS_IMPLEMENTATION: AblationSwitch(
        cause=RootCause.KMEANS_IMPLEMENTATION,
        metric="search",
        index_type="ivf_flat",
        description="transplant PASE's centroids into the specialized engine (Fig. 15)",
        baseline_params={},
        neutralize=_neutralize_kmeans,
        restore=_restore_kmeans,
    ),
    RootCause.HEAP_SIZE: AblationSwitch(
        cause=RootCause.HEAP_SIZE,
        metric="search",
        index_type="ivf_flat",
        description="use a k-sized heap in PASE (SET pase.fixed_heap = true)",
        baseline_params={},
        neutralize=_neutralize_heap,
        restore=_restore_heap,
    ),
    RootCause.PRECOMPUTED_TABLE: AblationSwitch(
        cause=RootCause.PRECOMPUTED_TABLE,
        metric="search",
        index_type="ivf_pq",
        description="use the optimized ADC table in PASE (SET pase.optimized_pctable = true)",
        baseline_params={},
        neutralize=_neutralize_pctable,
        restore=_restore_pctable,
    ),
}


def run_ablation(
    cause: RootCause,
    dataset: Dataset,
    params: dict[str, Any],
    k: int = 10,
    nprobe: int = 10,
    n_queries: int | None = 10,
    pairs: int = 1,
) -> AblationResult:
    """Measure one root cause's gap contribution on ``dataset``.

    Measured in ``pairs`` :func:`paired` pairs, alternating whether the
    cause is on first; reports the median gap of each side.

    Raises:
        KeyError: for causes without a config toggle (RC#2, RC#3 and
            RC#4 are architectural; they are measured by the profiler
            and size/parallelism experiments instead).
    """
    try:
        switch = SWITCHES[cause]
    except KeyError:
        raise KeyError(
            f"{cause.name} has no ablation toggle; see its dedicated experiment"
        ) from None

    merged = {**params, **switch.baseline_params}
    study = ComparativeStudy(dataset, switch.index_type, merged)
    measure = study.compare_build if switch.metric == "build" else functools.partial(
        study.compare_search, k=k, nprobe=nprobe, n_queries=n_queries
    )

    def gap(toggle: Callable[[ComparativeStudy], None]) -> float:
        toggle(study)
        return measure().gap

    sides = paired(lambda: gap(switch.restore), lambda: gap(switch.neutralize), pairs)
    return AblationResult(
        cause=cause,
        metric=switch.metric,
        gap_with_cause=statistics.median(sides.a),
        gap_without_cause=statistics.median(sides.b),
        pair_ratios=[ratio(without, with_) for with_, without in zip(sides.a, sides.b)],
    )
