"""Automated root-cause (RC#1–RC#7) attribution from section profiles.

The paper's method is manual: run ``perf``, eyeball the flamegraph,
and file each hot region under one of the seven root causes (Sec.
IX-B).  This module automates the filing step.  Input is the section
profile a query/build recorded (every instrumented region in
this codebase uses the paper's own region names — ``fvec_L2sqr``,
``Tuple Access``, ``Min-heap``, ``HVTGet``, ``pasepfirst``,
``Pctable`` …); output is a bucketed breakdown keyed by
:class:`~repro.core.root_causes.RootCause`.

Invariant the consumers rely on: the bucket seconds sum exactly to the
profile's total recorded time (every section path lands in exactly one
bucket; nothing is dropped, nothing is counted twice), so a breakdown
printed by ``EXPLAIN (ANALYZE, TRACE)`` reconciles against the
query's elapsed time.

Wait events ride along informationally: ``DataFileRead``/``BufferRead``
blocked time is *part of* the sections it occurred under (typically
``Tuple Access``), so it annotates the report rather than adding to
the bucket sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.common.profiling import (
    SEC_COARSE,
    SEC_DISTANCE,
    SEC_EXECUTOR,
    SEC_HEAP,
    SEC_NEIGHBOR_FETCH,
    SEC_PCTABLE,
    SEC_TUPLE_ACCESS,
    SEC_VISITED,
)
from repro.core.root_causes import RootCause

#: Profiler section name -> root cause.  Section names are the
#: paper's own region names, shared by every engine in this repo.
SECTION_ROOT_CAUSES: dict[str, RootCause] = {
    # One-at-a-time distance kernels (vs. Faiss's SGEMM batching).
    SEC_DISTANCE: RootCause.SGEMM,
    SEC_COARSE: RootCause.SGEMM,
    # Buffer-manager / page indirection on every tuple touch.
    SEC_TUPLE_ACCESS: RootCause.MEMORY_MANAGEMENT,
    SEC_VISITED: RootCause.MEMORY_MANAGEMENT,
    SEC_NEIGHBOR_FETCH: RootCause.MEMORY_MANAGEMENT,
    # Size-n candidate heap (vs. Faiss's bounded k-heap).
    SEC_HEAP: RootCause.HEAP_SIZE,
    # Cell-by-cell ADC table construction (IVF_PQ).
    SEC_PCTABLE: RootCause.PRECOMPUTED_TABLE,
}

#: Bucket label for instrumented regions no root cause claims
#: (e.g. HNSW graph maintenance: AddLink, ShrinkNbList).
OTHER_LABEL = "Others"

#: Wait events that are symptoms of RC#2 (page/buffer indirection).
_MEMORY_WAIT_EVENTS = ("DataFileRead", "BufferRead", "LWLockBufferClock")


@dataclass(slots=True)
class RCBucket:
    """One attributed bucket of a breakdown."""

    label: str
    cause: RootCause | None  #: None for essential/unattributed buckets
    seconds: float
    fraction: float
    sections: tuple[str, ...]  #: section names that fed this bucket


@dataclass(slots=True)
class RCAttribution:
    """A full RC#1–RC#7 attribution of one recorded profile."""

    total_seconds: float  #: sum of all bucket seconds (== profile total)
    buckets: list[RCBucket]
    wait_events: dict[str, dict[str, Any]]  #: informational annotations

    def seconds_for(self, cause: RootCause) -> float:
        return sum(b.seconds for b in self.buckets if b.cause is cause)

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe form (for bench emission)."""
        return {
            "total_seconds": self.total_seconds,
            "buckets": [
                {
                    "label": b.label,
                    "rc": b.cause.value if b.cause is not None else None,
                    "seconds": b.seconds,
                    "fraction": b.fraction,
                    "sections": list(b.sections),
                }
                for b in self.buckets
            ],
            "wait_events": self.wait_events,
        }


def _bucket_for(section: str) -> tuple[str, RootCause | None]:
    cause = SECTION_ROOT_CAUSES.get(section)
    if cause is not None:
        return f"RC#{cause.value} {cause.info.title}", cause
    if section == SEC_EXECUTOR:
        # The executor's *exclusive* time is its own per-tuple work:
        # Volcano pulls, row-dict construction, expression evaluation.
        # The repo files that interface toll under RC#3 (the paper's
        # serial single-worker executor; its fix — batching — is the
        # same lever parallel execution pulls).
        cause = RootCause.PARALLEL_EXECUTION
        return f"RC#{cause.value} {cause.info.title} (per-tuple executor)", cause
    return OTHER_LABEL, None


def attribute_profile(profiler, wait_events=None) -> RCAttribution:
    """Bucket a profiler's recorded time into root causes.

    Args:
        profiler: a :class:`~repro.common.profiling.Profiler` whose
            section names follow the paper's region vocabulary.  Its
            per-path totals are read, never its spans, so the result
            is exact however many spans the profiler dropped.
        wait_events: optional
            :class:`~repro.common.obs.WaitEventStats` delta covering
            the same window, attached as annotations.

    Exclusive time is attributed by each path's innermost section, so
    e.g. a ``fvec_L2sqr`` nested under ``SearchNbToAdd`` files under
    RC#1 while ``SearchNbToAdd``'s own remaining time files under
    ``Others`` — the same rule the paper's flamegraph reading applies.
    """
    seconds_by_bucket: dict[tuple[str, RootCause | None], float] = {}
    sections_by_bucket: dict[tuple[str, RootCause | None], set[str]] = {}
    for path, seconds in profiler._exclusive.items():
        section = path[-1]
        key = _bucket_for(section)
        seconds_by_bucket[key] = seconds_by_bucket.get(key, 0.0) + seconds
        sections_by_bucket.setdefault(key, set()).add(section)
    total = sum(seconds_by_bucket.values())
    buckets = [
        RCBucket(
            label=label,
            cause=cause,
            seconds=seconds,
            fraction=seconds / total if total > 0 else 0.0,
            sections=tuple(sorted(sections_by_bucket[(label, cause)])),
        )
        for (label, cause), seconds in seconds_by_bucket.items()
    ]
    buckets.sort(key=lambda b: b.seconds, reverse=True)
    waits: dict[str, dict[str, Any]] = {}
    if wait_events is not None:
        for event in wait_events.events():
            waits[event] = {
                "count": wait_events.counts[event],
                "seconds": wait_events.seconds.get(event, 0.0),
                "root_cause": (
                    RootCause.MEMORY_MANAGEMENT.value
                    if event in _MEMORY_WAIT_EVENTS
                    else None
                ),
            }
    return RCAttribution(total_seconds=total, buckets=buckets, wait_events=waits)


def format_rc_breakdown(attribution: RCAttribution, title: str | None = None) -> str:
    """Paper-style report of an attribution (percent + absolute).

    The layout mirrors the Tables III/V breakdowns: one row per
    bucket, descending, with the feeding region names alongside, then
    the reconciliation total and any wait-event annotations.
    """
    lines: list[str] = []
    if title:
        lines.append(title)
    if not attribution.buckets:
        lines.append("  (no samples)")
        return "\n".join(lines)
    width = max(len(b.label) for b in attribution.buckets)
    for b in attribution.buckets:
        sections = ", ".join(b.sections)
        lines.append(
            f"  {b.label:<{width}}  {b.fraction * 100:6.2f}%  "
            f"{b.seconds * 1e3:10.3f} ms  [{sections}]"
        )
    lines.append(
        f"  {'Total attributed':<{width}}  100.00%  "
        f"{attribution.total_seconds * 1e3:10.3f} ms"
    )
    for event, info in attribution.wait_events.items():
        rc = f" (RC#{info['root_cause']})" if info.get("root_cause") else ""
        lines.append(
            f"  wait {event}{rc}: {info['count']} x, "
            f"{info['seconds'] * 1e3:.3f} ms"
        )
    return "\n".join(lines)
