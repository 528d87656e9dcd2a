"""A ``perf``-like section profiler with optional span recording.

The paper uses Linux ``perf`` and Flame Graphs to attribute execution
time to functions such as ``fvec_L2sqr``, ``Tuple Access``,
``Min-heap``, ``HVTGet`` and ``SearchNbToAdd`` (Tables III and V,
Fig. 8).  This reproduction instruments the same code regions
explicitly: engines wrap each region in ``profiler.section(name)`` and
the harness renders breakdown tables with the same relative/absolute
format the paper uses.

Sections nest; time is attributed *exclusively* to the innermost open
section, keyed by the full section path, so both flat totals
(``inclusive_seconds``) and drill-downs (``breakdown(within=...)``)
are available — mirroring how the paper first shows the
``SearchNbToAdd`` share of HNSW construction (Table III) and then
drills into it (Fig. 8).

With ``max_spans > 0`` every section entry is also kept as a
:class:`Span` (real start/end timestamps, deterministic id, parent
link) for the timeline export :meth:`Profiler.to_chrome_trace`.  Spans
past the cap are counted, not kept.  Every other reader — breakdowns,
collapsed stacks, the RC#1–RC#7 attribution — uses the per-path
totals, which never depend on the cap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable)

#: Span cap for ``EXPLAIN (ANALYZE, TRACE)`` and the bench chrome
#: traces (an OOM guard for tracing long loops).
DEFAULT_MAX_SPANS = 1_000_000

#: Span cap for always-on capture (auto_explain): statements crossing
#: the slow-query threshold trace with this much smaller cap, so a
#: pathological query can't balloon the serving process the way an
#: explicit EXPLAIN (ANALYZE, TRACE) is allowed to.  Only the timeline
#: loses detail; the totals the attribution reads stay exact.
AUTO_CAPTURE_MAX_SPANS = 50_000


@dataclass(slots=True)
class BreakdownRow:
    """One row of a profile breakdown table."""

    name: str
    seconds: float
    fraction: float
    calls: int


@dataclass(slots=True)
class Span:
    """One recorded section entry: a named interval with parent linkage.

    ``span_id`` values are sequential from 1 in section-entry order and
    ``parent_id`` is 0 for roots — deterministic for a given execution,
    so trace-diffing across runs lines spans up by id.  ``end`` is None
    while the section is open.
    """

    span_id: int
    parent_id: int
    name: str
    path: tuple[str, ...]
    start: float
    end: float | None = None


class _NullSection:
    """Do-nothing context manager returned by disabled profilers.

    A single shared instance keeps ``with profiler.section(...)`` from
    allocating, but a disabled section still costs three Python calls
    (``section`` itself, ``__enter__`` and ``__exit__``) per entry.
    Per-item steps in the engines' inner loops therefore bind
    :meth:`Profiler.timed` once instead, which costs nothing per call
    while the profiler is off.
    """

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> None:
        return None


_NULL_SECTION = _NullSection()


class _Section:
    """Live profiling section (see :meth:`Profiler.section`)."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "Profiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self) -> None:
        prof = self._profiler
        now = time.perf_counter()
        if prof._stack:
            prof._exclusive[tuple(prof._stack)] += now - prof._last_ts
        prof._stack.append(self._name)
        path = tuple(prof._stack)
        prof._calls[path] += 1
        prof._last_ts = now
        if prof.max_spans:
            prof._open_span(path, now)

    def __exit__(self, *exc_info) -> None:
        prof = self._profiler
        now = time.perf_counter()
        prof._exclusive[tuple(prof._stack)] += now - prof._last_ts
        prof._stack.pop()
        prof._last_ts = now
        if prof.max_spans:
            span = prof._open_spans.pop()
            if span is not None:
                span.end = now


class Profiler:
    """Hierarchical section profiler with exclusive-time accounting.

    A disabled profiler (``enabled=False``) turns :meth:`section` into
    a near-no-op so production paths can keep their instrumentation.
    ``max_spans`` bounds how many section entries are also kept as
    :class:`Span` records; 0 keeps none.
    """

    def __init__(self, enabled: bool = True, max_spans: int = 0) -> None:
        self.enabled = enabled
        self.max_spans = max_spans
        #: Recorded spans in section-entry order (at most ``max_spans``).
        self.spans: list[Span] = []
        #: Section entries past ``max_spans``, counted instead of kept.
        self.dropped_spans = 0
        self._stack: list[str] = []
        #: Open spans, innermost last; None stands for a dropped one.
        self._open_spans: list[Span | None] = []
        self._last_ts = 0.0
        self._exclusive: dict[tuple[str, ...], float] = defaultdict(float)
        self._calls: dict[tuple[str, ...], int] = defaultdict(int)

    def reset(self) -> None:
        """Drop all recorded samples and spans (open sections must be closed)."""
        if self._stack:
            raise RuntimeError(f"cannot reset with open sections: {self._stack}")
        self._exclusive.clear()
        self._calls.clear()
        self.spans.clear()
        self.dropped_spans = 0

    def section(self, name: str) -> "_Section | _NullSection":
        """Attribute enclosed wall time to ``name`` (nested-aware)."""
        if not self.enabled:
            return _NULL_SECTION
        return _Section(self, name)

    def timed(self, name: str, fn: _F) -> _F:
        """``fn`` with every call inside ``section(name)``: ``fn`` itself
        while the profiler is disabled, else a wrapper that opens the
        section and calls ``fn`` (positional arguments only) in it.

        For per-item steps, bound once before the loop: a disabled
        profiler then costs the loop nothing per item, an enabled one
        records exactly one section entry per call that encloses only
        ``fn``.  The enabled/disabled choice is made here, once.
        """
        if not self.enabled:
            return fn
        section = _Section(self, name)  # holds no per-entry state: one serves every call

        def timed_call(*args):
            with section:
                return fn(*args)

        return timed_call  # type: ignore[return-value]

    def _open_span(self, path: tuple[str, ...], now: float) -> None:
        # A kept span's parent was entered earlier, so it is kept too.
        if len(self.spans) < self.max_spans:
            parent = self._open_spans[-1].span_id if self._open_spans else 0
            span = Span(len(self.spans) + 1, parent, path[-1], path, now)
            self.spans.append(span)
        else:
            span = None
            self.dropped_spans += 1
        self._open_spans.append(span)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def inclusive_seconds(self, name: str) -> float:
        """Time spent inside ``name`` including nested child sections."""
        return sum(t for path, t in self._exclusive.items() if name in path)

    def total_seconds(self) -> float:
        """All recorded time."""
        return sum(self._exclusive.values())

    def breakdown(self, within: str | None = None, self_label: str = "Others") -> list[BreakdownRow]:
        """Group recorded time into top-level buckets.

        Args:
            within: when ``None``, bucket by each path's first element
                (a Table III-style top-level breakdown).  Otherwise
                restrict to paths containing ``within`` and bucket by
                the element immediately following it (a Fig. 8-style
                drill-down); time spent in ``within`` itself, outside
                any child, lands in ``self_label``.
            self_label: bucket name for un-attributed parent time.

        Returns rows sorted by descending time, fractions relative to
        the grouped total.
        """
        buckets: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for path, seconds in self._exclusive.items():
            if within is None:
                bucket = path[0]
            else:
                if within not in path:
                    continue
                idx = len(path) - 1 - path[::-1].index(within)
                bucket = path[idx + 1] if idx + 1 < len(path) else self_label
            buckets[bucket] += seconds
        for path, count in self._calls.items():
            if within is None:
                # Only length-1 paths are *entries into* the top-level
                # bucket; adding nested-child entries would over-report
                # the paper-style tables' "calls" columns.
                if len(path) == 1:
                    calls[path[0]] += count
            elif within in path:
                idx = len(path) - 1 - path[::-1].index(within)
                # Same rule one level down: a path counts as a call of
                # its bucket only when the bucket is the innermost
                # element, i.e. the path is an *entry into* the bucket
                # and not into some grandchild.
                if idx + 2 == len(path):
                    calls[path[idx + 1]] += count
                elif idx + 1 == len(path):
                    calls[self_label] += count
        total = sum(buckets.values())
        rows = [
            BreakdownRow(
                name=name,
                seconds=seconds,
                fraction=seconds / total if total > 0 else 0.0,
                calls=calls.get(name, 0),
            )
            for name, seconds in buckets.items()
        ]
        rows.sort(key=lambda r: r.seconds, reverse=True)
        return rows

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def to_collapsed(self) -> str:
        """Collapsed-stack export (``flamegraph.pl`` input format).

        One line per recorded section path: frame names joined by
        ``;`` followed by a space and the path's *exclusive* time as
        integer microseconds (flamegraph.pl splits each line on the
        last whitespace run, so frame names may themselves contain
        spaces — ``Tuple Access`` survives round-tripping).  Paths
        whose exclusive time rounds to zero microseconds but were
        entered at least once are kept with weight 1 so they still
        show up in the flamegraph.

        Pipe the result straight through the stock tooling::

            flamegraph.pl profile.collapsed > profile.svg
        """
        lines = []
        for path in sorted(self._exclusive):
            micros = round(self._exclusive[path] * 1e6)
            if micros <= 0:
                if self._calls.get(path, 0) <= 0:
                    continue
                micros = 1
            lines.append(";".join(path) + f" {micros}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_chrome_trace(self) -> str:
        """Chrome ``trace_event`` JSON of the recorded span timeline.

        One complete (``ph: "X"``) event per kept span with the real
        timestamps (relative to the first span's start), so gaps,
        ordering and repeated entries appear exactly as they ran
        (``chrome://tracing`` / Perfetto).  Dropped spans are reported
        under ``metadata``.  Raises ValueError for a profiler built
        without spans (``max_spans=0``).
        """
        if not self.max_spans:
            raise ValueError("no spans recorded: build the Profiler with max_spans > 0")
        t0 = self.spans[0].start if self.spans else 0.0
        events = []
        for span in self.spans:
            end = span.end if span.end is not None else span.start
            events.append(
                {
                    "name": span.name,
                    "cat": "trace",
                    "ph": "X",
                    "ts": round((span.start - t0) * 1e6, 3),
                    "dur": round((end - span.start) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": {"span_id": span.span_id, "parent_id": span.parent_id},
                }
            )
        doc: dict = {"traceEvents": events, "displayTimeUnit": "ms"}
        if self.dropped_spans:
            doc["metadata"] = {"dropped_spans": self.dropped_spans}
        return json.dumps(doc, indent=1)


class _FrozenProfiler(Profiler):
    """Permanently disabled profiler (the type of :data:`NULL_PROFILER`).

    ``NULL_PROFILER`` is shared by every engine that opts out of
    profiling; a caller flipping ``.enabled = True`` on it would
    silently turn on profiling — and mix samples — for all of them.
    This subclass makes that a loud error instead.
    """

    def __setattr__(self, name: str, value) -> None:
        if name == "enabled" and value:
            raise TypeError(
                "NULL_PROFILER is shared and permanently disabled; "
                "create your own Profiler() instead of enabling it"
            )
        super().__setattr__(name, value)


#: Shared do-nothing profiler for callers that do not want profiling.
#: Permanently disabled — attempts to enable it raise (see
#: :class:`_FrozenProfiler`).
NULL_PROFILER = _FrozenProfiler(enabled=False)
