"""Prometheus text-exposition exporter over pgsim's counter families.

:class:`MetricsRegistry` snapshots every cumulative counter the engine
keeps — buffer manager, WAL, heap tuple traffic, wait events,
``pg_stat_statements`` (including the latency histogram as cumulative
buckets), per-index scan and recall-probe stats, live backend states
and the slow-query log — into the Prometheus text format, served by
``PgSimDatabase.metrics_text()`` and the ``repro-bench metrics`` CLI.

The registry is duck-typed against the database facade (``db.stats``,
``db.activity``, ``db.slowlog``) rather than importing
:mod:`repro.pgsim`, keeping ``repro.common`` import-light; families
whose backing object is absent are simply skipped, so a bare
``Executor(...)`` harness still renders the counters it has.

A scrape is a read-only snapshot: it allocates its output buffer and
walks live dicts via ``.copy()``/list snapshots, never mutating or
locking engine state, so scraping from a monitoring thread is safe
alongside running statements.

:func:`parse_exposition` is the matching strict parser — tests
round-trip every scrape through it, and it validates histogram
bucket monotonicity, so "it parsed" means a real Prometheus scraper
would accept the payload.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Iterable

_METRIC_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")

#: Unit suffixes that violate the base-unit rule (prometheus.io/docs
#: naming): durations are ``_seconds``, sizes are ``_bytes``, ratios
#: are ``_ratio`` — never milliseconds, kilobytes, or percentages.
_NON_BASE_UNIT_SUFFIXES = (
    "_ms",
    "_millis",
    "_milliseconds",
    "_us",
    "_micros",
    "_microseconds",
    "_ns",
    "_nanos",
    "_nanoseconds",
    "_minutes",
    "_hours",
    "_days",
    "_kb",
    "_kib",
    "_mb",
    "_mib",
    "_gb",
    "_gib",
    "_kilobytes",
    "_megabytes",
    "_gigabytes",
    "_percent",
    "_pct",
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r" (?P<value>[^ ]+)$"
)


def check_family_name(name: str, metric_type: str) -> None:
    """Enforce Prometheus naming conventions on one metric family.

    Raises ``ValueError`` when a counter family does not end in
    ``_total``, or when any family carries a non-base-unit suffix
    (``_ms``, ``_kb``, ``_minutes``, ...).  Applied at both ends:
    :class:`_Writer` refuses to emit a non-conforming family, and
    :func:`parse_exposition` rejects payloads containing one.
    """
    if not _NAME_RE.fullmatch(name):
        raise ValueError(f"invalid metric name {name!r}")
    if metric_type == "counter" and not name.endswith("_total"):
        raise ValueError(f"counter family {name!r} must end in '_total'")
    base = name[: -len("_total")] if name.endswith("_total") else name
    for suffix in _NON_BASE_UNIT_SUFFIXES:
        if base.endswith(suffix):
            raise ValueError(
                f"metric family {name!r} uses non-base unit suffix "
                f"{suffix!r}; use base units (_seconds, _bytes, _ratio)"
            )


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


class _Writer:
    """Accumulates one exposition payload family by family."""

    def __init__(self) -> None:
        self._lines: list[str] = []

    def family(self, name: str, metric_type: str, help_text: str) -> None:
        check_family_name(name, metric_type)
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {metric_type}")

    def sample(
        self, name: str, value: Any, labels: dict[str, Any] | None = None
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{k}="{_escape_label(str(v))}"' for k, v in labels.items()
            )
            self._lines.append(f"{name}{{{rendered}}} {_format_value(value)}")
        else:
            self._lines.append(f"{name} {_format_value(value)}")

    def histogram(
        self,
        name: str,
        cumulative: Iterable[tuple[float, int]],
        count: int,
        total: float,
        labels: dict[str, Any] | None = None,
    ) -> None:
        """Emit ``_bucket``/``_sum``/``_count`` series for one histogram."""
        base = dict(labels or {})
        for upper, seen in cumulative:
            self.sample(f"{name}_bucket", seen, {**base, "le": _format_value(upper)})
        self.sample(f"{name}_bucket", count, {**base, "le": "+Inf"})
        self.sample(f"{name}_sum", total, base or None)
        self.sample(f"{name}_count", count, base or None)

    def render(self) -> str:
        return "\n".join(self._lines) + "\n"


class MetricsRegistry:
    """Snapshot a database's counter families into Prometheus text."""

    def __init__(self, db: Any) -> None:
        self.db = db

    def render(self) -> str:
        w = _Writer()
        stats = getattr(self.db, "stats", None)
        if stats is not None:
            self._buffer_family(w, stats)
            self._wal_family(w, stats)
            self._heap_family(w, stats)
            self._wait_family(w, stats)
            self._statement_family(w, stats)
            self._index_family(w, stats)
            self._quality_family(w, stats)
        activity = getattr(self.db, "activity", None)
        if activity is not None:
            self._activity_family(w, activity)
        slowlog = getattr(self.db, "slowlog", None)
        if slowlog is not None:
            self._slowlog_family(w, slowlog)
        ash = getattr(self.db, "ash", None)
        if ash is not None:
            self._ash_family(w, ash)
        history = getattr(self.db, "stat_history", None)
        if history is not None:
            self._history_family(w, history)
        estimation = getattr(getattr(self.db, "executor", None), "estimation", None)
        if estimation is not None:
            self._estimation_family(w, estimation)
        return w.render()

    # ------------------------------------------------------------------
    # families
    # ------------------------------------------------------------------
    def _buffer_family(self, w: _Writer, stats: Any) -> None:
        s = stats.buffer.stats
        w.family("pgsim_buffer_ops_total", "counter", "Buffer-manager operations.")
        for op in ("hits", "misses", "evictions", "dirty_writebacks"):
            w.sample("pgsim_buffer_ops_total", getattr(s, op), {"op": op})
        w.family("pgsim_buffer_hit_ratio", "gauge", "Buffer-pool hit ratio.")
        w.sample("pgsim_buffer_hit_ratio", float(s.hit_ratio))

    def _wal_family(self, w: _Writer, stats: Any) -> None:
        s = stats.wal.stats
        w.family("pgsim_wal_records_total", "counter", "WAL records appended.")
        w.sample("pgsim_wal_records_total", s.records)
        w.family("pgsim_wal_bytes_total", "counter", "WAL bytes appended.")
        w.sample("pgsim_wal_bytes_total", s.bytes_written)
        w.family("pgsim_wal_flushes_total", "counter", "WAL flush calls.")
        w.sample("pgsim_wal_flushes_total", s.flushes)
        w.family("pgsim_wal_flushed_lsn", "gauge", "Durable WAL position.")
        w.sample("pgsim_wal_flushed_lsn", stats.wal.flushed_lsn)

    def _heap_family(self, w: _Writer, stats: Any) -> None:
        s = stats.heap
        w.family("pgsim_heap_tuples_total", "counter", "Heap tuple operations.")
        for op in ("fetched", "inserted", "deleted", "updated"):
            w.sample(
                "pgsim_heap_tuples_total", getattr(s, f"tuples_{op}"), {"op": op}
            )

    def _wait_family(self, w: _Writer, stats: Any) -> None:
        # Local import intentionally avoided: the event-type mapping
        # lives next to the wait stats in repro.common.obs.
        from repro.common.obs import WAIT_EVENT_TYPES

        waits = stats.waits
        counts = dict(waits.counts)
        seconds = dict(waits.seconds)
        w.family("pgsim_wait_events_total", "counter", "Wait-event occurrences.")
        for event in sorted(counts):
            w.sample(
                "pgsim_wait_events_total",
                counts[event],
                {"type": WAIT_EVENT_TYPES.get(event, "Extension"), "event": event},
            )
        w.family(
            "pgsim_wait_seconds_total", "counter", "Seconds blocked per wait event."
        )
        for event in sorted(counts):
            w.sample(
                "pgsim_wait_seconds_total",
                seconds.get(event, 0.0),
                {"type": WAIT_EVENT_TYPES.get(event, "Extension"), "event": event},
            )

    def _statement_family(self, w: _Writer, stats: Any) -> None:
        statements = dict(stats.statements)
        w.family(
            "pgsim_statement_calls_total",
            "counter",
            "Executions per normalized statement.",
        )
        for text in sorted(statements):
            w.sample(
                "pgsim_statement_calls_total",
                statements[text].calls,
                {"query": text},
            )
        w.family(
            "pgsim_statement_rows_total",
            "counter",
            "Rows returned per normalized statement.",
        )
        for text in sorted(statements):
            w.sample(
                "pgsim_statement_rows_total", statements[text].rows, {"query": text}
            )
        # One merged duration histogram across all statements: the
        # per-query split lives in the calls/rows counters, while the
        # latency distribution is what dashboards alert on.
        merged_count = 0
        merged_total = 0.0
        merged: Any = None
        for entry in statements.values():
            h = entry.histogram
            merged_count += h.count
            merged_total += h.total_seconds
            if merged is None:
                merged = type(h)()
            merged.merge(h)
        w.family(
            "pgsim_statement_duration_seconds",
            "histogram",
            "Statement latency across all normalized statements.",
        )
        w.histogram(
            "pgsim_statement_duration_seconds",
            merged.cumulative_buckets() if merged is not None else [],
            merged_count,
            merged_total,
        )

    def _index_family(self, w: _Writer, stats: Any) -> None:
        infos = list(stats.iter_indexes())
        w.family("pgsim_index_scans_total", "counter", "Index scans per index.")
        for info in infos:
            s = getattr(info.am, "scan_stats", None)
            if s is not None:
                w.sample(
                    "pgsim_index_scans_total",
                    s.scans,
                    {"index": info.name, "table": info.table_name, "am": info.am_name},
                )
        w.family(
            "pgsim_index_candidates_total",
            "counter",
            "Distance computations per index (the nprobe/efs amplification).",
        )
        for info in infos:
            s = getattr(info.am, "scan_stats", None)
            if s is not None:
                w.sample(
                    "pgsim_index_candidates_total",
                    s.candidates,
                    {"index": info.name, "table": info.table_name, "am": info.am_name},
                )

    def _quality_family(self, w: _Writer, stats: Any) -> None:
        quality = dict(getattr(stats, "quality", {}) or {})
        w.family(
            "pgsim_index_recall_ratio",
            "histogram",
            "Observed recall@k of sampled index scans vs the brute-force oracle.",
        )
        for name in sorted(quality):
            entry = quality[name]
            h = entry.histogram
            w.histogram(
                "pgsim_index_recall_ratio",
                h.cumulative_buckets(),
                h.count,
                h.total,
                {"index": entry.index_name, "am": entry.am_name},
            )
        w.family(
            "pgsim_index_recall_last_ratio",
            "gauge",
            "Most recently observed recall@k.",
        )
        for name in sorted(quality):
            entry = quality[name]
            w.sample(
                "pgsim_index_recall_last_ratio",
                entry.histogram.last_value,
                {"index": entry.index_name, "am": entry.am_name},
            )

    def _activity_family(self, w: _Writer, activity: Any) -> None:
        counts = activity.state_counts()
        w.family("pgsim_backends", "gauge", "Live backends by state.")
        for state in sorted(counts):
            w.sample("pgsim_backends", counts[state], {"state": state})
        backends = activity.backends()
        w.family(
            "pgsim_backend_statements_total",
            "counter",
            "Statements executed per backend.",
        )
        for b in backends:
            w.sample(
                "pgsim_backend_statements_total",
                b.statements,
                {"pid": b.backend_id, "name": b.name},
            )
        w.family(
            "pgsim_backend_lock_wait_seconds_total",
            "counter",
            "Seconds spent waiting on the statement lock per backend.",
        )
        for b in backends:
            w.sample(
                "pgsim_backend_lock_wait_seconds_total",
                b.lock_wait_seconds,
                {"pid": b.backend_id, "name": b.name},
            )

    def _slowlog_family(self, w: _Writer, slowlog: Any) -> None:
        w.family(
            "pgsim_slow_queries_total",
            "counter",
            "Statements logged past log_min_duration_statement.",
        )
        w.sample("pgsim_slow_queries_total", slowlog.total_logged)
        w.family(
            "pgsim_slow_queries_retained", "gauge", "Slow-query records in the ring."
        )
        w.sample("pgsim_slow_queries_retained", len(slowlog.records()))

    def _ash_family(self, w: _Writer, ash: Any) -> None:
        w.family(
            "pgsim_ash_samples_total",
            "counter",
            "Active-session-history samples taken (pg_ash).",
        )
        w.sample("pgsim_ash_samples_total", ash.total_samples)
        w.family(
            "pgsim_ash_retained", "gauge", "ASH samples currently in the ring."
        )
        w.sample("pgsim_ash_retained", len(ash))

    def _history_family(self, w: _Writer, history: Any) -> None:
        w.family(
            "pgsim_stat_history_ticks_total",
            "counter",
            "Stat-history sampling ticks taken (pg_stat_history).",
        )
        w.sample("pgsim_stat_history_ticks_total", history.total_ticks)
        w.family(
            "pgsim_stat_history_retained",
            "gauge",
            "Stat-history rows currently in the ring.",
        )
        w.sample("pgsim_stat_history_retained", len(history))

    def _estimation_family(self, w: _Writer, estimation: Any) -> None:
        w.family(
            "pgsim_estimation_records_total",
            "counter",
            "Plan nodes recorded into pg_stat_estimation_errors.",
        )
        w.sample("pgsim_estimation_records_total", estimation.total_recorded)
        w.family(
            "pgsim_estimation_max_q_error",
            "gauge",
            "Worst estimate-vs-actual q-error across tracked plan nodes.",
        )
        w.sample("pgsim_estimation_max_q_error", estimation.max_q_error())


# ----------------------------------------------------------------------
# parser (test/CLI round-trip validation)
# ----------------------------------------------------------------------


@dataclass(slots=True)
class Sample:
    """One parsed sample line."""

    name: str
    labels: dict[str, str]
    value: float


@dataclass
class Exposition:
    """Parsed text-format payload with lookup helpers."""

    samples: list[Sample] = field(default_factory=list)
    types: dict[str, str] = field(default_factory=dict)
    helps: dict[str, str] = field(default_factory=dict)

    def value(self, name: str, **labels: str) -> float | None:
        """The value of the sample matching ``name`` and ``labels`` exactly."""
        want = {k: str(v) for k, v in labels.items()}
        for s in self.samples:
            if s.name == name and s.labels == want:
                return s.value
        return None

    def family(self, name: str) -> list[Sample]:
        return [s for s in self.samples if s.name.startswith(name)]


def _parse_labels(raw: str) -> dict[str, str]:
    """Parse ``k="v",...`` handling ``\\\\``/``\\"``/``\\n`` escapes."""
    labels: dict[str, str] = {}
    i = 0
    n = len(raw)
    while i < n:
        match = _NAME_RE.match(raw, i)
        if match is None:
            raise ValueError(f"bad label name at {raw[i:]!r}")
        key = match.group(0)
        i = match.end()
        if raw[i : i + 2] != '="':
            raise ValueError(f"expected '=\"' after label {key!r}")
        i += 2
        out: list[str] = []
        while i < n and raw[i] != '"':
            ch = raw[i]
            if ch == "\\":
                esc = raw[i + 1 : i + 2]
                if esc == "n":
                    out.append("\n")
                elif esc in ('"', "\\"):
                    out.append(esc)
                else:
                    raise ValueError(f"bad escape \\{esc} in label {key!r}")
                i += 2
            else:
                out.append(ch)
                i += 1
        if i >= n:
            raise ValueError(f"unterminated label value for {key!r}")
        i += 1  # closing quote
        labels[key] = "".join(out)
        if i < n:
            if raw[i] != ",":
                raise ValueError(f"expected ',' between labels at {raw[i:]!r}")
            i += 1
    return labels


def _parse_number(raw: str) -> float:
    if raw == "+Inf":
        return float("inf")
    if raw == "-Inf":
        return float("-inf")
    return float(raw)  # raises ValueError on garbage, incl. "NaN" ok


def parse_exposition(text: str) -> Exposition:
    """Strictly parse a Prometheus text-format payload.

    Raises ``ValueError`` on any malformed line, on a ``# TYPE`` with
    an unknown metric type, on families violating Prometheus naming
    conventions (counters without ``_total``, non-base-unit suffixes —
    see :func:`check_family_name`), and on histogram families whose
    ``le`` buckets are not cumulative (non-decreasing with ascending
    bound, ``+Inf`` bucket equal to ``_count``).
    """
    exp = Exposition()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            rest = line[len("# HELP ") :]
            name, _, help_text = rest.partition(" ")
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"line {lineno}: bad HELP metric name {name!r}")
            exp.helps[name] = help_text
            continue
        if line.startswith("# TYPE "):
            rest = line[len("# TYPE ") :]
            name, _, metric_type = rest.partition(" ")
            if not _NAME_RE.fullmatch(name):
                raise ValueError(f"line {lineno}: bad TYPE metric name {name!r}")
            if metric_type not in _METRIC_TYPES:
                raise ValueError(f"line {lineno}: unknown metric type {metric_type!r}")
            try:
                check_family_name(name, metric_type)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            exp.types[name] = metric_type
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        labels = _parse_labels(match.group("labels") or "")
        try:
            value = _parse_number(match.group("value"))
        except ValueError:
            raise ValueError(
                f"line {lineno}: bad sample value {match.group('value')!r}"
            ) from None
        exp.samples.append(Sample(match.group("name"), labels, value))
    _validate_histograms(exp)
    return exp


def _validate_histograms(exp: Exposition) -> None:
    for name, metric_type in exp.types.items():
        if metric_type != "histogram":
            continue
        # Group buckets by their non-le labels (one series per group).
        series: dict[tuple, list[tuple[float, float]]] = {}
        counts: dict[tuple, float] = {}
        for s in exp.samples:
            base = tuple(sorted((k, v) for k, v in s.labels.items() if k != "le"))
            if s.name == f"{name}_bucket":
                series.setdefault(base, []).append(
                    (_parse_number(s.labels["le"]), s.value)
                )
            elif s.name == f"{name}_count":
                counts[base] = s.value
        for base, buckets in series.items():
            buckets.sort(key=lambda b: b[0])
            prev = 0.0
            for upper, seen in buckets:
                if seen < prev:
                    raise ValueError(
                        f"histogram {name}{dict(base)}: bucket le={upper} "
                        f"count {seen} < previous {prev}"
                    )
                prev = seen
            if not buckets or buckets[-1][0] != float("inf"):
                raise ValueError(f"histogram {name}{dict(base)}: missing +Inf bucket")
            expected = counts.get(base)
            if expected is not None and buckets[-1][1] != expected:
                raise ValueError(
                    f"histogram {name}{dict(base)}: +Inf bucket "
                    f"{buckets[-1][1]} != _count {expected}"
                )
