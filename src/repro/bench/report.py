"""Workload report: one human-readable page joining every obs surface.

``build_report`` asks a running database the questions an on-call
engineer would — *what ran, what did it wait on, what drifted over
time, what was slow and why, where did the planner mis-estimate, and
did recall hold* — by issuing plain SQL against the observability
views (``pg_stat_statements``, ``pg_wait_profile``,
``pg_stat_history``, ``pg_slow_queries``,
``pg_stat_estimation_errors``, ``pg_stat_filtered_search``,
``pg_stat_vector_quality``) and
correlating the answers in Python (pgsim SQL has no JOINs; the views
pre-aggregate, the report cross-references).

``write_report`` renders it to ``REPORT_<workload>.txt`` next to the
``BENCH_*.json`` artifacts (``$BENCH_RESULTS_DIR``), where the
concurrent-mixed and churn benches attach it and CI uploads it.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Any

from repro.core.report import render_table

#: Rows shown per section — a report is a page, not a dump.
_TOP_N = 8


def _rows(db: Any, view: str) -> list[tuple]:
    """``SELECT * FROM view`` via plain SQL; empty when the view is."""
    return db.query(f"SELECT * FROM {view}")


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _table(headers: list[str], rows: list[tuple], limit: int = _TOP_N) -> list[str]:
    """Render an aligned text table (shared by every section)."""
    cells = [[_fmt(v) for v in row] for row in rows[:limit]]
    lines = ["  " + line for line in render_table(headers, cells).splitlines()]
    if len(rows) > limit:
        lines.append(f"  ... {len(rows) - limit} more")
    if not rows:
        lines.append("  (none)")
    return lines


def _shorten(query: str, width: int = 64) -> str:
    return query if len(query) <= width else query[: width - 3] + "..."


def build_report(db: Any, workload: str = "workload") -> str:
    """One text page summarizing the database's observability state."""
    statements = _rows(db, "pg_stat_statements")
    wait_profile = _rows(db, "pg_wait_profile")
    history = _rows(db, "pg_stat_history")
    slow = _rows(db, "pg_slow_queries")
    estimation = _rows(db, "pg_stat_estimation_errors")
    strategies = _rows(db, "pg_stat_filtered_search")
    quality = _rows(db, "pg_stat_vector_quality")
    ash_samples = _rows(db, "pg_ash")

    # Python-side correlation (no SQL joins): per-query call counts
    # let later sections annotate how hot a mis-estimated or slow
    # statement actually was.
    calls_by_query = {row[0]: row[1] for row in statements}

    out: list[str] = []
    out.append(f"=== pgsim workload report: {workload} ===")
    out.append(
        f"generated {time.strftime('%Y-%m-%d %H:%M:%S')} | "
        f"{len(ash_samples)} ASH samples | {len(history)} stat-history rows | "
        f"{len(statements)} distinct statements"
    )
    out.append("")

    out.append("-- top statements by total time (pg_stat_statements) --")
    by_time = sorted(statements, key=lambda r: r[3], reverse=True)
    out.extend(
        _table(
            ["query", "calls", "rows", "total_ms", "mean_ms", "p95_ms"],
            [(_shorten(r[0]), r[1], r[2], r[3], r[4], r[6]) for r in by_time],
        )
    )
    out.append("")

    out.append("-- wait profile from active session history (pg_wait_profile) --")
    out.extend(
        _table(
            ["query", "type", "event", "samples", "share"],
            [(_shorten(r[0], 48), r[1], r[2], r[3], r[4]) for r in wait_profile],
        )
    )
    out.append("")

    out.append("-- counter movement over the sampled window (pg_stat_history) --")
    # Sum the per-tick deltas per (metric, label): total movement across
    # the retained window, most active first.
    movement: dict[tuple[str, str], float] = {}
    window = 0.0
    for _, metric, label, _, delta, window_seconds in history:
        movement[(metric, label)] = movement.get((metric, label), 0.0) + delta
        window += window_seconds
    moved = sorted(
        ((m, lbl, total) for (m, lbl), total in movement.items() if total),
        key=lambda r: -abs(r[2]),
    )
    out.extend(_table(["metric", "label", "delta_over_window"], moved))
    if history:
        out.append(f"  (window ~{window / max(1, len(movement)):.1f}s of ticks retained)")
    out.append("")

    out.append("-- slowest statements (pg_slow_queries) --")
    out.extend(
        _table(
            ["query", "elapsed_ms", "rows", "calls_total", "rc_top"],
            [
                (_shorten(r[4], 48), r[5], r[6], calls_by_query.get(r[4]), r[7])
                for r in slow
            ],
            limit=5,
        )
    )
    out.append("")

    out.append("-- planner estimate vs actual (pg_stat_estimation_errors) --")
    out.extend(
        _table(
            ["query", "node", "est_rows", "actual_rows", "max_q_error", "calls_total"],
            [
                (_shorten(r[0], 40), r[1], r[3], r[4], r[6], calls_by_query.get(r[0]))
                for r in estimation
            ],
        )
    )
    worst = max((r[6] for r in estimation), default=None)
    if worst is not None:
        verdict = (
            "estimates track actuals"
            if worst < 4
            else "planner mis-estimates present (q-error >= 4)"
        )
        out.append(f"  worst q-error {worst:.2f} -> {verdict}")
    out.append("")

    out.append("-- filtered-search strategies (pg_stat_filtered_search) --")
    out.extend(
        _table(
            ["strategy", "chosen", "fallbacks", "est_sel", "actual_sel"],
            strategies,
        )
    )
    fallbacks = sum(r[2] for r in strategies)
    if fallbacks:
        out.append(
            f"  {fallbacks} over-fetch fallback(s) -> post-filter hit "
            "max_filtered_overfetch; check predicate selectivity estimates"
        )
    out.append("")

    out.append("-- online recall quality (pg_stat_vector_quality) --")
    out.extend(
        _table(
            ["index", "am", "probes", "mean_recall", "min_recall", "last_recall"],
            quality,
        )
    )
    out.append("")
    return "\n".join(out) + "\n"


def write_report(
    db: Any, workload: str, out_dir: str | os.PathLike | None = None
) -> Path:
    """Write ``REPORT_<workload>.txt`` and return its path.

    Defaults to ``$BENCH_RESULTS_DIR`` (falling back to the working
    directory) — the same resolution as ``write_bench_json``, so the
    report lands next to the bench's JSON artifact.
    """
    if out_dir is None:
        out_dir = os.environ.get("BENCH_RESULTS_DIR", ".")
    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"REPORT_{workload}.txt"
    path.write_text(build_report(db, workload))
    return path
