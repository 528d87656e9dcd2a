"""EXPLAIN: plan rendering, ANALYZE annotation and trace arming.

``EXPLAIN`` plans the inner statement and prints the tree; ``EXPLAIN
ANALYZE`` also runs it with per-node instrumentation
(:meth:`repro.pgsim.operators.PlanRun.open`) and annotates each node
with what it actually produced.  ``TRACE`` additionally arms a span
tracer (:func:`begin_trace`, also used by the executor's auto_explain
capture) and appends the RC#1–RC#7 attribution of the recorded spans.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from repro.pgsim import plan as P
from repro.pgsim.planner import explain_plan
from repro.pgsim.sql import ast

if TYPE_CHECKING:
    from repro.pgsim.executor import Executor


def explain(ex: Executor, stmt: ast.Explain) -> P.QueryResult:
    """Run one EXPLAIN statement; the result is one row per output line."""
    if stmt.buffers and not stmt.analyze:
        raise P.ExecutionError("EXPLAIN option BUFFERS requires ANALYZE")
    if stmt.trace and not stmt.analyze:
        raise P.ExecutionError("EXPLAIN option TRACE requires ANALYZE")
    if stmt.timing and not stmt.analyze:
        # Matches PostgreSQL: TIMING off without ANALYZE is fine,
        # TIMING on without ANALYZE is not.
        raise P.ExecutionError("EXPLAIN option TIMING requires ANALYZE")
    inner = stmt.statement
    if isinstance(inner, ast.Select):
        lines = _explain_select(ex, stmt, inner)
    elif isinstance(inner, (ast.Insert, ast.Delete, ast.Update)):
        lines = _explain_dml(ex, stmt, inner)
    else:
        raise P.ExecutionError(
            "EXPLAIN supports SELECT, INSERT, UPDATE and DELETE statements, "
            f"not {type(inner).__name__}"
        )
    return P.QueryResult(
        command="EXPLAIN", columns=["QUERY PLAN"], rows=[(line,) for line in lines]
    )


def _explain_select(ex: Executor, stmt: ast.Explain, inner: ast.Select) -> list[str]:
    plan = ex.plan_select(inner)
    if not stmt.analyze:
        return explain_plan(plan, costs=stmt.costs).splitlines()
    # EXPLAIN ANALYZE: execute the plan with per-node counters.
    # TIMING defaults on; TIMING off keeps counters only (no
    # wall-clock in the output), as in PostgreSQL.
    timing = stmt.timing if stmt.timing is not None else True
    instrument: dict[int, list] = {}
    if stmt.trace:
        tracer, restore = begin_trace(ex, plan)
        waits_before = ex.stats.waits.snapshot()
    start = time.perf_counter()
    try:
        n_rows = len(ex.run_plan(plan, instrument))
    finally:
        if stmt.trace:
            restore()
    total = time.perf_counter() - start
    ex.record_run(plan, instrument)
    lines = annotated_lines(
        plan, 0, instrument, buffers=stmt.buffers, timing=timing, costs=stmt.costs
    )
    if timing:
        lines.append(f"Execution: {n_rows} rows in {total * 1e3:.3f} ms")
    else:
        lines.append(f"Execution: {n_rows} rows")
    if stmt.trace:
        waits_delta = ex.stats.waits.delta(waits_before)
        lines.extend(_trace_lines(tracer, waits_delta, total))
    return lines


def begin_trace(ex: Executor, plan: P.PlanNode, max_spans: int | None = None):
    """Arm span tracing for one EXPLAIN (ANALYZE, TRACE) run.

    One tracer-backed profiler is shared by the executor (heap
    fetches -> "Tuple Access") and every index AM reachable from
    the plan (their paper-named sections: fvec_L2sqr, Min-heap,
    Pctable, ...), so the span tree nests AM work under the
    "Executor" root span :meth:`Executor.run_plan` opens.  Returns
    ``(tracer, restore)`` where ``restore()`` puts the previous
    profilers back.
    """
    from repro.common.profiling import Profiler
    from repro.common.tracing import DEFAULT_MAX_SPANS, Tracer

    tracer = Tracer(max_spans=max_spans if max_spans is not None else DEFAULT_MAX_SPANS)
    profiler = Profiler(tracer=tracer)
    ams = []
    node: P.PlanNode | None = plan
    while node is not None:
        if isinstance(node, P.IndexScan):
            ams.append(node.index.am)
        node = getattr(node, "child", None)
    saved = [(am, am.profiler) for am in ams]
    saved_exec = ex.trace_profiler
    for am in ams:
        am.profiler = profiler
    ex.trace_profiler = profiler

    def restore() -> None:
        ex.trace_profiler = saved_exec
        for am, prev in saved:
            am.profiler = prev

    #: Kept for harnesses that want the raw spans after the run
    #: (chrome-trace export, flamegraphs).
    ex.last_trace = tracer
    return tracer, restore


def _trace_lines(tracer, waits_delta, total_seconds: float) -> list[str]:
    """Render the RC#1–RC#7 attribution block of a TRACE run."""
    # Function-level import: repro.core imports pgsim packages.
    from repro.core.rc_attribution import attribute_profile, format_rc_breakdown

    attribution = attribute_profile(tracer, wait_events=waits_delta)
    lines = ["Root-cause attribution (spans):"]
    lines.extend(format_rc_breakdown(attribution).splitlines())
    covered = attribution.total_seconds / total_seconds if total_seconds > 0 else 0.0
    note = f"Trace: {len(tracer.spans)} spans, {covered * 100:.1f}% of elapsed attributed"
    if tracer.dropped_spans:
        note += f" ({tracer.dropped_spans} spans dropped)"
    lines.append(note)
    return lines


def _explain_dml(ex: Executor, stmt: ast.Explain, inner: ast.Statement) -> list[str]:
    """EXPLAIN [ANALYZE] for INSERT/UPDATE/DELETE: plan line + counters.

    The write path has no plan tree to instrument, so ANALYZE executes
    the statement (with its side effects, exactly like PostgreSQL's
    EXPLAIN ANALYZE on DML) and reports actual rows, wall time and —
    with BUFFERS — the statement's buffer delta on the top line.
    """
    ex.catalog.table(inner.table)  # validate before printing
    if isinstance(inner, ast.Insert):
        lines = [f"Insert on {inner.table} (rows={len(inner.rows)})"]
    else:
        verb = "Update" if isinstance(inner, ast.Update) else "Delete"
        lines = [f"{verb} on {inner.table}", "->  Seq Scan on " + inner.table]
    if not stmt.analyze:
        return lines
    timing = stmt.timing if stmt.timing is not None else True
    before = ex.buffer.stats.snapshot()
    start = time.perf_counter()
    result = ex.dispatch(inner)
    total = time.perf_counter() - start
    affected = int(result.command.split()[-1])
    if timing:
        lines[0] += f" (actual rows={affected} time={total * 1e3:.3f} ms)"
    else:
        lines[0] += f" (actual rows={affected})"
    if stmt.buffers:
        delta = ex.buffer.stats.delta(before)
        lines.insert(1, f"  Buffers: hits={delta.hits} misses={delta.misses}")
    if timing:
        lines.append(f"Execution: {affected} rows in {total * 1e3:.3f} ms")
    else:
        lines.append(f"Execution: {affected} rows")
    return lines


def annotated_lines(
    node: P.PlanNode,
    depth: int,
    instrument: dict[int, list],
    buffers: bool = False,
    timing: bool = True,
    costs: bool = True,
) -> list[str]:
    """Plan listing annotated with actual rows/time per node.

    Each head line keeps the planner's ``(cost=.. rows=..)``
    estimate (suppressed with COSTS off) followed by the actuals,
    as in PostgreSQL.  With ``buffers`` on, each instrumented node
    also gets a ``Buffers: hits=H misses=M`` line.  Instrumentation
    captures *inclusive* deltas (a parent's pull runs its child's
    pull); plans are single-child chains, so the child's inclusive
    figure is subtracted to report each node's *exclusive* buffer
    traffic — the per-node figures sum exactly to the query's
    total.

    With ``timing`` off the per-node wall-clock is withheld
    (counters only), matching EXPLAIN (ANALYZE, TIMING off).
    """
    node_lines = node.own_lines(depth, costs=costs)
    own, details = node_lines[0], node_lines[1:]
    entry = instrument.get(id(node))
    child = getattr(node, "child", None)
    if entry is not None:
        if timing:
            own += f" (actual rows={entry[0]} time={entry[1] * 1e3:.3f} ms)"
        else:
            own += f" (actual rows={entry[0]})"
    lines = [own]
    if buffers and entry is not None:
        child_entry = instrument.get(id(child)) if child is not None else None
        hits = entry[2] - (child_entry[2] if child_entry is not None else 0)
        misses = entry[3] - (child_entry[3] if child_entry is not None else 0)
        lines.append("  " * (depth + 1) + f"Buffers: hits={hits} misses={misses}")
    lines.extend(details)
    if child is not None:
        lines.extend(
            annotated_lines(
                child, depth + 1, instrument, buffers=buffers, timing=timing, costs=costs
            )
        )
    return lines
