"""Query planner.

Planning is now three-stage, PostgreSQL-style:

1. **Statistics** — ``ANALYZE`` (:mod:`repro.pgsim.analyze`) records
   reltuples/relpages and per-column n_distinct/MCVs/histograms, from
   which WHERE-clause selectivity is estimated.
2. **Paths** — :mod:`repro.pgsim.paths` generates the viable access
   paths (seq scan, ordered index scan, and for the hybrid filtered
   shape all three of pre-filter / post-filter / in-filter) and costs
   each one, pricing index candidate generation through each AM's
   ``amcostestimate``.
3. **Lowering** — the winning path becomes a plan-node subtree, each
   node annotated with ``(cost=.. rows=..)`` estimates for EXPLAIN.

The decision the paper revolves around is unchanged: a query shaped
``SELECT ... FROM t ORDER BY vec <op> '...'::PASE ASC LIMIT k`` over a
column with a metric-matching vector index becomes an ordered
:class:`~repro.pgsim.plan.IndexScan` — PASE's ``amgettuple`` path
(Sec. II-E).  New is the hybrid shape: with a WHERE clause the planner
costs three filtered-search strategies — pre-filter (predicate first,
brute-force the survivors), post-filter (index scan with adaptive
over-fetch), and in-filter (predicate mask inside the AM traversal) —
and lowers the cheapest; ``SET filtered_search_strategy`` forces one.
"""

from __future__ import annotations

from typing import Any

from repro.pgsim import plan as P
from repro.pgsim.catalog import Catalog
from repro.pgsim.paths import CostParams, choose_path, generate_paths
from repro.pgsim.sql import ast


class PlanningError(ValueError):
    """Raised for semantically invalid queries."""


def plan_select(stmt: ast.Select, catalog: Catalog) -> P.PlanNode:
    """Build the plan tree for a SELECT statement."""
    if stmt.table is None:
        node: P.PlanNode = P.OneRow()
        return _mark_batch(_project(node, stmt.targets, table=None), catalog)

    if not catalog.has_table(stmt.table) and catalog.has_view(stmt.table):
        return _plan_view_select(stmt, catalog)

    table = catalog.table(stmt.table)

    aggregate = _single_aggregate(stmt.targets)
    if aggregate is not None:
        if stmt.order_by is not None:
            raise PlanningError("ORDER BY is not supported with aggregates")
        # Aggregates consume every qualifying row: plan the scan core
        # without ORDER BY/LIMIT (they apply above the Aggregate).
        core = ast.Select(stmt.targets, stmt.table, stmt.where, None, None)
        node = choose_path(generate_paths(core, table, catalog)).lower()
        func, arg = aggregate
        agg: P.PlanNode = P.Aggregate(node, func, arg)
        _annotate_above(agg, node, catalog, rows=1.0)
        if stmt.limit is not None:
            agg = P.Limit(agg, stmt.limit)
            _annotate_above(agg, agg.child, catalog, rows=1.0)
        return _mark_batch(_project(agg, stmt.targets, table, aggregated=True), catalog)

    best = choose_path(generate_paths(stmt, table, catalog))
    node = best.lower()
    project = _project(node, stmt.targets, table)
    _annotate_above(project, node, catalog)
    return _mark_batch(project, catalog)


def _annotate_above(
    node: P.PlanNode, child: P.PlanNode, catalog: Catalog, rows: float | None = None
) -> None:
    """Cost a pass-through node (Project/Aggregate/Limit) from its child."""
    if child.total_cost is None:
        return
    cost = CostParams.from_catalog(catalog)
    child_rows = child.plan_rows or 0
    out_rows = child_rows if rows is None else rows
    node.startup_cost = child.startup_cost
    node.total_cost = child.total_cost + child_rows * cost.cpu_operator_cost
    node.plan_rows = max(1, int(round(out_rows)))


def _plan_view_select(stmt: ast.Select, catalog: Catalog) -> P.Project:
    """Plan a SELECT over a pg_stat_* virtual table.

    Views are never index-backed (and carry no statistics, so their
    nodes stay uncosted); the pipeline is the seq-scan fallback shape
    (scan → filter → sort/aggregate → limit) over a
    :class:`~repro.pgsim.plan.VirtualScan` leaf.
    """
    view = catalog.view(stmt.table)
    node: P.PlanNode = P.VirtualScan(view)
    aggregate = _single_aggregate(stmt.targets)
    if aggregate is not None:
        if stmt.order_by is not None:
            raise PlanningError("ORDER BY is not supported with aggregates")
        if stmt.where is not None:
            node = P.Filter(node, stmt.where)
        func, arg = aggregate
        agg: P.PlanNode = P.Aggregate(node, func, arg)
        if stmt.limit is not None:
            agg = P.Limit(agg, stmt.limit)
        return _mark_batch(_project(agg, stmt.targets, view, aggregated=True), catalog)
    if stmt.where is not None:
        node = P.Filter(node, stmt.where)
    if stmt.order_by is not None:
        node = P.Sort(node, stmt.order_by.expr, stmt.order_by.ascending)
    if stmt.limit is not None:
        node = P.Limit(node, stmt.limit)
    return _mark_batch(_project(node, stmt.targets, view), catalog)


def _mark_batch(project: P.Project, catalog: Catalog) -> P.Project:
    """Flag a finished plan's scans for the batch access interface
    (``get_batch`` / ``fetch_many`` / ``scan_batches``) when the GUC is on."""
    if not catalog.get_bool("enable_batch_exec"):
        return project
    node: P.PlanNode | None = project.child
    while node is not None:
        if isinstance(node, (P.SeqScan, P.IndexScan, P.PreFilterScan)):
            node.batch = True
        node = getattr(node, "child", None)
    return project


def _single_aggregate(
    targets: tuple[ast.SelectTarget, ...]
) -> tuple[str, ast.Expr | None] | None:
    """Detect ``SELECT count(*)``-style single-aggregate queries."""
    if len(targets) != 1:
        return None
    expr = targets[0].expr
    if not isinstance(expr, ast.FuncCall):
        return None
    name = expr.name.lower()
    if name not in ("count", "sum", "min", "max", "avg"):
        return None
    if name == "count" and expr.args and isinstance(expr.args[0], ast.Star):
        return "count", None
    if len(expr.args) != 1:
        raise PlanningError(f"{name}() takes exactly one argument")
    return name, expr.args[0]


def _project(
    node: P.PlanNode,
    targets: tuple[ast.SelectTarget, ...],
    table: Any,  # TableInfo, StatView or None; only column_names() is used
    aggregated: bool = False,
) -> P.Project:
    columns: list[str] = []
    for i, target in enumerate(targets):
        if target.alias:
            columns.append(target.alias)
        elif isinstance(target.expr, ast.Star):
            if table is None:
                raise PlanningError("SELECT * requires a FROM table")
            columns.extend(table.column_names())
        elif isinstance(target.expr, ast.ColumnRef):
            columns.append(target.expr.name)
        elif isinstance(target.expr, ast.FuncCall):
            columns.append(target.expr.name.lower())
        else:
            columns.append(f"column{i + 1}")
    return P.Project(node, targets, columns, aggregated=aggregated)


def explain_plan(node: P.PlanNode, costs: bool = True) -> str:
    """Render an EXPLAIN listing for a plan tree."""
    return "\n".join(node.explain_lines(costs=costs))
