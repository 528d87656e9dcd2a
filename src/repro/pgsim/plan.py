"""Query plan nodes.

The planner (:mod:`repro.pgsim.planner`) turns a parsed SELECT into a
tree of these nodes; :mod:`repro.pgsim.operators` runs them, one
batch-producing operator per node type.  The node the whole paper
revolves around is
:class:`IndexScan`: an ordered scan pulling ``(tid, distance)`` pairs
from a vector index AM, produced for
``ORDER BY vec <-> '...'::PASE LIMIT k`` queries — with an optional
pushed-down filter for the hybrid ``WHERE p AND ORDER BY ... LIMIT k``
shape (evaluated index-side with adaptive over-fetch).

Every node carries the planner's cost estimates
(``startup_cost``/``total_cost``/``plan_rows``); EXPLAIN renders them
as ``(cost=S..T rows=N)`` suffixes unless ``COSTS off`` was given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.pgsim.catalog import IndexInfo, TableInfo
from repro.pgsim.sql import ast


class PlanNode:
    """Base plan node.

    Cost estimates are optional (``None`` on nodes the planner did not
    cost, e.g. virtual-view scans); EXPLAIN omits the suffix for them.
    """

    startup_cost: float | None = None
    total_cost: float | None = None
    plan_rows: int | None = None
    #: Estimated predicate selectivity, set by the path layer on the
    #: nodes that apply one (Filter; hybrid IndexScan).  Feeds
    #: pg_stat_estimation_errors' est-vs-measured comparison.
    est_selectivity: float | None = None

    def own_lines(self, depth: int = 0, costs: bool = True) -> list[str]:
        """This node's EXPLAIN lines (head + detail), children excluded."""
        raise NotImplementedError

    def explain_lines(self, depth: int = 0, costs: bool = True) -> list[str]:
        """Full EXPLAIN listing for this subtree."""
        lines = self.own_lines(depth, costs)
        child = getattr(self, "child", None)
        if child is not None:
            lines.extend(child.explain_lines(depth + 1, costs))
        return lines

    def cost_suffix(self, costs: bool = True) -> str:
        """``  (cost=S..T rows=N)`` — empty under COSTS off or uncosted."""
        if not costs or self.total_cost is None:
            return ""
        return (
            f"  (cost={self.startup_cost:.2f}..{self.total_cost:.2f}"
            f" rows={self.plan_rows})"
        )


def _line(depth: int, text: str) -> str:
    prefix = "" if depth == 0 else "  " * (depth - 1) + "->  "
    return prefix + text


@dataclass
class OneRow(PlanNode):
    """Produces exactly one empty row (``SELECT 1``-style queries)."""

    def own_lines(self, depth: int = 0, costs: bool = True) -> list[str]:
        return [_line(depth, "Result") + self.cost_suffix(costs)]


@dataclass
class SeqScan(PlanNode):
    """Full scan of a heap table."""

    table: TableInfo
    #: True when the scan reads ``heap.scan_batches`` (a page per pull)
    #: instead of ``heap.scan`` (a tuple per pull).
    batch: bool = False

    def own_lines(self, depth: int = 0, costs: bool = True) -> list[str]:
        suffix = " (batch)" if self.batch else ""
        return [_line(depth, f"Seq Scan on {self.table.name}{suffix}") + self.cost_suffix(costs)]


@dataclass
class IndexScan(PlanNode):
    """Ordered vector-index scan (the paper's search path).

    With ``filter`` set, the executor evaluates the predicate on each
    fetched heap row and keeps pulling — starting at ``fetch_k``
    candidates and growing geometrically via ``amrescan_continue`` —
    until ``k`` rows survive or the index is exhausted.
    """

    table: TableInfo
    index: IndexInfo
    query_vector: np.ndarray
    k: int
    order_expr: ast.Expr
    #: True when the scan pulls via ``am.get_batch`` + ``heap.fetch_many``
    #: instead of ``am.scan`` + one ``heap.fetch`` per candidate.
    batch: bool = False
    #: Predicate pushed into the scan (index-time post-filter).
    filter: ast.Expr | None = None
    #: First-pass candidate count (``k / estimated_selectivity``,
    #: clamped); ``None`` behaves as ``k``.
    fetch_k: int | None = None
    #: Hybrid-query strategy executing this scan: "post-filter"
    #: (over-fetch + predicate on the fetched rows) or "in-filter"
    #: (predicate mask pushed inside the AM traversal).  None for pure
    #: k-NN scans with no predicate.
    strategy: str | None = None

    def own_lines(self, depth: int = 0, costs: bool = True) -> list[str]:
        suffix = ", batch" if self.batch else ""
        head = _line(
            depth,
            f"Index Scan using {self.index.name} on {self.table.name} "
            f"({self.index.am_name}, k={self.k}{suffix})",
        ) + self.cost_suffix(costs)
        lines = [head]
        if self.filter is not None:
            detail = "  " * (depth + 1)
            if self.strategy is not None:
                lines.append(f"{detail}Strategy: {self.strategy}")
            lines.append(f"{detail}Filter: {ast.to_sql(self.filter)}")
            if costs and self.fetch_k is not None and self.strategy != "in-filter":
                lines.append(f"{detail}Over-fetch: fetch_k={self.fetch_k}")
        return lines


@dataclass
class PreFilterScan(PlanNode):
    """Pre-filter strategy for the hybrid shape (predicate first).

    Runs the child scan (a :class:`SeqScan`), keeps the rows passing
    ``filter``, brute-forces distances over the survivors with the
    batch kernels, and emits the k nearest — no index involved, so
    cost is independent of how badly an over-fetch estimate would have
    missed.  Wins at low predicate selectivity, where the survivor set
    is small and any index strategy would scan most of its lists/beams
    looking for matches.
    """

    child: PlanNode
    table: TableInfo
    #: Vector column the distances are computed over.
    column: str
    query_vector: np.ndarray
    k: int
    order_expr: ast.Expr
    filter: ast.Expr
    #: EXPLAIN annotation only: the child SeqScan picks the interface.
    batch: bool = False

    #: Class attribute (not a dataclass field): the strategy label,
    #: read by the estimation/strategy statistics like
    #: ``IndexScan.strategy``.
    strategy = "pre-filter"

    def own_lines(self, depth: int = 0, costs: bool = True) -> list[str]:
        suffix = ", batch" if self.batch else ""
        head = _line(
            depth, f"Pre-Filter Scan on {self.table.name} (k={self.k}{suffix})"
        ) + self.cost_suffix(costs)
        detail = "  " * (depth + 1)
        return [
            head,
            f"{detail}Strategy: pre-filter",
            f"{detail}Filter: {ast.to_sql(self.filter)}",
        ]


@dataclass
class VirtualScan(PlanNode):
    """Scan of a read-only virtual table (a pg_stat_* view).

    ``view`` is a :class:`~repro.pgsim.stats.StatView`; the executor
    materialises its rows on every pull, so the output always reflects
    the live counters.
    """

    view: Any

    def own_lines(self, depth: int = 0, costs: bool = True) -> list[str]:
        return [_line(depth, f"Virtual Scan on {self.view.name}") + self.cost_suffix(costs)]


@dataclass
class Filter(PlanNode):
    """Predicate filter over a child plan."""

    child: PlanNode
    predicate: ast.Expr

    def own_lines(self, depth: int = 0, costs: bool = True) -> list[str]:
        return [_line(depth, "Filter") + self.cost_suffix(costs)]


@dataclass
class Sort(PlanNode):
    """Full in-memory sort by one expression."""

    child: PlanNode
    key: ast.Expr
    ascending: bool = True

    def own_lines(self, depth: int = 0, costs: bool = True) -> list[str]:
        direction = "ASC" if self.ascending else "DESC"
        return [_line(depth, f"Sort ({direction})") + self.cost_suffix(costs)]


@dataclass
class Limit(PlanNode):
    """Stop after ``count`` rows."""

    child: PlanNode
    count: int

    def own_lines(self, depth: int = 0, costs: bool = True) -> list[str]:
        return [_line(depth, f"Limit (count={self.count})") + self.cost_suffix(costs)]


@dataclass
class Project(PlanNode):
    """Compute the SELECT target list."""

    child: PlanNode
    targets: tuple[ast.SelectTarget, ...]
    columns: list[str] = field(default_factory=list)
    #: True when the child is a single-group Aggregate whose one value
    #: is the only output column.
    aggregated: bool = False

    def own_lines(self, depth: int = 0, costs: bool = True) -> list[str]:
        return [_line(depth, "Project") + self.cost_suffix(costs)]


@dataclass
class Aggregate(PlanNode):
    """Single-group aggregate (``count(*)`` and friends)."""

    child: PlanNode
    func: str
    arg: ast.Expr | None

    def own_lines(self, depth: int = 0, costs: bool = True) -> list[str]:
        return [_line(depth, f"Aggregate ({self.func})") + self.cost_suffix(costs)]


class ExecutionError(RuntimeError):
    """Raised for runtime statement failures."""


@dataclass
class QueryResult:
    """Rows (or a command tag) returned by the executor."""

    command: str
    columns: list[str] = field(default_factory=list)
    rows: list[tuple[Any, ...]] = field(default_factory=list)
    #: Per-statement counter deltas (:class:`repro.pgsim.stats.QueryStats`),
    #: attached by ``PgSimDatabase.execute`` when ``track_query_stats``
    #: is on; ``None`` when tracking is off or the statement ran
    #: through the bare executor.
    stats: Any = None
    #: Non-fatal notices (PostgreSQL ``WARNING:`` lines), e.g. BEGIN
    #: inside an already-open transaction block.
    warnings: list[str] = field(default_factory=list)

    def scalar(self) -> Any:
        """First column of the first row (raises if empty)."""
        if not self.rows:
            raise ValueError(f"query returned no rows ({self.command})")
        return self.rows[0][0]

    def column(self, index: int = 0) -> list[Any]:
        """All values of one output column."""
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)
