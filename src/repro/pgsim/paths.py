"""Access paths and the planner cost model.

PostgreSQL's planner separates *what strategies exist* (paths) from
*what plan gets built* (the cheapest path is lowered to plan nodes).
This module is that middle layer for pgsim's single-table SELECT core
(scan + filter + order + limit):

* :class:`SeqScanPath` — heap scan, residual filter, explicit sort.
* :class:`IndexScanPath` — ordered vector-index scan satisfying
  ``ORDER BY vec <op> const LIMIT k`` with no predicate (PASE's
  ``amgettuple`` path, Sec. II-E).
* :class:`OrderedIndexScanPath` — hybrid **post-filter** strategy: the
  same ordered scan with the WHERE clause pushed into the scan as an
  index-time post-filter, over-fetching ``k / selectivity`` candidates
  and re-scanning geometrically (``amrescan_continue``) until k
  survive (capped by ``max_filtered_overfetch``).
* :class:`InFilterIndexScanPath` — hybrid **in-filter** strategy: the
  predicate mask is pushed *inside* the AM traversal
  (``amsearch_filtered``), so only matching tuples reach the result
  heap; costed by charging the mask per examined candidate.
* :class:`PreFilterPath` — hybrid **pre-filter** strategy: evaluate
  the predicate first over a heap scan, then brute-force the
  survivors' distances into a k-bounded top-k — no index at all.

The hybrid shape ``WHERE p ORDER BY vec <-> q LIMIT k`` thus gets a
genuine three-way costed choice; ``SET filtered_search_strategy``
forces one of them (for benchmarking the crossover).

Costs follow PostgreSQL's ``costsize.c`` vocabulary: page fetches are
charged ``seq_page_cost``/``random_page_cost``, per-tuple CPU is
``cpu_tuple_cost``/``cpu_index_tuple_cost``, and expression evaluation
``cpu_operator_cost`` (vector distances are weighted
:data:`DISTANCE_OP_WEIGHT` operators).  Each index AM prices its own
candidate generation through ``IndexAmRoutine.amcostestimate``.

Path selection is cost-based with one deliberate exception, also
borrowed from how PASE is used in practice: a pure ordered-KNN query
(:class:`IndexScanPath`, no WHERE) always takes the matching index.
At paper scale the index wins outright, and pinning the choice keeps
the search path deterministic across dataset sizes; ``SET
enable_indexscan = off`` still disables it.  The hybrid shape — where
the paper-adjacent filtered-search literature shows the decision is
genuinely data-dependent — is decided purely by comparing costs, so
the plan flips from index scan to seq-scan + sort as the estimated
selectivity drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.common.types import DistanceType
from repro.pgsim import expr as expr_eval
from repro.pgsim import plan as P
from repro.pgsim.analyze import clause_selectivity, table_shape
from repro.pgsim.catalog import Catalog, IndexInfo, TableInfo
from repro.pgsim.sql import ast

#: A vector distance evaluation costs this many "operators" — a dim-d
#: fvec_L2sqr is far more work than an integer comparison.
DISTANCE_OP_WEIGHT = 8.0

#: Penalty applied to paths the user disabled via enable_* GUCs; the
#: path stays plannable (it may be the only one) but never wins a
#: comparison, exactly PostgreSQL's disable_cost.
DISABLE_COST = 1.0e10

#: distance-operator metric name -> DistanceType (index option value).
METRIC_TO_TYPE = {
    "l2": DistanceType.L2,
    "inner_product": DistanceType.INNER_PRODUCT,
    "cosine": DistanceType.COSINE,
}


@dataclass(frozen=True)
class CostParams:
    """The planner cost constants (PostgreSQL's costsize GUCs)."""

    seq_page_cost: float
    random_page_cost: float
    cpu_tuple_cost: float
    cpu_index_tuple_cost: float
    cpu_operator_cost: float

    @classmethod
    def from_catalog(cls, catalog: Catalog) -> "CostParams":
        """Read the cost GUCs (``SET random_page_cost = ...`` works)."""
        return cls(
            seq_page_cost=float(catalog.get_setting("seq_page_cost")),
            random_page_cost=float(catalog.get_setting("random_page_cost")),
            cpu_tuple_cost=float(catalog.get_setting("cpu_tuple_cost")),
            cpu_index_tuple_cost=float(catalog.get_setting("cpu_index_tuple_cost")),
            cpu_operator_cost=float(catalog.get_setting("cpu_operator_cost")),
        )


class Path:
    """One candidate strategy for a single-table SELECT core.

    ``startup_cost``/``total_cost``/``rows`` describe the *root* of the
    subtree :meth:`lower` would produce (after any LIMIT).  Comparison
    happens on :meth:`compare_cost`; the winner is lowered to plan
    nodes, each annotated with its own cost estimates for EXPLAIN.
    """

    startup_cost: float = 0.0
    total_cost: float = 0.0
    rows: float = 0.0
    #: disable_cost surcharge (kept separate so EXPLAIN shows honest
    #: estimates while comparisons still respect enable_* GUCs).
    disabled: bool = False
    #: Hybrid filtered-search strategy this path embodies
    #: ("pre-filter" / "post-filter" / "in-filter"), None for
    #: non-hybrid paths.  ``filtered_search_strategy`` forcing and the
    #: per-strategy statistics key off this.
    strategy: str | None = None

    def compare_cost(self) -> float:
        """Cost used to pick the cheapest path."""
        return self.total_cost + (DISABLE_COST if self.disabled else 0.0)

    def lower(self) -> P.PlanNode:
        """Build the plan subtree for this path."""
        raise NotImplementedError


def _qual_cost_per_row(where: ast.Expr | None, cost: CostParams) -> float:
    """Per-row cost of evaluating a predicate tree."""
    if where is None:
        return 0.0
    ops = 0.0
    for node in ast.walk(where):
        if isinstance(node, ast.BinaryOp):
            ops += DISTANCE_OP_WEIGHT if node.op in ast.DISTANCE_OPERATORS else 1.0
        elif isinstance(node, ast.UnaryOp):
            ops += 1.0
    return ops * cost.cpu_operator_cost


def _bruteforce_topk_cost(
    where: ast.Expr | None,
    ntuples: float,
    relpages: float,
    survivors: float,
    k: int,
    cost: CostParams,
) -> float:
    """Cost of a filtered brute-force top-k over the whole heap.

    Full heap scan + qual on every row, then a distance, a tuple copy
    and a log2(k) bounded-heap comparison per surviving row.  Used as
    the pre-filter path's entire cost and as the post-filter path's
    fallback surcharge when its over-fetch budget is capped.
    """
    total = relpages * cost.seq_page_cost + ntuples * cost.cpu_tuple_cost
    total += ntuples * _qual_cost_per_row(where, cost)
    total += survivors * DISTANCE_OP_WEIGHT * cost.cpu_operator_cost
    total += survivors * cost.cpu_tuple_cost
    total += survivors * math.log2(max(float(k), 2.0)) * cost.cpu_operator_cost
    return total


def _plan_rows(estimate: float) -> int:
    """Row estimates as EXPLAIN prints them (clamped to >= 1, like PG)."""
    return max(1, int(round(estimate)))


def _set_cost(node: P.PlanNode, startup: float, total: float, rows: float) -> None:
    """Attach cost estimates to a plan node (rendered by EXPLAIN)."""
    node.startup_cost = startup
    node.total_cost = total
    node.plan_rows = _plan_rows(rows)


class SeqScanPath(Path):
    """Heap scan + residual filter + explicit sort (+ limit)."""

    def __init__(self, stmt: ast.Select, table: TableInfo, catalog: Catalog) -> None:
        self.stmt = stmt
        self.table = table
        self.cost = CostParams.from_catalog(catalog)
        self.disabled = not catalog.get_bool("enable_seqscan")
        cost = self.cost
        ntuples, relpages = table_shape(table)
        self.selectivity = clause_selectivity(stmt.where, table)

        # Seq Scan node: every page once, every tuple once.
        self._scan_total = relpages * cost.seq_page_cost + ntuples * cost.cpu_tuple_cost
        self._scan_rows = ntuples

        # Filter node: qual evaluation over every input row.
        node_startup, node_total, node_rows = 0.0, self._scan_total, ntuples
        if stmt.where is not None:
            node_total += ntuples * _qual_cost_per_row(stmt.where, cost)
            node_rows = ntuples * self.selectivity
        self._filter_total, self._filter_rows = node_total, node_rows

        # Sort node: materializes its input — full cost before the
        # first row comes back (that startup is what LIMIT cannot
        # save, and why a k-bounded index scan wins at high
        # selectivity).
        if stmt.order_by is not None:
            key_weight = DISTANCE_OP_WEIGHT if (
                isinstance(stmt.order_by.expr, ast.BinaryOp)
                and stmt.order_by.expr.op in ast.DISTANCE_OPERATORS
            ) else 1.0
            n = max(node_rows, 2.0)
            sort_cost = node_rows * key_weight * cost.cpu_operator_cost
            sort_cost += 2.0 * cost.cpu_operator_cost * n * math.log2(n)
            node_startup = node_total + sort_cost
            node_total = node_startup + node_rows * cost.cpu_operator_cost
        self._sort_startup, self._sort_total = node_startup, node_total

        # Limit node: stop early — pay startup plus a run fraction.
        if stmt.limit is not None and node_rows > 0:
            frac = min(1.0, stmt.limit / node_rows)
            node_total = node_startup + (node_total - node_startup) * frac
            node_rows = min(float(stmt.limit), node_rows)
        self.startup_cost = node_startup
        self.total_cost = node_total
        self.rows = node_rows

    def lower(self) -> P.PlanNode:
        stmt, cost = self.stmt, self.cost
        node: P.PlanNode = P.SeqScan(self.table)
        _set_cost(node, 0.0, self._scan_total, self._scan_rows)
        if stmt.where is not None:
            node = P.Filter(node, stmt.where)
            _set_cost(node, 0.0, self._filter_total, self._filter_rows)
            node.est_selectivity = self.selectivity
        if stmt.order_by is not None:
            node = P.Sort(node, stmt.order_by.expr, stmt.order_by.ascending)
            _set_cost(node, self._sort_startup, self._sort_total, self._filter_rows)
        if stmt.limit is not None:
            node = P.Limit(node, stmt.limit)
            _set_cost(node, self.startup_cost, self.total_cost, self.rows)
        return node


class IndexScanPath(Path):
    """Ordered vector-index scan for a pure KNN query (no WHERE).

    The scan is inherently k-bounded, so the LIMIT above it is free;
    the AM prices its candidate generation via ``amcostestimate`` and
    the path adds one heap fetch per returned row.
    """

    #: Predicate pushed into the scan (None here; the hybrid subclass
    #: sets it).
    filter: ast.Expr | None = None

    def __init__(
        self,
        stmt: ast.Select,
        table: TableInfo,
        index: IndexInfo,
        query_vector: np.ndarray,
        catalog: Catalog,
    ) -> None:
        self.stmt = stmt
        self.table = table
        self.index = index
        self.query_vector = query_vector
        self.cost = CostParams.from_catalog(catalog)
        cost = self.cost
        assert stmt.limit is not None and stmt.order_by is not None
        self.k = stmt.limit
        ntuples, relpages = table_shape(table)
        self.selectivity = clause_selectivity(self.filter, table)
        self.fetch_k = self._initial_fetch_k(ntuples)

        am_startup, am_total = index.am.amcostestimate(ntuples, self.fetch_k, cost)
        # Heap side: each candidate costs a by-TID fetch.  Page reads
        # are bounded by the relation size (repeat visits hit shared
        # buffers — the Mackert-Lohman intuition) and priced at
        # seq_page_cost: a scan that just probed the index has the hot
        # part of the heap in the buffer pool, so charging the cold
        # random_page_cost systematically overprices every index
        # strategy against the pre-filter heap scan.
        pages = min(float(self.fetch_k), float(relpages))
        heap_total = pages * cost.seq_page_cost + self.fetch_k * cost.cpu_tuple_cost
        heap_total += self.fetch_k * _qual_cost_per_row(self.filter, cost)
        total = am_total + heap_total
        self.startup_cost = am_startup
        self.total_cost = total
        self.rows = min(float(self.k), max(ntuples * self.selectivity, 0.0))

    def _initial_fetch_k(self, ntuples: float) -> int:
        """How many candidates the first scan pass requests."""
        return self.k

    def lower(self) -> P.PlanNode:
        stmt = self.stmt
        node: P.PlanNode = P.IndexScan(
            table=self.table,
            index=self.index,
            query_vector=self.query_vector,
            k=self.k,
            order_expr=stmt.order_by.expr,
            filter=self.filter,
            fetch_k=self.fetch_k,
            strategy=self.strategy,
        )
        _set_cost(node, self.startup_cost, self.total_cost, self.rows)
        if self.filter is not None:
            node.est_selectivity = self.selectivity
        # LIMIT stays in the plan even though the scan is k-bounded:
        # it documents the bound and guards the batch executor path.
        limit = P.Limit(node, self.k)
        _set_cost(limit, self.startup_cost, self.total_cost, self.rows)
        return limit


class OrderedIndexScanPath(IndexScanPath):
    """The hybrid shape: ordered index scan with a pushed-down filter.

    The executor evaluates the WHERE clause on each fetched heap row
    (an index-time post-filter) and keeps scanning — geometrically
    growing ``fetch_k`` through ``amrescan_continue`` — until k rows
    survive or the index is exhausted, so the query returns exactly k
    rows whenever at least k rows match.  The cost model sizes the
    first pass at ``k / selectivity`` candidates, which is what makes
    this path lose to the pre-filter strategy at low selectivity.
    """

    strategy = "post-filter"

    def __init__(
        self,
        stmt: ast.Select,
        table: TableInfo,
        index: IndexInfo,
        query_vector: np.ndarray,
        catalog: Catalog,
    ) -> None:
        assert stmt.where is not None
        self.filter = stmt.where
        self._overfetch_cap = max(int(catalog.get_setting("max_filtered_overfetch")), 1)
        self._capped = False
        super().__init__(stmt, table, index, query_vector, catalog)
        if self._capped:
            # The estimate says even the capped pass is unlikely to
            # surface k matches, so the executor will probably hit
            # ``max_filtered_overfetch`` and answer the remainder with
            # its brute-force pre-filter fallback — charge that scan,
            # which is what hands rare predicates to PreFilterPath.
            ntuples, relpages = table_shape(table)
            survivors = max(ntuples * self.selectivity, 0.0)
            self.total_cost += _bruteforce_topk_cost(
                stmt.where, ntuples, relpages, survivors, self.k, self.cost
            )
            self.startup_cost = self.total_cost

    def _initial_fetch_k(self, ntuples: float) -> int:
        floor = 1.0 / ntuples if ntuples >= 1.0 else 1.0
        fetch = math.ceil(self.k / max(self.selectivity, floor))
        fetch = min(max(fetch, self.k), max(ntuples, self.k))
        # max_filtered_overfetch caps how far over-fetching may grow
        # (the executor applies the same cap to its geometric rescans
        # and falls back to a brute-force pre-filter beyond it).
        capped = int(min(fetch, float(self._overfetch_cap * self.k)))
        self._capped = capped < fetch
        return capped


class InFilterIndexScanPath(IndexScanPath):
    """Hybrid in-filter strategy: the predicate mask rides inside the
    AM traversal (``amsearch_filtered``), so non-matching tuples still
    route the search but never occupy result slots — no over-fetch and
    no rescan.  Only generated for AMs advertising ``amcanfilter``.

    Cost = the AM's ordered-scan estimate for ``k`` results, plus one
    visibility + predicate check per *examined* candidate (the mask is
    evaluated on every candidate the traversal touches), plus the heap
    fetch of the k winners.  The examined count is the larger of the
    AM's natural probe footprint and ``k / selectivity`` — a rare
    predicate forces the traversal to widen until k matches surface,
    which is exactly where pre-filter takes over.
    """

    strategy = "in-filter"

    def __init__(
        self,
        stmt: ast.Select,
        table: TableInfo,
        index: IndexInfo,
        query_vector: np.ndarray,
        catalog: Catalog,
    ) -> None:
        assert stmt.where is not None
        self.filter = stmt.where
        super().__init__(stmt, table, index, query_vector, catalog)
        cost = self.cost
        ntuples, relpages = table_shape(table)
        floor = 1.0 / ntuples if ntuples >= 1.0 else 1.0
        widened = min(ntuples, self.k / max(self.selectivity, floor))
        self.est_examined = max(
            index.am.amestimate_candidates(ntuples, self.k), widened
        )
        # The mask is a by-TID heap visit per examined candidate: page
        # reads (buffer-bounded, like the base class's heap side) plus
        # a tuple deform and the qual itself.
        mask_pages = min(self.est_examined, float(relpages))
        self.total_cost += mask_pages * cost.seq_page_cost
        self.total_cost += self.est_examined * (
            cost.cpu_tuple_cost + _qual_cost_per_row(self.filter, cost)
        )

    def _initial_fetch_k(self, ntuples: float) -> int:
        # Only matching tuples come back: the scan is k-bounded.
        return self.k


class PreFilterPath(Path):
    """Hybrid pre-filter strategy: predicate first, then brute force.

    Lowers to ``Limit(PreFilterScan(SeqScan))`` — scan the heap, keep
    the rows passing the predicate, compute distances over just the
    survivors and top-k them with a bounded heap.  No index, so the
    cost is insensitive to selectivity *mis*-estimates; it wins when
    the predicate is rare and every index strategy would trawl most of
    its lists/beams hunting for matches.
    """

    strategy = "pre-filter"

    def __init__(
        self,
        stmt: ast.Select,
        table: TableInfo,
        catalog: Catalog,
        column: str,
        query_vector: np.ndarray,
    ) -> None:
        assert stmt.where is not None
        assert stmt.order_by is not None and stmt.limit is not None
        self.stmt = stmt
        self.table = table
        self.column = column
        self.query_vector = query_vector
        self.cost = CostParams.from_catalog(catalog)
        # Contains a full heap scan, so it honours enable_seqscan
        # (``SET enable_seqscan = off`` keeps pinning index strategies).
        self.disabled = not catalog.get_bool("enable_seqscan")
        cost = self.cost
        ntuples, relpages = table_shape(table)
        self.k = stmt.limit
        self.selectivity = clause_selectivity(stmt.where, table)
        survivors = max(ntuples * self.selectivity, 0.0)

        # Seq Scan child: every page, every tuple (the qual and the
        # survivor-side work live in _bruteforce_topk_cost, shared
        # with the post-filter path's fallback estimate).
        self._scan_total = relpages * cost.seq_page_cost + ntuples * cost.cpu_tuple_cost
        self._scan_rows = ntuples
        total = _bruteforce_topk_cost(
            stmt.where, ntuples, relpages, survivors, self.k, cost
        )
        # Everything materializes before the first row comes back.
        self.startup_cost = total
        self.total_cost = total
        self.rows = min(float(self.k), survivors)

    def lower(self) -> P.PlanNode:
        stmt = self.stmt
        child = P.SeqScan(self.table)
        _set_cost(child, 0.0, self._scan_total, self._scan_rows)
        node = P.PreFilterScan(
            child=child,
            table=self.table,
            column=self.column,
            query_vector=self.query_vector,
            k=self.k,
            order_expr=stmt.order_by.expr,
            filter=stmt.where,
        )
        _set_cost(node, self.startup_cost, self.total_cost, self.rows)
        node.est_selectivity = self.selectivity
        limit = P.Limit(node, self.k)
        _set_cost(limit, self.startup_cost, self.total_cost, self.rows)
        return limit


def generate_paths(stmt: ast.Select, table: TableInfo, catalog: Catalog) -> list[Path]:
    """All viable paths for a SELECT over a real table.

    A seq-scan path always exists, except for the hybrid filtered-KNN
    shape, where the pre-filter path strictly dominates it (identical
    scan + filter work, but a k-bounded selection over the survivors
    instead of a full sort) and replaces it; index paths require the
    ``ORDER BY vec <op> const ASC LIMIT k`` shape, a metric-matching
    index, and ``enable_indexscan`` on.
    """
    paths: list[Path] = [SeqScanPath(stmt, table, catalog)]
    match = _ordered_index_match(stmt, table, catalog)
    if match is not None:
        index, query_vector = match
        if stmt.where is None:
            paths.append(IndexScanPath(stmt, table, index, query_vector, catalog))
        else:
            paths.append(OrderedIndexScanPath(stmt, table, index, query_vector, catalog))
            if index.am.amcanfilter:
                paths.append(
                    InFilterIndexScanPath(stmt, table, index, query_vector, catalog)
                )
    if stmt.where is not None:
        target = _distance_order_target(stmt)
        if target is not None:
            column, query_vector = target
            paths[0] = PreFilterPath(stmt, table, catalog, column, query_vector)
    _apply_strategy_force(paths, catalog)
    return paths


def _apply_strategy_force(paths: list[Path], catalog: Catalog) -> None:
    """Apply ``SET filtered_search_strategy = pre-filter|post-filter|in-filter``.

    Only touches the hybrid shape, and only when a path for the forced
    strategy was actually generated (forcing in-filter on an AM without
    ``amcanfilter`` is a no-op rather than an error); every other path
    — including the plain seq-scan — is disabled so the forced strategy
    wins even where it is naturally more expensive.
    """
    forced = str(catalog.get_setting("filtered_search_strategy")).lower()
    if forced in ("", "auto"):
        return
    if not any(path.strategy == forced for path in paths):
        return
    for path in paths:
        if path.strategy != forced:
            path.disabled = True


def choose_path(paths: list[Path]) -> Path:
    """Pick the winning path (see the module docstring for the rule)."""
    for path in paths:
        if type(path) is IndexScanPath:
            return path
    return min(paths, key=lambda p: p.compare_cost())


def _distance_order_target(stmt: ast.Select) -> tuple[str, np.ndarray] | None:
    """``(column, query_vector)`` when the query is the ordered-KNN
    shape ``ORDER BY vec <op> const ASC LIMIT k`` — no index required
    (the pre-filter strategy brute-forces without one)."""
    if stmt.order_by is None or stmt.limit is None:
        return None
    if not stmt.order_by.ascending:
        return None  # farthest-first is not a supported search order
    order_expr = stmt.order_by.expr
    if not isinstance(order_expr, ast.BinaryOp):
        return None
    if order_expr.op not in ast.DISTANCE_OPERATORS:
        return None
    column, const_side = _split_distance_operands(order_expr)
    if column is None or const_side is None:
        return None
    query = expr_eval.coerce_vector(expr_eval.evaluate(const_side, row=None))
    return column, np.ascontiguousarray(query, dtype=np.float32)


def _ordered_index_match(
    stmt: ast.Select, table: TableInfo, catalog: Catalog
) -> tuple[IndexInfo, np.ndarray] | None:
    """Find an index whose ordering satisfies the query's ORDER BY."""
    if not catalog.get_bool("enable_indexscan"):
        return None
    target = _distance_order_target(stmt)
    if target is None:
        return None
    column, query = target
    metric = METRIC_TO_TYPE[ast.DISTANCE_OPERATORS[stmt.order_by.expr.op]]
    for index in catalog.indexes_on(table.name, column):
        index_metric = DistanceType(index.options.get("distance_type", DistanceType.L2))
        if index_metric != metric:
            continue
        return index, query
    return None


def _split_distance_operands(
    op: ast.BinaryOp,
) -> tuple[str | None, ast.Expr | None]:
    """Identify the (column, constant) sides of a distance expression."""
    left_col = isinstance(op.left, ast.ColumnRef)
    right_col = isinstance(op.right, ast.ColumnRef)
    if left_col and expr_eval.is_constant(op.right):
        return op.left.name, op.right
    if right_col and expr_eval.is_constant(op.left):
        return op.right.name, op.left
    return None, None
