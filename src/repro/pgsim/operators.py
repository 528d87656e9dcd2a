"""Plan execution: one batch-producing operator per plan-node type.

Every operator is a generator ``(run, node) -> Iterator[list[row]]``
found through :data:`OPERATORS`; a parent pulls its child with
:meth:`PlanRun.open`, the one place instrumentation is applied.  Rows
are ``dict``s keyed by column name (plus ``__tid__`` / ``__distance__``
/ ``__agg__``) until Project turns them into output tuples.

There is no separate tuple-at-a-time interpreter: ``enable_batch_exec =
off`` (the paper's RC#3 configuration) runs these same operators.  Only
the *leaves* read ``node.batch``, and only to pick the access interface
(:func:`_seq_scan` here, :mod:`repro.pgsim.index_scan`); everything
above them just sees smaller or larger batches — which is why a Limit
stops a tuple scan after exactly ``count`` rows and a batch scan after
at most one batch more.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sized

from repro.common.profiling import NULL_PROFILER
from repro.pgsim import expr as E
from repro.pgsim import plan as P
from repro.pgsim.index_scan import index_scan
from repro.pgsim.probes import nearest_rows, qualifying_rows
from repro.pgsim.sql import ast
from repro.pgsim.xact import Snapshot

Row = dict[str, Any]
Batches = Iterator[list[Row]]


@dataclass(slots=True)
class PlanRun:
    """One execution of one plan: what the operators need from the statement."""

    #: The :class:`~repro.pgsim.executor.Executor` running the statement;
    #: operators read its ``catalog``, ``stats`` and ``buffer``.
    executor: Any
    #: MVCC snapshot every heap access of the statement reads under
    #: (None on the lock-free virtual-view path, which has no heap).
    snapshot: Snapshot | None = None
    #: Live during ``EXPLAIN (ANALYZE, TRACE)`` and auto_explain runs:
    #: index-scan heap fetches file under "Tuple Access".
    profiler: Any = NULL_PROFILER
    #: ``id(node) -> [rows, seconds, buffer_hits, buffer_misses]``,
    #: filled while the plan runs; None for an uninstrumented run.
    instrument: dict[int, list] | None = None

    def execute(self, plan: P.Project) -> list[tuple[Any, ...]]:
        """Run ``plan`` to completion and return its output rows.

        The root Project is the statement's output rather than a node
        something pulls from, so it is not instrumented: EXPLAIN
        ANALYZE annotates the nodes below it and reports the root's
        row count on its ``Execution:`` line.
        """
        return [row for batch in _project(self, plan) for row in batch]

    def open(self, node: P.PlanNode) -> Batches:
        """Start ``node``'s operator (instrumented when the run is)."""
        try:
            operator = OPERATORS[type(node)]
        except KeyError:
            raise P.ExecutionError(f"unknown plan node: {type(node).__name__}") from None
        return self.drive(node, operator(self, node))

    def drive(self, node: P.PlanNode, batches: Iterator[Sized]) -> Iterator[Sized]:
        """``batches`` as ``node``'s output (instrumented when the run
        is): how :meth:`open` runs an operator, and how a parent that
        reads its child's relation itself still accounts for the child."""
        if self.instrument is None:
            return batches
        return self._instrumented(batches, node)

    def _instrumented(self, batches: Iterator[Sized], node: P.PlanNode) -> Iterator[Sized]:
        """Wrap a node's batch stream with row/time/buffer accounting.

        The row counter advances by ``len(batch)`` per pull, so EXPLAIN
        ANALYZE reports tuples whatever the batch size.  The buffer
        figures are inclusive of child pulls (see
        :func:`repro.pgsim.explain.annotated_lines` for the exclusive
        subtraction).
        """
        entry = self.instrument.setdefault(id(node), [0, 0.0, 0, 0])
        bstats = self.executor.buffer.stats
        while True:
            hits0, misses0 = bstats.hits, bstats.misses
            start = time.perf_counter()
            batch = next(batches, None)
            entry[1] += time.perf_counter() - start
            entry[2] += bstats.hits - hits0
            entry[3] += bstats.misses - misses0
            if batch is None:
                return
            entry[0] += len(batch)
            yield batch


# ----------------------------------------------------------------------
# leaves
# ----------------------------------------------------------------------
def _one_row(run: PlanRun, node: P.OneRow) -> Batches:
    yield [{}]


def _seq_scan(run: PlanRun, node: P.SeqScan) -> Batches:
    names = node.table.column_names()
    heap = node.table.heap
    if node.batch:
        pages = heap.scan_batches(snapshot=run.snapshot)
    else:
        pages = ((item,) for item in heap.scan(snapshot=run.snapshot))
    for page_rows in pages:
        batch = []
        for tid, values in page_rows:
            row = dict(zip(names, values))
            row["__tid__"] = tid
            batch.append(row)
        yield batch


def _virtual_scan(run: PlanRun, node: P.VirtualScan) -> Batches:
    names = node.view.column_names()
    rows = [dict(zip(names, values)) for values in node.view.rows()]
    if rows:
        yield rows


# ----------------------------------------------------------------------
# inner nodes
# ----------------------------------------------------------------------
def _pre_filter_scan(run: PlanRun, node: P.PreFilterScan) -> Batches:
    """Pre-filter strategy: predicate first, then an exact top-k.

    Consumes the child scan fully (blocking, like Sort), keeps the rows
    passing the predicate, runs the metric's vectorized kernel once
    over the survivors' vectors, and selects k by ``(distance, tid)`` —
    the same tie-break as ``topk_batch``, so every strategy agrees on
    output order.  Under the batch interface the operator reads the
    child's heap itself, column-wise (:func:`qualifying_rows`), and
    accounts the chunks to the child Seq Scan; under the tuple
    interface it pulls the child row by row.
    """
    if isinstance(node.child, P.SeqScan) and node.child.batch:
        survivors, vectors, examined = qualifying_rows(
            run, node.table, node.filter, node.column, scan=node.child
        )
    else:
        examined = 0
        survivors = []
        vectors = []
        for batch in run.open(node.child):
            examined += len(batch)
            for row in batch:
                if not E.evaluate(node.filter, row):
                    continue
                vec = row.get(node.column)
                if vec is None:
                    continue
                survivors.append(row)
                vectors.append(vec)
    node.actual_examined = examined
    node.actual_matched = len(survivors)
    rows = nearest_rows(node, survivors, vectors, node.k)
    if rows:
        yield rows


def _filter(run: PlanRun, node: P.Filter) -> Batches:
    for batch in run.open(node.child):
        kept = [row for row in batch if E.evaluate(node.predicate, row)]
        if kept:
            yield kept


def _sort(run: PlanRun, node: P.Sort) -> Batches:
    rows = [row for batch in run.open(node.child) for row in batch]
    rows.sort(key=lambda r: E.evaluate(node.key, r), reverse=not node.ascending)
    if rows:
        yield rows


def _limit(run: PlanRun, node: P.Limit) -> Batches:
    remaining = node.count
    if remaining <= 0:
        return
    for batch in run.open(node.child):
        if len(batch) >= remaining:
            yield batch[:remaining]
            return
        remaining -= len(batch)
        yield batch


def _aggregate(run: PlanRun, node: P.Aggregate) -> Batches:
    values: list[Any] = []
    count = 0
    for batch in run.open(node.child):
        count += len(batch)
        if node.arg is not None:
            values.extend(E.evaluate(node.arg, row) for row in batch)
    func = node.func
    if func == "count":
        result: Any = count if node.arg is None else sum(v is not None for v in values)
    elif not values:
        result = None
    elif func == "sum":
        result = sum(values)
    elif func == "min":
        result = min(values)
    elif func == "max":
        result = max(values)
    elif func == "avg":
        result = sum(values) / len(values)
    else:
        raise P.ExecutionError(f"unknown aggregate {func!r}")
    yield [{"__agg__": result}]


def _project(run: PlanRun, node: P.Project) -> Iterator[list[tuple[Any, ...]]]:
    for batch in run.open(node.child):
        if node.aggregated:
            yield [(row["__agg__"],) for row in batch]
        else:
            yield [_project_one(node, row) for row in batch]


def _project_one(project: P.Project, row: Row) -> tuple[Any, ...]:
    out: list[Any] = []
    for target in project.targets:
        if isinstance(target.expr, ast.Star):
            out.extend(row[name] for name in row if not name.startswith("__"))
        else:
            out.append(E.evaluate(target.expr, row))
    return tuple(out)


#: Plan-node type -> operator.  Every concrete node in
#: :mod:`repro.pgsim.plan` has an entry (a test enforces it) except
#: Project, which is only ever the root and is run by ``execute``.
OPERATORS: dict[type[P.PlanNode], Callable[[PlanRun, Any], Iterator[list]]] = {
    P.OneRow: _one_row,
    P.SeqScan: _seq_scan,
    P.IndexScan: index_scan,
    P.PreFilterScan: _pre_filter_scan,
    P.VirtualScan: _virtual_scan,
    P.Filter: _filter,
    P.Sort: _sort,
    P.Limit: _limit,
    P.Aggregate: _aggregate,
}
