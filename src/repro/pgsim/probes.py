"""Sampling decisions and the exact top-k they are checked against.

The online recall probe (``vector_quality_probe_rate``) compares an
index scan's output with a brute-force pass, and the two brute-force
filtered paths (the pre-filter strategy, the over-fetch fallback) *are*
one.  All three go through :func:`exact_topk`, so they agree on the
metric and on the ``(distance, tid)`` tie-break every scan path uses.
The recall probe and the estimation probe (``estimation_probe_rate``)
share one sampling rule, :func:`sampled`, each on its own ticket stream
so the two schedules never perturb each other.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Collection, Sequence

import numpy as np

from repro.common.distance import batch_kernel
from repro.pgsim import expr as E
from repro.pgsim import plan as P
from repro.pgsim.heapam import TID
from repro.pgsim.paths import METRIC_TO_TYPE
from repro.pgsim.sql import ast

if TYPE_CHECKING:
    from repro.pgsim.catalog import TableInfo
    from repro.pgsim.operators import PlanRun


def sampled(settings: dict[str, Any], prefix: str, next_ticket: Callable[[], int]) -> bool:
    """Decide whether one statement (or scan) is sampled for a probe.

    Sampling is deterministic: a PRNG seeded from ``(<prefix>_seed,
    ticket)`` decides against ``<prefix>_rate``.  While the rate is
    positive a ticket is consumed whether or not the draw is chosen, so
    a fixed seed reproduces the exact same probe schedule across runs.
    """
    try:
        rate = float(settings.get(f"{prefix}_rate", 0.0) or 0.0)
    except (TypeError, ValueError):
        return False
    if rate <= 0.0:
        return False
    try:
        seed = int(settings.get(f"{prefix}_seed", 0) or 0)
    except (TypeError, ValueError):
        seed = 0
    return random.Random(seed * 1_000_003 + next_ticket()).random() < rate


def exact_topk(
    node: P.IndexScan | P.PreFilterScan, tids: Sequence[TID], vectors: Sequence[Any], k: int
) -> list[tuple[int, float]]:
    """The k nearest of ``vectors`` to the node's query, exactly.

    Returns ``(position, distance)`` pairs, nearest first, with ties
    broken on TID so the answer is deterministic.  The metric is the
    ORDER BY operator's — the planner only pairs an index with an
    operator of the index's own ``distance_type``, so this is also the
    metric the index ranked by.
    """
    if not tids:
        return []
    metric = METRIC_TO_TYPE[ast.DISTANCE_OPERATORS[node.order_expr.op]]
    query = np.ascontiguousarray(node.query_vector, dtype=np.float32)
    matrix = np.ascontiguousarray(np.vstack(vectors), dtype=np.float32)
    dists = batch_kernel(metric)(query, matrix)[0]
    order = sorted(
        range(len(tids)), key=lambda i: (float(dists[i]), tids[i].blkno, tids[i].offset)
    )
    return [(i, float(dists[i])) for i in order[:k]]


def nearest_rows(
    node: P.IndexScan | P.PreFilterScan, rows: list[dict[str, Any]], vectors: Sequence[Any], k: int
) -> list[dict[str, Any]]:
    """The k rows nearest the query, ``__distance__`` filled in."""
    out = []
    for i, distance in exact_topk(node, [row["__tid__"] for row in rows], vectors, k):
        rows[i]["__distance__"] = distance
        out.append(rows[i])
    return out


def qualifying_rows(
    run: PlanRun,
    table: TableInfo,
    predicate: ast.Expr,
    column: str,
    exclude: Collection[TID] = (),
    scan: P.SeqScan | None = None,
) -> tuple[list[dict[str, Any]], list[Any], int]:
    """The batch interface's brute-force filter: the rows visible under
    the run's snapshot that pass ``predicate``, hold a non-NULL
    ``column`` and are not in ``exclude``.  Returns them whole (with
    ``__tid__``), their ``column`` values, and how many visible rows
    were examined.

    One projected :meth:`~repro.pgsim.heapam.HeapTable.scan_batches`
    reads only the predicate's columns and one
    :func:`~repro.pgsim.expr.evaluate_batch` per chunk judges them; the
    survivors alone are decoded whole, from the page copies the scan
    already holds, so every heap page is pinned once.  With ``scan``
    the chunks are accounted as that Seq Scan node's output.
    """
    names = table.column_names()
    predicate_names, positions = table.projection(E.column_refs(predicate))
    col = table.heap.column_index(column)
    chunks = table.heap.scan_batches(run.snapshot, columns=positions)
    if scan is not None:
        chunks = run.drive(scan, chunks)
    rows: list[dict[str, Any]] = []
    vectors: list[Any] = []
    examined = 0
    for chunk in chunks:
        examined += len(chunk)
        columns = {name: chunk.columns[i] for name, i in zip(predicate_names, positions)}
        hits = np.flatnonzero(E.evaluate_batch(predicate, columns, len(chunk)))
        for tid, values in zip(chunk.tids(hits), chunk.decode(hits)):
            if values[col] is None or tid in exclude:
                continue
            row = dict(zip(names, values))
            row["__tid__"] = tid
            rows.append(row)
            vectors.append(values[col])
    return rows, vectors, examined


def begin_quality_probe(run: PlanRun, node: P.IndexScan) -> bool:
    """Decide whether this top-k scan is sampled for a recall probe.

    Hybrid (filtered) scans are never probed — their output is not a
    pure top-k, so brute-force recall is undefined — and consume no
    ticket.
    """
    if node.filter is not None:
        return False
    ex = run.executor
    return sampled(ex.catalog.settings, "vector_quality_probe", ex.stats.next_probe_ticket)


def finish_quality_probe(run: PlanRun, node: P.IndexScan, emitted: list[TID]) -> None:
    """Re-answer a sampled scan exactly and record observed recall.

    The oracle is a brute-force pass over the heap under the same
    snapshot the index scan used, with the index's own distance
    metric — so the only divergence it can see is the index's
    approximation (plus dead entries awaiting vacuum), which is
    precisely what ``pg_stat_vector_quality`` is meant to expose.
    """
    heap = node.table.heap
    col = heap.column_index(node.index.column_name)
    tids: list[TID] = []
    vectors: list[Any] = []
    for tid, values in heap.scan(snapshot=run.snapshot):
        if values[col] is not None:
            tids.append(tid)
            vectors.append(values[col])
    truth = {tids[i] for i, __ in exact_topk(node, tids, vectors, node.k)}
    if not truth:
        return
    recall = len(truth.intersection(emitted)) / len(truth)
    run.executor.stats.record_quality(node.index.name, node.index.am_name, recall)
