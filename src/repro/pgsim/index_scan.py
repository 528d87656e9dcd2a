"""The IndexScan operator: the paper's search path.

The index AM produces ``(tid, distance)`` nearest-first and the scan
fetches each result row from the heap by TID — PostgreSQL's index-scan
contract.  How it does so is the RC#3 toggle, and the only thing
``node.batch`` selects:

* ``amgettuple`` (:func:`_tuple_pass`): one AM pull, one
  ``heap.fetch`` — a buffer-manager round trip and a tuple decode — per
  candidate, lazily, so the scan stops paying the moment the k-th row
  survives;
* ``amgetbatch`` (:func:`_batch_pass`): one ``get_batch`` and one
  block-grouped ``heap.fetch_many`` per pass.

Both feed the same survivor loop (:func:`_survivor_rows`), so dead-tuple
skipping, the pushed-down filter, the over-fetch rescans and both
brute-force fallbacks exist once.  The in-filter strategy
(:func:`_in_filter_rows`) instead hands the AM a predicate mask: one
``heap.fetch`` and one ``evaluate`` per TID under ``amgettuple``
(:func:`_predicate_mask`), one projected ``heap.fetch_many`` and one
column-wise ``evaluate_batch`` per AM callback under ``amgetbatch``
(:func:`_column_mask`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.pgsim import expr as E
from repro.pgsim import plan as P
from repro.pgsim.catalog import CatalogError
from repro.pgsim.heapam import TID, HeapTable
from repro.pgsim.probes import begin_quality_probe, finish_quality_probe, nearest_rows

if TYPE_CHECKING:
    from repro.pgsim.operators import PlanRun

Row = dict[str, Any]
#: One pass's ``(tid, distance, heap values or None if dead)`` stream.
Candidates = Iterable[tuple[TID, float, list[Any] | None]]


def index_scan(run: PlanRun, node: P.IndexScan) -> Iterator[list[Row]]:
    """Emit the scan's rows at the granularity its interface delivers:
    one row per pull under ``amgettuple``, the whole result as one batch
    under ``amgetbatch``."""
    rows = _in_filter_rows(run, node) if node.strategy == "in-filter" else _survivor_rows(run, node)
    if not node.batch:
        for row in rows:
            yield [row]
        return
    batch = list(rows)
    if batch:
        yield batch


def _heap_fetcher(run: PlanRun, heap: HeapTable) -> Callable[[TID], list[Any] | None]:
    """``heap.fetch`` under the statement's snapshot, ``None`` for a
    dead or invisible tuple (an index entry awaiting vacuum).  This is
    the per-candidate path, so tracing costs one ``.enabled`` test
    outside trace runs rather than a context manager."""
    prof = run.profiler
    snapshot = run.snapshot

    def fetch(tid: TID) -> list[Any] | None:
        try:
            if prof.enabled:
                with prof.section("Tuple Access"):
                    return heap.fetch(tid, snapshot=snapshot)
            return heap.fetch(tid, snapshot=snapshot)
        except KeyError:
            return None

    return fetch


def _tuple_pass(
    run: PlanRun, node: P.IndexScan, seen: set, fetch_k: int, rescan: bool
) -> Candidates:
    am = node.index.am
    fetch = _heap_fetcher(run, node.table.heap)
    scan = am.amrescan_continue if rescan else am.scan
    for tid, distance in scan(node.query_vector, fetch_k):
        # A TID an earlier pass examined is skipped by the caller;
        # don't pay its heap round trip a second time.
        yield tid, distance, None if tid in seen else fetch(tid)


def _batch_pass(run: PlanRun, node: P.IndexScan, fetch_k: int, rescan: bool) -> Candidates:
    am = node.index.am
    get_batch = am.amrescan_continue_batch if rescan else am.get_batch
    batch = get_batch(node.query_vector, fetch_k)
    tids = batch.tids()
    with run.profiler.section("Tuple Access"):
        fetched = node.table.heap.fetch_many(tids, snapshot=run.snapshot)
    return zip(tids, batch.distances.tolist(), fetched)


def _survivor_rows(run: PlanRun, node: P.IndexScan) -> Iterator[Row]:
    """Pull index hits nearest-first until k rows survive.

    Two things can make a fetched candidate a non-result: a dead heap
    tuple (deleted rows keep their index entries until vacuum, as in
    PostgreSQL/PASE) and — for the hybrid shape — a pushed-down filter
    the row fails.  Either way the scan keeps going: the first pass
    requests ``fetch_k`` candidates (the planner's ``k / selectivity``
    over-fetch), and each exhausted pass doubles the request through
    ``amrescan_continue[_batch]`` until k rows survive, the index
    returns fewer candidates than asked (index exhausted), or the
    ``max_filtered_overfetch`` cap is hit — at which point a filtered
    scan answers the remainder with one brute-force pre-filter pass
    instead of re-scanning ever-larger prefixes of the index.
    """
    names = node.table.column_names()
    seen: set = set()
    fetch_k = max(node.fetch_k or node.k, node.k)
    max_fetch = _max_overfetch(run, node)
    probing = begin_quality_probe(run, node)
    emitted: list[TID] = []
    rescan = False
    while True:
        if node.batch:
            candidates = _batch_pass(run, node, fetch_k, rescan)
        else:
            candidates = _tuple_pass(run, node, seen, fetch_k, rescan)
        n_hits = 0
        for tid, distance, values in candidates:
            n_hits += 1
            if tid in seen:
                continue
            seen.add(tid)
            if values is None:
                continue  # dead/invisible tuple: entry awaiting vacuum
            row = dict(zip(names, values))
            row["__tid__"] = tid
            row["__distance__"] = distance
            if node.filter is not None and not E.evaluate(node.filter, row):
                continue  # index-time post-filter
            emitted.append(tid)
            if probing and len(emitted) >= node.k:
                # Finish before yielding the k-th row: a Limit above
                # stops pulling at exactly k, leaving this generator
                # suspended forever after that yield.
                finish_quality_probe(run, node, emitted)
                probing = False
            # Refresh before the yield, not after: once the k-th row is
            # out a Limit above never resumes us, and the estimation
            # recorder reads the stash from the node.
            node.actual_examined = len(seen)
            node.actual_matched = len(emitted)
            yield row
            if len(emitted) >= node.k:
                return
        node.actual_examined = len(seen)
        node.actual_matched = len(emitted)
        # Fewer candidates than requested: the probed lists are
        # exhausted.  A pure KNN scan legitimately returns short here,
        # but a filtered scan still owes exactly k rows whenever k rows
        # match — e.g. nprobe < clusters leaves unprobed lists holding
        # the matches — so it finishes with the brute-force fallback,
        # as it does when the over-fetch budget runs out on a
        # (mis-estimated) rare predicate: one exact pass for the
        # remaining rows beats scanning the whole index.
        exhausted = n_hits < fetch_k
        if exhausted and probing:
            finish_quality_probe(run, node, emitted)
        if exhausted or (max_fetch is not None and fetch_k >= max_fetch):
            if node.filter is not None and len(emitted) < node.k:
                node.overfetch_fell_back = True
                for row in _filtered_bruteforce(run, node, set(emitted), node.k - len(emitted)):
                    emitted.append(row["__tid__"])
                    node.actual_matched = len(emitted)
                    yield row
            return
        fetch_k *= 2
        rescan = True


def _max_overfetch(run: PlanRun, node: P.IndexScan) -> int | None:
    """``max_filtered_overfetch * k`` for hybrid scans, else None."""
    if node.filter is None:
        return None
    try:
        cap = int(run.executor.catalog.get_setting("max_filtered_overfetch"))
    except (CatalogError, TypeError, ValueError):
        return None
    return cap * node.k if cap > 0 else None


def _filtered_bruteforce(run: PlanRun, node: P.IndexScan, exclude: set, limit: int) -> list[Row]:
    """Exact pre-filter pass backing the over-fetch fallback.

    Scans the heap under the statement snapshot, keeps rows passing the
    pushed-down filter that were not already emitted, and returns the
    ``limit`` nearest by the index's own metric (tie-broken on TID,
    matching every other scan path).  Because the index scan is
    approximate, these rows are not guaranteed to sort after the
    already-emitted ones — the fallback favours returning k
    correct-predicate rows over global distance order, the same trade
    the post-filter strategy already makes.
    """
    names = node.table.column_names()
    heap = node.table.heap
    col = heap.column_index(node.index.column_name)
    rows: list[Row] = []
    vectors: list[Any] = []
    for tid, values in heap.scan(snapshot=run.snapshot):
        if tid in exclude or values[col] is None:
            continue
        row = dict(zip(names, values))
        row["__tid__"] = tid
        if E.evaluate(node.filter, row):
            rows.append(row)
            vectors.append(values[col])
    return nearest_rows(node, rows, vectors, limit)


# ----------------------------------------------------------------------
# in-filter strategy: the predicate mask rides inside the AM traversal
# ----------------------------------------------------------------------
def _in_filter_rows(run: PlanRun, node: P.IndexScan) -> Iterator[Row]:
    """Only matching TIDs come back from the AM.  Under ``amgettuple``
    their rows were cached by the per-TID mask, so the winners don't pay
    a second heap fetch; under ``amgetbatch`` the mask read only the
    predicate's columns, and the at most k winners are materialised with
    one block-grouped fetch."""
    am = node.index.am
    if node.batch:
        mask_fn, state = _column_mask(run, node)
        batch = am.amsearch_filtered_batch(node.query_vector, node.k, mask_fn)
        hits: Iterable[tuple[TID, float]] = zip(batch.tids(), batch.distances.tolist())
        rows = _fetch_rows(run, node, batch.tids()[: node.k])
    else:
        mask_fn, rows, state = _predicate_mask(run, node)
        hits = am.amsearch_filtered(node.query_vector, node.k, mask_fn)
    emitted = 0
    for tid, distance in hits:
        row = rows.get(tid)
        if row is None:
            continue  # defensive: the mask admitted this TID
        row["__distance__"] = distance
        emitted += 1
        # Refresh before the yield (see _survivor_rows).
        node.actual_examined = state["examined"]
        node.actual_matched = state["matched"]
        yield row
        if emitted >= node.k:
            return
    node.actual_examined = state["examined"]
    node.actual_matched = state["matched"]


def _predicate_mask(run: PlanRun, node: P.IndexScan):
    """Visibility + predicate mask closure for ``amsearch_filtered``.

    The AM hands batches of candidate TIDs mid-traversal; each unseen
    TID costs one snapshot heap fetch plus one predicate evaluation,
    cached so widening passes never re-check a TID.  Rows that pass are
    kept for the emit phase.  Returns ``(mask_fn, rows, state)`` where
    ``state`` counts unique TIDs checked/matched.
    """
    names = node.table.column_names()
    predicate = node.filter
    fetch = _heap_fetcher(run, node.table.heap)
    verdicts: dict = {}
    rows: dict = {}
    state = {"examined": 0, "matched": 0}

    def mask_fn(tids):
        out = []
        for tid in tids:
            ok = verdicts.get(tid)
            if ok is None:
                state["examined"] += 1
                values = fetch(tid)
                ok = False
                if values is not None:
                    row = dict(zip(names, values))
                    row["__tid__"] = tid
                    ok = predicate is None or bool(E.evaluate(predicate, row))
                    if ok:
                        rows[tid] = row
                        state["matched"] += 1
                verdicts[tid] = ok
            out.append(ok)
        return out

    return mask_fn, rows, state


def _column_mask(run: PlanRun, node: P.IndexScan):
    """Column-wise mask closure for ``amsearch_filtered_batch``.

    Per call, the TIDs never judged before are fetched with one
    block-grouped ``heap.fetch_many`` that decodes only the predicate's
    columns, and the predicate is evaluated once over them
    (:func:`~repro.pgsim.expr.evaluate_batch`).  Verdicts are cached and
    ``state`` counts unique TIDs checked/matched exactly as the per-TID
    mask does.  Returns ``(mask_fn, state)``.
    """
    heap = node.table.heap
    predicate = node.filter
    names, positions = node.table.projection(E.column_refs(predicate))
    verdicts: dict[TID, bool] = {}
    state = {"examined": 0, "matched": 0}

    def mask_fn(tids):
        out = list(map(verdicts.get, tids))
        if None not in out:
            return out
        unseen = list(dict.fromkeys(tid for tid, ok in zip(tids, out) if ok is None))
        with run.profiler.section("Tuple Access"):
            fetched = heap.fetch_many(unseen, snapshot=run.snapshot, columns=positions)
        visible = [j for j, values in enumerate(fetched) if values is not None]
        if predicate is None:
            passed = [True] * len(visible)
        else:
            columns = {name: [fetched[j][i] for j in visible] for name, i in zip(names, positions)}
            passed = E.evaluate_batch(predicate, columns, len(visible)).tolist()
        judged = [False] * len(unseen)
        for j, ok in zip(visible, passed):
            judged[j] = ok
        verdicts.update(zip(unseen, judged))
        state["examined"] += len(unseen)
        state["matched"] += sum(passed)
        if len(unseen) == len(tids):
            return judged  # every TID new and distinct: already in call order
        return list(map(verdicts.get, tids))

    return mask_fn, state


def _fetch_rows(run: PlanRun, node: P.IndexScan, tids: list[TID]) -> dict[TID, Row]:
    """Full rows of ``tids`` under the statement snapshot, from one
    block-grouped fetch; invisible TIDs are left out."""
    names = node.table.column_names()
    with run.profiler.section("Tuple Access"):
        fetched = node.table.heap.fetch_many(tids, snapshot=run.snapshot)
    rows: dict[TID, Row] = {}
    for tid, values in zip(tids, fetched):
        if values is not None:
            rows[tid] = dict(zip(names, values), __tid__=tid)
    return rows
