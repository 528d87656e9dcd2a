"""Every page reader gives the same answers on a 16-frame pool as on a
pool that never evicts.

The buffer pool keeps its pages in one arena and reuses a slot as soon
as its page is evicted, so page bytes are valid only while the page is
pinned.  A reader that kept a view of a slot past its unpin would read
whatever block the slot holds next; on a 16-frame pool the slots turn
over within one statement, so such a reader returns other rows, other
distances or other verdicts here.  Each reader runs on two databases
loaded identically — one with 16 frames, one with 4 096 — and must
return the same rows, distances, examined / matched counts, buffer pins
and ``tuples_fetched`` on both.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np
import pytest

import repro.pase  # noqa: F401  — registers pase_ivfflat, pase_hnsw
from repro.pgsim import PgSimDatabase
from repro.pgsim import heapam
from repro.pgsim.heapam import tid_key

DIM = 16
N_ROWS = 800
#: The graph's vectors are wide, five to a page, so one build step's
#: candidate set spans more data pages than a 16-frame pool holds.
GRAPH_DIM, N_GRAPH = 96, 160
K = 10
SMALL, LARGE = 16, 4096


def _lit(vec: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in vec)


def _load(db: PgSimDatabase, table: str, rows: list[list[Any]]) -> None:
    """Rows under one transaction, the WAL flushed after each so that a
    small pool may evict the loaded pages."""
    heap = db.catalog.table(table).heap
    for values in rows:
        heap.insert(values, xid=1)
        db.wal.flush()
    db.wal.log_commit(1)


def _database(pool_pages: int) -> PgSimDatabase:
    rng = np.random.default_rng(7)
    base = rng.normal(size=(N_ROWS, DIM)).astype(np.float32)
    db = PgSimDatabase(page_size=2048, buffer_pool_pages=pool_pages)
    db.execute("CREATE TABLE t (id int4, a int4, vec float4[])")
    _load(db, "t", [[i, None if i % 11 == 0 else i % 100, vec] for i, vec in enumerate(base)])
    db.execute(
        "CREATE INDEX t_ix ON t USING pase_ivfflat (vec) "
        "WITH (clusters = 16, sample_ratio = 1.0, seed = 5)"
    )
    db.execute("CREATE TABLE g (id int4, vec float4[])")
    graph = rng.normal(size=(N_GRAPH, GRAPH_DIM)).astype(np.float32)
    _load(db, "g", [[i, vec] for i, vec in enumerate(graph)])
    db.execute("CREATE INDEX g_ix ON g USING pase_hnsw (vec) WITH (bnn = 8, efb = 40, seed = 5)")
    db.execute("ANALYZE t")
    db.execute("SET pase.nprobe = 8")  # a batch read spans more pages than 16 frames
    db.execute("SET pase.efs = 40")
    return db


@pytest.fixture(scope="module")
def pair():
    dbs = (_database(SMALL), _database(LARGE))
    rng = np.random.default_rng(8)
    queries = rng.normal(size=(3, DIM)).astype(np.float32)
    yield dbs, (queries, rng.normal(size=(3, GRAPH_DIM)).astype(np.float32))
    for db in dbs:
        db.close()


def _observe(db: PgSimDatabase, read: Callable[[PgSimDatabase], Any]) -> tuple[Any, int, int]:
    """What ``read`` returned, the pins it took and the tuples it fetched."""
    buffer, heap_stats = db.buffer.stats, db.catalog.table("t").heap.stats
    pins, fetched = buffer.hits + buffer.misses, heap_stats.tuples_fetched
    result = read(db)
    return result, buffer.hits + buffer.misses - pins, heap_stats.tuples_fetched - fetched


def _same_on_both(pair, read: Callable[[PgSimDatabase], Any]) -> Any:
    (small, large), __ = pair
    for __ in small.catalog.table("t").heap.scan():
        pass  # the small pool starts cold: its frames hold the heap's tail
    evictions = small.buffer.stats.evictions
    observed = _observe(small, read)
    assert observed == _observe(large, read)
    assert small.buffer.stats.evictions > evictions, "the small pool never evicted"
    assert small.buffer.pinned_pages() == large.buffer.pinned_pages() == 0
    return observed[0]


def _pairs(batch) -> list[tuple[Any, float]]:
    return [(tid, float(d)) for tid, d in batch]


def _am(db: PgSimDatabase, index: str):
    return db.catalog.find_index(index).am


def test_ivf_tuple_scan_and_get_batch(pair):
    __, (queries, __) = pair
    for q in queries:
        scanned = _same_on_both(pair, lambda db: _pairs(_am(db, "t_ix").scan(q, K)))
        batched = _same_on_both(pair, lambda db: _pairs(_am(db, "t_ix").get_batch(q, K).pairs()))
        assert [tid for tid, __ in scanned] == [tid for tid, __ in batched]
        assert len(scanned) == K


def test_ivf_in_filter_masks_at_the_am(pair):
    """Both in-filter forms straight at the AM: the tuple form holds a
    round's payloads across its mask, and the mask reads the heap."""
    __, (queries, __) = pair

    def even(tids):
        return np.array([tid.offset % 2 == 0 for tid in tids], dtype=bool)

    def keyed(db):
        heap = db.catalog.table("t").heap

        def mask(keys):
            visible, columns = heap.fetch_many(keys, columns=[1])
            out = np.zeros(len(keys), dtype=bool)
            a = np.array([-1 if v is None else v for v in list(columns[1])])
            out[np.flatnonzero(visible)] = a % 3 == 0
            return out

        return mask

    for q in queries:
        _same_on_both(pair, lambda db: _pairs(_am(db, "t_ix").amsearch_filtered(q, K, even)))
        _same_on_both(
            pair,
            lambda db: _pairs(_am(db, "t_ix").amsearch_filtered_batch(q, K, keyed(db)).pairs()),
        )


def _hybrid(db: PgSimDatabase, strategy: str, batch: bool, cut: int, q: np.ndarray):
    """A hybrid statement's rows and its scan's examined / matched."""
    executor = db.executor
    record_run = executor.record_run
    nodes: list = []

    def recording(plan, instrument):
        node = plan
        while node is not None and getattr(node, "strategy", None) != strategy:
            node = getattr(node, "child", None)
        nodes.append(node)
        return record_run(plan, instrument)

    db.execute(f"SET filtered_search_strategy = '{strategy}'")
    db.execute(f"SET enable_batch_exec = {'on' if batch else 'off'}")
    executor.record_run = recording
    try:
        rows = db.query(
            f"SELECT id, a FROM t WHERE a < {cut} ORDER BY vec <-> '{_lit(q)}'::PASE LIMIT {K}"
        )
    finally:
        executor.record_run = record_run
    (node,) = nodes
    return rows, node.actual_examined, node.actual_matched


@pytest.mark.parametrize(
    "strategy, batch",
    [("in-filter", False), ("in-filter", True), ("post-filter", True)],
)
@pytest.mark.parametrize("cut", [2, 30])
def test_hybrid_statements(pair, strategy, batch, cut):
    __, (queries, __) = pair
    for q in queries:
        rows, __, matched = _same_on_both(pair, lambda db: _hybrid(db, strategy, batch, cut, q))
        assert len(rows) == K and matched >= K


def test_hnsw_scan_and_get_batch(pair):
    """Searches of a graph each pool built: a build that read vectors
    from a reused slot would have linked other neighbours."""
    __, (__, queries) = pair
    for q in queries:
        scanned = _same_on_both(pair, lambda db: _pairs(_am(db, "g_ix").scan(q, K)))
        batched = _same_on_both(pair, lambda db: _pairs(_am(db, "g_ix").get_batch(q, K).pairs()))
        assert scanned == batched and len(scanned) == K


def test_heap_by_key_read_scan_batches_and_vacuum(pair):
    def by_key(db):
        heap = db.catalog.table("t").heap
        keys = np.array([tid_key(tid) for tid, __ in heap.scan()][::-3], dtype=np.int64)
        visible, columns = heap.fetch_many(keys, columns=[0, 1])
        return visible.tolist(), {i: list(column) for i, column in columns.items()}

    def scanned(db):
        heap = db.catalog.table("t").heap
        return [
            (chunk.tids(), chunk.values(0), chunk.values(1))
            for chunk in heap.scan_batches(columns=[0, 1])
        ]

    def vacuumed(db):
        db.execute("DELETE FROM t WHERE id < 150 AND a > 50")
        reclaimed = db.catalog.table("t").heap.vacuum()
        return reclaimed, sorted(db.query("SELECT id, a FROM t"))

    visible, columns = _same_on_both(pair, by_key)
    assert len(visible) >= heapam.KEYED_READ_MIN and any(visible)  # the column-wise read
    assert _same_on_both(pair, scanned)
    reclaimed, __ = _same_on_both(pair, vacuumed)
    assert reclaimed > 0
