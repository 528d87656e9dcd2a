"""The in-filter mask under both executor paths, against an oracle.

The tuple executor judges candidates one ``heap.fetch`` at a time
(``amsearch_filtered``); the batch executor hands the AM a mask over
packed TID keys that reads the heap a call at a time
(``amsearch_filtered_batch``).  On a table holding NULL predicate
values, deleted-but-unvacuumed rows, updated rows and another session's
uncommitted insert, both must return the oracle's rows and judge the
same candidates.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.bridged  # noqa: F401  — registers bridged_ivfflat
import repro.pase  # noqa: F401  — registers pase_ivfflat, pase_hnsw
from repro.pgsim import PgSimDatabase

DIM = 8
N_ROWS = 400
K = 10
AM_SPECS = {
    "pase_ivfflat": "clusters = 6, sample_ratio = 1.0, seed = 3",
    "bridged_ivfflat": "clusters = 6, sample_ratio = 1.0, seed = 3",
    "pase_hnsw": "bnn = 8, efb = 32, seed = 3",
}


def _lit(vec: np.ndarray) -> str:
    return ",".join(f"{x:.6f}" for x in vec)


@pytest.fixture(scope="module", params=sorted(AM_SPECS))
def churned(request):
    """A table whose visible rows differ from its indexed entries, and
    the oracle's view of it: ``id -> (a, vector)`` of visible rows."""
    rng = np.random.default_rng(19)
    base = rng.random((N_ROWS, DIM)).astype(np.float32)
    db = PgSimDatabase(buffer_pool_pages=512)
    db.execute("CREATE TABLE t (id int4, a int4, vec float4[])")
    heap = db.catalog.table("t").heap
    visible = {}
    for i, vec in enumerate(base):
        a = None if i % 9 == 0 else i % 100
        heap.insert([i, a, vec], xid=1)
        visible[i] = (a, vec)
    db.wal.log_commit(1)
    db.execute(f"CREATE INDEX ix ON t USING {request.param} (vec) WITH ({AM_SPECS[request.param]})")
    db.execute("ANALYZE t")
    db.execute("SET pase.nprobe = 6")  # every list: exact for the IVF AMs
    db.execute(f"SET pase.efs = {2 * N_ROWS}")  # the whole graph: exact for HNSW
    db.execute("SET filtered_search_strategy = 'in-filter'")
    for i in range(0, N_ROWS, 13):
        db.execute(f"DELETE FROM t WHERE id = {i}")
        del visible[i]
    for i in range(5, N_ROWS, 17):
        if i in visible:
            a = visible[i][0]
            new_a = 0 if a is None else (a + 37) % 100
            db.execute(f"UPDATE t SET a = {new_a} WHERE id = {i}")
            visible[i] = (new_a, visible[i][1])
    # Another session's insert, indexed but never committed: a match
    # for every cut, right at each query.
    other = db.session("writer")
    other.execute("BEGIN")
    queries = rng.random((4, DIM)).astype(np.float32)
    for j, q in enumerate(queries):
        other.execute(f"INSERT INTO t VALUES ({N_ROWS + j}, 0, '{_lit(q)}'::PASE)")
    yield db, visible, queries
    other.execute("ROLLBACK")
    db.close()


def _run(db, sql: str, batch: bool) -> tuple[list, int, int, int]:
    """Rows, the scan's examined / matched and ``tuples_fetched``."""
    executor = db.executor
    record_run = executor.record_run
    seen: list = []

    def recording(plan, instrument):
        node = plan
        while node is not None and getattr(node, "strategy", None) != "in-filter":
            node = getattr(node, "child", None)
        seen.append(node)
        return record_run(plan, instrument)

    stats = db.catalog.table("t").heap.stats
    db.execute(f"SET enable_batch_exec = {'on' if batch else 'off'}")
    executor.record_run = recording
    try:
        before = stats.tuples_fetched
        rows = db.query(sql)
        fetched = stats.tuples_fetched - before
    finally:
        executor.record_run = record_run
    (node,) = seen
    return rows, node.actual_examined, node.actual_matched, fetched


@pytest.mark.parametrize("cut", [1, 10, 50])
def test_batch_and_tuple_masks_agree_with_the_oracle(churned, cut):
    db, visible, queries = churned
    for q in queries:
        sql = f"SELECT id, a FROM t WHERE a < {cut} ORDER BY vec <-> '{_lit(q)}'::PASE LIMIT {K}"
        tuple_rows, tuple_examined, tuple_matched, tuple_fetched = _run(db, sql, batch=False)
        rows, examined, matched, fetched = _run(db, sql, batch=True)
        assert rows == tuple_rows
        assert (examined, matched) == (tuple_examined, tuple_matched)
        # Both masks read each visible candidate once; the batch mask
        # reads only ``a``, so the winners are read again, whole.
        assert fetched == tuple_fetched + len(rows)
        q64 = q.astype(np.float64)
        oracle = sorted(
            (float(((vec.astype(np.float64) - q64) ** 2).sum()), i, a)
            for i, (a, vec) in visible.items()
            if a is not None and a < cut
        )
        assert rows == [(i, a) for __, i, a in oracle[:K]]
