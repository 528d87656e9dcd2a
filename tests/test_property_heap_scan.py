"""Property tests for the page-at-a-time heap reader.

(i) :func:`repro.pgsim.xact.visible_mask` must equal the per-tuple
:func:`~repro.pgsim.xact.tuple_visible` element by element, for random
commit logs (aborted, in-progress and never-seen xids, short and long
lists), snapshots with an ``xip`` and an own ``xid``, no snapshot, and no
transaction manager at all.

(ii) A projected :meth:`HeapTable.scan_batches` must return what the per-tuple
:meth:`HeapTable.scan` returns projected to the same columns — the same
rows in the same order — while pinning the same pages and counting the
same ``tuples_fetched``.  Schemas mix every column type with NULLs;
histories mix committed, aborted, in-progress and own-transaction
inserts and deletes, with a VACUUM leaving dead line pointers between
them.

(iii) A ``float4[]`` column read column-wise — one ``(rows, d)`` float32
block when every visible tuple stores it at one length, the walking
decoder otherwise — must equal :meth:`HeapTable.scan` through NULL,
ragged and zero-length vectors, deletes and another transaction's
uncommitted writes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pgsim.heapam as heapam
from repro.pgsim.buffer import BufferManager
from repro.pgsim.heapam import HeapTable
from repro.pgsim.storage import MemoryDisk
from repro.pgsim.tuple_format import Column, TypeOid
from repro.pgsim.xact import Snapshot, TransactionManager, tuple_visible, visible_mask

FATES = st.sampled_from(["commit", "abort", "open"])


def _clog(fates: list[str]) -> TransactionManager:
    """A manager that handed out one xid per entry of ``fates`` and
    committed, aborted or left it running accordingly."""
    xact = TransactionManager()
    for fate in fates:
        txn = xact.begin()
        if fate == "commit":
            xact.commit(txn)
        elif fate == "abort":
            xact.abort(txn)
    return xact


@st.composite
def _snapshots(draw, next_xid: int) -> Snapshot | None:
    if draw(st.booleans()):
        return None
    xids = st.integers(min_value=1, max_value=next_xid + 3)
    xmax = draw(xids)
    xip = frozenset(draw(st.lists(xids, max_size=12)))
    return Snapshot(
        xmin=min(xip, default=xmax),
        xmax=xmax,
        xip=xip,
        xid=draw(st.one_of(st.just(0), xids)),
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data(), fates=st.lists(FATES, max_size=24), managed=st.booleans())
def test_visible_mask_equals_tuple_visible(data, fates, managed):
    xact = _clog(fates) if managed else None
    next_xid = 2 + len(fates)
    snapshot = data.draw(_snapshots(next_xid))
    xids = st.integers(min_value=0, max_value=next_xid + 3)
    headers = data.draw(st.lists(st.tuples(xids, xids), max_size=40))
    xmin = np.array([h[0] for h in headers], dtype=np.uint32)
    xmax = np.array([h[1] for h in headers], dtype=np.uint32)
    expected = [tuple_visible(xact, snapshot, a, b) for a, b in headers]
    assert visible_mask(xact, snapshot, xmin, xmax).tolist() == expected


# ----------------------------------------------------------------------
# the column-wise scan_batches against scan
# ----------------------------------------------------------------------
VALUES = {
    TypeOid.INT4: st.integers(min_value=-(2**31), max_value=2**31 - 1),
    TypeOid.INT8: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    TypeOid.FLOAT4: st.floats(width=32),
    TypeOid.FLOAT8: st.floats(),
    TypeOid.TEXT: st.text(max_size=6),
    TypeOid.FLOAT4_ARRAY: st.lists(st.floats(width=32), max_size=4).map(
        lambda v: np.array(v, dtype=np.float32)
    ),
}


@st.composite
def _tables(draw):
    types = draw(st.lists(st.sampled_from(sorted(VALUES)), min_size=1, max_size=5))
    schema = [Column(f"c{i}", oid) for i, oid in enumerate(types)]
    row = st.tuples(*(st.one_of(st.none(), VALUES[oid]) for oid in types)).map(list)
    # (fate of the writing transaction, rows it inserts, rows it deletes)
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["commit", "abort", "open", "own", "vacuum"]),
                st.lists(row, max_size=6),
                st.lists(st.integers(min_value=0, max_value=200), max_size=3),
            ),
            max_size=8,
        )
    )
    return schema, steps


def _build(schema, steps):
    """The table the ``steps`` leave behind, and the own transaction's
    xid (its writes stay uncommitted)."""
    buffer = BufferManager(MemoryDisk(page_size=512), capacity=64)
    xact = TransactionManager()
    heap = HeapTable("h", schema, buffer, xact=xact)
    own = xact.begin()
    tids = []
    for fate, rows, deletes in steps:
        if fate == "vacuum":
            heap.vacuum(horizon=xact.safe_horizon())
            continue
        txn = own if fate == "own" else xact.begin()
        tids += [heap.insert(row, xid=txn.xid) for row in rows]
        for pick in deletes:
            if tids:
                try:
                    heap.delete(tids[pick % len(tids)], xid=txn.xid)
                except Exception:  # already deleted, vacuumed or in conflict
                    pass
        if fate == "commit":
            xact.commit(txn)
        elif fate == "abort":
            xact.abort(txn)
    return heap, xact, own.xid


def _cost(heap: HeapTable, read):
    """``read()``, with the pins and ``tuples_fetched`` it cost."""
    stats = heap.buffer.stats
    before = (stats.hits + stats.misses, heap.stats.tuples_fetched)
    out = read()
    return out, (stats.hits + stats.misses - before[0], heap.stats.tuples_fetched - before[1])


@settings(max_examples=120, deadline=None)
@given(
    table=_tables(),
    data=st.data(),
    chunk_pages=st.sampled_from([1, 2, 3, heapam.CHUNK_PAGES]),
)
def test_column_wise_scan_equals_projected_scan(table, data, chunk_pages):
    schema, steps = table
    heap, xact, own_xid = _build(schema, steps)
    columns = data.draw(st.sets(st.integers(min_value=0, max_value=len(schema) - 1)))
    snapshot = data.draw(
        st.sampled_from([None, xact.snapshot(), xact.snapshot(own_xid)])
    )

    def per_tuple():
        return [
            (tid, [v if i in columns else None for i, v in enumerate(values)])
            for tid, values in heap.scan(snapshot=snapshot)
        ]

    def column_wise():
        rows = []
        for chunk in heap.scan_batches(snapshot, columns=columns):
            values = {i: chunk.values(i) for i in columns}
            for j, tid in enumerate(chunk.tids()):
                row = [values[i][j] if i in columns else None for i in range(len(schema))]
                rows.append((tid, row))
        return rows

    expected, expected_cost = _cost(heap, per_tuple)
    saved = heapam.CHUNK_PAGES
    heapam.CHUNK_PAGES = chunk_pages
    try:
        got, got_cost = _cost(heap, column_wise)
    finally:
        heapam.CHUNK_PAGES = saved
    assert repr(got) == repr(expected)
    assert got_cost == expected_cost


# ----------------------------------------------------------------------
# a float4[] column read column-wise: one (rows, d) block when it can
# ----------------------------------------------------------------------
VEC_SCHEMA = [Column("id", TypeOid.INT4), Column("vec", TypeOid.FLOAT4_ARRAY)]


def _vec(i: int, d: int = 6) -> np.ndarray:
    return (np.arange(d, dtype=np.float32) + i) / 7


def _vector_heap(rows, deletes=(), open_rows=(), open_deletes=()):
    """A (id, vec) heap: ``rows`` committed, then ``deletes`` (row
    positions) committed, then an open transaction's ``open_rows`` and
    ``open_deletes``; returns the heap, its manager and the open xid."""
    buffer = BufferManager(MemoryDisk(page_size=512), capacity=64)
    xact = TransactionManager()
    heap = HeapTable("h", VEC_SCHEMA, buffer, xact=xact)
    txn = xact.begin()
    tids = [heap.insert([i, vec], xid=txn.xid) for i, vec in enumerate(rows)]
    xact.commit(txn)
    txn = xact.begin()
    for pos in deletes:
        heap.delete(tids[pos], xid=txn.xid)
    xact.commit(txn)
    other = xact.begin()
    for i, vec in enumerate(open_rows):
        heap.insert([len(rows) + i, vec], xid=other.xid)
    for pos in open_deletes:
        heap.delete(tids[pos], xid=other.xid)
    return heap, xact, other.xid


def _column_wise_vectors(heap, snapshot):
    out = []
    for chunk in heap.scan_batches(snapshot, columns=[1]):
        out += list(zip(chunk.tids(), chunk.values(1)))
    return out


VECTOR_CASES = {
    "uniform": dict(rows=[_vec(i) for i in range(40)]),
    "null vectors": dict(rows=[None if i % 7 == 3 else _vec(i) for i in range(40)]),
    "ragged": dict(rows=[_vec(i, 6 if i % 5 else 4) for i in range(40)]),
    "zero-length": dict(rows=[_vec(i, 0) for i in range(40)]),
    "zero-length among others": dict(rows=[_vec(i, 0 if i % 9 == 0 else 6) for i in range(40)]),
    "deleted rows": dict(rows=[_vec(i) for i in range(40)], deletes=[0, 5, 6, 39]),
    "uncommitted rows": dict(
        rows=[_vec(i) for i in range(40)],
        open_rows=[_vec(100 + i) for i in range(12)],
        open_deletes=[2, 30],
    ),
}


@pytest.mark.parametrize("case", sorted(VECTOR_CASES))
@pytest.mark.parametrize("own_snapshot", [False, True])
def test_float4_array_column_equals_scan(case, own_snapshot):
    heap, xact, open_xid = _vector_heap(**VECTOR_CASES[case])
    snapshot = xact.snapshot(open_xid) if own_snapshot else None
    expected, expected_cost = _cost(
        heap, lambda: [(tid, values[1]) for tid, values in heap.scan(snapshot=snapshot)]
    )
    got, got_cost = _cost(heap, lambda: _column_wise_vectors(heap, snapshot))
    assert repr(got) == repr(expected)
    assert got_cost == expected_cost
    assert all(v is None or v.dtype == np.float32 and v.ndim == 1 for __, v in got)
    # The by-key read, column-wise (above KEYED_READ_MIN) and walked.
    keys = np.array([(t.blkno << 16) | t.offset for t, __ in expected], dtype=np.int64)
    for picked in (keys, keys[:3]):
        visible, columns = heap.fetch_many(picked, snapshot=snapshot, columns=[1])
        assert visible.all()
        want = [v for __, v in expected[: len(picked)]]
        assert repr(list(columns[1]) if isinstance(columns[1], np.ndarray) else columns[1]) == (
            repr(want)
        )


def test_uniform_float4_array_column_is_one_block():
    heap, __, __ = _vector_heap([_vec(i) for i in range(40)], deletes=[4])
    chunks = list(heap.scan_batches(None, columns=[1]))
    assert len(chunks) == 1
    block = chunks[0].columns[1]
    assert isinstance(block, np.ndarray)
    assert block.shape == (39, 6) and block.dtype == np.float32
    expected = np.vstack([values[1] for __, values in heap.scan()])
    assert block.tobytes() == expected.tobytes()


def test_float4_array_after_a_variable_width_column_is_walked():
    buffer = BufferManager(MemoryDisk(page_size=512), capacity=16)
    schema = [Column("name", TypeOid.TEXT), Column("vec", TypeOid.FLOAT4_ARRAY)]
    heap = HeapTable("h", schema, buffer)
    for i in range(10):
        heap.insert([f"r{i}", _vec(i)], xid=1)
    (chunk,) = heap.scan_batches(None, columns=[1])
    assert isinstance(chunk.columns[1], list)
    assert repr(chunk.values(1)) == repr([values[1] for __, values in heap.scan()])
