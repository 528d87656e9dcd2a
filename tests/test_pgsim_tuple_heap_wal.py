"""Tests for tuple encoding, the heap access method, and WAL recovery."""

import re

import numpy as np
import pytest

from repro.pgsim.buffer import BufferManager
from repro.pgsim import heapam
from repro.pgsim.heapam import TID, HeapTable
from repro.pgsim.page import PageCorruptError
from repro.pgsim.storage import MemoryDisk
from repro.pgsim.tuple_format import (
    Column,
    TypeOid,
    decode_column,
    decode_tuple,
    encode_tuple,
)
from repro.pgsim.wal import WriteAheadLog, replay


@pytest.fixture()
def schema():
    return [
        Column.from_sql("id", "int"),
        Column.from_sql("score", "float"),
        Column.from_sql("label", "text"),
        Column.from_sql("vec", "float[]"),
    ]


@pytest.fixture()
def table_env():
    disk = MemoryDisk(page_size=2048)
    buffer = BufferManager(disk, capacity=32)
    wal = WriteAheadLog()
    schema = [Column.from_sql("id", "int"), Column.from_sql("vec", "float[]")]
    table = HeapTable("t", schema, buffer, wal)
    return disk, buffer, wal, table


class TestTupleFormat:
    def test_roundtrip(self, schema):
        row = [7, 3.5, "hello", np.array([1.0, 2.0], dtype=np.float32)]
        data = encode_tuple(schema, row)
        got = decode_tuple(schema, data)
        assert got[0] == 7
        assert got[1] == pytest.approx(3.5)
        assert got[2] == "hello"
        np.testing.assert_array_equal(got[3], row[3])

    def test_nulls(self, schema):
        data = encode_tuple(schema, [None, 1.0, None, np.zeros(2, dtype=np.float32)])
        got = decode_tuple(schema, data)
        assert got[0] is None
        assert got[2] is None
        assert got[1] == 1.0

    def test_unicode_text(self, schema):
        data = encode_tuple(schema, [1, 0.0, "héllo wörld ☃", np.zeros(1, dtype=np.float32)])
        assert decode_tuple(schema, data)[2] == "héllo wörld ☃"

    def test_decode_single_column(self, schema):
        row = [42, 2.5, "skip", np.array([9.0, 8.0, 7.0], dtype=np.float32)]
        data = encode_tuple(schema, row)
        assert decode_column(schema, data, 0) == 42
        np.testing.assert_array_equal(decode_column(schema, data, 3), row[3])
        assert decode_column(schema, data, 2) == "skip"

    def test_decode_column_with_nulls(self, schema):
        data = encode_tuple(schema, [None, None, "x", None])
        assert decode_column(schema, data, 0) is None
        assert decode_column(schema, data, 2) == "x"
        assert decode_column(schema, data, 3) is None

    def test_arity_mismatch(self, schema):
        with pytest.raises(ValueError):
            encode_tuple(schema, [1, 2.0])
        data = encode_tuple(schema, [1, 2.0, "x", np.zeros(1, dtype=np.float32)])
        with pytest.raises(ValueError):
            decode_tuple(schema[:2], data)

    def test_column_index_bounds(self, schema):
        data = encode_tuple(schema, [1, 2.0, "x", np.zeros(1, dtype=np.float32)])
        with pytest.raises(IndexError):
            decode_column(schema, data, 4)

    def test_sql_type_names(self):
        assert Column.from_sql("c", "INTEGER").type_oid == TypeOid.INT4
        assert Column.from_sql("c", "float[]").type_oid == TypeOid.FLOAT4_ARRAY
        assert Column.from_sql("c", "vector").type_oid == TypeOid.FLOAT4_ARRAY
        with pytest.raises(ValueError):
            Column.from_sql("c", "jsonb")

    def test_2d_array_datum_rejected(self, schema):
        with pytest.raises(ValueError):
            encode_tuple(schema, [1, 1.0, "x", np.zeros((2, 2), dtype=np.float32)])


class TestHeapTable:
    def test_insert_fetch(self, table_env):
        __, __, __, table = table_env
        vec = np.array([1.5, 2.5], dtype=np.float32)
        tid = table.insert([1, vec], xid=1)
        row = table.fetch(tid)
        assert row[0] == 1
        np.testing.assert_array_equal(row[1], vec)

    def test_multi_page_growth(self, table_env):
        __, __, __, table = table_env
        vec = np.zeros(64, dtype=np.float32)  # 256B+ tuples on 2KB pages
        tids = [table.insert([i, vec], xid=1) for i in range(50)]
        assert table.n_blocks() > 1
        assert table.fetch(tids[-1])[0] == 49

    def test_scan_order_and_count(self, table_env):
        __, __, __, table = table_env
        vec = np.zeros(4, dtype=np.float32)
        for i in range(20):
            table.insert([i, vec], xid=1)
        rows = list(table.scan())
        assert [r[1][0] for r in rows] == list(range(20))
        assert table.tuple_count == 20

    def test_delete_hides_from_scan(self, table_env):
        __, __, __, table = table_env
        vec = np.zeros(4, dtype=np.float32)
        tids = [table.insert([i, vec], xid=1) for i in range(5)]
        table.delete(tids[2], xid=1)
        assert [r[1][0] for r in table.scan()] == [0, 1, 3, 4]
        with pytest.raises(KeyError):
            table.fetch(tids[2])
        with pytest.raises(KeyError):
            table.delete(tids[2], xid=1)

    def test_vacuum(self, table_env):
        __, __, __, table = table_env
        vec = np.zeros(4, dtype=np.float32)
        tids = [table.insert([i, vec], xid=1) for i in range(10)]
        for tid in tids[::2]:
            table.delete(tid, xid=1)
        assert table.vacuum() == 5
        # Remaining rows still fetchable at their original TIDs.
        assert table.fetch(tids[1])[0] == 1

    def test_fetch_column(self, table_env):
        __, __, __, table = table_env
        tid = table.insert([9, np.array([4.0], dtype=np.float32)], xid=1)
        assert table.fetch_column(tid, 0) == 9

    def test_column_index_lookup(self, table_env):
        __, __, __, table = table_env
        assert table.column_index("vec") == 1
        with pytest.raises(KeyError):
            table.column_index("nope")

    def test_reopen_recounts(self, table_env):
        disk, buffer, wal, table = table_env
        vec = np.zeros(4, dtype=np.float32)
        for i in range(7):
            table.insert([i, vec], xid=1)
        reopened = HeapTable("t", table.schema, buffer, wal)
        assert reopened.tuple_count == 7

    def test_oversized_tuple_rejected(self, table_env):
        __, __, __, table = table_env
        with pytest.raises(ValueError):
            table.insert([1, np.zeros(4096, dtype=np.float32)], xid=1)

    @pytest.mark.parametrize("columns", [(), (0,), (1,), (0, 1), (2,), (1, 3), (0, 1, 2, 3)])
    def test_projection_matches_full_decode(self, schema, columns):
        """``fetch_many`` with ``columns`` returns the full rows with
        every other attribute None, and ``scan_batches`` the same values
        column-wise — for tuples with and without NULLs, fixed prefixes
        and varlenas on the way — with the same visibility, pins and
        ``tuples_fetched`` as a full read."""
        buffer = BufferManager(MemoryDisk(page_size=1024), capacity=32)
        table = HeapTable("p", schema, buffer)
        vec = np.arange(3, dtype=np.float32)
        rows = [
            [i, None if i % 5 == 0 else i / 4, None if i % 3 == 0 else f"r{i}", vec]
            for i in range(40)
        ]
        tids = [table.insert(row, xid=1) for row in rows]
        table.delete(tids[7], xid=1)

        def project(row):
            return None if row is None else [v if i in columns else None for i, v in enumerate(row)]

        def counted(read):
            before = (table.stats.tuples_fetched, buffer.stats.hits + buffer.stats.misses)
            out = read()
            after = (table.stats.tuples_fetched, buffer.stats.hits + buffer.stats.misses)
            return out, tuple(b - a for a, b in zip(before, after))

        probe = tids[::-1] + [tids[7]]
        full, full_cost = counted(lambda: table.fetch_many(probe))
        some, some_cost = counted(lambda: table.fetch_many(probe, columns=columns))
        assert some_cost == full_cost
        assert [repr(project(row)) for row in full] == [repr(row) for row in some]
        pages, pages_cost = counted(lambda: list(table.scan_batches()))

        def column_wise():
            rows = []
            for chunk in table.scan_batches(columns=columns):
                values = {i: chunk.values(i) for i in columns}
                for j, tid in enumerate(chunk.tids()):
                    rows.append((tid, [values[i][j] if i in columns else None for i in range(4)]))
            return rows

        projected, projected_cost = counted(column_wise)
        assert projected_cost == pages_cost
        assert [(tid, repr(project(v))) for page in pages for tid, v in page] == [
            (tid, repr(v)) for tid, v in projected
        ]
        with pytest.raises(IndexError):
            table.fetch_many([TID(0, 999)], columns=columns)
        with pytest.raises(IndexError):
            table.fetch_many(tids[:1], columns=(4,))
        with pytest.raises(IndexError):
            next(table.scan_batches(columns=(4,)))


    @pytest.mark.parametrize("column_wise", [False, True])
    @pytest.mark.parametrize("columns", [(), (0,), (1, 3), (0, 1, 2, 3), None])
    def test_keyed_read_matches_tid_read(self, schema, monkeypatch, columns, column_wise):
        """``fetch_many`` by packed key — walked below
        ``KEYED_READ_MIN`` keys, column-wise from it — gives the TID
        form's visibility and values, with its pins and
        ``tuples_fetched``, for tuples with and without NULLs, deleted
        and vacuumed-away ones left out, keys repeated and out of block
        order."""
        monkeypatch.setattr(heapam, "KEYED_READ_MIN", 0 if column_wise else 10**9)
        buffer = BufferManager(MemoryDisk(page_size=1024), capacity=32)
        table = HeapTable("k", schema, buffer)
        vec = np.arange(3, dtype=np.float32)
        tids = [
            table.insert([i, None if i % 5 == 0 else i / 4, f"r{i}" if i % 3 else None, vec], xid=1)
            for i in range(60)
        ]
        for i in (7, 21, 22):
            table.delete(tids[i], xid=1)
        table.vacuum()
        table.delete(tids[40], xid=1)  # deleted, not yet vacuumed
        probe = [tid for i, tid in enumerate(tids) if i not in (7, 21, 22)][::-1]
        probe += probe[:5]
        keys = np.array([(tid.blkno << 16) | tid.offset for tid in probe], dtype=np.int64)

        def counted(read):
            before = (table.stats.tuples_fetched, buffer.stats.hits + buffer.stats.misses)
            out = read()
            after = (table.stats.tuples_fetched, buffer.stats.hits + buffer.stats.misses)
            return out, tuple(b - a for a, b in zip(before, after))

        rows, rows_cost = counted(lambda: table.fetch_many(probe, columns=columns))
        (visible, values), keyed_cost = counted(
            lambda: table.fetch_many(keys, columns=columns)
        )
        assert keyed_cost == rows_cost
        assert visible.tolist() == [row is not None for row in rows]
        wanted = range(4) if columns is None else columns
        assert sorted(values) == sorted(wanted)
        kept = [row for row in rows if row is not None]
        for i in wanted:
            column = values[i]
            got = column.tolist() if isinstance(column, np.ndarray) else column
            assert repr(got) == repr([row[i] for row in kept])

    @pytest.mark.parametrize("column_wise", [False, True])
    def test_keyed_read_raises_as_tid_read(self, schema, monkeypatch, column_wise):
        """An out-of-range offset and a dead line pointer raise the TID
        form's ``IndexError`` / ``PageCorruptError``, message included,
        for the first bad address the TID form meets."""
        monkeypatch.setattr(heapam, "KEYED_READ_MIN", 0 if column_wise else 10**9)
        buffer = BufferManager(MemoryDisk(page_size=1024), capacity=32)
        table = HeapTable("e", schema, buffer)
        vec = np.arange(3, dtype=np.float32)
        tids = [table.insert([i, 1.0, "x", vec], xid=1) for i in range(30)]
        table.delete(tids[3], xid=1)
        table.vacuum()
        last = tids[-1].blkno
        out_of_range = TID(tids[0].blkno, 999)
        for bad in (
            [tids[1], out_of_range],
            [tids[1], tids[3]],
            # Block order decides: the later block's error comes second.
            [TID(last, tids[-1].offset), TID(last, 999), tids[2], tids[3]],
            [tids[3], out_of_range],
        ):
            keys = np.array([(tid.blkno << 16) | tid.offset for tid in bad], dtype=np.int64)
            with pytest.raises((IndexError, PageCorruptError)) as expected:
                table.fetch_many(bad, columns=(0,))
            with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
                table.fetch_many(keys, columns=(0,))


class TestWalRecovery:
    def test_committed_inserts_recovered(self, table_env):
        __, __, wal, table = table_env
        vec = np.array([1.0, 2.0], dtype=np.float32)
        for i in range(12):
            table.insert([i, vec], xid=5)
        wal.log_commit(5)
        # Crash: disk never saw the dirty pages.  Recover onto a blank disk.
        recovered_disk = MemoryDisk(page_size=2048)
        applied = replay(wal, recovered_disk)
        assert applied == 12
        table2 = HeapTable("t", table.schema, BufferManager(recovered_disk), None)
        assert table2.tuple_count == 12
        np.testing.assert_array_equal(table2.fetch(TID(0, 1))[1], vec)

    def test_uncommitted_inserts_not_recovered(self, table_env):
        __, __, wal, table = table_env
        vec = np.zeros(2, dtype=np.float32)
        table.insert([1, vec], xid=5)
        wal.log_commit(5)
        table.insert([2, vec], xid=6)  # never committed
        wal.flush()
        recovered = MemoryDisk(page_size=2048)
        replay(wal, recovered)
        table2 = HeapTable("t", table.schema, BufferManager(recovered), None)
        assert table2.tuple_count == 1

    def test_deletes_recovered(self, table_env):
        __, __, wal, table = table_env
        vec = np.zeros(2, dtype=np.float32)
        tids = [table.insert([i, vec], xid=2) for i in range(3)]
        table.delete(tids[1], xid=2)
        wal.log_commit(2)
        recovered = MemoryDisk(page_size=2048)
        replay(wal, recovered)
        table2 = HeapTable("t", table.schema, BufferManager(recovered), None)
        assert table2.tuple_count == 2

    def test_replay_idempotent_on_flushed_pages(self, table_env):
        disk, buffer, wal, table = table_env
        vec = np.zeros(2, dtype=np.float32)
        for i in range(4):
            table.insert([i, vec], xid=3)
        wal.log_commit(3)
        buffer.flush_all()  # pages already on disk
        applied = replay(wal, disk)
        assert applied == 0  # LSN check skips everything
        table2 = HeapTable("t", table.schema, BufferManager(disk), None)
        assert table2.tuple_count == 4

    def test_records_decoded(self, table_env):
        __, __, wal, table = table_env
        table.insert([1, np.zeros(2, dtype=np.float32)], xid=9)
        wal.log_commit(9)
        records = wal.records()
        assert len(records) == 2
        assert records[0].rel == "t.heap"
        assert records[0].xid == 9
        assert records[1].lsn > records[0].lsn
