"""Crash-recovery integration tests for file-backed databases.

A crash is simulated by closing the instance without a checkpoint:
``close()`` releases the held files and writes nothing.  CI runs this
module with ``ResourceWarning`` as an error, so every instance and every
flushed log is closed.
"""

import pytest

from repro.pgsim import PgSimDatabase
from repro.pgsim.wal import WriteAheadLog


@pytest.fixture()
def datadir(tmp_path):
    return tmp_path / "db"


def _load(db, dataset, n=200):
    db.execute("CREATE TABLE items (id int, vec float[])")
    for i in range(n):
        lit = ",".join(f"{x:.6f}" for x in dataset.base[i])
        db.execute(f"INSERT INTO items VALUES ({i}, '{lit}'::PASE)")


class TestWalFilePersistence:
    def test_records_survive_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.log_insert(5, "t.heap", 0, b"tuple-bytes")
        wal.log_commit(5)
        wal.close()
        reopened = WriteAheadLog(path)
        records = reopened.records()
        assert len(records) == 2
        assert records[0].payload == b"tuple-bytes"
        assert reopened.flushed_lsn == 2

    def test_unflushed_records_lost_on_crash(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.log_insert(5, "t.heap", 0, b"a")
        wal.log_commit(5)  # flushes
        wal.log_insert(6, "t.heap", 0, b"b")  # never flushed
        wal.close()
        reopened = WriteAheadLog(path)
        assert len(reopened.records()) == 2

    def test_torn_tail_ignored(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.log_insert(5, "t.heap", 0, b"good")
        wal.log_commit(5)
        wal.close()
        with path.open("ab") as f:
            f.write(b"\xff\xff\xff\x7f partial garbage")
        reopened = WriteAheadLog(path)
        assert len(reopened.records()) == 2

    def test_lsn_continues_after_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        first = wal.log_insert(5, "t.heap", 0, b"a")
        wal.log_commit(5)
        wal.close()
        reopened = WriteAheadLog(path)
        assert reopened.log_insert(6, "t.heap", 0, b"b") > first + 1

    def test_torn_tail_mid_record_dropped(self, tmp_path):
        """A frame whose header promises more bytes than the file holds
        (a genuinely torn record, not trailing garbage) is discarded."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.log_insert(5, "t.heap", 0, b"good")
        wal.log_commit(5)
        wal.close()
        intact = path.read_bytes()
        # Frame the third record correctly, then tear it in half.
        record = intact[WriteAheadLog._FRAME.size :]
        torn = WriteAheadLog._FRAME.pack(len(record)) + record[: len(record) // 2]
        path.write_bytes(intact + torn)
        reopened = WriteAheadLog(path)
        assert len(reopened.records()) == 2
        assert reopened.flushed_lsn == 2
        # The next append continues cleanly past the ignored tail.
        assert reopened.log_insert(6, "t.heap", 0, b"b") == 3

    def test_duplicate_records_from_retried_flush_skipped(self, tmp_path):
        """A flush retried after a partial failure can append the same
        records twice; ``_load`` keeps only the first copy of each LSN."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        wal.log_insert(5, "t.heap", 0, b"a")
        wal.log_commit(5)
        wal.close()
        path.write_bytes(path.read_bytes() * 2)
        reopened = WriteAheadLog(path)
        assert [r.lsn for r in reopened.records()] == [1, 2]

    def test_replay_twice_is_idempotent(self, tmp_path):
        from repro.pgsim.storage import MemoryDisk
        from repro.pgsim.wal import replay

        wal = WriteAheadLog(tmp_path / "wal.log")
        for i in range(3):
            wal.log_insert(7, "t.heap", 0, b"tuple-%d" % i)
        wal.log_commit(7)
        wal.close()
        disk = MemoryDisk()
        assert replay(wal, disk) == 3
        after_first = disk.read_block("t.heap", 0)
        assert replay(wal, disk) == 0  # page LSNs already cover the log
        assert disk.read_block("t.heap", 0) == after_first


class TestDatabaseRecovery:
    def test_rows_survive_crash(self, datadir, small_dataset):
        db = PgSimDatabase(data_dir=datadir, buffer_pool_pages=32)
        _load(db, small_dataset, n=150)
        db.close()  # crash: dirty buffer pages never flushed
        with PgSimDatabase(data_dir=datadir, buffer_pool_pages=32) as db2:
            assert db2.execute("SELECT count(*) FROM items").scalar() == 150

    def test_index_rebuilt_and_consistent(self, datadir, small_dataset, vec_lit):
        db = PgSimDatabase(data_dir=datadir, buffer_pool_pages=64)
        _load(db, small_dataset, n=200)
        db.execute(
            "CREATE INDEX ix ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 6, sample_ratio = 0.5, seed = 1)"
        )
        db.execute("SET pase.nprobe = 6")
        sql = (
            f"SELECT id FROM items ORDER BY vec <-> "
            f"'{vec_lit(small_dataset.queries[0])}'::PASE LIMIT 5"
        )
        before = db.query(sql)
        db.close()
        with PgSimDatabase(data_dir=datadir, buffer_pool_pages=64) as db2:
            db2.execute("SET pase.nprobe = 6")
            assert db2.query(sql) == before
            assert "Index Scan using ix" in db2.explain(sql)

    def test_deletes_survive_crash(self, datadir, small_dataset):
        db = PgSimDatabase(data_dir=datadir, buffer_pool_pages=32)
        _load(db, small_dataset, n=100)
        db.execute("DELETE FROM items WHERE id < 40")
        db.close()
        with PgSimDatabase(data_dir=datadir, buffer_pool_pages=32) as db2:
            assert db2.execute("SELECT count(*) FROM items").scalar() == 60

    def test_dropped_table_stays_dropped(self, datadir, small_dataset):
        db = PgSimDatabase(data_dir=datadir, buffer_pool_pages=32)
        _load(db, small_dataset, n=20)
        db.execute("DROP TABLE items")
        db.close()
        with PgSimDatabase(data_dir=datadir, buffer_pool_pages=32) as db2:
            assert not db2.catalog.has_table("items")

    def test_updates_survive_crash(self, datadir, small_dataset):
        db = PgSimDatabase(data_dir=datadir, buffer_pool_pages=32)
        _load(db, small_dataset, n=50)
        db.execute("UPDATE items SET id = 900 WHERE id = 9")
        db.close()
        with PgSimDatabase(data_dir=datadir, buffer_pool_pages=32) as db2:
            assert db2.query("SELECT id FROM items WHERE id = 900") == [(900,)]
            assert db2.query("SELECT id FROM items WHERE id = 9") == []

    def test_second_recovery_idempotent(self, datadir, small_dataset):
        db = PgSimDatabase(data_dir=datadir, buffer_pool_pages=32)
        _load(db, small_dataset, n=60)
        db.close()
        PgSimDatabase(data_dir=datadir, buffer_pool_pages=32).close()
        with PgSimDatabase(data_dir=datadir, buffer_pool_pages=32) as db3:
            assert db3.execute("SELECT count(*) FROM items").scalar() == 60

    def test_in_memory_database_has_no_ddl_log(self, small_dataset):
        db = PgSimDatabase()
        db.execute("CREATE TABLE t (id int)")
        assert db._catalog_log is None
