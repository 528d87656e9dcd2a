"""The lifecycle of the files a durable database holds open.

``FileDisk`` keeps one unbuffered descriptor per relation file and a
cached block count beside it; the WAL keeps its append handle between
flushes.  These tests pin down when handles are released, that closing
a crashed instance writes nothing, and that the cached block counts
agree with the files through drop/create, torn extends and WAL
truncation.  CI runs this module with ``ResourceWarning`` as an error,
so a leaked descriptor fails it.
"""

import gc
import os
from pathlib import Path

import pytest

from repro.pgsim import PgSimDatabase
from repro.pgsim.faults import FaultInjector, SimulatedCrash, SimulatedIOError
from repro.pgsim.page import Page
from repro.pgsim.storage import FileDisk, MemoryDisk
from repro.pgsim.wal import WalPanicError, WriteAheadLog

POOL = 16
PAGE = 1024
PROC_FD = Path("/proc/self/fd")


def _blank_page() -> bytes:
    return bytes(Page.init(PAGE).buf)


def _workload(datadir, injector=None) -> PgSimDatabase:
    """Open a database and run a small durable workload on it.

    Returns the instance, crashed or not: a simulated crash is caught,
    and the caller decides what to do with what the crash left.
    """
    # 1 KiB pages: smaller than an io buffer, so a buffered handle would
    # hold a page write back until close().
    db = PgSimDatabase(
        data_dir=datadir, page_size=PAGE, buffer_pool_pages=POOL, fault_injector=injector
    )
    try:
        db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(6):
            db.execute(f"INSERT INTO t VALUES ({i}, '{i}.5,1.25'::PASE)")
            if i == 2:
                db.checkpoint()
        db.execute(
            "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
            "WITH (clusters = 2, sample_ratio = 1.0, seed = 1)"
        )
        db.execute("DELETE FROM t WHERE id = 0")
    except (SimulatedCrash, SimulatedIOError, WalPanicError):
        pass
    return db


def _held_handles(db: PgSimDatabase) -> list:
    handles = [rel.file for rel in db.disk._files.values()]
    if db.wal._file is not None:
        handles.append(db.wal._file)
    return handles


def _snapshot(datadir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(datadir.iterdir())}


class TestClose:
    def test_close_is_idempotent_and_releases_every_handle(self, tmp_path):
        db = _workload(tmp_path / "db")
        handles = _held_handles(db)
        assert len(handles) >= 3  # heap, index forks and the WAL
        assert db.wal._file in handles
        db.close()
        db.close()
        assert all(h.closed for h in handles)
        assert db.disk._files == {} and db.wal._file is None

    @pytest.mark.skipif(not PROC_FD.is_dir(), reason="needs /proc/self/fd")
    def test_crash_recover_close_cycles_leak_no_descriptor(self, tmp_path):
        # Collect earlier tests' garbage first, so that no descriptor it
        # holds is released mid-count.
        gc.collect()
        baseline = len(os.listdir(PROC_FD))
        counter = FaultInjector()
        _workload(tmp_path / "count", counter).close()
        n_ops = counter.ops
        for cycle in range(30):
            datadir = tmp_path / f"cycle-{cycle}"
            injector = FaultInjector.crash_at(cycle * n_ops // 30)
            crashed = _workload(datadir, injector)
            assert injector.fired, f"cycle {cycle}: the crash did not fire"
            crashed.close()
            with PgSimDatabase(
                data_dir=datadir, page_size=PAGE, buffer_pool_pages=POOL
            ) as recovered:
                if recovered.catalog.has_table("t"):
                    recovered.query("SELECT count(*) FROM t")
        assert len(os.listdir(PROC_FD)) == baseline

    @pytest.mark.parametrize(
        "make_injector",
        [
            FaultInjector.crash_at,
            lambda op: FaultInjector.torn_write_at(op, keep_fraction=0.3),
        ],
        ids=["crash", "torn-write"],
    )
    def test_closing_a_crashed_instance_writes_nothing(self, tmp_path, make_injector):
        counter = FaultInjector()
        _workload(tmp_path / "count", counter).close()
        for op in range(counter.ops):
            datadir = tmp_path / f"op-{op}"
            injector = make_injector(op)
            db = _workload(datadir, injector)
            assert injector.fired, f"op {op}: the fault did not fire"
            before = _snapshot(datadir)
            db.close()
            assert _snapshot(datadir) == before, f"op {op}: close() wrote to a file"


class TestCachedBlockCounts:
    def test_fresh_instance_sees_another_instances_extends(self, tmp_path):
        writer = FileDisk(tmp_path, page_size=PAGE)
        writer.create_relation("r")
        for __ in range(3):
            writer.extend("r", _blank_page())
        reader = FileDisk(tmp_path, page_size=PAGE)
        assert reader.n_blocks("r") == writer.n_blocks("r") == 3
        writer.close()
        reader.close()

    def test_drop_then_create_same_name_is_empty(self, tmp_path):
        disk = FileDisk(tmp_path, page_size=PAGE)
        disk.create_relation("r")
        disk.extend("r", _blank_page())
        disk.extend("r", _blank_page())
        disk.drop_relation("r")
        assert not disk.relation_exists("r")
        disk.create_relation("r")
        assert disk.n_blocks("r") == 0
        with pytest.raises(IndexError):
            disk.read_block("r", 0)
        with pytest.raises(IndexError):
            disk.write_block("r", 0, _blank_page())
        assert disk.extend("r", _blank_page()) == 0
        disk.close()
        fresh = FileDisk(tmp_path, page_size=PAGE)
        assert fresh.n_blocks("r") == 1
        fresh.close()

    def test_torn_extend_reports_the_floor_and_next_extend_heals(self, tmp_path):
        # Ops per extend: the page write, then its fsync.  Tear the third write.
        disk = FileDisk(tmp_path, page_size=PAGE, faults=FaultInjector.torn_write_at(4))
        disk.create_relation("r")
        disk.extend("r", _blank_page())
        disk.extend("r", _blank_page())
        with pytest.raises(SimulatedCrash):
            disk.extend("r", _blank_page())
        assert disk.n_blocks("r") == 2
        disk.close()
        path = tmp_path / "r.rel"
        assert path.stat().st_size == 2 * PAGE + PAGE // 2

        fresh = FileDisk(tmp_path, page_size=PAGE)
        assert fresh.n_blocks("r") == 2
        page = bytearray(_blank_page())
        page[100] = 42
        assert fresh.extend("r", bytes(page)) == 2
        assert path.stat().st_size == 3 * PAGE
        assert fresh.n_blocks("r") == 3
        assert fresh.read_block("r", 2)[100] == 42
        fresh.close()

    def test_wal_appends_after_truncation_land_in_the_renamed_file(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for xid in (1, 2, 3):
            wal.log_insert(xid, "t.heap", 0, b"x")
            wal.log_commit(xid)
        old_handle = wal._file
        ckpt = wal.log_checkpoint(next_xid=4)
        assert wal.truncate_before(ckpt) == 6
        assert old_handle.closed
        wal.log_insert(4, "t.heap", 0, b"after")
        wal.log_commit(4)
        wal.close()
        reopened = WriteAheadLog(path)
        assert [r.lsn for r in reopened.records()] == [ckpt, ckpt + 1, ckpt + 2]
        assert reopened.records()[1].payload == b"after"
        assert not path.with_name(path.name + ".tmp").exists()


@pytest.mark.parametrize("backend", ["memory", "file"])
def test_negative_block_numbers_raise_index_error(tmp_path, backend):
    disk = MemoryDisk(page_size=PAGE) if backend == "memory" else FileDisk(tmp_path, page_size=PAGE)
    disk.create_relation("r")
    disk.extend("r", _blank_page())
    disk.extend("r", _blank_page())
    with pytest.raises(IndexError):
        disk.read_block("r", -1)
    with pytest.raises(IndexError):
        disk.write_block("r", -1, _blank_page())
    disk.close()
