"""Crash-recovery property harness driven by deterministic fault injection.

The contract under test is the classic durability contract:

- **committed data survives** — every statement the database
  acknowledged before the failure is present after recovery;
- **uncommitted data does not resurrect** — recovery never exposes
  partial effects of the statement that was in flight when the
  failure hit (recovered rows are always a clean prefix of the
  workload).

The harness runs an insert/checkpoint/index-build workload, counts
its durability-relevant I/O operations with a pass-through
:class:`FaultInjector`, then re-runs it once per operation with a
failure scheduled at exactly that boundary — a crash, a torn write,
or a failed fsync — and recovers from the files left behind.

Every instance is closed, crashed ones too: ``close()`` writes nothing,
so the files stay as the crash left them, and CI runs this module with
``ResourceWarning`` as an error, so a leaked descriptor fails it.
"""

from pathlib import Path

import pytest

from repro.pgsim import PgSimDatabase
from repro.pgsim.faults import (
    CRASH,
    FAIL_FSYNC,
    TORN_WRITE,
    Fault,
    FaultInjector,
    SimulatedCrash,
    SimulatedIOError,
)
from repro.pgsim.storage import FileDisk, MemoryDisk
from repro.pgsim.wal import (
    REC_CHECKPOINT,
    WalPanicError,
    WriteAheadLog,
    checkpoint_fields,
    replay,
)

#: Small pool so the workload exercises eviction paths too.
POOL = 16
N_ROWS = 8
CHECKPOINT_AFTER = 3
INDEX_AFTER = 5
#: Durability-relevant operations of ``_run_workload`` without faults:
#: the number of boundaries each crash sweep below iterates over.
#: Recorded once data files were synced per checkpoint, not per extend.
SWEEP_BOUNDARIES = 43


def _insert(db: PgSimDatabase, i: int) -> None:
    db.execute(f"INSERT INTO t VALUES ({i}, '{i}.5,1.25'::PASE)")


def _run_workload(datadir, injector: FaultInjector | None) -> tuple[list[int], bool]:
    """Run the workload; returns ``(acknowledged ids, crashed?)``.

    The workload mixes the durability-relevant operations pgsim has:
    per-statement commits, an explicit checkpoint (buffer flush + log
    truncation), an index build, and inserts that maintain the index.
    """
    acked: list[int] = []
    db = None
    try:
        db = PgSimDatabase(data_dir=datadir, buffer_pool_pages=POOL, fault_injector=injector)
        db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(N_ROWS):
            _insert(db, i)
            acked.append(i)
            if i == CHECKPOINT_AFTER:
                db.checkpoint()
            if i == INDEX_AFTER:
                db.execute(
                    "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
                    "WITH (clusters = 2, sample_ratio = 1.0, seed = 1)"
                )
        return acked, False
    except (SimulatedCrash, SimulatedIOError, WalPanicError):
        return acked, True
    finally:
        if db is not None:
            db.close()


def _recovered_ids(datadir) -> list[int]:
    with PgSimDatabase(data_dir=datadir, buffer_pool_pages=POOL) as db:
        if not db.catalog.has_table("t"):
            return []
        return sorted(row[0] for row in db.query("SELECT id FROM t"))


def _assert_contract(recovered: list[int], acked: list[int]) -> None:
    # Committed data survives ...
    assert set(acked) <= set(recovered), (
        f"acknowledged rows lost: acked={acked} recovered={recovered}"
    )
    # ... and nothing partial resurrects: recovered ids are exactly the
    # first k of the workload for some k (a commit may be durable
    # without having been acknowledged, hence >= acked).
    assert recovered == list(range(len(recovered))), f"non-prefix recovery: {recovered}"


def _baseline_ops(tmp_path) -> int:
    counter = FaultInjector()
    acked, crashed = _run_workload(tmp_path / "baseline", counter)
    assert not crashed
    assert acked == list(range(N_ROWS))
    assert counter.ops == SWEEP_BOUNDARIES, "the workload's fault boundaries moved"
    return counter.ops


class TestCrashSweep:
    def test_crash_at_every_write_boundary(self, tmp_path):
        n_ops = _baseline_ops(tmp_path)
        crashes = 0
        for op in range(n_ops):
            datadir = tmp_path / f"crash-{op}"
            injector = FaultInjector.crash_at(op)
            acked, crashed = _run_workload(datadir, injector)
            assert crashed and injector.fired, f"crash at op {op} did not fire"
            crashes += 1
            _assert_contract(_recovered_ids(datadir), acked)
        assert crashes == n_ops

    def test_torn_write_at_every_boundary(self, tmp_path):
        n_ops = _baseline_ops(tmp_path)
        for op in range(n_ops):
            datadir = tmp_path / f"torn-{op}"
            acked, crashed = _run_workload(datadir, FaultInjector.torn_write_at(op))
            assert crashed
            _assert_contract(_recovered_ids(datadir), acked)

    def test_failed_fsync_at_every_boundary(self, tmp_path):
        """FAIL_FSYNC only fires at sync barriers; elsewhere it is inert
        and the workload must complete untouched."""
        n_ops = _baseline_ops(tmp_path)
        fsync_failures = 0
        for op in range(n_ops):
            datadir = tmp_path / f"fsync-{op}"
            injector = FaultInjector.fail_fsync_at(op)
            acked, crashed = _run_workload(datadir, injector)
            if any(kind == FAIL_FSYNC for __, __, kind in injector.fired):
                assert crashed, "a failed fsync must take the instance down"
                fsync_failures += 1
            else:
                assert not crashed and acked == list(range(N_ROWS))
            _assert_contract(_recovered_ids(datadir), acked)
        assert fsync_failures >= 3, "workload exercised too few fsync barriers"


class TestFlushedLsnHonesty:
    """Regression: ``flushed_lsn`` may only advance after a successful
    append + fsync — never before."""

    def test_failed_fsync_does_not_advance_flushed_lsn(self, tmp_path):
        # Ops: 0 = append (insert), 1 = append (commit), 2 = fsync.
        injector = FaultInjector(schedule={2: Fault(FAIL_FSYNC)})
        wal = WriteAheadLog(tmp_path / "wal.log", faults=injector)
        wal.log_insert(1, "t.heap", 0, b"x")
        with pytest.raises(SimulatedIOError):
            wal.log_commit(1)
        assert wal.flushed_lsn == 0
        # And replay must treat nothing as durable.
        assert replay(wal, MemoryDisk()) == 0
        wal.close()

    def test_torn_append_does_not_advance_flushed_lsn(self, tmp_path):
        injector = FaultInjector(schedule={0: Fault(TORN_WRITE, keep_fraction=0.4)})
        wal = WriteAheadLog(tmp_path / "wal.log", faults=injector)
        wal.log_insert(1, "t.heap", 0, b"x")
        with pytest.raises(SimulatedCrash):
            wal.log_commit(1)
        assert wal.flushed_lsn == 0
        wal.close()

    def test_wal_panics_after_flush_failure(self, tmp_path):
        injector = FaultInjector(schedule={2: Fault(FAIL_FSYNC)})
        wal = WriteAheadLog(tmp_path / "wal.log", faults=injector)
        wal.log_insert(1, "t.heap", 0, b"x")
        with pytest.raises(SimulatedIOError):
            wal.log_commit(1)
        with pytest.raises(WalPanicError):
            wal.log_insert(2, "t.heap", 0, b"y")
        with pytest.raises(WalPanicError):
            wal.flush()
        wal.close()

    def test_heap_insert_undone_when_wal_panicked(self, tmp_path):
        """After a WAL panic, a failed insert must not leave a phantom
        tuple visible to in-process readers."""
        # Count the ops of CREATE TABLE + one insert, then fail the
        # *next* fsync barrier (FAIL_FSYNC is inert at write sites, so
        # blanket-scheduling a range pins it to insert 1's commit).
        counter = FaultInjector()
        db0 = PgSimDatabase(
            data_dir=tmp_path / "count", buffer_pool_pages=POOL, fault_injector=counter
        )
        db0.execute("CREATE TABLE t (id int, vec float[])")
        _insert(db0, 0)
        base = counter.ops
        db0.close()

        schedule = {base + i: Fault(FAIL_FSYNC) for i in range(20)}
        injector = FaultInjector(schedule=schedule)
        db = PgSimDatabase(
            data_dir=tmp_path / "db", buffer_pool_pages=POOL, fault_injector=injector
        )
        db.execute("CREATE TABLE t (id int, vec float[])")
        _insert(db, 0)
        with pytest.raises(SimulatedIOError):
            _insert(db, 1)  # its commit fsync fails -> WAL panics
        with pytest.raises(WalPanicError):
            _insert(db, 2)  # panicked WAL rejects the transaction's BEGIN record
        # Insert 1's transaction aborted when its commit flush failed,
        # so in-process readers count only row 0; insert 2 never even
        # reached the heap (the WAL rejected its first record).
        table = db.catalog.table("t")
        assert table.heap.tuple_count == 1
        assert [r[0] for r in db.query("SELECT id FROM t")] == [0]
        db.close()
        # After recovery: row 0 was acknowledged and must be there; row
        # 1's records reached the OS before its fsync failed, so it may
        # legitimately be durable too; row 2 must never appear.
        recovered = _recovered_ids(tmp_path / "db")
        _assert_contract(recovered, [0])
        assert 2 not in recovered


class TestCheckpointTruncation:
    def test_checkpoint_bounds_record_count_and_file_size(self, tmp_path):
        db = PgSimDatabase(data_dir=tmp_path / "db", buffer_pool_pages=POOL)
        db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(20):
            _insert(db, i)
        before_records = len(db.wal)
        before_bytes = db.wal.disk_size()
        assert before_records == 60  # begin + insert + commit per row
        db.checkpoint()
        assert len(db.wal) == 1  # just the checkpoint record
        assert db.wal.disk_size() < before_bytes
        db.close()

    def test_log_stays_bounded_with_periodic_checkpoints(self, tmp_path):
        db = PgSimDatabase(data_dir=tmp_path / "db", buffer_pool_pages=POOL)
        db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(50):
            _insert(db, i)
            if i % 10 == 9:
                db.checkpoint()
        assert len(db.wal) <= 2 * 10 + 1
        db.close()

    def test_recovery_after_checkpoint_truncation(self, tmp_path):
        datadir = tmp_path / "db"
        db = PgSimDatabase(data_dir=datadir, buffer_pool_pages=POOL)
        db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(10):
            _insert(db, i)
        db.checkpoint()
        for i in range(10, 15):
            _insert(db, i)
        db.close()  # crash: post-checkpoint rows only exist in WAL + buffers
        assert _recovered_ids(datadir) == list(range(15))

    def test_checkpoint_record_carries_durable_horizon(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.log_insert(1, "t.heap", 0, b"x")
        wal.log_commit(1)
        horizon = wal.flushed_lsn
        wal.log_checkpoint(next_xid=7, in_progress=(5, 6), aborted=(3,))
        checkpoint = wal.records()[-1]
        flushed, next_xid, in_progress, aborted = checkpoint_fields(checkpoint.payload)
        assert flushed == horizon
        assert next_xid == 7
        assert in_progress == (5, 6)
        assert aborted == (3,)
        # A checkpoint record must itself be durable (satellite fix).
        assert wal.flushed_lsn == checkpoint.lsn
        wal.close()

    def test_checkpoint_payload_without_aborted_list_decodes(self):
        """A log written before checkpoints carried the aborted list
        still recovers: the list reads as empty."""
        import struct

        payload = struct.pack("<QQI2I", 9, 7, 2, 5, 6)
        assert checkpoint_fields(payload) == (9, 7, (5, 6), ())
        assert checkpoint_fields(struct.pack("<Q", 9)) == (9, 0, (), ())

    def test_truncate_is_crash_atomic(self, tmp_path):
        """A crash while rewriting the log leaves the old log intact."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path)
        for xid in (1, 2, 3):
            wal.log_insert(xid, "t.heap", 0, b"x")
            wal.log_commit(xid)
        # Fail the first rewrite write of truncate_before.
        wal.faults = FaultInjector(schedule={0: Fault(CRASH)})
        with pytest.raises(SimulatedCrash):
            wal.truncate_before(wal.flushed_lsn)
        wal.close()
        reopened = WriteAheadLog(path)
        assert len(reopened) == 6
        assert reopened.flushed_lsn == wal.records()[-1].lsn


class TestTransactionRecovery:
    """Recovery must roll back transactions without a durable commit
    record — even when their data records (or flushed pages) are."""

    def _fresh(self, datadir, injector=None) -> PgSimDatabase:
        return PgSimDatabase(
            data_dir=datadir, buffer_pool_pages=POOL, fault_injector=injector
        )

    def test_flushed_but_uncommitted_txn_rolled_back(self, tmp_path):
        datadir = tmp_path / "db"
        db = self._fresh(datadir)
        db.execute("CREATE TABLE t (id int, vec float[])")
        _insert(db, 0)
        session = db.session("client")
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, '1.5,1.25'::PASE)")
        session.execute("INSERT INTO t VALUES (2, '2.5,1.25'::PASE)")
        db.wal.flush()  # data + BEGIN records durable; no commit record
        db.close()  # crash before COMMIT
        assert _recovered_ids(datadir) == [0]

    def test_aborted_insert_does_not_shift_later_commits(self, tmp_path):
        """Redo must re-apply an aborted insert's line pointer so a
        later committed insert recovers at its logged offset."""
        datadir = tmp_path / "db"
        db = self._fresh(datadir)
        db.execute("CREATE TABLE t (id int, vec float[])")
        session = db.session("client")
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (99, '9.5,1.25'::PASE)")
        session.execute("ROLLBACK")
        _insert(db, 0)  # committed; lands on the same page, next offset
        db.close()
        assert _recovered_ids(datadir) == [0]

    def test_checkpoint_mid_transaction_still_rolls_back(self, tmp_path):
        """A checkpoint flushes uncommitted tuples and truncates their
        records; the checkpoint's in-progress list must still identify
        the transaction as a loser after a crash."""
        datadir = tmp_path / "db"
        db = self._fresh(datadir)
        db.execute("CREATE TABLE t (id int, vec float[])")
        _insert(db, 0)
        session = db.session("client")
        session.execute("BEGIN")
        session.execute("INSERT INTO t VALUES (1, '1.5,1.25'::PASE)")
        db.checkpoint()
        db.close()  # crash before COMMIT
        assert _recovered_ids(datadir) == [0]

    def test_rolled_back_rows_stay_gone_after_checkpoint_and_reopen(self, tmp_path):
        """The checkpoint truncates the only WAL records naming a
        rolled-back transaction while its tuples stay on the flushed
        pages; the checkpoint's aborted list must still mark it a
        loser, or a clean reopen resurrects its rows."""
        datadir = tmp_path / "db"
        db = self._fresh(datadir)
        db.execute("CREATE TABLE t (id int, vec float[])")
        session = db.session("client")
        session.execute("BEGIN")
        for i in range(5):
            session.execute(f"INSERT INTO t VALUES ({i}, '{i}.5,1.25'::PASE)")
        session.execute("ROLLBACK")
        db.execute("INSERT INTO t VALUES (100, '1.5,1.25'::PASE)")
        db.checkpoint()
        db.close()
        assert _recovered_ids(datadir) == [100]

    def test_rollback_larger_than_the_pool_stays_gone_after_checkpoint(self, tmp_path):
        """The same with a rolled-back transaction that dirtied more
        heap pages than the pool holds, so eviction wrote most of them
        out before the rollback."""
        datadir = tmp_path / "db"
        db = self._fresh(datadir)
        db.execute("CREATE TABLE t (id int, vec float[])")
        session = db.session("client")
        session.execute("BEGIN")
        # 96-d rows: ~20 to an 8 KiB page, so 600 of them fill ~30 pages.
        wide = ",".join(["1.25"] * 96)
        for i in range(600):
            session.execute(f"INSERT INTO t VALUES ({i}, '{wide}'::PASE)")
        session.execute("ROLLBACK")
        assert db.disk.n_blocks("t.heap") > POOL
        db.execute(f"INSERT INTO t VALUES (1000, '{wide}'::PASE)")
        db.checkpoint()
        db.close()
        assert _recovered_ids(datadir) == [1000]

    def test_uncommitted_delete_resurrects_on_recovery(self, tmp_path):
        datadir = tmp_path / "db"
        db = self._fresh(datadir)
        db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(3):
            _insert(db, i)
        session = db.session("client")
        session.execute("BEGIN")
        session.execute("DELETE FROM t WHERE id = 1")
        db.wal.flush()  # the delete's xmax stamp is durable
        db.close()  # crash before COMMIT
        assert _recovered_ids(datadir) == [0, 1, 2]

    def test_crash_sweep_between_heap_writes_and_commit(self, tmp_path):
        """Crash at every I/O boundary between a transaction's durable
        data records and its commit record: recovery must be atomic —
        the whole transaction or none of it, never a partial prefix."""

        def run(datadir, injector):
            db = self._fresh(datadir, injector)
            db.execute("CREATE TABLE t (id int, vec float[])")
            _insert(db, 0)
            marks = []
            session = db.session("client")
            try:
                session.execute("BEGIN")
                for i in range(1, 4):
                    session.execute(f"INSERT INTO t VALUES ({i}, '{i}.5,1.25'::PASE)")
                marks.append(injector.ops if injector else 0)  # pre-flush
                db.wal.flush()
                marks.append(injector.ops if injector else 0)  # pre-commit
                session.execute("COMMIT")
                return marks, False
            except (SimulatedCrash, SimulatedIOError, WalPanicError):
                return marks, True
            finally:
                db.close()

        counter = FaultInjector()
        marks, crashed = run(tmp_path / "baseline", counter)
        assert not crashed
        pre_flush, pre_commit = marks
        assert pre_commit > pre_flush, "transaction flush did no I/O"

        # +2 covers the commit record's own write and fsync ops.
        for op in range(pre_flush, pre_commit + 2):
            datadir = tmp_path / f"crash-{op}"
            __, crashed = run(datadir, FaultInjector.crash_at(op))
            assert crashed, f"crash at op {op} did not fire"
            recovered = _recovered_ids(datadir)
            # Atomicity: all of the transaction or none of it.
            assert recovered in ([0], [0, 1, 2, 3]), f"op {op}: {recovered}"
            if op <= pre_commit:
                # Crash at or before the commit record's write: the
                # commit can never be durable, so recovery must roll
                # the transaction back — no committed-looking phantoms.
                assert recovered == [0], f"op {op}: phantom commit {recovered}"


class TestChurnRecovery:
    """Crash sweeps across the churn path: UPDATE's delete+insert pair
    must recover atomically, and VACUUM's physical reclaim (heap slots
    plus index entries) must never lose committed rows."""

    NEW_VEC = "77.5,1.25"

    def _fresh(self, datadir, injector=None) -> PgSimDatabase:
        return PgSimDatabase(
            data_dir=datadir, buffer_pool_pages=POOL, fault_injector=injector
        )

    def _live_rows(self, datadir) -> dict[int, float]:
        """Recovered ``{id: vec[0]}`` — the first component identifies
        whether a row carries its original or its updated vector."""
        with PgSimDatabase(data_dir=datadir, buffer_pool_pages=POOL) as db:
            if not db.catalog.has_table("t"):
                return {}
            return {row[0]: float(row[1][0]) for row in db.query("SELECT id, vec FROM t")}

    def test_crash_sweep_mid_update(self, tmp_path):
        """Crash at every I/O boundary of a multi-row UPDATE: recovery
        must expose all old versions or all new ones, never a mix of
        the two (the delete+insert pair shares one transaction)."""

        def run(datadir, injector):
            marks = []
            db = None
            try:
                db = self._fresh(datadir, injector)
                db.execute("CREATE TABLE t (id int, vec float[])")
                for i in range(4):
                    _insert(db, i)
                db.execute(
                    "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
                    "WITH (clusters = 2, sample_ratio = 1.0, seed = 1)"
                )
                session = db.session("client")
                session.execute("BEGIN")
                marks.append(injector.ops if injector else 0)  # pre-update
                session.execute(
                    f"UPDATE t SET vec = '{self.NEW_VEC}'::PASE WHERE id < 2"
                )
                db.wal.flush()
                marks.append(injector.ops if injector else 0)  # pre-commit
                session.execute("COMMIT")
                return marks, False
            except (SimulatedCrash, SimulatedIOError, WalPanicError):
                return marks, True
            finally:
                if db is not None:
                    db.close()

        counter = FaultInjector()
        marks, crashed = run(tmp_path / "baseline", counter)
        assert not crashed
        pre_update, pre_commit = marks
        assert pre_commit > pre_update, "UPDATE produced no durable I/O"

        # +2 covers the commit record's own write and fsync ops.
        for op in range(pre_update, pre_commit + 2):
            datadir = tmp_path / f"upd-crash-{op}"
            __, crashed = run(datadir, FaultInjector.crash_at(op))
            assert crashed, f"crash at op {op} did not fire"
            rows = self._live_rows(datadir)
            assert sorted(rows) == [0, 1, 2, 3], f"op {op}: cardinality {rows}"
            updated = sorted(i for i, x in rows.items() if x == 77.5)
            assert updated in ([], [0, 1]), f"op {op}: torn update {rows}"
            if op <= pre_commit:
                # The commit record can never be durable here, so the
                # update must have rolled back in full.
                assert updated == [], f"op {op}: phantom committed update"

    def test_crash_sweep_mid_vacuum_index_reclaim(self, tmp_path):
        """Crash at every I/O boundary while VACUUM's reclaim becomes
        durable (the vacuum pass itself plus the checkpoint that
        flushes the compacted heap and index pages): committed rows
        must all survive with their post-churn values, and the
        recovered index must serve exactly the live set."""

        def run(datadir, injector):
            marks = []
            db = None
            try:
                db = self._fresh(datadir, injector)
                db.execute("CREATE TABLE t (id int, vec float[])")
                for i in range(N_ROWS):
                    _insert(db, i)
                db.execute(
                    "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
                    "WITH (clusters = 2, sample_ratio = 1.0, seed = 1)"
                )
                db.execute("DELETE FROM t WHERE id >= 6")
                db.execute(
                    f"UPDATE t SET vec = '{self.NEW_VEC}'::PASE WHERE id < 2"
                )
                marks.append(injector.ops if injector else 0)  # pre-vacuum
                db.execute("VACUUM t")
                db.checkpoint()  # flush reclaimed pages, truncate the log
                marks.append(injector.ops if injector else 0)  # post-vacuum
                return marks, False
            except (SimulatedCrash, SimulatedIOError, WalPanicError):
                return marks, True
            finally:
                if db is not None:
                    db.close()

        counter = FaultInjector()
        marks, crashed = run(tmp_path / "baseline", counter)
        assert not crashed
        pre_vacuum, post_vacuum = marks
        assert post_vacuum > pre_vacuum, "vacuum + checkpoint did no I/O"

        for op in range(pre_vacuum, post_vacuum):
            datadir = tmp_path / f"vac-crash-{op}"
            __, crashed = run(datadir, FaultInjector.crash_at(op))
            assert crashed, f"crash at op {op} did not fire"
            rows = self._live_rows(datadir)
            assert sorted(rows) == [0, 1, 2, 3, 4, 5], f"op {op}: {rows}"
            assert sorted(i for i in rows if rows[i] == 77.5) == [0, 1], (
                f"op {op}: updated values lost {rows}"
            )
            # The recovered index serves the live set and nothing else.
            with PgSimDatabase(data_dir=datadir, buffer_pool_pages=POOL) as db:
                db.execute("SET enable_seqscan = off")
                got = [
                    r[0]
                    for r in db.query(
                        "SELECT id FROM t ORDER BY vec <-> '0.5,1.25' LIMIT 10"
                    )
                ]
            assert sorted(got) == [0, 1, 2, 3, 4, 5], f"op {op}: index served {got}"


class _RecordingInjector(FaultInjector):
    """Pass-through injector that notes the site and the file name of
    every operation."""

    def __init__(self) -> None:
        super().__init__()
        self.sites: list[str] = []
        self.files: list[str] = []

    def write(self, site: str, fobj, payload: bytes) -> None:
        self._note(site, fobj)
        super().write(site, fobj, payload)

    def fsync(self, site: str, fobj) -> None:
        self._note(site, fobj)
        super().fsync(site, fobj)

    def _note(self, site: str, fobj) -> None:
        self.sites.append(site)
        self.files.append(Path(fobj.name).name)


#: One letter per fault site, so a step's op sequence reads as a word.
_SITE_LETTERS = {
    "disk.extend": "e",
    "disk.fsync": "f",
    "disk.write": "w",
    "wal.append": "a",
    "wal.fsync": "s",
    "wal.truncate": "t",
}


def _vec8(i: int) -> str:
    return ",".join(f"{(i * 7 + j) % 11}.5" for j in range(8))


def _scripted_boundaries(datadir) -> list[tuple[str, str]]:
    """``(step, op letters)`` for a fixed durable workload: page extends,
    eviction write-back (1 KiB pages, 5 frames), CREATE INDEX,
    UPDATE/DELETE, VACUUM, and two checkpoints that truncate the WAL."""
    injector = _RecordingInjector()
    db = PgSimDatabase(
        data_dir=datadir, page_size=1024, buffer_pool_pages=5, fault_injector=injector
    )

    def insert(ids):
        for i in ids:
            db.execute(f"INSERT INTO t VALUES ({i}, '{_vec8(i)}'::PASE)")

    steps = [
        ("create table", lambda: db.execute("CREATE TABLE t (id int, vec float[])")),
        ("insert 48", lambda: insert(range(48))),
        ("checkpoint", db.checkpoint),
        ("create index", lambda: db.execute(
            "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
            "WITH (clusters = 2, sample_ratio = 1.0, seed = 1)"
        )),
        ("insert 4 indexed", lambda: insert(range(48, 52))),
        ("update", lambda: db.execute(f"UPDATE t SET vec = '{_vec8(99)}'::PASE WHERE id < 4")),
        ("delete", lambda: db.execute("DELETE FROM t WHERE id >= 44")),
        ("vacuum", lambda: db.execute("VACUUM t")),
        ("checkpoint again", db.checkpoint),
        ("insert after truncation", lambda: insert([60])),
    ]
    out = []
    try:
        for label, step in steps:
            start = len(injector.sites)
            step()
            out.append((label, "".join(_SITE_LETTERS[s] for s in injector.sites[start:])))
    finally:
        db.close()
    return out


#: ``_scripted_boundaries`` recorded once data files were synced per
#: checkpoint (e/f = disk.extend/fsync, w = disk.write, a/s/t =
#: wal.append/fsync/truncate).  An autocommit INSERT is "aaas" (BEGIN,
#: INSERT and COMMIT records, one fsync); a new page is "e", with no
#: fsync of its own; a checkpoint writes the dirty pages back, fsyncs
#: each relation written since the last one ("f" per relation), then
#: appends its record and truncates the log ("asts").
EXPECTED_BOUNDARIES = [
    ("create table", ""),
    ("insert 48", "e" + "aaas" * 17 + "e" + "aaas" * 17 + "e" + "aaas" * 14),
    ("checkpoint", "www" + "f" + "asts"),
    ("create index", "eeewewew"),
    ("insert 4 indexed", "waaasaaasaaaseaaas"),
    ("update", "wwwaaaaaaaaaas"),
    ("delete", "waaaaaaaaaas"),
    ("vacuum", "wwww"),
    ("checkpoint again", "wwwww" + "ffff" + "asts"),
    ("insert after truncation", "eeaaas"),
]


class TestFaultBoundaries:
    """The durable workload's fault boundaries are pinned: same sites,
    same order, same count.  (The crash sweeps check their own boundary
    count against ``SWEEP_BOUNDARIES`` in ``_baseline_ops``.)"""

    def test_scripted_workload_op_sequence(self, tmp_path):
        assert _scripted_boundaries(tmp_path / "db") == EXPECTED_BOUNDARIES


class TestDataSyncBarrier:
    """Data files are synced once per checkpoint, not once per page: a
    checkpoint fsyncs each relation written since the last one, and
    does so before its record lets the WAL be truncated."""

    INDEX_SQL = (
        "CREATE INDEX ix ON t USING pase_ivfflat (vec) "
        "WITH (clusters = 2, sample_ratio = 1.0, seed = 1)"
    )

    @staticmethod
    def _checkpoint(db, injector, since: int) -> tuple[list[str], list[str]]:
        """Checkpoint and check its barrier: one fsync per relation file
        written (extended or written back) since op ``since``, all of
        them before the checkpoint record.  Returns the checkpoint's
        sites and the files it fsynced."""
        start = len(injector.sites)
        db.checkpoint()
        written = {
            f
            for site, f in zip(injector.sites[since:], injector.files[since:])
            if site in ("disk.extend", "disk.write")
        }
        sites = injector.sites[start:]
        fsynced = [f for site, f in zip(sites, injector.files[start:]) if site == "disk.fsync"]
        assert sorted(fsynced) == sorted(written), "one fsync per written relation"
        record = sites.index("wal.append")
        assert "disk.fsync" not in sites[record:], "data sync after the checkpoint record"
        return sites, fsynced

    def test_extend_issues_no_fsync(self, tmp_path):
        injector = _RecordingInjector()
        disk = FileDisk(tmp_path, page_size=1024, faults=injector)
        disk.create_relation("r")
        for __ in range(3):
            disk.extend("r", bytes(1024))
        assert injector.sites == ["disk.extend"] * 3
        # The extends owe one fsync, paid at the next sync, and only there.
        disk.sync()
        disk.sync()
        disk.close()
        assert injector.sites == ["disk.extend"] * 3 + ["disk.fsync"]

    def test_checkpoint_fsyncs_each_written_relation_once(self, tmp_path):
        injector = _RecordingInjector()
        db = PgSimDatabase(
            data_dir=tmp_path / "db", buffer_pool_pages=POOL, fault_injector=injector
        )
        try:
            db.execute("CREATE TABLE t (id int, vec float[])")
            for i in range(N_ROWS):
                _insert(db, i)
            db.execute(self.INDEX_SQL)
            __, fsynced = self._checkpoint(db, injector, since=0)
            assert "t.heap.rel" in fsynced and len(fsynced) > 1

            # Only what was written since: one insert touches the heap
            # and the index, not every relation on disk.
            since = len(injector.sites)
            _insert(db, N_ROWS)
            self._checkpoint(db, injector, since)

            # Nothing written: nothing synced.
            sites, __ = self._checkpoint(db, injector, len(injector.sites))
            assert sites == ["wal.append", "wal.fsync", "wal.truncate", "wal.fsync"]
        finally:
            db.close()

    def test_dropped_relation_is_not_synced(self, tmp_path):
        injector = _RecordingInjector()
        db = PgSimDatabase(
            data_dir=tmp_path / "db", buffer_pool_pages=POOL, fault_injector=injector
        )
        try:
            for table in ("t", "u"):
                db.execute(f"CREATE TABLE {table} (id int, vec float[])")
                db.execute(f"INSERT INTO {table} VALUES (0, '0.5,1.25'::PASE)")
            db.execute("DROP TABLE t")
            start = len(injector.sites)
            db.checkpoint()
            fsynced = [
                f for site, f in zip(injector.sites[start:], injector.files[start:])
                if site == "disk.fsync"
            ]
            assert fsynced == ["u.heap.rel"]
        finally:
            db.close()

    def test_reopen_syncs_every_relation_on_disk_at_the_first_checkpoint(self, tmp_path):
        """An instance cannot tell whether the one before it synced
        what it wrote, so its first checkpoint syncs every relation on
        disk, written this time or not."""
        datadir = tmp_path / "db"
        db = PgSimDatabase(data_dir=datadir, buffer_pool_pages=POOL)
        db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(N_ROWS):
            _insert(db, i)
        db.execute(self.INDEX_SQL)
        db.checkpoint()
        db.close()

        injector = _RecordingInjector()
        db = PgSimDatabase(data_dir=datadir, buffer_pool_pages=POOL, fault_injector=injector)
        try:
            start = len(injector.sites)
            db.checkpoint()
            fsynced = sorted(
                f for site, f in zip(injector.sites[start:], injector.files[start:])
                if site == "disk.fsync"
            )
            assert fsynced == [f"{rel}.rel" for rel in db.disk.list_relations()]
            assert len(fsynced) > 1
        finally:
            db.close()

    def test_failed_data_sync_panics_and_keeps_the_wal(self, tmp_path):
        """FAIL_FSYNC on a data file at the checkpoint: no checkpoint
        record, no truncation, writes refused; the reopen recovers
        every acknowledged row from the WAL."""

        def run(datadir, injector):
            db = PgSimDatabase(
                data_dir=datadir, buffer_pool_pages=POOL, fault_injector=injector
            )
            db.execute("CREATE TABLE t (id int, vec float[])")
            for i in range(5):
                _insert(db, i)
            return db

        counter = _RecordingInjector()
        db = run(tmp_path / "count", counter)
        start = len(counter.sites)
        db.checkpoint()
        db.close()
        data_sync = start + counter.sites[start:].index("disk.fsync")

        datadir = tmp_path / "db"
        injector = FaultInjector.fail_fsync_at(data_sync)
        db = run(datadir, injector)
        try:
            records, wal_bytes = len(db.wal), db.wal.disk_size()
            with pytest.raises(SimulatedIOError):
                db.checkpoint()
            assert injector.fired == [(data_sync, "disk.fsync", FAIL_FSYNC)]
            assert len(db.wal) == records and db.wal.disk_size() == wal_bytes
            assert all(r.rec_type != REC_CHECKPOINT for r in db.wal.records())
            with pytest.raises(WalPanicError):
                _insert(db, 5)
            with pytest.raises(WalPanicError):
                db.checkpoint()
        finally:
            db.close()
        assert _recovered_ids(datadir) == list(range(5))


class TestInjector:
    def test_counts_ops_without_faults(self, tmp_path):
        injector = FaultInjector()
        with (tmp_path / "f").open("wb") as f:
            injector.write("site", f, b"abc")
            injector.fsync("site", f)
        assert injector.ops == 2
        assert injector.fired == []
        assert (tmp_path / "f").read_bytes() == b"abc"

    def test_torn_write_keeps_prefix(self, tmp_path):
        injector = FaultInjector.torn_write_at(0, keep_fraction=0.5)
        with (tmp_path / "f").open("wb") as f:
            with pytest.raises(SimulatedCrash):
                injector.write("site", f, b"abcdefgh")
        assert (tmp_path / "f").read_bytes() == b"abcd"
        assert injector.fired == [(0, "site", TORN_WRITE)]

    def test_fail_fsync_inert_on_writes(self, tmp_path):
        injector = FaultInjector(schedule={0: Fault(FAIL_FSYNC), 1: Fault(FAIL_FSYNC)})
        with (tmp_path / "f").open("wb") as f:
            injector.write("site", f, b"abc")  # inert: writes cannot "fail fsync"
            assert injector.fired == []
            with pytest.raises(SimulatedIOError):
                injector.fsync("site", f)
        assert (tmp_path / "f").read_bytes() == b"abc"
        assert injector.fired == [(1, "site", FAIL_FSYNC)]

    def test_invalid_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            Fault("power-loss")
        with pytest.raises(ValueError):
            Fault(TORN_WRITE, keep_fraction=1.0)
