"""Tests for the disk manager and buffer manager (RC#2 substrate)."""

import struct

import numpy as np
import pytest

from repro.pgsim.buffer import BufferManager, BufferPoolExhaustedError
from repro.pgsim.constants import INVALID_BLOCK
from repro.pgsim.page import Page
from repro.pgsim.storage import FileDisk, MemoryDisk, RelationNotFoundError


@pytest.fixture()
def disk():
    d = MemoryDisk(page_size=1024)
    d.create_relation("r")
    return d


@pytest.fixture()
def buffer(disk):
    return BufferManager(disk, capacity=4)


def _blank_page(size=1024) -> bytes:
    return bytes(Page.init(size).buf)


class TestMemoryDisk:
    def test_extend_and_read(self, disk):
        blk = disk.extend("r", _blank_page())
        assert blk == 0
        assert disk.n_blocks("r") == 1
        assert len(disk.read_block("r", 0)) == 1024

    def test_write_block(self, disk):
        disk.extend("r", _blank_page())
        data = bytearray(_blank_page())
        data[100] = 7
        disk.write_block("r", 0, bytes(data))
        assert disk.read_block("r", 0)[100] == 7

    def test_out_of_range(self, disk):
        with pytest.raises(IndexError):
            disk.read_block("r", 0)
        with pytest.raises(IndexError):
            disk.write_block("r", 5, _blank_page())

    def test_wrong_page_size_rejected(self, disk):
        with pytest.raises(ValueError):
            disk.extend("r", b"tiny")

    def test_unknown_relation(self, disk):
        with pytest.raises(RelationNotFoundError):
            disk.read_block("nope", 0)

    def test_duplicate_relation(self, disk):
        with pytest.raises(ValueError):
            disk.create_relation("r")

    def test_drop(self, disk):
        disk.drop_relation("r")
        assert not disk.relation_exists("r")

    def test_relation_bytes(self, disk):
        disk.extend("r", _blank_page())
        disk.extend("r", _blank_page())
        assert disk.relation_bytes("r") == 2048

    def test_io_counters(self, disk):
        disk.extend("r", _blank_page())
        disk.read_block("r", 0)
        assert disk.reads == 1
        assert disk.writes == 1


class TestFileDisk:
    def test_roundtrip(self, tmp_path):
        disk = FileDisk(tmp_path, page_size=1024)
        disk.create_relation("t")
        blk = disk.extend("t", _blank_page())
        data = bytearray(_blank_page())
        data[50] = 9
        disk.write_block("t", blk, bytes(data))
        assert disk.read_block("t", blk)[50] == 9
        assert disk.list_relations() == ["t"]
        disk.close()

    def test_persists_across_instances(self, tmp_path):
        disk = FileDisk(tmp_path, page_size=1024)
        disk.create_relation("t")
        disk.extend("t", _blank_page())
        disk.close()
        fresh = FileDisk(tmp_path, page_size=1024)
        assert fresh.n_blocks("t") == 1
        fresh.close()

    def test_path_traversal_rejected(self, tmp_path):
        disk = FileDisk(tmp_path)
        with pytest.raises(ValueError):
            disk.create_relation("../evil")


class TestBufferManager:
    def test_miss_then_hit(self, buffer, disk):
        disk.extend("r", _blank_page())
        before = buffer.stats.snapshot()
        frame = buffer.pin("r", 0)
        buffer.unpin(frame)
        frame = buffer.pin("r", 0)
        buffer.unpin(frame)
        delta = buffer.stats.delta(before)
        assert delta.misses == 1
        assert delta.hits == 1
        assert buffer.stats.hit_ratio == 0.5

    def test_new_page_is_pinned_dirty(self, buffer):
        blkno, frame = buffer.new_page("r")
        assert blkno == 0
        assert frame.pin_count == 1
        assert frame.dirty
        buffer.unpin(frame)

    def test_dirty_writeback_on_eviction(self, buffer, disk):
        blkno, frame = buffer.new_page("r")
        frame.page.insert_item(b"persist-me")
        buffer.unpin(frame, dirty=True)
        # Fill the pool to force eviction of block 0.
        for __ in range(6):
            __, f = buffer.new_page("r")
            buffer.unpin(f)
        raw = disk.read_block("r", blkno)
        assert b"persist-me" in raw

    def test_eviction_respects_pins(self, buffer):
        frames = []
        for __ in range(4):
            __, f = buffer.new_page("r")
            frames.append(f)  # keep pinned
        with pytest.raises(BufferPoolExhaustedError):
            buffer.new_page("r")
        for f in frames:
            buffer.unpin(f)
        __, f = buffer.new_page("r")  # now succeeds
        buffer.unpin(f)

    def test_capacity_respected(self, buffer):
        before = buffer.stats.snapshot()
        for __ in range(16):
            __, f = buffer.new_page("r")
            buffer.unpin(f)
        assert buffer.cached_pages <= 4
        assert buffer.stats.delta(before).evictions >= 12

    def test_page_context_manager(self, buffer, disk):
        disk.extend("r", _blank_page())
        with buffer.page("r", 0) as page:
            assert page.item_count == 0
        assert buffer.pinned_pages() == 0

    def test_unpin_unpinned_rejected(self, buffer, disk):
        disk.extend("r", _blank_page())
        frame = buffer.pin("r", 0)
        buffer.unpin(frame)
        with pytest.raises(RuntimeError):
            buffer.unpin(frame)

    def test_flush_all(self, buffer, disk):
        __, frame = buffer.new_page("r")
        frame.page.insert_item(b"flushed")
        buffer.unpin(frame, dirty=True)
        buffer.flush_all()
        assert b"flushed" in disk.read_block("r", 0)

    def test_drop_relation_invalidates(self, buffer, disk):
        __, frame = buffer.new_page("r")
        buffer.unpin(frame)
        buffer.drop_relation("r")
        assert buffer.cached_pages == 0

    def test_drop_pinned_relation_rejected(self, buffer):
        __, frame = buffer.new_page("r")
        with pytest.raises(RuntimeError):
            buffer.drop_relation("r")
        buffer.unpin(frame)

    def test_checksum_verified_on_read(self, buffer, disk):
        blkno, frame = buffer.new_page("r")
        frame.page.insert_item(b"x")
        buffer.unpin(frame, dirty=True)
        buffer.flush_all()
        buffer.drop_relation("r")
        # Corrupt on disk, then re-read through the buffer manager.
        raw = bytearray(disk.read_block("r", blkno))
        raw[700] ^= 0x1
        disk._relations["r"][blkno] = bytes(raw)
        from repro.pgsim.page import PageCorruptError

        with pytest.raises(PageCorruptError):
            buffer.pin("r", blkno)

    def test_invalid_capacity(self, disk):
        with pytest.raises(ValueError):
            BufferManager(disk, capacity=0)


class TestClockSweepFairness:
    def test_swapped_in_frame_not_inspected_out_of_turn(self):
        """Regression: after a swap-remove eviction the clock hand must
        advance past the frame swapped in from the tail, or that frame
        gets an out-of-turn inspection and the ring order degrades."""
        disk = MemoryDisk(page_size=1024)
        disk.create_relation("r")
        for __ in range(5):
            disk.extend("r", _blank_page())
        buffer = BufferManager(disk, capacity=3)
        for blkno in range(3):
            buffer.unpin(buffer.pin("r", blkno))
        # Pool full, all usage counts 1.  Pinning block 3 sweeps a full
        # lap (decrementing every usage count) and evicts block 0; the
        # swap-remove moves block 2's key into the hand position.
        buffer.unpin(buffer.pin("r", 3))
        assert ("r", 0) not in buffer._frames
        # Next eviction must pick block 1 — the frame after the evicted
        # one in ring order — not block 2, which was merely swapped into
        # the hand slot.
        buffer.unpin(buffer.pin("r", 4))
        assert ("r", 2) in buffer._frames
        assert ("r", 1) not in buffer._frames
        assert buffer.stats.evictions == 2


def _chained_disk(n: int, chains: list[list[int]]) -> MemoryDisk:
    """``n`` blocks of relation ``r``, each with a 4-byte special space
    naming its successor in ``chains``."""
    disk = MemoryDisk(page_size=1024)
    disk.create_relation("r")
    successor = {blk: nxt for chain in chains for blk, nxt in zip(chain, chain[1:])}
    for blk in range(n):
        page = Page.init(1024, special_size=4)
        page.buf[-4:] = struct.pack("<I", successor.get(blk, INVALID_BLOCK))
        disk.extend("r", bytes(page.buf))
    return disk


def _next_block(page: Page) -> int:
    return struct.unpack_from("<I", page.buf, len(page.buf) - 4)[0]


def _pool_state(buffer) -> tuple:
    stats = buffer.stats
    frames = {key: (f.usage, f.pin_count, f.slot) for key, f in buffer._frames.items()}
    counts = (stats.hits, stats.misses, stats.evictions)
    return counts, frames, list(buffer._clock_keys), buffer._hand


class TestPinWindows:
    CHAINS = [[0, 1, 2], [3, 4], [5, 6, 7, 8, 9]]

    @pytest.mark.parametrize("capacity", [4, 16])
    @pytest.mark.parametrize("chained", [False, True])
    def test_each_page_is_pinned_once_in_read_order(self, capacity, chained):
        """The windows hold every page once, in read order (chains
        followed), each one hit or one miss, and nothing stays pinned —
        with every block resident, with some, and on a pool so small
        that the windows split and evict.  On a pool that holds them all
        the pool ends as a ``pin``/``unpin`` per page leaves it."""
        if chained:
            args, order = ([0, 3, 5], _next_block), [b for chain in self.CHAINS for b in chain]
        else:
            args, order = ([9, 0, 4, 5, 2, 8],), [9, 0, 4, 5, 2, 8]
        buffers = [
            BufferManager(_chained_disk(10, self.CHAINS), capacity=capacity) for __ in range(2)
        ]
        for buffer in buffers:
            for blkno in (2, 4, 7, 4, 4):  # a warm pool, usage counts apart
                buffer.unpin(buffer.pin("r", blkno))
        windowed, looped = buffers
        for __ in range(2):  # a cold-ish pass, then a warm one
            stats = windowed.stats
            accesses = stats.hits + stats.misses
            pulls = windowed.pin_windows("r", *args)
            windows = [[frame.blkno for frame in window] for window in pulls]
            assert [blkno for window in windows for blkno in window] == order
            assert stats.hits + stats.misses - accesses == len(order)
            assert windowed.pinned_pages() == 0
            assert len(windows) == (1 if capacity == 16 else -(-len(order) // capacity))
            for blkno in order:
                looped.unpin(looped.pin("r", blkno))
        if capacity == 16:
            assert _pool_state(windowed) == _pool_state(looped)

    def test_nothing_stays_pinned_when_a_reader_stops_early(self):
        buffer = BufferManager(_chained_disk(10, self.CHAINS), capacity=4)
        pulls = buffer.pin_windows("r", [0, 3, 5], _next_block)
        assert len(next(pulls)) == 4
        pulls.close()
        assert buffer.pinned_pages() == 0
        with pytest.raises(ValueError):
            for __ in buffer.pin_windows("r", range(10)):
                raise ValueError("consumer failed")
        assert buffer.pinned_pages() == 0
        for __ in buffer.pin_windows("r", range(10)):
            assert buffer.pinned_pages() > 0
        assert buffer.pinned_pages() == 0


class TestNoStealEviction:
    def test_uncommitted_dirty_page_survives_eviction_pressure(self):
        from repro.pgsim.wal import WriteAheadLog

        disk = MemoryDisk(page_size=1024)
        disk.create_relation("r")
        wal = WriteAheadLog()
        buffer = BufferManager(disk, capacity=2, wal=wal)
        b0, f0 = buffer.new_page("r")
        f0.page.lsn = wal.log_insert(1, "r", b0, b"x")  # in-flight statement
        buffer.unpin(f0, dirty=True)
        b1, f1 = buffer.new_page("r")
        buffer.unpin(f1, dirty=True)  # dirty but lsn 0: committed state
        disk.extend("r", _blank_page())
        buffer.unpin(buffer.pin("r", 2))
        # The uncommitted page was skipped; the other dirty frame went.
        assert ("r", b0) in buffer._frames
        assert ("r", b1) not in buffer._frames
        # Once the WAL is flushed (commit), the page becomes evictable:
        # with block 2 pinned, block 0 is the only candidate left.
        wal.log_commit(1)
        f2 = buffer.pin("r", 2)
        disk.extend("r", _blank_page())
        f3 = buffer.pin("r", 3)
        assert ("r", b0) not in buffer._frames
        buffer.unpin(f2)
        buffer.unpin(f3)

    def test_pool_of_uncommitted_pages_exhausts(self):
        """Uncommitted pages exhaust the pool only while they are pinned:
        with every frame pinned, the sweep neither flushes the WAL nor
        writes a page."""
        from repro.pgsim.wal import WriteAheadLog

        disk = MemoryDisk(page_size=1024)
        disk.create_relation("r")
        wal = WriteAheadLog()
        buffer = BufferManager(disk, capacity=2, wal=wal)
        for __ in range(2):
            blkno, frame = buffer.new_page("r")
            frame.page.lsn = wal.log_insert(1, "r", blkno, b"x")
        with pytest.raises(BufferPoolExhaustedError, match="pinned"):
            buffer.new_page("r")
        assert wal.flushed_lsn == 0
        assert buffer.stats.dirty_writebacks == 0

    def test_uncommitted_pages_are_written_after_one_wal_flush(self):
        """A sweep that finds only frames past the durable WAL horizon
        flushes the WAL once (WAL before data), then evicts one of them
        as any dirty frame: its image reaches the disk."""
        from repro.pgsim.wal import WriteAheadLog

        disk = MemoryDisk(page_size=1024)
        disk.create_relation("r")
        wal = WriteAheadLog()
        buffer = BufferManager(disk, capacity=2, wal=wal)
        lsns = []
        for __ in range(2):
            blkno, frame = buffer.new_page("r")
            frame.page.lsn = wal.log_insert(1, "r", blkno, b"x")
            lsns.append(frame.page.lsn)
            buffer.unpin(frame, dirty=True)
        blkno, frame = buffer.new_page("r")
        buffer.unpin(frame, dirty=True)
        assert wal.flushed_lsn == max(lsns)
        assert wal.stats.flushes == 1
        assert buffer.stats.evictions == buffer.stats.dirty_writebacks == 1
        (evicted,) = {0, 1} - {b for __, b in buffer._frames}
        assert Page(bytearray(disk.read_block("r", evicted))).lsn == lsns[evicted]


def _vec(rng, dim: int = 128) -> str:
    return ",".join(f"{x:.4f}" for x in rng.random(dim))


def _one_big_transaction(db, commit: bool = True) -> None:
    """``BEGIN``, 600 128-d INSERTs, ``COMMIT``: on a 16-frame pool the
    transaction dirties many more heap pages than the pool holds."""
    rng = np.random.default_rng(0)
    db.execute("BEGIN")
    for i in range(600):
        db.execute(f"INSERT INTO t VALUES ({i}, '{_vec(rng)}'::PASE)")
    if commit:
        db.execute("COMMIT")


class TestTransactionLargerThanThePool:
    @pytest.mark.parametrize("durable", [False, True], ids=["memory", "file"])
    def test_commits_and_every_row_is_visible(self, tmp_path, durable):
        from repro.pgsim import PgSimDatabase

        kwargs = {"data_dir": tmp_path / "db"} if durable else {}
        with PgSimDatabase(buffer_pool_pages=16, **kwargs) as db:
            db.execute("CREATE TABLE t (id int, vec float[])")
            _one_big_transaction(db)
            assert db.buffer.stats.dirty_writebacks > 0
            assert sorted(r[0] for r in db.query("SELECT id FROM t")) == list(range(600))
        if durable:
            with PgSimDatabase(data_dir=tmp_path / "db", buffer_pool_pages=16) as db:
                assert db.query("SELECT count(*) FROM t") == [(600,)]

    def test_crash_before_commit_leaves_none_of_its_rows(self, tmp_path):
        """Its uncommitted pages reached the disk before the crash;
        recovery purges every row of the loser."""
        from repro.pgsim import PgSimDatabase
        from repro.pgsim.faults import FaultInjector, SimulatedCrash

        def run(datadir, injector, commit):
            db = PgSimDatabase(data_dir=datadir, buffer_pool_pages=16, fault_injector=injector)
            try:
                db.execute("CREATE TABLE t (id int, vec float[])")
                db.execute(f"INSERT INTO t VALUES (-1, '{_vec(np.random.default_rng(1))}'::PASE)")
                _one_big_transaction(db, commit)
                return db.buffer.stats.dirty_writebacks
            finally:
                db.close()

        counter = FaultInjector()
        assert run(tmp_path / "count", counter, commit=False) > 0
        crash = FaultInjector.crash_at(counter.ops)  # COMMIT's first durable write
        with pytest.raises(SimulatedCrash):
            run(tmp_path / "crash", crash, commit=True)
        assert crash.fired
        with PgSimDatabase(data_dir=tmp_path / "crash", buffer_pool_pages=16) as db:
            assert db.query("SELECT id FROM t") == [(-1,)]