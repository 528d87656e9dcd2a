"""Buffer manager: the page indirection behind the paper's RC#2.

Every tuple access in pgsim goes through this layer: look up the
``(relation, block)`` in the frame table, pin the frame, decode the
wanted tuple out of the page, unpin.  Faiss-style engines skip all of
this and dereference a pointer — the paper measures that difference as
the ``Tuple Access`` rows of Tables III/V and Fig. 8.

The implementation is a faithful miniature of PostgreSQL's shared
buffers: one page arena of fixed capacity (``capacity`` page slots in
one byte array, like PostgreSQL's ``BufferBlocks``), pin counts, usage
counters with clock-sweep eviction, dirty-page write-back with checksum
stamping, and hit/miss statistics.  A frame's page is a view of its
slot: a miss reads the block straight into a free slot, and eviction
hands the victim's slot to the next load.  Page bytes are therefore
valid only while the page is pinned — after the unpin the slot may
hold another block.  Batch readers pin a window of pages
(:meth:`BufferManager.pin_windows`) and gather from the arena in place.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.common.obs import (
    EV_BUFFER_READ,
    EV_DATA_FILE_READ,
    EV_LWLOCK_BUFFER_CLOCK,
    CounterDeltaMixin,
    WaitEventStats,
)
from repro.pgsim.constants import DEFAULT_BUFFER_POOL_PAGES, INVALID_BLOCK
from repro.pgsim.page import Page
from repro.pgsim.storage import DiskManager

#: Usage count ceiling, as in PostgreSQL's clock sweep.
MAX_USAGE_COUNT = 5


class BufferPoolExhaustedError(RuntimeError):
    """Raised when every frame is pinned and a new page is needed."""


class Frame:
    """One resident page: the arena slot holding its image, pins, usage."""

    __slots__ = ("rel", "blkno", "page", "slot", "pin_count", "dirty", "usage", "checked")

    def __init__(self, rel: str, blkno: int, page: Page, slot: int) -> None:
        self.rel = rel
        self.blkno = blkno
        self.page = page
        #: Index of the arena slot ``page.buf`` views.
        self.slot = slot
        self.pin_count = 0
        self.dirty = False
        self.usage = 1
        #: A page-format check's verdict on this image, ``(checker,
        #: result)``, kept until the image changes (PostgreSQL verifies a
        #: page once, at read-in): cleared on load, on :meth:`BufferManager.
        #: new_page` and on every dirty unpin.  See
        #: :meth:`repro.pase.layout.PageLayout.count`.
        self.checked: tuple[object, int] | None = None


@dataclass(slots=True)
class BufferStats(CounterDeltaMixin):
    """Access statistics (the reproduction's ``pg_stat_io``).

    Counters only ever increase; consumers that need a window take a
    ``snapshot()`` before and ``delta()`` after (see
    :class:`repro.common.obs.CounterDeltaMixin`) instead of resetting,
    so concurrent readers cannot double-count.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class BufferManager:
    """Fixed-capacity page cache with clock-sweep replacement."""

    def __init__(
        self,
        disk: DiskManager,
        capacity: int = DEFAULT_BUFFER_POOL_PAGES,
        wal=None,
        waits: WaitEventStats | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        #: Wait-event accumulator.  Only miss/eviction paths are timed
        #: (``DataFileRead``, ``BufferRead``, ``LWLockBufferClock``);
        #: the hit path stays untimed so the hot loop pays nothing.
        #: The database facade passes a shared instance so buffer and
        #: WAL waits land in one ``pg_stat_wait_events`` accumulator.
        self.waits = waits if waits is not None else WaitEventStats()
        #: Optional :class:`repro.pgsim.wal.WriteAheadLog`.  When set,
        #: eviction prefers pages whose changes are durable: a dirty
        #: page whose LSN is past the durable WAL horizon holds effects
        #: of an in-flight transaction, so it is written out only after
        #: a WAL flush covers its LSN, and then only when no other
        #: victim is left (see :meth:`_evict_one`).
        self.wal = wal
        self.stats = BufferStats()
        #: The page arena: ``capacity`` slots of ``page_size`` bytes, then
        #: one spare page of zeros, so a fixed-width record read at any
        #: tuple's start stays inside it.  Allocated at the first load,
        #: zero-filled on demand by the OS, so untouched slots cost no
        #: memory.
        self.arena = np.empty(0, dtype=np.uint8)
        self._arena_view: memoryview | None = None
        #: Slots no resident page holds, next one last.
        self._free: list[int] = list(range(capacity - 1, -1, -1))
        self._frames: dict[tuple[str, int], Frame] = {}
        self._clock_keys: list[tuple[str, int]] = []
        self._hand = 0
        #: Formatted empty page images by special-space size.
        self._blank: dict[int, bytes] = {}

    # ------------------------------------------------------------------
    # pin/unpin
    # ------------------------------------------------------------------
    def pin(self, rel: str, blkno: int) -> Frame:
        """Pin a page into the pool, reading from disk on a miss."""
        key = (rel, blkno)
        frame = self._frames.get(key)
        if frame is not None:
            self.stats.hits += 1
            frame.pin_count += 1
            if frame.usage < MAX_USAGE_COUNT:
                frame.usage += 1
            return frame
        miss_start = perf_counter()
        slot, evict_seconds = self._take_slot()
        self.stats.misses += 1
        read_start = perf_counter()
        page = Page(self._slot_view(slot))
        try:
            self.disk.read_block(rel, blkno, page.buf)
            read_seconds = perf_counter() - read_start
            self.waits.record(EV_DATA_FILE_READ, read_seconds)
            page.verify_checksum()
        except BaseException:
            self._free.append(slot)
            raise
        frame = self._install(rel, blkno, page, slot)
        # Remaining miss handling (checksum verify, frame install):
        # blocked time that a pointer dereference would not pay.
        self.waits.record(
            EV_BUFFER_READ, perf_counter() - miss_start - evict_seconds - read_seconds
        )
        return frame

    def unpin(self, frame: Frame, dirty: bool = False) -> None:
        """Release a pin, optionally marking the page dirty (which drops
        the frame's cached format verdict: the image may have changed)."""
        if frame.pin_count <= 0:
            raise RuntimeError(f"frame ({frame.rel}, {frame.blkno}) is not pinned")
        frame.pin_count -= 1
        if dirty:
            frame.dirty = True
            frame.checked = None

    @contextmanager
    def page(self, rel: str, blkno: int, dirty: bool = False) -> Iterator[Page]:
        """Scoped pin: ``with buffer.page(rel, blk) as page: ...``."""
        frame = self.pin(rel, blkno)
        try:
            yield frame.page
        finally:
            self.unpin(frame, dirty=dirty)

    def pin_windows(
        self,
        rel: str,
        blocks: Iterable[int],
        follow: Callable[[Page], int] | None = None,
    ) -> Iterator[list[Frame]]:
        """Pin ``blocks`` of ``rel`` in order, a window at a time, for
        readers that gather straight from :attr:`arena`.

        Each block is pinned once, through :meth:`pin`, as a pin/unpin
        loop over them would pin it.  A window grows until the pool has
        no frame left to give (a failed :meth:`pin` counts nothing), so a
        small pool answers in more windows; its frames stay
        pinned until the next pull (or until the generator is closed),
        and bytes read from their slots are valid only until then.
        With ``follow``, each of ``blocks`` heads a chain and
        ``follow(page)`` names each page's successor
        (:data:`~repro.pgsim.constants.INVALID_BLOCK` ends it).
        """
        pin, unpin = self.pin, self.unpin
        window: list[Frame] = []
        try:
            for blkno in blocks:
                while blkno != INVALID_BLOCK:
                    try:
                        frame = pin(rel, blkno)
                    except BufferPoolExhaustedError:
                        # Every other frame is pinned: finish this
                        # window, then retry.
                        if not window:
                            raise
                        yield window
                        window, done = [], window
                        for frame in done:
                            unpin(frame)
                        continue
                    window.append(frame)
                    blkno = INVALID_BLOCK if follow is None else follow(frame.page)
            if window:
                yield window
        finally:
            for frame in window:
                unpin(frame)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def new_page(self, rel: str, special_size: int = 0) -> tuple[int, Frame]:
        """Allocate a fresh formatted page at the end of ``rel``.

        Returns ``(blkno, pinned frame)``; the frame is already marked
        dirty and must be unpinned by the caller.
        """
        image = self._blank.get(special_size)
        if image is None:
            image = bytes(Page.init(self.disk.page_size, special_size=special_size).buf)
            self._blank[special_size] = image
        blkno = self.disk.extend(rel, image)
        slot, __ = self._take_slot()
        page = Page(self._slot_view(slot))
        page.buf[:] = image
        frame = self._install(rel, blkno, page, slot)
        frame.dirty = True
        return blkno, frame

    def _take_slot(self) -> tuple[int, float]:
        """A slot for a page about to be loaded — an unused one, else the
        clock-sweep victim's — and the seconds eviction took."""
        if len(self._frames) < self.capacity:
            if not len(self.arena):
                page_size = self.disk.page_size
                self.arena = np.zeros((self.capacity + 1) * page_size, dtype=np.uint8)
                self._arena_view = memoryview(self.arena)
            return self._free.pop(), 0.0
        evict_start = perf_counter()
        slot = self._evict_one()
        evict_seconds = perf_counter() - evict_start
        self.waits.record(EV_LWLOCK_BUFFER_CLOCK, evict_seconds)
        return slot, evict_seconds

    def _slot_view(self, slot: int) -> memoryview:
        page_size = self.disk.page_size
        return self._arena_view[slot * page_size : (slot + 1) * page_size]

    def _install(self, rel: str, blkno: int, page: Page, slot: int) -> Frame:
        """Enter a loaded page into the frame table, pinned once."""
        key = (rel, blkno)
        frame = Frame(rel, blkno, page, slot)
        frame.pin_count = 1
        self._frames[key] = frame
        self._clock_keys.append(key)
        return frame

    # ------------------------------------------------------------------
    # write-back
    # ------------------------------------------------------------------
    def flush_frame(self, frame: Frame) -> None:
        """Write one dirty frame back to disk (checksum stamped)."""
        if not frame.dirty:
            return
        frame.page.update_checksum()
        self.disk.write_block(frame.rel, frame.blkno, frame.page.buf)
        frame.dirty = False
        self.stats.dirty_writebacks += 1

    def flush_all(self) -> None:
        """Write back every dirty frame (checkpoint)."""
        for frame in self._frames.values():
            self.flush_frame(frame)

    def drop_relation(self, rel: str) -> None:
        """Invalidate all cached frames of a dropped relation."""
        keys = [k for k in self._frames if k[0] == rel]
        for key in keys:
            frame = self._frames[key]
            if frame.pin_count:
                raise RuntimeError(f"cannot drop {rel!r}: block {key[1]} is pinned")
            del self._frames[key]
            self._free.append(frame.slot)
        self._clock_keys = [k for k in self._clock_keys if k[0] != rel]
        self._hand = 0

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------
    def _evict_one(self) -> int:
        """Clock sweep: find an unpinned frame with zero usage, evict it;
        returns its slot.

        A sweep that finds no victim only because every unpinned frame
        holds changes past the durable WAL horizon flushes the WAL once
        (WAL before data, as PostgreSQL's ``FlushBuffer`` does) and
        sweeps again: those frames may then be written out, and crash
        recovery purges a loser's tuples from the pages it wrote.  Only
        a pool whose every frame is pinned is exhausted.
        """
        if not self._clock_keys:
            raise BufferPoolExhaustedError("buffer pool is empty but full?")
        slot = self._sweep()
        if (
            slot is None
            and self.wal is not None
            and any(frame.pin_count == 0 for frame in self._frames.values())
        ):
            self.wal.flush()
            slot = self._sweep()
        if slot is None:
            raise BufferPoolExhaustedError(
                f"all {len(self._clock_keys)} buffer frames are pinned "
                "(statement working set exceeds the pool)"
            )
        return slot

    def _sweep(self) -> int | None:
        """One clock sweep for a victim under the no-steal rule; its
        slot, or None when every frame is pinned or holds uncommitted
        changes."""
        sweeps = 0
        # Worst case each unpinned frame needs MAX_USAGE_COUNT
        # decrements before it becomes a victim.
        max_sweeps = (MAX_USAGE_COUNT + 1) * len(self._clock_keys) + 1
        while sweeps < max_sweeps:
            if self._hand >= len(self._clock_keys):
                self._hand = 0
            key = self._clock_keys[self._hand]
            frame = self._frames[key]
            if frame.pin_count == 0 and not self._holds_uncommitted(frame):
                if frame.usage > 0:
                    frame.usage -= 1
                else:
                    self.flush_frame(frame)
                    del self._frames[key]
                    # Swap-remove to keep the ring compact.  The frame
                    # swapped in from the tail must not be inspected at
                    # this hand position next sweep — that would give it
                    # an out-of-turn usage decrement and starve the
                    # frames between the hand and the tail — so the hand
                    # advances past it.
                    last = self._clock_keys.pop()
                    if last != key:
                        self._clock_keys[self._hand] = last
                        self._hand += 1
                    self.stats.evictions += 1
                    return frame.slot
            self._hand += 1
            sweeps += 1
        return None

    def _holds_uncommitted(self, frame: Frame) -> bool:
        """No-steal check (see ``wal`` in :meth:`__init__`).

        pgsim flushes the WAL at commit boundaries (and when a sweep
        finds nothing else to evict), so a page LSN past the durable
        horizon means an in-flight transaction touched this page since
        the last flush.
        """
        return frame.dirty and self.wal is not None and frame.page.lsn > self.wal.flushed_lsn

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def cached_pages(self) -> int:
        """Number of pages currently resident."""
        return len(self._frames)

    def pinned_pages(self) -> int:
        """Number of frames with a positive pin count (leak detector)."""
        return sum(1 for f in self._frames.values() if f.pin_count > 0)
