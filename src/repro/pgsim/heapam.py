"""Heap access method: row storage over slotted pages.

A :class:`HeapTable` stores rows of a fixed schema in a page file,
addressed by :class:`TID` (block number, offset number) — the same
ctid addressing PostgreSQL uses and the one PASE's
``HNSWGlobalId``/TID machinery builds on.

All access goes through the buffer manager, so every fetch pays the
page-indirection toll the paper identifies as RC#2.

Visibility: every read path takes an optional
:class:`~repro.pgsim.xact.Snapshot` and evaluates the
``HeapTupleSatisfiesMVCC`` predicate (:func:`repro.pgsim.xact.tuple_visible`)
against the tuple's ``xmin``/``xmax``.  Without a snapshot the check is
latest-committed; without a transaction manager (``xact=None``,
standalone heaps in tests) it degrades to the historical
``xmax != 0`` dead test.

Two kinds of sequential scan: :meth:`HeapTable.scan` (and whole-row
:meth:`HeapTable.scan_batches`, its page-batched sibling) decodes and
judges one tuple at a time, the paper's RC#3 configuration; a projected
``scan_batches(columns=...)`` reads a chunk of pages at a time,
column-wise, judging visibility for the whole chunk with
:func:`repro.pgsim.xact.visible_mask`.  Both pin every page once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Collection, Iterator, Sequence

import numpy as np

from repro.pgsim.buffer import BufferManager
from repro.pgsim.page import (
    PageCorruptError,
    PageFullError,
    gather_records,
    item_arrays,
    live_item_arrays,
)
from repro.pgsim.stats import HeapAccessStats
from repro.pgsim.tuple_format import (
    HEADER_DTYPE,
    MASK_HAS_NULLS,
    Column,
    Schema,
    TupleReader,
    decode_column,
    decode_tuple,
    encode_tuple,
    prefix_dtype,
    set_tuple_xmax,
    tuple_header,
    tuple_reader,
    tuple_xmax,
)
from repro.pgsim.wal import WriteAheadLog
from repro.pgsim.xact import (
    SerializationError,
    Snapshot,
    TransactionManager,
    commit_state,
    tuple_visible,
    visible_mask,
)

#: Heap pages a projected :meth:`HeapTable.scan_batches` copies per
#: chunk (VACUUM and the tuple count at open read the same chunks).  A chunk
#: costs ~80 us of NumPy calls whatever its size.  Measured on a 2-core
#: Xeon, a one-INT4-column scan of 50 000 128-d rows (3 334 pages) takes
#: 270-285 ms at 1 page per chunk, 45-55 ms at 8, 20-23 ms at 32 and
#: 17-20 ms at 64, and no less at 128 or 256; 64 pages hold 512 KB of
#: page copies.
CHUNK_PAGES = 64

#: Fewest keys a by-key :meth:`HeapTable.fetch_many` reads column-wise;
#: smaller calls walk tuple by tuple.  The column-wise read costs ~120 us
#: of NumPy calls before its first key, then ~0.8 us per distinct block
#: (its pin and unpin: the tuples are gathered from the pinned slots, no
#: page is copied).  Measured on a 2-core Xeon over a 20 000-row 128-d
#: table (best of 60 calls), it beats the walk from 48-64 keys whether
#: they share 8 blocks or each has a block of its own.  HNSW masks a few
#: keys per hop, the IVF AMs hundreds per widening round.
KEYED_READ_MIN = 64


@dataclass(frozen=True, slots=True, order=True)
class TID:
    """Tuple identifier: (block number, 1-based offset number)."""

    blkno: int
    offset: int

    def __repr__(self) -> str:
        return f"({self.blkno},{self.offset})"


def tid_key(tid: TID) -> int:
    """``tid`` packed into one int, ``(blkno << 16) | offset``: how the
    index AMs hold heap addresses, and what a by-key read takes."""
    return (tid.blkno << 16) | tid.offset


def key_tid(key: int) -> TID:
    """The TID a :func:`tid_key` key packs."""
    return TID(key >> 16, key & 0xFFFF)


@dataclass(slots=True)
class HeapChunk:
    """The visible rows of a run of heap pages, column by column: one
    pull of a projected :meth:`HeapTable.scan_batches`.  Row ``i`` is the tuple at
    ``(blknos[i], offsets[i])``; rows run in block, then offset order."""

    schema: list[Column]
    #: The chunk's pages, copied under their pins (plus spare bytes).
    data: np.ndarray
    blknos: np.ndarray
    offsets: np.ndarray
    #: Each row's tuple as a byte range of ``data``.
    starts: np.ndarray
    lengths: np.ndarray
    #: Attribute number -> the projected column's value for every row:
    #: an int64 / float64 array, or a list when it holds a NULL or is
    #: variable-width.
    columns: dict[int, np.ndarray | list[Any]]

    def __len__(self) -> int:
        return len(self.blknos)

    def values(self, attno: int) -> list[Any]:
        """Projected column ``attno`` as Python values, NULLs as None."""
        column = self.columns[attno]
        return column.tolist() if isinstance(column, np.ndarray) else column

    def tids(self, rows: np.ndarray | None = None) -> list[TID]:
        """TIDs of ``rows`` (positions; every row when None)."""
        blknos, offsets = self.blknos, self.offsets
        if rows is not None:
            blknos, offsets = blknos[rows], offsets[rows]
        return list(map(TID, blknos.tolist(), offsets.tolist()))

    def decode(self, rows: np.ndarray) -> list[list[Any]]:
        """Whole rows at positions ``rows``, decoded from the page copies
        (no further buffer access)."""
        view = memoryview(self.data)
        return [
            decode_tuple(self.schema, view[start : start + length])
            for start, length in zip(self.starts[rows].tolist(), self.lengths[rows].tolist())
        ]


def _merge_windows(
    n_keys: int,
    parts: list[tuple[np.ndarray | None, np.ndarray, np.ndarray, dict]],
    wanted: frozenset[int],
) -> tuple[np.ndarray, dict[int, np.ndarray | list[Any]]]:
    """One by-key read's ``(visible, columns)`` from its windows' parts,
    each ``(positions of its keys, their verdicts, the visible ones
    among them, those keys' columns)``, back in key order."""
    visible = np.zeros(n_keys, dtype=bool)
    for at, judged, __, __ in parts:
        visible[at] = judged
    order = np.argsort(np.concatenate([at[keep] for at, __, keep, __ in parts]), kind="stable")
    columns: dict[int, np.ndarray | list[Any]] = {}
    for i in wanted:
        pieces = [part[3][i] for part in parts]
        if all(isinstance(piece, np.ndarray) for piece in pieces):
            columns[i] = np.concatenate(pieces)[order]
        else:
            merged = [v for piece in pieces for v in (
                piece.tolist() if isinstance(piece, np.ndarray) else piece
            )]
            columns[i] = [merged[j] for j in order.tolist()]
    return visible, columns


class HeapTable:
    """Rows of one table, stored in a dedicated page file."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        buffer: BufferManager,
        wal: WriteAheadLog | None = None,
        stats: "HeapAccessStats | None" = None,
        xact: TransactionManager | None = None,
    ) -> None:
        self.name = name
        self.schema = list(schema)
        self.buffer = buffer
        self.wal = wal
        if stats is None:
            stats = HeapAccessStats()
        #: Tuple-traffic counters; the executor passes one shared
        #: instance per database so statement deltas cover every
        #: relation (see :class:`repro.pgsim.stats.HeapAccessStats`).
        self.stats = stats
        #: Commit-state oracle for visibility checks; ``None`` for
        #: standalone heaps (every xid then counts as committed).
        self.xact = xact
        self.relation = f"{name}.heap"
        if not buffer.disk.relation_exists(self.relation):
            buffer.disk.create_relation(self.relation)
        self.tuple_count = 0
        #: Tuples deleted (or insert-aborted) since the last vacuum;
        #: feeds ``pg_stat_user_tables.n_dead_tup`` and the planner's
        #: stale-``reltuples`` discount (see ``analyze.table_shape``).
        self.n_dead_tup = 0
        #: Per-relation maintenance counters for ``pg_stat_user_tables``.
        self.n_tup_upd = 0
        self.vacuum_count = 0
        self.autovacuum_count = 0
        #: free-space hint: last block known to have room (mini-FSM).
        self._insert_block: int | None = None
        #: Tuple decoders by projection (None: whole rows), see :meth:`_reader`.
        self._readers: dict[frozenset[int] | None, TupleReader] = {}
        #: Fixed-offset prefix records by projection, see :meth:`_prefix`.
        self._prefixes: dict[frozenset[int], np.dtype | None] = {}
        self._bootstrap_count()

    def _bootstrap_count(self) -> None:
        """Recount tuples after opening an existing relation.

        Recovery purges loser transactions from the pages (see
        :func:`repro.pgsim.wal.replay`), so every surviving xid is
        committed: live is simply ``xmax == 0``.
        """
        count = 0
        dead = 0
        for __, pages, data in self._page_chunks(0):
            __, __, starts, __ = live_item_arrays(pages)
            deleted = int(np.count_nonzero(gather_records(data, starts, HEADER_DTYPE)["xmax"]))
            count += len(starts) - deleted
            dead += deleted
        self.tuple_count = count
        self.n_dead_tup = dead
        n_blocks = self.n_blocks()
        if n_blocks:
            self._insert_block = n_blocks - 1

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def insert(self, values: Sequence[Any], xid: int) -> TID:
        """Insert one row stamped ``xmin = xid``; returns its TID.

        ``tuple_count`` advances optimistically; if ``xid`` later
        aborts, :meth:`TransactionManager.abort` reverses it.
        """
        data = encode_tuple(self.schema, values, xmin=xid)
        max_item = self.buffer.disk.page_size - 28  # header + one pointer
        if len(data) > max_item:
            raise ValueError(
                f"tuple of {len(data)} bytes does not fit a "
                f"{self.buffer.disk.page_size}-byte page; pgsim does not "
                "implement TOAST"
            )
        blkno, offset = self._place(data, xid)
        self.tuple_count += 1
        self.stats.tuples_inserted += 1
        self._note_insert(xid)
        return TID(blkno, offset)

    def _note_insert(self, xid: int) -> None:
        if self.xact is not None:
            self.xact.note_insert(xid, self)

    def _note_delete(self, xid: int) -> None:
        if self.xact is not None:
            self.xact.note_delete(xid, self)

    def _place(self, data: bytes, xid: int) -> tuple[int, int]:
        if self._insert_block is not None:
            frame = self.buffer.pin(self.relation, self._insert_block)
            try:
                offset = frame.page.insert_item(data)
            except PageFullError:
                self.buffer.unpin(frame)
            else:
                try:
                    self._log_insert(xid, self._insert_block, data, frame.page)
                except BaseException:
                    # A tuple the WAL never heard of must not stay in
                    # the page: it would be a committed-looking phantom
                    # to every later in-process read.
                    frame.page.delete_item(offset)
                    self.buffer.unpin(frame)
                    raise
                self.buffer.unpin(frame, dirty=True)
                return self._insert_block, offset
        blkno, frame = self.buffer.new_page(self.relation)
        try:
            offset = frame.page.insert_item(data)
            try:
                self._log_insert(xid, blkno, data, frame.page)
            except BaseException:
                frame.page.delete_item(offset)
                raise
        finally:
            self.buffer.unpin(frame, dirty=True)
        self._insert_block = blkno
        return blkno, offset

    def _log_insert(self, xid: int, blkno: int, data: bytes, page) -> None:
        if self.wal is None:
            return
        # Full-page write on the first post-checkpoint touch; the image
        # stands in for the incremental record (see WAL docs).
        if self.wal.ensure_page_image(xid, self.relation, blkno, page) is None:
            page.lsn = self.wal.log_insert(xid, self.relation, blkno, data)

    def delete(self, tid: TID, xid: int) -> None:
        """Mark a row deleted (sets its xmax; space reclaimed by vacuum).

        Raises:
            KeyError: if the tuple is already deleted (by this
                transaction, or — without a transaction manager — by
                anyone).
            SerializationError: write-write conflict — another
                transaction's delete of this tuple is in progress or
                already committed (snapshot isolation's no-wait rule).
        """
        frame = self.buffer.pin(self.relation, tid.blkno)
        try:
            view = frame.page.get_item_view(tid.offset)
            old_xmax = tuple_xmax(view)
            if old_xmax != 0:
                if self.xact is None or old_xmax == xid:
                    raise KeyError(f"tuple {tid} is already deleted")
                if self.xact.is_in_progress(old_xmax) or self.xact.is_committed(old_xmax):
                    raise SerializationError()
                # The previous deleter aborted: its xmax is dead weight
                # and we may overwrite it with ours.
            off, length = frame.page._pointer(tid.offset)
            set_tuple_xmax(_writable(frame.page.buf, off, length), xid)
            if self.wal is not None:
                try:
                    if self.wal.ensure_page_image(xid, self.relation, tid.blkno, frame.page) is None:
                        frame.page.lsn = self.wal.log_delete(
                            xid, self.relation, tid.blkno, tid.offset
                        )
                except BaseException:
                    # Un-delete: a removal the WAL never recorded must
                    # not take effect (mirror of the insert undo).
                    set_tuple_xmax(_writable(frame.page.buf, off, length), old_xmax)
                    raise
        finally:
            self.buffer.unpin(frame, dirty=True)
        self.tuple_count -= 1
        self.n_dead_tup += 1
        self.stats.tuples_deleted += 1
        self._note_delete(xid)

    def update(self, tid: TID, values: Sequence[Any], xid: int) -> TID:
        """MVCC update: delete + insert as one operation; returns the new TID.

        The old version's ``xmax`` is stamped with ``xid`` (same
        first-updater-wins conflict rules as :meth:`delete`) and the
        new version is inserted with ``xmin = xid``.  When the new
        tuple fits on the old version's page, both halves are covered
        by a single :data:`~repro.pgsim.wal.REC_UPDATE` record; a full
        page falls back to separate delete + insert records.

        Raises:
            KeyError: if the tuple is already deleted by this
                transaction (or by anyone, without a manager).
            SerializationError: write-write conflict with another
                in-progress or committed updater/deleter.
        """
        data = encode_tuple(self.schema, values, xmin=xid)
        max_item = self.buffer.disk.page_size - 28
        if len(data) > max_item:
            raise ValueError(
                f"tuple of {len(data)} bytes does not fit a "
                f"{self.buffer.disk.page_size}-byte page; pgsim does not "
                "implement TOAST"
            )
        new_offset: int | None = None
        frame = self.buffer.pin(self.relation, tid.blkno)
        try:
            view = frame.page.get_item_view(tid.offset)
            old_xmax = tuple_xmax(view)
            if old_xmax != 0:
                if self.xact is None or old_xmax == xid:
                    raise KeyError(f"tuple {tid} is already deleted")
                if self.xact.is_in_progress(old_xmax) or self.xact.is_committed(old_xmax):
                    raise SerializationError()
                # Previous deleter aborted: overwrite its xmax stamp.
            off, length = frame.page._pointer(tid.offset)
            set_tuple_xmax(_writable(frame.page.buf, off, length), xid)
            try:
                new_offset = frame.page.insert_item(data)
            except PageFullError:
                new_offset = None
            if self.wal is not None:
                try:
                    if self.wal.ensure_page_image(xid, self.relation, tid.blkno, frame.page) is None:
                        if new_offset is not None:
                            frame.page.lsn = self.wal.log_update(
                                xid, self.relation, tid.blkno, tid.offset, data
                            )
                        else:
                            frame.page.lsn = self.wal.log_delete(
                                xid, self.relation, tid.blkno, tid.offset
                            )
                except BaseException:
                    # Unwind both halves: the WAL never heard of them.
                    if new_offset is not None:
                        frame.page.delete_item(new_offset)
                    set_tuple_xmax(_writable(frame.page.buf, off, length), old_xmax)
                    raise
        finally:
            self.buffer.unpin(frame, dirty=True)
        if new_offset is not None:
            new_tid = TID(tid.blkno, new_offset)
        else:
            # Old page is full: place the new version elsewhere (logs
            # its own insert record).
            blkno, offset = self._place(data, xid)
            new_tid = TID(blkno, offset)
        # Counter effects mirror delete + insert, so abort undo (which
        # reverses per-heap insert/delete tallies) balances exactly.
        self.n_dead_tup += 1
        self.n_tup_upd += 1
        self.stats.tuples_updated += 1
        self._note_insert(xid)
        self._note_delete(xid)
        return new_tid

    def vacuum(
        self, horizon: int | None = None, dead_tids: list[TID] | None = None
    ) -> int:
        """Physically remove dead rows; returns tuples reclaimed.

        Dead line pointers stay (TIDs of live tuples are stable);
        tuple space is compacted per page.  With a transaction manager
        attached, a tuple is reclaimable when its inserter aborted or
        its deleter committed below ``horizon`` (no open snapshot can
        still see it — pass :meth:`TransactionManager.safe_horizon`);
        leftover xmax stamps from *aborted* deleters are cleared so the
        rows stop paying the clog lookup.  Without a manager every
        ``xmax != 0`` tuple is reclaimed, as before.

        When ``dead_tids`` is given, every reclaimed tuple's TID is
        appended to it — the executor forwards the list to each index
        AM's :meth:`~repro.pgsim.am.IndexAmRoutine.ambulkdelete`.

        The pages are read as a projected :meth:`scan_batches` reads them, a chunk at
        a time, and every tuple of a chunk is judged from its ``xmin`` /
        ``xmax`` arrays at once; only a page with a tuple to reclaim or
        unstamp is pinned a second time, to change it.
        """
        reclaimed = 0
        unstamped = 0
        for first, pages, data in self._page_chunks(0):
            page_idx, items, starts, __ = live_item_arrays(pages)
            headers = gather_records(data, starts, HEADER_DTYPE)
            dead, cleared = self._vacuum_verdicts(headers, horizon)
            changes: dict[int, tuple[list[int], list[int]]] = {}
            judged = np.flatnonzero(dead | cleared)
            for p, item, is_dead in zip(
                page_idx[judged].tolist(), items[judged].tolist(), dead[judged].tolist()
            ):
                changes.setdefault(first + p, ([], []))[0 if is_dead else 1].append(item + 1)
            for blkno, (dead_offsets, cleared_offsets) in changes.items():
                self._vacuum_page(blkno, dead_offsets, cleared_offsets, dead_tids)
                reclaimed += len(dead_offsets)
                unstamped += len(cleared_offsets)
        self.n_dead_tup = max(0, self.n_dead_tup - reclaimed)
        self.vacuum_count += 1
        if reclaimed or unstamped:
            self._insert_block = None  # hint invalidated
        return reclaimed

    def _vacuum_verdicts(
        self, headers: np.ndarray, horizon: int | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Masks over tuple ``headers`` of those VACUUM reclaims and of
        those whose aborted deleter's stamp it clears (see :meth:`vacuum`)."""
        xmin = headers["xmin"].astype(np.int64)
        xmax = headers["xmax"].astype(np.int64)
        deleted = xmax != 0
        if self.xact is None:
            return deleted, np.zeros_like(deleted)
        aborted, committed = commit_state(self.xact, np.concatenate([xmin, xmax]))
        n = len(xmin)
        aborted_insert = aborted[:n]  # never visible again
        deleted &= ~aborted_insert
        cleared = deleted & aborted[n:]  # aborted delete: the row lives
        expired = deleted & committed[n:]
        if horizon is not None:
            expired &= xmax < horizon
        # A deleter in progress (or above the horizon) keeps its tuple:
        # some snapshot may still need it.
        return aborted_insert | expired, cleared

    def _vacuum_page(
        self,
        blkno: int,
        dead: list[int],
        cleared: list[int],
        dead_tids: list[TID] | None,
    ) -> None:
        """Reclaim the ``dead`` and unstamp the ``cleared`` offset numbers
        of one page, then compact it."""
        frame = self.buffer.pin(self.relation, blkno)
        try:
            page = frame.page
            for off in cleared:
                p_off, length = page._pointer(off)
                set_tuple_xmax(_writable(page.buf, p_off, length), 0)
            for off in dead:
                page.delete_item(off)
            if dead_tids is not None:
                dead_tids.extend(TID(blkno, off) for off in dead)
            if dead:
                page.defragment()
        finally:
            self.buffer.unpin(frame, dirty=True)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def _visible(self, view, snapshot: Snapshot | None) -> bool:
        xmin, xmax = tuple_header(view)
        return tuple_visible(self.xact, snapshot, xmin, xmax)

    def fetch(self, tid: TID, snapshot: Snapshot | None = None) -> list[Any]:
        """Fetch one row by TID.

        Raises:
            KeyError: if the tuple is dead, deleted, or invisible to
                ``snapshot``.
        """
        with self.buffer.page(self.relation, tid.blkno) as page:
            view = page.get_item_view(tid.offset)
            if not self._visible(view, snapshot):
                raise KeyError(f"tuple {tid} is deleted")
            self.stats.tuples_fetched += 1
            return decode_tuple(self.schema, view)

    def fetch_column(
        self, tid: TID, column_index: int, snapshot: Snapshot | None = None
    ) -> Any:
        """Fetch a single column of one row (PASE's hot path)."""
        with self.buffer.page(self.relation, tid.blkno) as page:
            view = page.get_item_view(tid.offset)
            if not self._visible(view, snapshot):
                raise KeyError(f"tuple {tid} is deleted")
            self.stats.tuples_fetched += 1
            return decode_column(self.schema, view, column_index)

    def _reader(self, columns: Collection[int] | None) -> TupleReader:
        """Tuple decoder for the whole row or — with ``columns`` — a
        projection (see :func:`~repro.pgsim.tuple_format.tuple_reader`).
        Built once per projection: the schema never changes, so the fixed
        offsets it precomputes (PostgreSQL's ``attcacheoff``) hold for
        every read of the table."""
        key = None if columns is None else frozenset(columns)
        reader = self._readers.get(key)
        if reader is None:
            reader = self._readers[key] = tuple_reader(self.schema, key)
        return reader

    def _prefix(self, wanted: frozenset[int]) -> np.dtype | None:
        """:func:`~repro.pgsim.tuple_format.prefix_dtype` of a
        projection, built once per projection as :meth:`_reader` is."""
        if wanted not in self._prefixes:
            self._prefixes[wanted] = prefix_dtype(self.schema, wanted)
        return self._prefixes[wanted]

    def fetch_many(
        self,
        tids: Sequence[TID] | np.ndarray,
        snapshot: Snapshot | None = None,
        columns: Collection[int] | None = None,
    ) -> list[list[Any] | None] | tuple[np.ndarray, dict[int, np.ndarray | list[Any]]]:
        """Fetch many rows by TID with one buffer pin per heap block.

        Results align with ``tids``; deleted or snapshot-invisible
        tuples come back as ``None`` (the batched analogue of
        :meth:`fetch` raising ``KeyError``), so index scans can skip
        dead entries without a per-tuple exception round trip.  With
        ``columns`` only those attributes are decoded (see
        :meth:`_reader`); the others are None.

        ``tids`` may instead be an int64 array of packed keys
        (:func:`tid_key`) — the index AMs' own form — for a
        projected read by key (``columns=None``: every attribute):
        ``(visible, columns)``, a bool array aligned with the keys and
        attribute number -> that attribute of every visible key, in key
        order, as :attr:`HeapChunk.columns` holds it.  See
        :meth:`_fetch_keys`.
        """
        if isinstance(tids, np.ndarray):
            return self._fetch_keys(tids, snapshot, columns)
        return self._fetch_at(list(map(tid_key, tids)), snapshot, columns)

    def _fetch_at(
        self, keys: list[int], snapshot: Snapshot | None, columns: Collection[int] | None
    ) -> list[list[Any] | None]:
        """:meth:`fetch_many`'s tuple-at-a-time reader over packed keys:
        blocks pinned in order of first appearance, each block's items
        read in turn through :meth:`_reader`."""
        read = self._reader(columns)
        visible = partial(tuple_visible, self.xact, snapshot)
        out: list[list[Any] | None] = [None] * len(keys)
        by_block: dict[int, list[int]] = {}
        for i, key in enumerate(keys):
            by_block.setdefault(key >> 16, []).append(i)
        stats = self.stats
        for blkno, positions in by_block.items():
            frame = self.buffer.pin(self.relation, blkno)
            try:
                page = frame.page
                for i in positions:
                    values = read(page.get_item_view(keys[i] & 0xFFFF), visible)
                    if values is not None:
                        out[i] = values
                        stats.tuples_fetched += 1
            finally:
                self.buffer.unpin(frame)
        return out

    def _fetch_keys(
        self, keys: np.ndarray, snapshot: Snapshot | None, columns: Collection[int] | None
    ) -> tuple[np.ndarray, dict[int, np.ndarray | list[Any]]]:
        """:meth:`fetch_many` by packed key, projected.

        Each distinct block is pinned once, in order of first
        appearance, a window of them at a time
        (:meth:`~repro.pgsim.buffer.BufferManager.pin_windows`).  Then,
        for all keys of a window at once, straight from the buffer
        pool's arena while the window is pinned: one line-pointer range
        and dead-item check (:func:`~repro.pgsim.page.item_arrays`), one
        gather of each tuple's header and fixed-offset prefix, one
        visibility verdict (:func:`~repro.pgsim.xact.visible_mask`), and
        :meth:`_columns`' decode — the projected :meth:`scan_batches`
        over addressed tuples, without copying a page.  Below
        :data:`KEYED_READ_MIN` keys that fixed cost exceeds a walk, so
        :meth:`_fetch_at` reads them one by one.  Either way the errors,
        verdicts, values, pins and ``tuples_fetched`` are those of the
        TID form.
        """
        wanted = frozenset(range(len(self.schema)) if columns is None else columns)
        if len(keys) < max(KEYED_READ_MIN, 1):
            rows = self._fetch_at(keys.tolist(), snapshot, wanted)
            kept = [row for row in rows if row is not None]
            visible = np.array([row is not None for row in rows], dtype=bool)
            return visible, {i: [row[i] for row in kept] for i in wanted}
        prefix = self._prefix(wanted)
        record = HEADER_DTYPE if prefix is None else prefix
        blocks, first, block_of = np.unique(keys >> 16, return_index=True, return_inverse=True)
        pin_order = np.argsort(first, kind="stable")
        block_rank = np.empty_like(pin_order)
        block_rank[pin_order] = np.arange(len(pin_order))
        rank = block_rank[block_of]  # each key's block's place in pin order
        offsets = keys & 0xFFFF
        buffer = self.buffer
        parts: list[tuple[np.ndarray | None, np.ndarray, np.ndarray, dict]] = []
        done = 0
        for window in buffer.pin_windows(self.relation, blocks[pin_order].tolist()):
            slots = np.array([frame.slot for frame in window])
            if len(window) == len(blocks):
                at, in_rank = None, rank
                page_idx, key_offsets = slots[rank], offsets
            else:
                at = np.flatnonzero((rank >= done) & (rank < done + len(window)))
                in_rank = rank[at]
                page_idx, key_offsets = slots[in_rank - done], offsets[at]
            done += len(window)
            data = buffer.arena
            starts, lengths = item_arrays(
                data, buffer.disk.page_size, page_idx, key_offsets, in_rank
            )
            headers = gather_records(data, starts, record)
            visible = visible_mask(self.xact, snapshot, headers["xmin"], headers["xmax"])
            keep = np.flatnonzero(visible)
            parts.append((at, visible, keep, self._columns(
                data, headers[keep], starts[keep], lengths[keep], wanted, prefix
            )))
        self.stats.tuples_fetched += sum(len(keep) for __, __, keep, __ in parts)
        if len(parts) == 1 and parts[0][0] is None:
            return parts[0][1], parts[0][3]
        return _merge_windows(len(keys), parts, wanted)

    def fetch_column_many(
        self, tids: Sequence[TID], column_index: int, snapshot: Snapshot | None = None
    ) -> list[Any]:
        """Batched :meth:`fetch_column`, grouped by heap block.

        Raises:
            KeyError: if any addressed tuple is deleted or invisible
                (mirroring the single-tuple path's contract).
        """
        out: list[Any] = [None] * len(tids)
        by_block: dict[int, list[int]] = {}
        for i, tid in enumerate(tids):
            by_block.setdefault(tid.blkno, []).append(i)
        for blkno, positions in by_block.items():
            with self.buffer.page(self.relation, blkno) as page:
                for i in positions:
                    view = page.get_item_view(tids[i].offset)
                    if not self._visible(view, snapshot):
                        raise KeyError(f"tuple {tids[i]} is deleted")
                    out[i] = decode_column(self.schema, view, column_index)
                    self.stats.tuples_fetched += 1
        return out

    def fetch_column_any(self, tid: TID, column_index: int) -> Any:
        """Fetch one column of *any* tuple version, dead or alive.

        No MVCC check: a tombstoned tuple's payload is still intact
        until VACUUM physically removes it, and index AMs that keep
        only TIDs (pgvector) need the payload of every version their
        entries address — visibility is the executor's job.  Returns
        ``None`` when the slot was physically reclaimed (the entry lags
        a completed VACUUM).
        """
        with self.buffer.page(self.relation, tid.blkno) as page:
            try:
                view = page.get_item_view(tid.offset)
            except PageCorruptError:
                return None
            self.stats.tuples_fetched += 1
            return decode_column(self.schema, view, column_index)

    def fetch_column_many_any(
        self, tids: Sequence[TID], column_index: int
    ) -> list[Any]:
        """Batched :meth:`fetch_column_any`, one pin per heap block.

        Results align with ``tids``; physically reclaimed slots come
        back as ``None`` for the caller to filter.
        """
        out: list[Any] = [None] * len(tids)
        by_block: dict[int, list[int]] = {}
        for i, tid in enumerate(tids):
            by_block.setdefault(tid.blkno, []).append(i)
        for blkno, positions in by_block.items():
            with self.buffer.page(self.relation, blkno) as page:
                for i in positions:
                    try:
                        view = page.get_item_view(tids[i].offset)
                    except PageCorruptError:
                        continue
                    out[i] = decode_column(self.schema, view, column_index)
                    self.stats.tuples_fetched += 1
        return out

    def scan(self, snapshot: Snapshot | None = None) -> Iterator[tuple[TID, list[Any]]]:
        """Sequential scan over all rows visible under ``snapshot``."""
        for blkno in range(self.n_blocks()):
            with self.buffer.page(self.relation, blkno) as page:
                for off in page.live_items():
                    view = page.get_item_view(off)
                    if not self._visible(view, snapshot):
                        continue
                    self.stats.tuples_fetched += 1
                    yield TID(blkno, off), decode_tuple(self.schema, view)

    def scan_batches(
        self, snapshot: Snapshot | None = None, columns: Collection[int] | None = None
    ) -> Iterator[list[tuple[TID, list[Any]]]] | Iterator[HeapChunk]:
        """Sequential scan for the batch interface, one batch per pull.

        Without ``columns``: whole rows, one ``[(tid, row), ...]`` batch
        per heap page — what a batch Seq Scan pulls, so a Limit above
        stops the scan within a page.  Pages with no visible rows
        produce no batch.

        With ``columns`` (attribute numbers, possibly none): column-wise,
        one :class:`HeapChunk` of up to :data:`CHUNK_PAGES` pages per
        pull, with only ``columns`` decoded.  Each page is copied before
        its unpin; then, per chunk, one read of every line-pointer array,
        one gather of each live tuple's header and fixed-offset prefix
        (:func:`~repro.pgsim.tuple_format.prefix_dtype`) and one
        visibility verdict for all of them
        (:func:`~repro.pgsim.xact.visible_mask`).  Only tuples the prefix
        cannot speak for — with NULLs, a foreign attribute count, shorter
        than the prefix, or a variable-width attribute on the way — take
        the walking decoder.  Chunks without a visible row are not
        yielded.

        Either way every page is pinned once, in block order, and the
        rows, their order and ``tuples_fetched`` are those of :meth:`scan`.

        Raises:
            IndexError: on the first pull, for an attribute number
                outside the schema.
        """
        if columns is None:
            return self._page_rows(snapshot)
        return self._column_chunks(snapshot, columns)

    def _page_rows(self, snapshot: Snapshot | None) -> Iterator[list[tuple[TID, list[Any]]]]:
        """:meth:`scan_batches` of whole rows, a page at a time."""
        read = self._reader(None)
        visible = partial(tuple_visible, self.xact, snapshot)
        for blkno in range(self.n_blocks()):
            batch: list[tuple[TID, list[Any]]] = []
            frame = self.buffer.pin(self.relation, blkno)
            try:
                view = memoryview(frame.page.buf)
                for offno, off, length in frame.page.live_pointers():
                    values = read(view[off : off + length], visible)
                    if values is not None:
                        batch.append((TID(blkno, offno), values))
            finally:
                self.buffer.unpin(frame)
            if batch:
                self.stats.tuples_fetched += len(batch)
                yield batch

    def _column_chunks(
        self, snapshot: Snapshot | None, columns: Collection[int]
    ) -> Iterator[HeapChunk]:
        """:meth:`scan_batches` of ``columns``, a chunk at a time."""
        wanted = frozenset(columns)
        prefix = self._prefix(wanted)
        record = HEADER_DTYPE if prefix is None else prefix
        for first, pages, data in self._page_chunks(record.itemsize):
            page_idx, items, starts, lengths = live_item_arrays(pages)
            headers = gather_records(data, starts, record)
            visible = visible_mask(self.xact, snapshot, headers["xmin"], headers["xmax"])
            keep = np.flatnonzero(visible)
            if not len(keep):
                continue
            headers, starts, lengths = headers[keep], starts[keep], lengths[keep]
            chunk = HeapChunk(
                schema=self.schema,
                data=data,
                blknos=page_idx[keep] + first,
                offsets=items[keep] + 1,
                starts=starts,
                lengths=lengths,
                columns=self._columns(data, headers, starts, lengths, wanted, prefix),
            )
            self.stats.tuples_fetched += len(chunk)
            yield chunk

    def _columns(
        self,
        data: np.ndarray,
        headers: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        wanted: frozenset[int],
        prefix: np.dtype | None,
    ) -> dict[int, np.ndarray | list[Any]]:
        """:attr:`HeapChunk.columns`: ``wanted`` from the gathered
        prefix, the tuples it cannot speak for walked one by one."""
        natts = len(self.schema)
        if prefix is None:
            columns: dict[int, Any] = {i: [None] * len(starts) for i in wanted}
            slow = np.arange(len(starts))
        else:
            fast = (
                (headers["natts"] == natts)
                & ((headers["infomask"] & MASK_HAS_NULLS) == 0)
                & (lengths >= prefix.itemsize)
            )
            slow = np.flatnonzero(~fast)
            columns = {}
            for i in wanted:
                field = headers[f"a{i}"]
                columns[i] = field.astype(np.float64 if field.dtype.kind == "f" else np.int64)
        if not len(slow):
            return columns
        view = memoryview(data)
        walked = [
            decode_tuple(self.schema, view[start : start + length], wanted)
            for start, length in zip(starts[slow].tolist(), lengths[slow].tolist())
        ]
        for i in wanted:
            values = [row[i] for row in walked]
            column = columns[i]
            if isinstance(column, np.ndarray):
                if None not in values:
                    column[slow] = values
                    continue
                column = columns[i] = column.tolist()
            for j, value in zip(slow.tolist(), values):
                column[j] = value
        return columns

    def _page_chunks(self, pad: int) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """The heap's pages, :data:`CHUNK_PAGES` at a time, each pinned
        once and copied before its unpin: ``(first block, (pages, page
        size) byte matrix, the same bytes flat plus ``pad`` zero
        bytes)``.  The padding keeps a fixed-width record read at any
        tuple's start inside the copy.  Unlike the by-key read, which
        finishes with its pages while they are pinned, a chunk of
        :meth:`scan_batches` goes up to the executor, which holds it
        across the pulls of the operators above (and decodes whole rows
        from it later, :meth:`HeapChunk.decode`); pinning its pages that
        long could starve a small pool, so they are copied."""
        page_size = self.buffer.disk.page_size
        n_blocks = self.n_blocks()
        for first in range(0, n_blocks, CHUNK_PAGES):
            n_pages = min(CHUNK_PAGES, n_blocks - first)
            buf = bytearray(n_pages * page_size + pad)
            for i in range(n_pages):
                frame = self.buffer.pin(self.relation, first + i)
                try:
                    buf[i * page_size : (i + 1) * page_size] = frame.page.buf
                finally:
                    self.buffer.unpin(frame)
            data = np.frombuffer(buf, dtype=np.uint8)
            yield first, data[: n_pages * page_size].reshape(n_pages, page_size), data

    # ------------------------------------------------------------------
    # stats
    # ------------------------------------------------------------------
    def n_blocks(self) -> int:
        """Allocated page count."""
        return self.buffer.disk.n_blocks(self.relation)

    def column_index(self, name: str) -> int:
        """Position of a column by name.

        Raises:
            KeyError: for unknown column names.
        """
        for i, col in enumerate(self.schema):
            if col.name == name:
                return i
        raise KeyError(f"table {self.name!r} has no column {name!r}")


def _writable(buf: bytearray, off: int, length: int) -> memoryview:
    return memoryview(buf)[off : off + length]
