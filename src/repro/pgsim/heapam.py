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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Collection, Iterator, Sequence

from repro.pgsim.buffer import BufferManager
from repro.pgsim.page import PageCorruptError, PageFullError
from repro.pgsim.stats import HeapAccessStats
from repro.pgsim.tuple_format import (
    Schema,
    TupleReader,
    decode_column,
    decode_tuple,
    encode_tuple,
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
    tuple_visible,
)


@dataclass(frozen=True, slots=True, order=True)
class TID:
    """Tuple identifier: (block number, 1-based offset number)."""

    blkno: int
    offset: int

    def __repr__(self) -> str:
        return f"({self.blkno},{self.offset})"


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
        self._bootstrap_count()

    def _bootstrap_count(self) -> None:
        """Recount tuples after opening an existing relation.

        Recovery purges loser transactions from the pages (see
        :func:`repro.pgsim.wal.replay`), so every surviving xid is
        committed: live is simply ``xmax == 0``.
        """
        n_blocks = self.buffer.disk.n_blocks(self.relation)
        count = 0
        dead = 0
        for blkno in range(n_blocks):
            with self.buffer.page(self.relation, blkno) as page:
                for off in page.live_items():
                    if tuple_xmax(page.get_item_view(off)) == 0:
                        count += 1
                    else:
                        dead += 1
        self.tuple_count = count
        self.n_dead_tup = dead
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
        if self.xact is None:
            return
        txn = self.xact._txns.get(xid)
        if txn is not None:
            txn.note_insert(self)

    def _note_delete(self, xid: int) -> None:
        if self.xact is None:
            return
        txn = self.xact._txns.get(xid)
        if txn is not None:
            txn.note_delete(self)

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
        """
        reclaimed = 0
        unstamped = 0
        for blkno in range(self.n_blocks()):
            frame = self.buffer.pin(self.relation, blkno)
            try:
                page = frame.page
                dead = []
                cleared = []
                for off in page.live_items():
                    view = page.get_item_view(off)
                    xmin, xmax = tuple_header(view)
                    if self.xact is None:
                        if xmax != 0:
                            dead.append(off)
                        continue
                    if self.xact.is_aborted(xmin):
                        dead.append(off)  # aborted insert: never visible again
                    elif xmax != 0:
                        if self.xact.is_aborted(xmax):
                            cleared.append(off)  # aborted delete: row lives
                        elif self.xact.is_committed(xmax) and (
                            horizon is None or xmax < horizon
                        ):
                            dead.append(off)
                        # else: deleter in progress (or above the
                        # horizon) — some snapshot may still need it.
                for off in cleared:
                    p_off, length = page._pointer(off)
                    set_tuple_xmax(_writable(page.buf, p_off, length), 0)
                for off in dead:
                    page.delete_item(off)
                if dead_tids is not None:
                    dead_tids.extend(TID(blkno, off) for off in dead)
                if dead:
                    page.defragment()
                    reclaimed += len(dead)
                unstamped += len(cleared)
            finally:
                self.buffer.unpin(frame, dirty=bool(dead or cleared))
        self.n_dead_tup = max(0, self.n_dead_tup - reclaimed)
        self.vacuum_count += 1
        if reclaimed or unstamped:
            self._insert_block = None  # hint invalidated
        return reclaimed

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

    def fetch_many(
        self,
        tids: Sequence[TID],
        snapshot: Snapshot | None = None,
        columns: Collection[int] | None = None,
    ) -> list[list[Any] | None]:
        """Fetch many rows by TID with one buffer pin per heap block.

        Results align with ``tids``; deleted or snapshot-invisible
        tuples come back as ``None`` (the batched analogue of
        :meth:`fetch` raising ``KeyError``), so index scans can skip
        dead entries without a per-tuple exception round trip.  With
        ``columns`` only those attributes are decoded (see
        :meth:`_reader`); the others are None.
        """
        read = self._reader(columns)
        visible = partial(tuple_visible, self.xact, snapshot)
        out: list[list[Any] | None] = [None] * len(tids)
        by_block: dict[int, list[int]] = {}
        for i, tid in enumerate(tids):
            by_block.setdefault(tid.blkno, []).append(i)
        stats = self.stats
        for blkno, positions in by_block.items():
            frame = self.buffer.pin(self.relation, blkno)
            try:
                page = frame.page
                for i in positions:
                    values = read(page.get_item_view(tids[i].offset), visible)
                    if values is not None:
                        out[i] = values
                        stats.tuples_fetched += 1
            finally:
                self.buffer.unpin(frame)
        return out

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
    ) -> Iterator[list[tuple[TID, list[Any]]]]:
        """Block-at-a-time sequential scan: one batch per heap page.

        Row order across batches matches :meth:`scan` exactly; pages
        with no visible rows produce no batch.  With ``columns`` only
        those attributes are decoded (see :meth:`_reader`); the others
        are None.
        """
        read = self._reader(columns)
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
