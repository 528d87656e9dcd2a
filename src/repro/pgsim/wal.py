"""Minimal write-ahead log with redo recovery.

pgsim keeps the WAL deliberately small — full-page images plus commit
records — because the paper's experiments never exercise crash
recovery; the log exists so the substrate is an honest database (and
so recovery is testable), not to reproduce PostgreSQL's record zoo.

Protocol:

- every page mutation appends a :data:`REC_PAGE_IMAGE` record *before*
  the buffer manager may write the page back (enforced by the caller
  via LSN stamping);
- a transaction's first write is preceded by a :data:`REC_BEGIN`, its
  changes become durable at its :data:`REC_COMMIT`, and an in-process
  rollback appends a :data:`REC_ABORT` (advisory: an abort record that
  never reaches disk is indistinguishable from a crash, and recovery
  rolls both back);
- :func:`replay` redoes *all* durable data records — committed or not,
  so line-pointer offsets line up — then physically purges tuples
  belonging to transactions without a durable commit record;
- a checkpoint (:meth:`WriteAheadLog.log_checkpoint` after the buffer
  pool is flushed and the data files synced) establishes a durable
  horizon behind which :meth:`WriteAheadLog.truncate_before` may
  discard the log; its payload carries the xid allocator position, the
  in-progress xid list and the aborted xid list, because truncation can
  discard the only records naming a still-open or rolled-back
  transaction after its dirty pages were flushed.

Failure semantics: :attr:`WriteAheadLog.flushed_lsn` only advances
after the append *and* fsync succeed, so an I/O failure can never make
:func:`replay` treat unpersisted records as durable.  A failed flush
poisons the log (:class:`WalPanicError` on further use) — after a
failed fsync the kernel may have dropped the dirty pages, so retrying
in-process proves nothing; the instance must be abandoned and recovery
run from the files (PostgreSQL reached the same conclusion after
*fsyncgate*).  A failed data-file fsync at a checkpoint poisons the log
the same way (:meth:`WriteAheadLog.panic`).

File handle: a file-backed log opens its file once, unbuffered, at the
first flush and keeps the append handle; :meth:`WriteAheadLog.truncate_before`
closes it after its rename and the next flush opens the new file.
Every write goes straight to the OS, so :meth:`WriteAheadLog.close` on
an instance a crash abandoned leaves the file as the crash left it.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Sequence

from repro.common.obs import (
    EV_WAL_SYNC,
    EV_WAL_WRITE,
    CounterDeltaMixin,
    WaitEventStats,
)
from repro.pgsim.faults import NO_FAULTS, FaultInjector
from repro.pgsim.storage import DiskManager
from repro.pgsim.xact import FIRST_NORMAL_XID, losers_after_replay

REC_PAGE_IMAGE = 1
REC_COMMIT = 2
REC_CHECKPOINT = 3
REC_INSERT = 4
REC_DELETE = 5
REC_BEGIN = 6
REC_ABORT = 7
REC_UPDATE = 8

_REC_HEADER = struct.Struct("<QBIH")  # lsn, type, xid, rel name length


class WalPanicError(RuntimeError):
    """The WAL suffered a flush failure and refuses further work.

    Recovery path: discard this instance and reopen the database; the
    on-disk log is intact up to the last *successful* fsync.
    """


@dataclass(slots=True)
class WalRecord:
    """One decoded WAL record."""

    lsn: int
    rec_type: int
    xid: int
    rel: str = ""
    blkno: int = 0
    payload: bytes = b""


@dataclass(slots=True)
class WalStats(CounterDeltaMixin):
    """Cumulative WAL activity counters (``pg_stat_wal``).

    ``records``/``bytes_written`` advance at append time (the record
    is in the log, durable or not); ``flushes`` counts :meth:`flush`
    calls that found work to make durable, and ``records_flushed`` /
    ``bytes_flushed`` advance as the durable horizon does.
    """

    records: int = 0
    bytes_written: int = 0
    flushes: int = 0
    records_flushed: int = 0
    bytes_flushed: int = 0


class WriteAheadLog:
    """Append-only log of serialized records.

    With ``path=None`` the log lives only in memory (the default for
    in-memory databases).  With a path, :meth:`flush` appends the
    durable prefix to the file with an fsync, and an existing file is
    loaded on open — so a file-backed database recovers committed work
    after a crash (see :meth:`repro.pgsim.database.PgSimDatabase`).

    Args:
        path: log file location, or ``None`` for an in-memory log.
        faults: fault injector through which all file I/O flows
            (defaults to real, unbroken I/O).
        waits: wait-event accumulator for ``WALWrite``/``WALSync``
            blocked time (the database facade shares one instance with
            the buffer manager).
    """

    #: Framing: 4-byte little-endian record length before each record.
    _FRAME = struct.Struct("<I")

    def __init__(
        self,
        path: str | Path | None = None,
        faults: FaultInjector | None = None,
        waits: WaitEventStats | None = None,
    ) -> None:
        self._records: list[bytes] = []
        self._next_lsn = 1
        self.flushed_lsn = 0
        self._durable_count = 0
        self._panicked = False
        self.stats = WalStats()
        # Appended-but-not-yet-flushed accounting for ``stats`` (kept
        # separately from ``_durable_count`` because in-memory logs
        # never advance that).
        self._pending_records = 0
        self._pending_bytes = 0
        #: Pages already full-page-imaged since the last checkpoint.
        self._fpw_done: set[tuple[str, int]] = set()
        self.faults = faults if faults is not None else NO_FAULTS
        self.waits = waits if waits is not None else WaitEventStats()
        self.path = Path(path) if path is not None else None
        #: Append handle, opened unbuffered by the first :meth:`flush`
        #: and held until :meth:`close` or a :meth:`truncate_before`.
        self._file = None
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        raw = self.path.read_bytes()
        pos = 0
        last_lsn = 0
        while pos + self._FRAME.size <= len(raw):
            (length,) = self._FRAME.unpack_from(raw, pos)
            pos += self._FRAME.size
            if pos + length > len(raw):
                break  # torn tail write: ignore, like real WAL replay
            record = raw[pos : pos + length]
            pos += length
            lsn = _REC_HEADER.unpack_from(record, 0)[0]
            if lsn <= last_lsn:
                # Duplicate append from a flush retried after a partial
                # failure: the LSN sequence is strictly increasing, so
                # anything that does not advance it was already loaded.
                continue
            self._records.append(record)
            last_lsn = lsn
        self._durable_count = len(self._records)
        if self._records:
            self._next_lsn = last_lsn + 1
            self.flushed_lsn = last_lsn

    # ------------------------------------------------------------------
    # append
    # ------------------------------------------------------------------
    def log_page_image(self, xid: int, rel: str, blkno: int, image: bytes) -> int:
        """Record a full page image; returns the assigned LSN."""
        return self._append(REC_PAGE_IMAGE, xid, rel, blkno, image)

    def ensure_page_image(self, xid: int, rel: str, blkno: int, page) -> int | None:
        """Full-page write: image a page's first post-checkpoint change.

        A torn page write cannot be repaired from incremental records —
        redo compares against the page's (now garbage) LSN — so, like
        PostgreSQL with ``full_page_writes=on``, the first modification
        of a page after a checkpoint logs the complete page and stands
        in for the incremental record.  Returns the image's LSN (the
        page is stamped with it), or ``None`` if the page is already
        covered — the caller then logs its incremental record as usual.

        In-memory logs skip this entirely: without a file there is no
        torn write to protect against.
        """
        key = (rel, blkno)
        if self.path is None or key in self._fpw_done:
            return None
        self._check_panic()
        # Stamp LSN + checksum first so the captured image is exactly
        # the durable state replay will restore.
        page.lsn = self._next_lsn
        page.update_checksum()
        lsn = self._append(REC_PAGE_IMAGE, xid, rel, blkno, bytes(page.buf))
        self._fpw_done.add(key)
        return lsn

    def log_insert(self, xid: int, rel: str, blkno: int, tuple_bytes: bytes) -> int:
        """Record a heap insert (payload = serialized tuple)."""
        return self._append(REC_INSERT, xid, rel, blkno, tuple_bytes)

    def log_delete(self, xid: int, rel: str, blkno: int, offset_number: int) -> int:
        """Record a heap delete (payload = 2-byte offset number)."""
        return self._append(REC_DELETE, xid, rel, blkno, struct.pack("<H", offset_number))

    def log_update(
        self, xid: int, rel: str, blkno: int, old_offset: int, tuple_bytes: bytes
    ) -> int:
        """Record a same-page heap update.

        Payload = 2-byte old offset number + the serialized new tuple.
        Both halves land on one page, so the single-block record format
        carries a delete (xmax stamp on the old version) and an insert
        (the new version) atomically; a cross-page update is logged as
        separate delete + insert records instead.
        """
        payload = struct.pack("<H", old_offset) + tuple_bytes
        return self._append(REC_UPDATE, xid, rel, blkno, payload)

    def log_begin(self, xid: int) -> int:
        """Record a transaction start (no flush; rides the next one).

        Appended lazily, just before the transaction's first data
        record — read-only transactions never touch the log.
        """
        return self._append(REC_BEGIN, xid, "", 0, b"")

    def log_abort(self, xid: int) -> int:
        """Record a rollback (no flush — see the module docstring).

        Whether or not this record ever reaches disk, recovery rolls
        the transaction back: its data records have no commit record.
        The record exists for log legibility, not correctness.
        """
        return self._append(REC_ABORT, xid, "", 0, b"")

    def log_commit(self, xid: int) -> int:
        """Record a transaction commit and flush the log."""
        lsn = self._append(REC_COMMIT, xid, "", 0, b"")
        self.flush()
        return lsn

    def log_checkpoint(
        self,
        next_xid: int = 0,
        in_progress: Sequence[int] = (),
        aborted: Sequence[int] = (),
    ) -> int:
        """Record a checkpoint boundary and make it durable.

        The payload carries the durable horizon, the xid allocator
        position, and the in-progress and aborted xid lists at
        checkpoint time.  The two lists are what let recovery roll back
        a transaction whose data records were truncated away after the
        checkpoint flushed its dirty pages — without them, an open or
        rolled-back transaction would look bulk-loaded (committed).
        A checkpoint record that is itself not flushed would be useless
        to recovery, so this flushes like :meth:`log_commit`.  The
        caller is responsible for having flushed and synced dirty pages
        *first* (see :meth:`repro.pgsim.database.PgSimDatabase.checkpoint`).
        """
        payload = (
            struct.pack("<QQI", self.flushed_lsn, next_xid, len(in_progress))
            + struct.pack(f"<{len(in_progress)}I", *in_progress)
            + struct.pack(f"<I{len(aborted)}I", len(aborted), *aborted)
        )
        lsn = self._append(REC_CHECKPOINT, 0, "", 0, payload)
        self.flush()
        # Pages are durable as of this checkpoint: the next change to
        # each must log a fresh full-page image.
        self._fpw_done.clear()
        return lsn

    def flush(self) -> None:
        """Make everything appended so far durable.

        Appends each pending record to the held append handle (opened
        unbuffered on first use, so a crashed instance's handle holds no
        bytes) and fsyncs it.  ``flushed_lsn`` advances only after the
        file append and fsync both succeed; on failure the log panics
        (see module docstring).
        """
        self._check_panic()
        if self.path is None:
            self.flushed_lsn = self._next_lsn - 1
            self._note_flushed()
            return
        if self._durable_count == len(self._records):
            self.flushed_lsn = self._next_lsn - 1
            return
        try:
            f = self._file
            if f is None:
                f = self._file = self.path.open("ab", buffering=0)
            write_start = perf_counter()
            for record in self._records[self._durable_count :]:
                self.faults.write("wal.append", f, self._FRAME.pack(len(record)) + record)
            sync_start = perf_counter()
            self.waits.record(EV_WAL_WRITE, sync_start - write_start)
            self.faults.fsync("wal.fsync", f)
            self.waits.record(EV_WAL_SYNC, perf_counter() - sync_start)
        except Exception:
            self._panicked = True
            raise
        self._durable_count = len(self._records)
        self.flushed_lsn = self._next_lsn - 1
        self._note_flushed()

    def panic(self) -> None:
        """Refuse further work, as after a failed WAL fsync: a checkpoint
        whose data-file fsync failed cannot tell which pages reached the
        medium, so only recovery from the files may continue."""
        self._panicked = True

    def _note_flushed(self) -> None:
        """Move appended-but-unflushed accounting to the flushed side."""
        if not self._pending_records:
            return
        self.stats.flushes += 1
        self.stats.records_flushed += self._pending_records
        self.stats.bytes_flushed += self._pending_bytes
        self._pending_records = 0
        self._pending_bytes = 0

    def truncate_before(self, lsn: int) -> int:
        """Discard records with an LSN below ``lsn``; returns the count.

        The caller must ensure every discarded record is already
        reflected in durable pages (i.e. call this only after a
        checkpoint flushed the buffer pool).  Pending records are
        flushed first so the rewritten log is self-contained.  The
        rewrite is atomic — new log to a temp file, fsync, rename — so
        a crash mid-truncation leaves either the old or the new log,
        both of which recover correctly.  The append handle still names
        the replaced file after the rename, so it is closed and the next
        :meth:`flush` opens the new one.
        """
        self.flush()
        keep_from = 0
        for keep_from, record in enumerate(self._records):
            if _REC_HEADER.unpack_from(record, 0)[0] >= lsn:
                break
        else:
            keep_from = len(self._records)
        if keep_from == 0:
            return 0
        dropped = keep_from
        kept = self._records[keep_from:]
        if self.path is not None:
            tmp = self.path.with_name(self.path.name + ".tmp")
            try:
                with tmp.open("wb") as f:
                    for record in kept:
                        self.faults.write("wal.truncate", f, self._FRAME.pack(len(record)) + record)
                    self.faults.fsync("wal.fsync", f)
            except Exception:
                self._panicked = True
                raise
            os.replace(tmp, self.path)
            self.close()
            self._fsync_dir()
        self._records = kept
        self._durable_count = len(self._records)
        return dropped

    def close(self) -> None:
        """Close the append handle (idempotent; writes nothing)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def _fsync_dir(self) -> None:
        """Persist the rename of the rewritten log file."""
        assert self.path is not None
        dir_fd = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    def _append(self, rec_type: int, xid: int, rel: str, blkno: int, payload: bytes) -> int:
        self._check_panic()
        lsn = self._next_lsn
        self._next_lsn += 1
        rel_bytes = rel.encode("utf-8")
        record = (
            _REC_HEADER.pack(lsn, rec_type, xid, len(rel_bytes))
            + rel_bytes
            + struct.pack("<I", blkno)
            + payload
        )
        self._records.append(record)
        self.stats.records += 1
        self.stats.bytes_written += len(record)
        self._pending_records += 1
        self._pending_bytes += len(record)
        return lsn

    def _check_panic(self) -> None:
        if self._panicked:
            raise WalPanicError(
                "WAL is in a failed state after a flush error; "
                "abandon this instance and recover from disk"
            )

    # ------------------------------------------------------------------
    # read back
    # ------------------------------------------------------------------
    def records(self) -> list[WalRecord]:
        """Decode all records in append order."""
        out: list[WalRecord] = []
        for raw in self._records:
            lsn, rec_type, xid, rel_len = _REC_HEADER.unpack_from(raw, 0)
            pos = _REC_HEADER.size
            rel = raw[pos : pos + rel_len].decode("utf-8")
            pos += rel_len
            (blkno,) = struct.unpack_from("<I", raw, pos)
            pos += 4
            out.append(
                WalRecord(
                    lsn=lsn,
                    rec_type=rec_type,
                    xid=xid,
                    rel=rel,
                    blkno=blkno,
                    payload=raw[pos:],
                )
            )
        return out

    def disk_size(self) -> int:
        """On-disk log size in bytes (0 for in-memory logs)."""
        if self.path is None or not self.path.exists():
            return 0
        return self.path.stat().st_size

    def __len__(self) -> int:
        return len(self._records)


def checkpoint_fields(
    payload: bytes,
) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """Decode a checkpoint payload:
    ``(flushed_lsn, next_xid, in_progress, aborted)``.

    Accepts the legacy payloads of logs written before checkpoints
    carried transaction state (8 bytes, the durable horizon only) or
    the aborted list (no bytes after the in-progress list).
    """
    if len(payload) < 20:
        (flushed,) = struct.unpack_from("<Q", payload, 0)
        return flushed, 0, (), ()
    flushed, next_xid, n = struct.unpack_from("<QQI", payload, 0)
    in_progress = struct.unpack_from(f"<{n}I", payload, 20)
    pos = 20 + 4 * n
    aborted: tuple[int, ...] = ()
    if len(payload) > pos:
        (n_aborted,) = struct.unpack_from("<I", payload, pos)
        aborted = struct.unpack_from(f"<{n_aborted}I", payload, pos + 4)
    return flushed, next_xid, in_progress, aborted


def next_xid_after(wal: WriteAheadLog) -> int:
    """First unused xid implied by the log (for post-recovery restart).

    The max over every record's xid and the last checkpoint's allocator
    position; reusing a recovered xid would let a new transaction's
    tuples alias a purged (or committed) one's.
    """
    nxt = FIRST_NORMAL_XID
    for rec in wal.records():
        if rec.rec_type == REC_CHECKPOINT:
            __, ckpt_next, in_progress, aborted = checkpoint_fields(rec.payload)
            nxt = max(nxt, ckpt_next, *(xid + 1 for xid in in_progress + aborted))
        else:
            nxt = max(nxt, rec.xid + 1)
    return nxt


def replay(wal: WriteAheadLog, disk: DiskManager) -> int:
    """Redo recovery: re-apply durable changes, then roll back losers.

    Redo rules:

    - only records with ``lsn <= wal.flushed_lsn`` are considered;
    - **all** data records are redone, committed or not: an uncommitted
      insert consumed a line pointer, so skipping it would shift every
      later record's offsets on that page.  Deletes redo by stamping
      ``xmax`` (not by killing the line pointer), so an uncommitted
      delete is reversible;
    - a record is skipped when the on-disk page's LSN already covers it
      (``page.lsn >= record.lsn``), so redo is idempotent;
    - untouched (all-zero) blocks are formatted on first redo.

    Then the undo-by-purge pass: a transaction that wrote durable data
    (a data record, or membership in the last checkpoint's in-progress
    or aborted list) without a durable commit record is a *loser*.
    Every heap tuple a loser inserted is physically removed, and every
    ``xmax`` stamp a loser left is cleared — after recovery, no trace
    remains and the fresh transaction manager may treat every surviving
    xid as committed.

    A truncated log (see :meth:`WriteAheadLog.truncate_before`) starts
    at a checkpoint record; everything before it is already in the
    pages, which the LSN check confirms.

    Returns the number of records applied.
    """
    from repro.pgsim.page import Page  # local import avoids a cycle

    records = [r for r in wal.records() if r.lsn <= wal.flushed_lsn]
    committed = {r.xid for r in records if r.rec_type == REC_COMMIT}
    seen_xids: set[int] = set()
    ckpt_losers: tuple[int, ...] = ()
    data_rels: set[str] = set()
    applied = 0
    for rec in records:
        if rec.rec_type == REC_CHECKPOINT:
            # Only the latest checkpoint's lists count: anything open
            # at an earlier one either finished (commit record, or loser
            # via missing commit) or is still listed, and an instance's
            # aborted list is cumulative (its recovery purged those of
            # the instance before it).
            __, __, in_progress, aborted = checkpoint_fields(rec.payload)
            ckpt_losers = in_progress + aborted
            continue
        if rec.rec_type in (REC_COMMIT, REC_BEGIN, REC_ABORT):
            continue
        seen_xids.add(rec.xid)
        data_rels.add(rec.rel)
        if not disk.relation_exists(rec.rel):
            disk.create_relation(rec.rel)
        while disk.n_blocks(rec.rel) <= rec.blkno:
            disk.extend(rec.rel, bytes(disk.page_size))

        if rec.rec_type == REC_PAGE_IMAGE:
            existing = Page(bytearray(disk.read_block(rec.rel, rec.blkno)))
            # A torn on-disk page (bad checksum) is replaced no matter
            # what its LSN field claims — the field itself is garbage.
            if _page_intact(existing) and existing.lsn >= rec.lsn:
                continue
            disk.write_block(rec.rel, rec.blkno, rec.payload)
            applied += 1
            continue

        raw = bytearray(disk.read_block(rec.rel, rec.blkno))
        page = Page(raw) if _page_initialized(Page(raw)) else Page.init(disk.page_size)
        if page.lsn >= rec.lsn:
            continue
        if rec.rec_type == REC_INSERT:
            page.insert_item(rec.payload)
        elif rec.rec_type == REC_DELETE:
            (offset_number,) = struct.unpack("<H", rec.payload)
            off, length = page._pointer(offset_number)
            if length != 0:
                # Stamp the deleter's xid; the purge pass (or, post-
                # recovery, MVCC visibility) decides the tuple's fate.
                struct.pack_into("<I", page.buf, off + 4, rec.xid)
        elif rec.rec_type == REC_UPDATE:
            (offset_number,) = struct.unpack_from("<H", rec.payload, 0)
            off, length = page._pointer(offset_number)
            if length != 0:
                struct.pack_into("<I", page.buf, off + 4, rec.xid)
            page.insert_item(rec.payload[2:])
        else:
            raise ValueError(f"unknown WAL record type: {rec.rec_type}")
        page.lsn = rec.lsn
        page.update_checksum()
        disk.write_block(rec.rel, rec.blkno, bytes(page.buf))
        applied += 1

    losers = losers_after_replay(seen_xids, ckpt_losers, committed)
    _purge_losers(disk, losers, data_rels)
    return applied


def _purge_losers(disk: DiskManager, losers: set[int], extra_rels: set[str]) -> int:
    """Physically roll back loser transactions on every heap relation.

    Scans all ``*.heap`` relations on disk — not just those named in
    the surviving records, because a mid-transaction checkpoint may
    have flushed loser tuples to relations whose records were then
    truncated away.  Returns the number of pages rewritten.
    """
    from repro.pgsim.page import Page  # local import avoids a cycle
    from repro.pgsim.tuple_format import tuple_header

    if not losers:
        return 0
    rels = {rel for rel in disk.list_relations() if rel.endswith(".heap")}
    rels |= {rel for rel in extra_rels if rel.endswith(".heap")}
    purged = 0
    for rel in sorted(rels):
        if not disk.relation_exists(rel):
            continue
        for blkno in range(disk.n_blocks(rel)):
            page = Page(bytearray(disk.read_block(rel, blkno)))
            if not _page_initialized(page):
                continue
            changed = False
            for offset_number in page.live_items():
                xmin, xmax = tuple_header(page.get_item_view(offset_number))
                if xmin in losers:
                    page.delete_item(offset_number)
                    changed = True
                elif xmax in losers:
                    off, __ = page._pointer(offset_number)
                    struct.pack_into("<I", page.buf, off + 4, 0)
                    changed = True
            if changed:
                page.update_checksum()
                disk.write_block(rel, blkno, bytes(page.buf))
                purged += 1
    return purged


def _page_initialized(page) -> bool:
    """A zeroed (never formatted) block has lower == 0."""
    return page.lower != 0


def _page_intact(page) -> bool:
    """Initialized and passing its checksum (i.e. not a torn write)."""
    if not _page_initialized(page):
        return False
    try:
        page.verify_checksum()
    except Exception:
        return False
    return True
