"""Transaction manager: xid allocation, commit log, and MVCC snapshots.

pgsim's tuples have carried ``xmin``/``xmax`` headers since the first
heap commit, but nothing ever consulted them against a snapshot — any
two logical clients saw each other's uncommitted work.  This module is
the missing piece: a per-database :class:`TransactionManager` playing
the role of PostgreSQL's xid allocator + clog + ProcArray, plus the
:class:`Snapshot` value and the ``HeapTupleSatisfiesMVCC``-style
predicate the heap AM evaluates: per tuple (:func:`tuple_visible`) or
over arrays of headers (:func:`visible_mask`).

Commit-state model (the "clog"): an xid is **aborted** if ``abort()``
was called for it, **in progress** while its :class:`Transaction` is
registered, and **committed** otherwise.  Treating unknown xids as
committed is the frozen-xid rule collapsed to its limit: bootstrap
rows (xid 1), rows bulk-loaded outside the manager, and rows recovered
from a truncated WAL all carry xids the manager never saw — every one
of them is committed, because crash recovery physically rolls losers
back (see :func:`repro.pgsim.wal.replay`) and in-process aborts are
recorded here.

Concurrency model: N sessions share one database from separate
threads.  Statement *execution* is serialized by the database's
statement lock (pgsim is pure Python; the GIL would serialize it
anyway), so MVCC buys what it buys in PostgreSQL: readers never block
writers *across statements* — a session holding a week-old snapshot
inside ``BEGIN`` costs writers nothing but vacuum horizon.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pgsim.heapam import HeapTable

#: xid stamped on bootstrap / bulk-loaded rows (always committed).
BOOTSTRAP_XID = 1

#: First xid the manager hands out on a fresh database.
FIRST_NORMAL_XID = 2


class SerializationError(RuntimeError):
    """Write-write conflict under snapshot isolation.

    Raised when a transaction tries to delete (or update) a tuple whose
    deleter is still in progress or committed after the snapshot was
    taken.  PostgreSQL under REPEATABLE READ raises SQLSTATE 40001 with
    the same message; pgsim differs only in never blocking first (the
    no-wait flavour), which a retry loop handles identically.
    """

    def __init__(self) -> None:
        super().__init__("could not serialize access due to concurrent update")


@dataclass(frozen=True, slots=True)
class Snapshot:
    """An MVCC snapshot: which transactions' effects are visible.

    Follows PostgreSQL's ``SnapshotData``: a transaction's effects are
    visible iff it committed, *and* it is not in ``xip`` (in progress at
    snapshot time), *and* its xid is below ``xmax`` (assigned before the
    snapshot).  ``xid`` is the owner's own transaction id (0 for a
    read-only statement snapshot); the owner always sees its own
    uncommitted changes.
    """

    #: Oldest xid still in progress when the snapshot was taken; every
    #: xid below this is definitively committed or aborted (the vacuum
    #: horizon contribution).
    xmin: int
    #: First xid *not* yet assigned at snapshot time; ``>= xmax`` means
    #: "started after us", hence invisible.
    xmax: int
    #: Transactions in progress at snapshot time (excluding the owner).
    xip: frozenset[int]
    #: Owning transaction's xid (0 = none).
    xid: int = 0


@dataclass(eq=False)
class Transaction:
    """One open transaction: identity, snapshot, and undo bookkeeping.

    ``snapshot`` is ``None`` for autocommit statements (the executor
    takes a fresh snapshot per statement) and pinned at ``BEGIN`` for
    explicit transactions (per-transaction snapshots — REPEATABLE READ).
    The per-table insert/delete tallies exist so an abort can reverse
    the heap's optimistic ``tuple_count``/``n_dead_tup`` accounting.
    """

    xid: int
    snapshot: Snapshot | None = None
    #: True once a BEGIN record hit the WAL (i.e. the txn wrote data);
    #: read-only transactions commit without touching the log.
    wrote_wal: bool = False
    #: Set by the session when a statement inside the transaction
    #: failed: further statements are rejected until ROLLBACK.
    failed: bool = False
    inserted: dict[Any, int] = field(default_factory=dict)
    deleted: dict[Any, int] = field(default_factory=dict)

    def note_insert(self, heap: "HeapTable") -> None:
        self.inserted[heap] = self.inserted.get(heap, 0) + 1

    def note_delete(self, heap: "HeapTable") -> None:
        self.deleted[heap] = self.deleted.get(heap, 0) + 1


class TransactionManager:
    """xid allocator + commit log + in-progress registry for one database.

    Thread-safe: sessions on different threads allocate xids and take
    snapshots under one internal lock (statement execution itself is
    serialized by the database's statement lock, but transaction
    lifetimes span statements and so interleave freely).
    """

    def __init__(self, next_xid: int = FIRST_NORMAL_XID) -> None:
        self._lock = threading.Lock()
        self._next_xid = next_xid
        self._aborted: set[int] = set()
        #: xid -> in-progress Transaction.
        self._txns: dict[int, Transaction] = {}
        #: Cumulative counters (``pg_stat_database``-ish).
        self.commits = 0
        self.aborts = 0

    # ------------------------------------------------------------------
    # xid allocation and lifecycle
    # ------------------------------------------------------------------
    @property
    def next_xid(self) -> int:
        return self._next_xid

    def advance_to(self, next_xid: int) -> None:
        """Move the allocator past recovered xids (recovery only).

        Every xid below the recovered horizon is either committed or
        physically purged from the pages, so the fresh manager may
        treat all of them as committed (the unknown-is-committed rule).
        """
        with self._lock:
            if next_xid > self._next_xid:
                self._next_xid = next_xid

    def begin(self) -> Transaction:
        """Start a transaction: allocate an xid, register in-progress."""
        with self._lock:
            xid = self._next_xid
            self._next_xid += 1
            txn = Transaction(xid=xid)
            self._txns[xid] = txn
            return txn

    def commit(self, txn: Transaction) -> None:
        """Mark ``txn`` committed (caller already made its WAL durable)."""
        with self._lock:
            self._txns.pop(txn.xid, None)
            self.commits += 1

    def abort(self, txn: Transaction) -> None:
        """Mark ``txn`` aborted and reverse its optimistic heap counts.

        Rollback is O(1) in page terms, exactly like PostgreSQL: the
        tuples stay where they are, stamped with an xid the clog now
        calls aborted, and vacuum reclaims them later.  Only the
        in-memory counters need fixing up here: aborted inserts become
        dead tuples, aborted deletes come back to life.
        """
        with self._lock:
            self._aborted.add(txn.xid)
            self._txns.pop(txn.xid, None)
            self.aborts += 1
        for heap, n in txn.inserted.items():
            heap.tuple_count -= n
            heap.n_dead_tup += n
        for heap, n in txn.deleted.items():
            heap.tuple_count += n
            heap.n_dead_tup = max(0, heap.n_dead_tup - n)

    # ------------------------------------------------------------------
    # commit-log queries
    # ------------------------------------------------------------------
    def is_aborted(self, xid: int) -> bool:
        return xid in self._aborted

    def is_in_progress(self, xid: int) -> bool:
        return xid in self._txns

    def is_committed(self, xid: int) -> bool:
        """Unknown xids are committed (see the module docstring)."""
        return xid not in self._aborted and xid not in self._txns

    def in_progress_xids(self) -> list[int]:
        """Open transactions, oldest first (checkpoint records these)."""
        with self._lock:
            return sorted(self._txns)

    def aborted_xids(self) -> list[int]:
        """Rolled-back transactions, oldest first (checkpoint records
        these too: a checkpoint truncates the only WAL records that
        name them, while their tuples stay on the pages)."""
        with self._lock:
            return sorted(self._aborted)

    def clog_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(aborted, in progress)`` xids as int64 arrays, read together
        under the lock: the commit log :func:`visible_mask` and VACUUM
        judge a page's worth of tuples against."""
        with self._lock:
            return (
                np.fromiter(self._aborted, dtype=np.int64, count=len(self._aborted)),
                np.fromiter(self._txns, dtype=np.int64, count=len(self._txns)),
            )

    # ------------------------------------------------------------------
    # undo bookkeeping (called by the heap AM)
    # ------------------------------------------------------------------
    def note_insert(self, xid: int, heap: Any) -> None:
        """Record one insert by ``xid`` into ``heap`` (for abort undo)."""
        txn = self._txns.get(xid)
        if txn is not None:
            txn.note_insert(heap)

    def note_delete(self, xid: int, heap: Any) -> None:
        """Record one delete by ``xid`` in ``heap`` (for abort undo)."""
        txn = self._txns.get(xid)
        if txn is not None:
            txn.note_delete(heap)

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self, xid: int = 0) -> Snapshot:
        """Take a snapshot of the current commit state.

        Args:
            xid: the taking transaction's own xid (excluded from
                ``xip``; its changes are always visible to itself).
        """
        with self._lock:
            xip = frozenset(x for x in self._txns if x != xid)
            xmin = min(xip) if xip else self._next_xid
            return Snapshot(xmin=xmin, xmax=self._next_xid, xip=xip, xid=xid)

    def safe_horizon(self) -> int:
        """Oldest xid any open transaction (or its snapshot) can see.

        Vacuum may only reclaim a deleted tuple when its deleter's xid
        is below this: every snapshot that could still consider the
        deleter invisible has ``snapshot.xmin <= deleter``, and every
        open transaction's own xid bounds the snapshots it may yet take.
        """
        with self._lock:
            horizon = self._next_xid
            for xid, txn in self._txns.items():
                horizon = min(horizon, xid)
                if txn.snapshot is not None:
                    horizon = min(horizon, txn.snapshot.xmin)
            return horizon


# ----------------------------------------------------------------------
# tuple visibility (HeapTupleSatisfiesMVCC)
# ----------------------------------------------------------------------
def tuple_visible(
    xact: TransactionManager | None,
    snapshot: Snapshot | None,
    xmin: int,
    xmax: int,
) -> bool:
    """Is a tuple with headers ``(xmin, xmax)`` visible?

    With ``snapshot=None`` the check degrades to latest-committed
    visibility (inserter committed, no committed deleter) — what every
    pre-MVCC caller of the heap AM meant, and still the right semantics
    for ANALYZE and index builds.  With ``xact=None`` (a standalone
    heap, no transaction manager) every xid counts as committed, which
    reproduces the historical ``xmax != 0`` dead test exactly.
    """
    if snapshot is None:
        if xact is not None and not xact.is_committed(xmin):
            return False
        if xmax == 0:
            return True
        return xact is not None and not xact.is_committed(xmax)

    # --- insertion visible under the snapshot? ---
    if snapshot.xid and xmin == snapshot.xid:
        pass  # our own insert: visible even though uncommitted
    elif xmin >= snapshot.xmax or xmin in snapshot.xip:
        return False  # inserter started after, or still ran at, snapshot time
    elif xact is not None and not xact.is_committed(xmin):
        return False  # inserter aborted (or is an unseen in-progress txn)

    # --- deletion visible under the snapshot? ---
    if xmax == 0:
        return True
    if snapshot.xid and xmax == snapshot.xid:
        return False  # we deleted it ourselves
    if xmax >= snapshot.xmax or xmax in snapshot.xip:
        return True  # deleter not yet visible to us: row still live
    return xact is not None and not xact.is_committed(xmax)


def commit_state(
    xact: TransactionManager | None, xids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(aborted, committed)`` masks over ``xids``: the commit-log
    queries :meth:`TransactionManager.is_aborted` / ``is_committed`` for
    a whole array, from one read of the log.  Without a manager nothing
    is aborted and everything is committed."""
    if xact is None:
        return np.zeros(len(xids), dtype=bool), np.ones(len(xids), dtype=bool)
    aborted, running = xact.clog_arrays()
    is_aborted = np.isin(xids, aborted)
    return is_aborted, ~(is_aborted | np.isin(xids, running))


def visible_mask(
    xact: TransactionManager | None,
    snapshot: Snapshot | None,
    xmin: np.ndarray,
    xmax: np.ndarray,
) -> np.ndarray:
    """:func:`tuple_visible` over arrays of headers at once: entry ``i``
    is ``tuple_visible(xact, snapshot, xmin[i], xmax[i])``.  The heap's
    page-at-a-time reader judges a whole chunk of pages with it."""
    xmin = np.asarray(xmin, dtype=np.int64)
    xmax = np.asarray(xmax, dtype=np.int64)
    n = len(xmin)
    __, committed = commit_state(xact, np.concatenate([xmin, xmax]))
    committed_min, committed_max = committed[:n], committed[n:]
    deleted = xmax != 0
    if snapshot is None:
        # Latest-committed: inserter committed, no committed deleter
        # (without a manager: the historical xmax != 0 dead test).
        if xact is None:
            return ~deleted
        return committed_min & ~(deleted & committed_max)
    xip = np.fromiter(snapshot.xip, dtype=np.int64, count=len(snapshot.xip))
    # Insertion visible: ours, or committed before the snapshot.
    inserted = (xmin < snapshot.xmax) & ~np.isin(xmin, xip) & committed_min
    # Deletion invisible: the deleter started after us, ran at snapshot
    # time, or did not commit (standalone heaps: every deleter commits).
    survives = (xmax >= snapshot.xmax) | np.isin(xmax, xip)
    if xact is not None:
        survives |= ~committed_max
    if snapshot.xid:
        inserted |= xmin == snapshot.xid
        survives &= xmax != snapshot.xid  # we deleted it ourselves
    return inserted & (~deleted | survives)


def losers_after_replay(
    seen_xids: Iterable[int],
    checkpoint_losers: Iterable[int],
    committed_xids: Iterable[int],
) -> set[int]:
    """Transactions recovery must roll back.

    A loser is any xid that wrote durable data (a WAL data record, or
    membership in the last checkpoint's in-progress or aborted list —
    its records may have been truncated away after its dirty pages were
    flushed) without a durable commit record.
    """
    committed = set(committed_xids)
    return (set(seen_xids) | set(checkpoint_losers)) - committed
