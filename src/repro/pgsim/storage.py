"""Disk manager: relations as arrays of fixed-size pages.

Two backends are provided:

- :class:`MemoryDisk` — pages live in process memory.  This is the
  reproduction's analogue of the paper's ``tmpfs`` experiment
  (Sec. V-A2): it removes physical I/O while keeping every layer of
  page indirection, which is exactly the configuration under which the
  paper still observed the 35–85× construction gap.
- :class:`FileDisk` — pages live in one file per relation, for
  demonstrating durability (WAL recovery tests run against it).  Each
  file is opened once, unbuffered, and read and written by offset on
  the held descriptor; the block count is kept in memory.  No page
  write is synced on its own: the disk remembers which relations were
  written since the last checkpoint, and :meth:`DiskManager.sync`
  fsyncs each of them once when the checkpoint asks.

Both expose the same interface, so every layer above is oblivious to
the backend.  Both raise :class:`IndexError` for a block number outside
``[0, n_blocks)`` on write, and for a negative one on read.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.pgsim.constants import DEFAULT_PAGE_SIZE
from repro.pgsim.faults import NO_FAULTS, FaultInjector


class RelationNotFoundError(KeyError):
    """Raised when a relation name is unknown to the disk manager."""


class DiskManager:
    """Abstract page-file store (see module docstring)."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.page_size = page_size
        self.reads = 0
        self.writes = 0

    # -- interface ------------------------------------------------------
    def create_relation(self, name: str) -> None:
        raise NotImplementedError

    def drop_relation(self, name: str) -> None:
        raise NotImplementedError

    def relation_exists(self, name: str) -> bool:
        raise NotImplementedError

    def list_relations(self) -> list[str]:
        raise NotImplementedError

    def n_blocks(self, name: str) -> int:
        raise NotImplementedError

    def read_block(self, name: str, blkno: int, out: memoryview | None = None) -> bytes | memoryview:
        """Block ``blkno`` of ``name``: a copy, or — given ``out``, a
        writable buffer of one page — read straight into ``out``, which
        is returned."""
        raise NotImplementedError

    def write_block(self, name: str, blkno: int, data: bytes) -> None:
        raise NotImplementedError

    def extend(self, name: str, data: bytes) -> int:
        """Append a page; returns its block number."""
        raise NotImplementedError

    def sync(self) -> None:
        """Make every page written since the last sync durable (the
        checkpoint's data-file barrier; nothing to do by default)."""

    def close(self) -> None:
        """Release held file handles (nothing to release by default)."""

    # -- shared helpers ---------------------------------------------------
    def relation_bytes(self, name: str) -> int:
        """Allocated size of a relation in bytes."""
        return self.n_blocks(name) * self.page_size

    def _check_page(self, data: bytes) -> None:
        if len(data) != self.page_size:
            raise ValueError(f"page must be {self.page_size} bytes, got {len(data)}")


class MemoryDisk(DiskManager):
    """All relations held in memory (the "tmpfs" configuration)."""

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE) -> None:
        super().__init__(page_size)
        self._relations: dict[str, list[bytes]] = {}

    def create_relation(self, name: str) -> None:
        if name in self._relations:
            raise ValueError(f"relation {name!r} already exists")
        self._relations[name] = []

    def drop_relation(self, name: str) -> None:
        self._pages(name)
        del self._relations[name]

    def relation_exists(self, name: str) -> bool:
        return name in self._relations

    def list_relations(self) -> list[str]:
        """Names of all relations (diagnostics/tests)."""
        return sorted(self._relations)

    def n_blocks(self, name: str) -> int:
        return len(self._pages(name))

    def read_block(self, name: str, blkno: int, out: memoryview | None = None) -> bytes | memoryview:
        pages = self._pages(name)
        self.reads += 1
        if blkno < 0:
            raise IndexError(f"negative block {blkno} in {name!r}")
        try:
            data = pages[blkno]
        except IndexError:
            raise IndexError(f"block {blkno} beyond end of {name!r} ({len(pages)} blocks)") from None
        if out is None:
            return data
        out[:] = data
        return out

    def write_block(self, name: str, blkno: int, data: bytes) -> None:
        self._check_page(data)
        pages = self._pages(name)
        if not 0 <= blkno < len(pages):
            raise IndexError(f"block {blkno} beyond end of {name!r} ({len(pages)} blocks)")
        pages[blkno] = bytes(data)
        self.writes += 1

    def extend(self, name: str, data: bytes) -> int:
        self._check_page(data)
        pages = self._pages(name)
        pages.append(bytes(data))
        self.writes += 1
        return len(pages) - 1

    def _pages(self, name: str) -> list[bytes]:
        try:
            return self._relations[name]
        except KeyError:
            raise RelationNotFoundError(f"no such relation: {name!r}") from None


class _RelFile:
    """A relation file held open by :class:`FileDisk`, with its block count."""

    __slots__ = ("file", "fd", "n_blocks")

    def __init__(self, file, n_blocks: int) -> None:
        self.file = file
        self.fd = file.fileno()
        self.n_blocks = n_blocks


class FileDisk(DiskManager):
    """One binary file per relation under a data directory.

    Each relation file is opened once, unbuffered, and held until
    :meth:`drop_relation` or :meth:`close` (PostgreSQL's ``fd.c`` keeps
    segments open the same way).  Pages are read with ``os.pread``, or
    with ``os.preadv`` straight into a buffer-pool slot.  The
    relation's block count is cached beside the handle: ``fstat`` sets
    it when the file is first opened, and only :meth:`create_relation`,
    :meth:`extend` and :meth:`drop_relation` change it afterwards.

    Writes are not synced one by one.  :meth:`extend` and
    :meth:`write_block` (WAL redo and the loser purge included) add
    their relation to the set of relations written since the last
    :meth:`sync`, and :meth:`sync` fsyncs each of those once: the
    checkpoint's barrier before its record lets the WAL be truncated
    (PostgreSQL's ``mdextend`` defers the fsync to the checkpointer the
    same way).  An instance opened on an existing directory starts with
    every relation on disk in the set, since it cannot tell whether the
    last one to write them synced them (``SyncDataDirectory`` after an
    unclean shutdown).

    All page writes and syncs flow through a :class:`FaultInjector` so
    the crash-recovery harness can tear, fail or abort them
    deterministically; the default injector performs plain, unbroken
    I/O.  Unbuffered handles hold no bytes of their own, so closing an
    instance that a simulated crash abandoned writes nothing.
    """

    def __init__(
        self,
        data_dir: str | Path,
        page_size: int = DEFAULT_PAGE_SIZE,
        faults: FaultInjector | None = None,
    ) -> None:
        super().__init__(page_size)
        self.faults = faults if faults is not None else NO_FAULTS
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self._files: dict[str, _RelFile] = {}
        #: Relations written since the last :meth:`sync`.
        self._unsynced: set[str] = set(self.list_relations())

    def _path(self, name: str) -> Path:
        if "/" in name or name.startswith("."):
            raise ValueError(f"invalid relation name: {name!r}")
        return self.data_dir / f"{name}.rel"

    def create_relation(self, name: str) -> None:
        try:
            file = open(self._path(name), "xb+", buffering=0)
        except FileExistsError:
            raise ValueError(f"relation {name!r} already exists") from None
        self._files[name] = _RelFile(file, 0)

    def drop_relation(self, name: str) -> None:
        self._open(name)
        self._files.pop(name).file.close()
        self._unsynced.discard(name)
        self._path(name).unlink()

    def relation_exists(self, name: str) -> bool:
        return name in self._files or self._path(name).exists()

    def list_relations(self) -> list[str]:
        """Names of all relations on disk."""
        return sorted(p.stem for p in self.data_dir.glob("*.rel"))

    def n_blocks(self, name: str) -> int:
        return self._open(name).n_blocks

    def read_block(self, name: str, blkno: int, out: memoryview | None = None) -> bytes | memoryview:
        rel = self._open(name)
        self.reads += 1
        if blkno < 0:
            raise IndexError(f"negative block {blkno} in {name!r}")
        offset = blkno * self.page_size
        if out is None:
            data = os.pread(rel.fd, self.page_size, offset)
            got = len(data)
        else:
            data = out
            got = os.preadv(rel.fd, [out], offset)
        if got != self.page_size:
            raise IndexError(f"block {blkno} beyond end of {name!r}")
        return data

    def write_block(self, name: str, blkno: int, data: bytes) -> None:
        self._check_page(data)
        rel = self._open(name)
        if not 0 <= blkno < rel.n_blocks:
            raise IndexError(f"block {blkno} beyond end of {name!r} ({rel.n_blocks} blocks)")
        rel.file.seek(blkno * self.page_size)
        self._unsynced.add(name)
        self.faults.write("disk.write", rel.file, data)
        self.writes += 1

    def extend(self, name: str, data: bytes) -> int:
        self._check_page(data)
        rel = self._open(name)
        f = rel.file
        blkno = rel.n_blocks
        full = blkno * self.page_size
        # Heal any torn tail a crashed extend left behind: without
        # the truncate the new page would land misaligned after the
        # partial one and every later block read would be garbage.
        f.truncate(full)
        f.seek(full)
        self._unsynced.add(name)
        self.faults.write("disk.extend", f, data)
        rel.n_blocks = blkno + 1
        self.writes += 1
        return blkno

    def sync(self) -> None:
        """Fsync each relation written since the last sync, once.

        A relation leaves the set only after its fsync succeeded, so a
        failed sync leaves every relation it did not reach still owed.
        """
        for name in sorted(self._unsynced):
            self.faults.fsync("disk.fsync", self._open(name).file)
            self._unsynced.discard(name)

    def close(self) -> None:
        """Close every held relation file (idempotent; writes nothing).

        A later call reopens the relation it names.
        """
        files, self._files = self._files, {}
        for rel in files.values():
            rel.file.close()

    def _open(self, name: str) -> _RelFile:
        rel = self._files.get(name)
        if rel is None:
            try:
                file = open(self._path(name), "rb+", buffering=0)
            except FileNotFoundError:
                raise RelationNotFoundError(f"no such relation: {name!r}") from None
            n_blocks = os.fstat(file.fileno()).st_size // self.page_size
            rel = self._files[name] = _RelFile(file, n_blocks)
        return rel
