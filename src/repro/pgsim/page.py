"""Slotted pages with PostgreSQL-style headers and line pointers.

A page is a fixed-size ``bytearray``::

    +----------------------+  0
    | page header (24 B)   |
    +----------------------+  24
    | line pointers ...    |  grow downward from 'lower'
    +----------------------+  lower
    | free space           |
    +----------------------+  upper
    | tuples ... (packed)  |  grow upward toward 'upper'
    +----------------------+  special
    | special space        |  index-AM private area
    +----------------------+  page_size

The paper's RC#4 (HNSW space blow-up) is a direct consequence of this
layout plus PASE's one-adjacency-list-per-page policy, so the layout
is implemented faithfully: 24-byte header, 4-byte line pointers,
upper/lower free-space accounting, optional special space, and a
checksum over the payload.
"""

from __future__ import annotations

import struct
import zlib

from repro.pgsim.constants import (
    LINE_POINTER_SIZE,
    MIN_PAGE_SIZE,
    PAGE_HEADER_SIZE,
)

_HEADER = struct.Struct("<QHHHHHHI")  # lsn, checksum, flags, lower, upper, special, version, prune_xid
_BOUNDS = struct.Struct("<HHH")  # lower, upper, special (header bytes 12-17)
_LP = struct.Struct("<HH")  # offset, length

#: Page layout version written into every header.
PAGE_VERSION = 4

#: Flag bit: page has at least one deleted (dead) line pointer.
FLAG_HAS_DEAD = 0x0001


class PageCorruptError(RuntimeError):
    """Raised when a page fails structural or checksum validation."""


class PageFullError(RuntimeError):
    """Raised when an item does not fit into the page's free space."""


class Page:
    """View over one page buffer; mutations write through to the buffer."""

    __slots__ = ("buf", "page_size")

    def __init__(self, buf: bytearray) -> None:
        if len(buf) < MIN_PAGE_SIZE:
            raise ValueError(f"page buffer too small: {len(buf)} bytes")
        self.buf = buf
        self.page_size = len(buf)

    # ------------------------------------------------------------------
    # initialization
    # ------------------------------------------------------------------
    @classmethod
    def init(cls, page_size: int, special_size: int = 0) -> "Page":
        """Format a fresh page with empty item area.

        Args:
            special_size: bytes reserved at the page tail for the
                owning access method (PostgreSQL's "special space").
        """
        if page_size < MIN_PAGE_SIZE:
            raise ValueError(f"page_size must be >= {MIN_PAGE_SIZE}, got {page_size}")
        if special_size < 0 or special_size > page_size - PAGE_HEADER_SIZE - LINE_POINTER_SIZE:
            raise ValueError(f"special_size {special_size} does not fit in page")
        buf = bytearray(page_size)
        page = cls(buf)
        special = page_size - special_size
        _HEADER.pack_into(buf, 0, 0, 0, 0, PAGE_HEADER_SIZE, special, special, PAGE_VERSION, 0)
        return page

    # ------------------------------------------------------------------
    # header accessors
    # ------------------------------------------------------------------
    @property
    def lsn(self) -> int:
        """WAL position of the last change to this page."""
        return _HEADER.unpack_from(self.buf, 0)[0]

    @lsn.setter
    def lsn(self, value: int) -> None:
        struct.pack_into("<Q", self.buf, 0, value)

    @property
    def flags(self) -> int:
        return struct.unpack_from("<H", self.buf, 10)[0]

    @flags.setter
    def flags(self, value: int) -> None:
        struct.pack_into("<H", self.buf, 10, value)

    @property
    def lower(self) -> int:
        """End of the line-pointer array."""
        return struct.unpack_from("<H", self.buf, 12)[0]

    @lower.setter
    def lower(self, value: int) -> None:
        struct.pack_into("<H", self.buf, 12, value)

    @property
    def upper(self) -> int:
        """Start of the tuple area."""
        return struct.unpack_from("<H", self.buf, 14)[0]

    @upper.setter
    def upper(self, value: int) -> None:
        struct.pack_into("<H", self.buf, 14, value)

    @property
    def special(self) -> int:
        """Start of the special space."""
        return struct.unpack_from("<H", self.buf, 16)[0]

    def bounds(self) -> tuple[int, int, int]:
        """``(lower, upper, special)`` from one header read."""
        return _BOUNDS.unpack_from(self.buf, 12)

    @property
    def version(self) -> int:
        return struct.unpack_from("<H", self.buf, 18)[0]

    # ------------------------------------------------------------------
    # item management
    # ------------------------------------------------------------------
    @property
    def item_count(self) -> int:
        """Number of line pointers, including dead ones."""
        return (self.lower - PAGE_HEADER_SIZE) // LINE_POINTER_SIZE

    @property
    def free_space(self) -> int:
        """Usable bytes for one more item (pointer included)."""
        gap = self.upper - self.lower
        return max(gap - LINE_POINTER_SIZE, 0)

    def insert_item(self, item: bytes) -> int:
        """Append an item; returns its 1-based offset number.

        Raises:
            PageFullError: if the item plus a line pointer don't fit.
        """
        need = len(item)
        if need == 0:
            raise ValueError("cannot insert an empty item")
        if need > self.free_space:
            raise PageFullError(
                f"item of {need} bytes does not fit (free={self.free_space})"
            )
        new_upper = self.upper - need
        self.buf[new_upper : new_upper + need] = item
        _LP.pack_into(self.buf, self.lower, new_upper, need)
        self.lower += LINE_POINTER_SIZE
        self.upper = new_upper
        return self.item_count

    def get_item(self, offset_number: int) -> bytes:
        """Fetch an item by 1-based offset number.

        Raises:
            IndexError: for out-of-range offsets.
            PageCorruptError: for dead (deleted) items.
        """
        off, length = self._pointer(offset_number)
        if length == 0:
            raise PageCorruptError(f"item {offset_number} is dead")
        return bytes(self.buf[off : off + length])

    def get_item_view(self, offset_number: int) -> memoryview:
        """Zero-copy view of an item (valid while the page is pinned)."""
        off, length = self._pointer(offset_number)
        if length == 0:
            raise PageCorruptError(f"item {offset_number} is dead")
        return memoryview(self.buf)[off : off + length]

    def delete_item(self, offset_number: int) -> None:
        """Mark an item dead; space is reclaimed by :meth:`defragment`."""
        idx = self._pointer_pos(offset_number)
        _LP.pack_into(self.buf, idx, 0, 0)
        self.flags |= FLAG_HAS_DEAD

    def is_dead(self, offset_number: int) -> bool:
        """True if the line pointer was deleted."""
        __, length = self._pointer(offset_number)
        return length == 0

    def live_items(self) -> list[int]:
        """Offset numbers of all live items, in order.

        One unpack of the whole line-pointer array rather than a header
        read plus a pointer read per item.  Callers that then fetch each
        item by offset number: the tuple heap scan, VACUUM and the tuple
        count at open (``heapam``), loser purging in WAL recovery, the
        default index ``size_info`` and the PQ / SQ8 codec-fork loaders.
        """
        lengths = self._line_pointers()[1::2]
        return [i for i, length in enumerate(lengths, start=1) if length]

    def live_pointers(self) -> list[tuple[int, int, int]]:
        """``(offset number, item offset, item length)`` of every live
        item, in order, from the same single read of the pointer array.

        For callers that slice or unpack items straight from ``buf``
        without a per-item locator: the batch heap scan
        (``scan_batches``), PASE HNSW's neighbor-page reader and the
        bridged HNSW data-fork delete.
        """
        pointers = self._line_pointers()
        return [
            (i, off, length)
            for i, (off, length) in enumerate(zip(pointers[::2], pointers[1::2]), start=1)
            if length
        ]

    def defragment(self) -> int:
        """Compact the tuple area, dropping dead items; returns bytes freed.

        Live items keep their offset numbers (pointers are rewritten in
        place), matching PostgreSQL's page pruning contract.
        """
        items: list[tuple[int, bytes]] = []
        for i in range(1, self.item_count + 1):
            off, length = self._pointer(i)
            if length:
                items.append((i, bytes(self.buf[off : off + length])))
        before = self.upper
        upper = self.special
        for i, data in items:
            upper -= len(data)
            self.buf[upper : upper + len(data)] = data
            _LP.pack_into(self.buf, self._pointer_pos(i), upper, len(data))
        self.upper = upper
        self.flags &= ~FLAG_HAS_DEAD
        return upper - before

    # ------------------------------------------------------------------
    # special space
    # ------------------------------------------------------------------
    def read_special(self) -> bytes:
        """Copy of the access method's special space."""
        return bytes(self.buf[self.special :])

    def write_special(self, data: bytes) -> None:
        """Overwrite the special space (must match its size)."""
        size = self.page_size - self.special
        if len(data) != size:
            raise ValueError(f"special space is {size} bytes, got {len(data)}")
        self.buf[self.special :] = data

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------
    def compute_checksum(self) -> int:
        """CRC-16-ish checksum over everything but the checksum field."""
        crc = zlib.crc32(self.buf[:8])
        crc = zlib.crc32(self.buf[10:], crc)
        return crc & 0xFFFF

    def update_checksum(self) -> None:
        """Stamp the current checksum (called before disk write-back)."""
        struct.pack_into("<H", self.buf, 8, self.compute_checksum())

    def verify_checksum(self) -> None:
        """Validate the stored checksum (zero means "never stamped").

        Raises:
            PageCorruptError: on mismatch.
        """
        stored = struct.unpack_from("<H", self.buf, 8)[0]
        if stored == 0:
            return
        if stored != self.compute_checksum():
            raise PageCorruptError("page checksum mismatch")

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _pointer_pos(self, offset_number: int) -> int:
        if not 1 <= offset_number <= self.item_count:
            raise IndexError(
                f"offset number {offset_number} out of range 1..{self.item_count}"
            )
        return PAGE_HEADER_SIZE + (offset_number - 1) * LINE_POINTER_SIZE

    def _pointer(self, offset_number: int) -> tuple[int, int]:
        return _LP.unpack_from(self.buf, self._pointer_pos(offset_number))

    def _line_pointers(self) -> tuple[int, ...]:
        """The whole pointer array, ``offset, length`` flattened."""
        count = max(self.item_count, 0)
        return struct.unpack_from(f"<{2 * count}H", self.buf, PAGE_HEADER_SIZE)
