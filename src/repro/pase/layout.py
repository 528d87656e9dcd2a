"""Every index page format of the page-backed access methods, declared once.

A :class:`PageLayout` is one on-page tuple format: a fixed-width head
(a ``struct`` format and a name per field), then ``width`` payload
elements of ``dtype`` (the width bound once ``dim`` is known), on pages
whose special space is either a u32 next block — a *chained* page, the
chain ending at :data:`NO_BLOCK` — or empty.  The IVF, HNSW and codec
forks write, read and check their pages only through these
declarations, so an on-page change edits this module alone.  DESIGN.md,
"Index page formats", tabulates them with the root causes they carry.
A *keyed* format's head is exactly a heap TID ``(blkno, offset)``,
which the tuple reader (:meth:`PageLayout.items`) hands out packed.

Every such page is *packed*: fixed-size items, item *i* lying
``i * item_size`` bytes below the special space.  Pages are appended
to, rewritten whole or refilled front to back and never holed — except
HNSW data pages, where VACUUM kills node tuples in place (``holes``).
:meth:`PageLayout.verify` is the one check of that shape.
"""

from __future__ import annotations

import re
import struct
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.pgsim.buffer import BufferManager, Frame
from repro.pgsim.constants import INVALID_BLOCK, LINE_POINTER_SIZE, PAGE_HEADER_SIZE
from repro.pgsim.page import Page, PageCorruptError, PageFullError, gather_records

#: Terminator of a page chain (and "no bucket / neighbor page").
NO_BLOCK = INVALID_BLOCK
_NEXT = struct.Struct("<I")  # a chained page's whole special space
_POINTER = struct.Struct("<HH")  # a line pointer: item offset, item length


class PageLayout:
    """One index tuple format and the page convention that carries it."""

    def __init__(
        self, name: str, head: str, fields: str, dtype: Any = "<f4", width: int = 0,
        chained: bool = False, holes: bool = False, keyed: bool = False,
    ) -> None:
        self.name, self.chained, self.holes, self.keyed = name, chained, holes, keyed
        self.head = struct.Struct(head)
        self.dtype, self.width = np.dtype(dtype), width
        self.item_size = self.head.size + width * self.dtype.itemsize
        self.special_size = _NEXT.size if chained else 0
        # One item as a NumPy record: the head fields, pad bytes as void
        # fields (so that copies carry them), then ``payload``.
        columns, names = [], iter(fields.split())
        for count, code in re.findall(r"(\d*)(\w)", head[1:]):
            pad = code == "x"
            columns.append((f"pad{len(columns)}", f"V{count or 1}") if pad else (next(names), code))
        head_fields = [(name, code if code[0] == "V" else "<" + code) for name, code in columns]
        #: One item's head fields (pads included) as a NumPy record.
        self.head_record = np.dtype(head_fields)
        self.record = np.dtype(head_fields + [("payload", self.dtype, (width,))])
        #: field name -> (its struct, its byte offset, a format of one
        #: item that decodes only this field)
        self.fields: dict[str, tuple[struct.Struct, int, str]] = {}
        for name, code in columns:
            if code[0] != "V":
                at = self.record.fields[name][1]
                rest = self.item_size - at - struct.calcsize("<" + code)
                self.fields[name] = (struct.Struct("<" + code), at, f"{at}x{code}{rest}x")
        self._geometry_by_size: dict[int, tuple[bytes, int, int, bytes, dict[int, bytes]]] = {}

    def bind(self, width: int, dtype: Any = None) -> PageLayout:
        """This format with ``width`` payload elements (of ``dtype``)."""
        return PageLayout(
            self.name, self.head.format, " ".join(self.fields),
            self.dtype if dtype is None else dtype, width, self.chained, self.holes, self.keyed,
        )

    def _geometry(self, page_size: int) -> tuple[bytes, int, int, bytes, dict[int, bytes]]:
        """``(empty page image, special offset, items per page, a full
        page's line-pointer array, byte length -> that array's prefix of
        the length, filled in by :meth:`verify` as lengths occur)`` at
        ``page_size``."""
        geometry = self._geometry_by_size.get(page_size)
        if geometry is None:
            empty = Page.init(page_size, special_size=self.special_size)
            special, size = empty.special, self.item_size
            per_page = (special - PAGE_HEADER_SIZE) // (size + LINE_POINTER_SIZE)
            if per_page < 1:
                raise PageFullError(f"{size}-byte {self.name} items do not fit a page")
            pointers = struct.pack(
                f"<{2 * per_page}H",
                *[v for i in range(1, per_page + 1) for v in (special - size * i, size)],
            )
            geometry = (bytes(empty.buf), special, per_page, pointers, {})
            self._geometry_by_size[page_size] = geometry
        return geometry

    def per_page(self, page_size: int) -> int:
        """Items one page holds."""
        return self._geometry(page_size)[2]

    def verify(self, page: Page) -> int:
        """Check that ``page`` is one of this layout's and return its
        item count: its special space is the layout's, every line
        pointer sits at its packed slot (or is dead, where ``holes``),
        and the tuple area ``[upper, special)`` is exactly the items.

        Raises:
            PageCorruptError: ("not packed") otherwise.
        """
        lower, upper, special = page.bounds()
        geometry = self._geometry_by_size.get(page.page_size) or self._geometry(page.page_size)
        # The pointer array is compared in place against the packed
        # array's prefix of its length, built once per length.
        length = lower - PAGE_HEADER_SIZE
        n = length // LINE_POINTER_SIZE
        prefix = geometry[4].get(length)
        if prefix is None and length <= len(geometry[3]):
            prefix = geometry[4][length] = geometry[3][: max(length, 0)]
        buf = page.buf
        if (
            special != geometry[1]
            or special - upper != n * self.item_size
            or not (
                prefix is not None and buf[PAGE_HEADER_SIZE:lower] == prefix
                or self.holes and _holed(buf[PAGE_HEADER_SIZE:lower], geometry[3])
            )
        ):
            raise PageCorruptError(f"{self.name} page is not packed")
        return n

    def count(self, frame: Frame) -> int:
        """:meth:`verify` of a pinned frame's page, once per page image:
        the verdict stays on the frame (``Frame.checked``) until the
        buffer manager reloads the page or a writer unpins it dirty, as
        PostgreSQL checks a page once, when it is read in."""
        checked = frame.checked
        if checked is None or checked[0] is not self:
            checked = frame.checked = (self, self.verify(frame.page))
        return checked[1]

    # -- items ----------------------------------------------------------
    def pack(self, n: int, **columns: Any) -> np.ndarray:
        """``n`` items as records, each named column (``payload`` too)
        broadcast in; pad bytes and absent fields are zero."""
        records = np.zeros(n, self.record)
        for name, column in columns.items():
            records[name] = column
        return records

    def pack_area(self, rows: Sequence[Sequence[int]]) -> bytes:
        """Head-only items from their field values, as the tuple area
        :meth:`write_page` takes (one pack, last row first)."""
        values = [value for row in reversed(rows) for value in row]
        return struct.pack("<" + self.head.format[1:] * len(rows), *values)

    def get(self, page: Page, offno: int, name: str) -> int:
        """One head field of item ``offno``."""
        field, at, __ = self.fields[name]
        return field.unpack_from(page.buf, page.item_bounds(offno)[0] + at)[0]

    def put(self, page: Page, offno: int, **values: Any) -> None:
        """Overwrite named head fields (or the ``payload``) of item
        ``offno`` in place."""
        off, length = page.item_bounds(offno)
        for name, value in values.items():
            if name == "payload":
                memoryview(page.buf)[off + self.head.size : off + length] = value.tobytes()
            else:
                field, at, __ = self.fields[name]
                field.pack_into(page.buf, off + at, value)

    # -- writers --------------------------------------------------------
    def next_block(self, page: Page) -> int:
        return _NEXT.unpack_from(page.buf, page.page_size - _NEXT.size)[0]

    def set_next(self, page: Page, blkno: int) -> None:
        _NEXT.pack_into(page.buf, page.page_size - _NEXT.size, blkno)

    def write_page(self, page: Page, area: bytes, next_blk: int = NO_BLOCK) -> None:
        """Overwrite ``page`` with one packed image whose tuple area is
        ``area`` (items newest first, as they lie on the page): byte for
        byte what :meth:`Page.init` plus one ``insert_item`` per item
        leaves, checksum and LSN zero."""
        empty, special, per_page, pointers, __ = self._geometry(page.page_size)
        n, rest = divmod(len(area), self.item_size)
        if rest or n > per_page:
            raise PageFullError(f"{len(area)} bytes are not a {self.name} page's items")
        buf, lower, upper = page.buf, PAGE_HEADER_SIZE + LINE_POINTER_SIZE * n, special - len(area)
        buf[:] = empty
        page.lower, page.upper = lower, upper
        buf[PAGE_HEADER_SIZE:lower] = pointers[: LINE_POINTER_SIZE * n]
        buf[upper:special] = area
        if self.chained:
            self.set_next(page, next_blk)

    def write(
        self, buffer: BufferManager, rel: str, records: np.ndarray, head: int = NO_BLOCK
    ) -> int:
        """Write ``records`` to fresh pages at the end of ``rel``, each
        filled before the next; returns the last page (``head`` if none).
        Chained, each new page links to the one before it, starting at
        ``head``, so the result is the chain's head."""
        per_page = self.per_page(buffer.disk.page_size)
        for start in range(0, len(records), per_page):
            blkno, frame = buffer.new_page(rel, special_size=self.special_size)
            try:
                self.write_page(frame.page, records[start : start + per_page][::-1].tobytes(), head)
            finally:
                buffer.unpin(frame, dirty=True)
            head = blkno
        return head

    def new_page(
        self, buffer: BufferManager, rel: str, next_blk: int = NO_BLOCK, item: bytes = b""
    ) -> tuple[int, int]:
        """Format a page at the end of ``rel`` (chained: linked to
        ``next_blk``) holding ``item`` if one is given; returns the
        block and the item's offset number (0 for none)."""
        blkno, frame = buffer.new_page(rel, special_size=self.special_size)
        try:
            if self.chained:
                self.set_next(frame.page, next_blk)
            return blkno, frame.page.insert_item(item) if item else 0
        finally:
            buffer.unpin(frame, dirty=True)

    def append(self, buffer: BufferManager, rel: str, item: bytes, blkno: int) -> tuple[int, int]:
        """Insert one item on page ``blkno`` or, when that is full or
        ``NO_BLOCK``, on a :meth:`new_page` linked to it; returns its
        ``(block, offset number)``."""
        if blkno != NO_BLOCK:
            frame = buffer.pin(rel, blkno)
            try:
                offno = frame.page.insert_item(item)
            except PageFullError:
                buffer.unpin(frame)
            else:
                buffer.unpin(frame, dirty=True)
                return blkno, offno
        return self.new_page(buffer, rel, blkno, item)

    # -- readers --------------------------------------------------------
    def pages(
        self, buffer: BufferManager, rel: str, head: int | None = None, dirty: bool = False
    ) -> Iterator[Page]:
        """Pin and yield each page in turn — the chain from ``head``, or
        with ``head=None`` every page of ``rel`` in block order — its
        next block read before it is yielded."""
        blkno, end = (0, buffer.disk.n_blocks(rel)) if head is None else (head, NO_BLOCK)
        while blkno != end:
            frame = buffer.pin(rel, blkno)
            try:
                page = frame.page
                blkno = blkno + 1 if head is None else self.next_block(page)
                yield page
            finally:
                buffer.unpin(frame, dirty=dirty)

    def items(
        self, buffer: BufferManager, rel: str, head: int | None = None,
        timed: Callable[[Callable], Callable] = lambda read: read,
    ) -> Iterator[tuple[int, Callable[[int], tuple[Any, np.ndarray]]]]:
        """The tuple reader: per page of :meth:`pages`, ``(item count,
        read)``, the caller looping ``read(offno)`` over offsets 1..count.
        ``read`` is the per-item decode bound to the pinned page — the
        line-pointer range and dead-item checks of
        :meth:`~repro.pgsim.page.Page.item_bounds` (a failing item is
        handed to it, so the exceptions are its own), one head unpack,
        one ``frombuffer`` — defined once per call and wrapped once in
        ``timed``.  It returns ``(key, payload view)``: the packed heap
        TID ``(blkno << 16) | offset`` on a ``keyed`` layout, else the
        head fields.  Payload views are views of the page's buffer-pool
        slot, so they are valid only while the page is pinned — until
        the next pull: a caller that keeps payloads past it copies them
        first."""
        unpack, pointer, frombuffer = self.head.unpack_from, _POINTER.unpack_from, np.frombuffer
        dtype, width, head_size, keyed = self.dtype, self.width, self.head.size, self.keyed
        size = LINE_POINTER_SIZE
        base = PAGE_HEADER_SIZE - size  # line pointer i lies at base + size * i
        buf = item_bounds = None  # the pinned page's, rebound per page
        n = 0

        def read(offno: int) -> tuple[Any, np.ndarray]:
            at, length = pointer(buf, base + size * offno) if 0 < offno <= n else (0, 0)
            if not length:
                at, __ = item_bounds(offno)  # raises, as it does for this item
            if keyed:
                blkno, offset = unpack(buf, at)
                return (blkno << 16) | offset, frombuffer(buf, dtype, width, at + head_size)
            return unpack(buf, at), frombuffer(buf, dtype, width, at + head_size)

        read = timed(read)
        for page in self.pages(buffer, rel, head):
            buf, item_bounds, n = page.buf, page.item_bounds, page.item_count
            yield n, read

    def read_packed(
        self, buffer: BufferManager, rel: str, heads: Sequence[int] | None = None,
        item_order: bool = False, split: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """The page-granular reader: every item of the chains at
        ``heads`` (``None``: every page of ``rel``) as one record array.
        Per page one pin and one :meth:`count` (a :meth:`verify` the
        first time the image is read); per window of pinned pages
        (:meth:`~repro.pgsim.buffer.BufferManager.pin_windows`) one
        gather of the items straight from the buffer pool's arena,
        newest item first unless ``item_order``.  With ``split`` the
        items come back as columns instead, each gathered from the arena
        once: ``(head records, payloads)``, the head fields as
        :attr:`head_record` records and the payloads one contiguous
        ``(n, width)`` matrix of ``dtype`` that a scorer may use as its
        own.  The result is a copy: nothing of it refers to the pool."""
        size, page_size = self.item_size, buffer.disk.page_size
        special = page_size - self.special_size
        blocks, follow = (range(buffer.disk.n_blocks(rel)), None) if heads is None else (
            heads, self.next_block
        )
        parts = []
        for window in buffer.pin_windows(rel, blocks, follow):
            counts = np.array([self.count(frame) for frame in window], dtype=np.int64)
            slots = np.array([frame.slot for frame in window], dtype=np.int64)
            # Item j of a page lies j items above its tuple area's start.
            area = np.repeat(slots * page_size + special - counts * size, counts)
            j = np.arange(len(area)) - np.repeat(np.cumsum(counts) - counts, counts)
            if item_order:
                j = np.repeat(counts, counts) - 1 - j
            starts, arena = area + j * size, buffer.arena
            if not split:
                parts.append(gather_records(arena, starts, self.record))
            else:
                parts.append((
                    gather_records(arena, starts, self.head_record),
                    self._gather_payloads(arena, starts + self.head.size),
                ))
        if len(parts) == 1:
            return parts[0]
        if not split:
            return np.concatenate(parts) if parts else np.empty(0, self.record)
        if not parts:
            return np.empty(0, self.head_record), np.empty((0, self.width), self.dtype)
        head_parts, payload_parts = zip(*parts)
        return np.concatenate(head_parts), np.concatenate(payload_parts)

    def _gather_payloads(self, arena: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """The payloads at byte offsets ``starts`` of ``arena`` as one
        contiguous ``(n, width)`` matrix: one row gather."""
        if not self.width:
            return np.empty((len(starts), 0), self.dtype)
        raw = gather_records(arena, starts, np.dtype(f"V{self.width * self.dtype.itemsize}"))
        return raw.view(self.dtype).reshape(-1, self.width)

    def column(self, buffer: BufferManager, rel: str, head: int, name: str) -> list:
        """One head field of every item of the chain at ``head`` (a
        chained layout), in item order: per page one pin, one
        :meth:`count` and one unpack of the tuple area.  A plain loop,
        not :meth:`pages`: it is HNSW's neighbor reader, run per visited
        node."""
        values: list = []
        count, fmt, size = self.count, self.fields[name][2], self.item_size
        while head != NO_BLOCK:
            frame = buffer.pin(rel, head)
            try:
                buf, n = frame.page.buf, count(frame)
                special = len(buf) - _NEXT.size
                values += struct.unpack_from("<" + fmt * n, buf, special - n * size)[::-1]
                head = _NEXT.unpack_from(buf, special)[0]
            finally:
                buffer.unpin(frame)
        return values


def _holed(got: bytes, pointers: bytes) -> bool:
    """Every line pointer in ``got`` is the packed one or dead (zero)."""
    if len(got) % LINE_POINTER_SIZE or len(got) > len(pointers):
        return False
    got_lp = np.frombuffer(got, "<u4")
    return bool(np.all((got_lp == np.frombuffer(pointers, "<u4", len(got_lp))) | (got_lp == 0)))


#: The formats.  IVF (Sec. II-E): the meta tuple (its payload is the
#: codec's tail — IVF_PQ's ``m, c_pq``), fixed-size centroid tuples
#: whose page and slot are computable from the id, and per-bucket
#: chains of data tuples whose payload is each variant's encoding.
IVF_META = PageLayout("ivf_meta", "<III", "dim clusters distance_type", "<u4")
IVF_CENTROID = PageLayout("ivf_centroid", "<II", "centroid_id bucket_head")
IVF_DATA = PageLayout(
    "ivf_data", "<IHxx", "heap_blkno heap_offset", "u1", chained=True, keyed=True
)
PQ_CODEBOOK = PageLayout("pq_codebook", "<HH", "sub_space codeword")
SQ8_CODEC = PageLayout("sq8_codec", "<H", "row")  # row 0: vmin, row 1: vdiff
#: HNSW (Sec. VI-C2): the 24-byte HNSWNeighborTuple — the 8-byte
#: PaseTuple pointer carries the neighbor's node id — on chained pages,
#: one fresh chain per adjacency list (RC#4); and the node's data tuple.
HNSW_NEIGHBOR = PageLayout("hnsw_neighbor", "<QIIH6x", "node nblkid dblkid doffset", chained=True)
HNSW_DATA = PageLayout("hnsw_data", "<IIHH", "node heap_blkno heap_offset level", holes=True)
