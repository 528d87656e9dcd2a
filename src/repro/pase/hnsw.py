"""The HNSW access-method core and PASE's page-structured residence.

The graph algorithm is shared with the specialized engine
(:mod:`repro.common.graph`).  :class:`HNSWCore` runs it behind the AM
contract once for both HNSW AMs; what :class:`PaseHNSW` adds is PASE's
substrate, with the two properties the paper's Secs. V-C and VI-C
trace root causes to:

- **RC#2** — every vector fetch, neighbor-list traversal and
  visited-check goes through the buffer manager and page decoding.
  ``vectors()`` gathers one tuple at a time; ``neighbors()`` walks
  neighbor pages (``pasepfirst``); the visited set resolves a
  node to its ``HNSWGlobalId`` before each membership test
  (``HVTGet``).
- **RC#4** — every adjacency list starts on a **fresh page**, and each
  neighbor entry is a 24-byte ``HNSWNeighborTuple``::

      PaseTuple pointer (8 B) | nblkid (u32) | dblkid (u32)
      | doffset (u16) | alignment padding (6 B)       = 24 bytes

  versus Faiss's 4-byte ids — the paper's exact Sec. VI-C2 numbers.

Vectors live in packed data-fork tuples:
``node_id (u32) | heap_blkno (u32) | heap_offset (u16) | level (u16) |
vector``.
"""

from __future__ import annotations

import math
import struct
import time
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

import numpy as np

from repro.common import graph
from repro.common.rng import make_rng
from repro.common.types import BuildStats, Neighbor
from repro.pase.options import parse_hnsw_options
from repro.pgsim.am import IndexAmRoutine, ScanBatch, register_am
from repro.pgsim.constants import LINE_POINTER_SIZE, PAGE_HEADER_SIZE
from repro.pgsim.heapam import TID
from repro.pgsim.paths import DISTANCE_OP_WEIGHT
from repro.pgsim.page import Page, PageCorruptError, PageFullError

#: The 24-byte HNSWNeighborTuple (Sec. VI-C2).  The 8-byte PaseTuple
#: pointer field carries the neighbor's node id — the role the char
#: pointer ("virtual link") plays in PASE.
_NEIGHBOR = struct.Struct("<QIIH6x")
assert _NEIGHBOR.size == 24
#: The same tuple with only its node id decoded (the neighbor reader's unit).
_NEIGHBOR_ID = "Q16x"
assert struct.calcsize("<" + _NEIGHBOR_ID) == _NEIGHBOR.size

_DATA_HEAD = struct.Struct("<IIHH")  # node id, heap blkno, heap offset, level
_NEXT = struct.Struct("<I")
_NO_BLOCK = 0xFFFFFFFF


@dataclass(slots=True)
class _NodeMeta:
    """In-memory handle of one graph node (PASE's virtual-link role)."""

    data_blkno: int
    data_offset: int
    level: int
    neighbor_heads: list[int]  # head block per level


class _TupleVisited:
    """PASE-style visited set (the paper's ``HVTGet``).

    Membership is tested against the node's composed ``HNSWGlobalId``
    — (neighbor block, data block, data offset) — which must be looked
    up and assembled per check, instead of indexing a flat array.
    """

    __slots__ = ("_store", "_seen")

    def __init__(self, store: "PageGraphStore") -> None:
        self._store = store
        self._seen: set[tuple[int, int, int]] = set()

    def _global_id(self, node: int) -> tuple[int, int, int]:
        meta = self._store._nodes[node]
        nblkid = meta.neighbor_heads[0] if meta.neighbor_heads else _NO_BLOCK
        return (nblkid, meta.data_blkno, meta.data_offset)

    def add(self, node: int) -> None:
        self._seen.add(self._global_id(node))

    def __contains__(self, node: int) -> bool:
        return self._global_id(node) in self._seen


class PageGraphStore:
    """Page-backed :class:`repro.common.graph.GraphStore`."""

    def __init__(self, am: "PaseHNSW") -> None:
        self.am = am
        self.buffer = am.buffer
        self.profiler = am.profiler
        self.counters = graph.GraphCounters()
        self.entry_point: int | None = None
        self.max_level = -1
        self._nodes: list[_NodeMeta] = []
        self.data_rel = am.create_fork("data")
        self.neighbor_rel = am.create_fork("neighbors")
        # The neighbor-page layout, fixed by the page size: the next-page
        # pointer is the whole special space, tuples fill the page from
        # there down, and item i always sits 24 * i bytes below it.
        empty = Page.init(self.buffer.disk.page_size, special_size=_NEXT.size)
        self._empty_page = bytes(empty.buf)
        self._next_at = empty.special
        self._per_page = (self._next_at - PAGE_HEADER_SIZE) // (
            LINE_POINTER_SIZE + _NEIGHBOR.size
        )
        self._pointer_array = struct.pack(
            f"<{2 * self._per_page}H",
            *[
                value
                for i in range(1, self._per_page + 1)
                for value in (self._next_at - _NEIGHBOR.size * i, _NEIGHBOR.size)
            ],
        )

    # ------------------------------------------------------------------
    # GraphStore protocol
    # ------------------------------------------------------------------
    def vector(self, node: int) -> np.ndarray:
        return self.vectors([node])[0]

    def vectors(self, nodes: Sequence[int]) -> np.ndarray:
        # One buffer-manager round trip per vector: PASE cannot gather
        # with a single pointer dereference the way Faiss does (RC#2).
        # Under each pin the line pointer is read and the vector bytes
        # copied out; the copies are decoded as one matrix afterwards.
        buffer, rel, metas = self.buffer, self.data_rel, self._nodes
        head = _DATA_HEAD.size
        parts: list[bytearray] = []
        for node in nodes:
            meta = metas[node]
            frame = buffer.pin(rel, meta.data_blkno)
            try:
                page = frame.page
                off, length = page.item_bounds(meta.data_offset)
                parts.append(page.buf[off + head : off + length])
            finally:
                buffer.unpin(frame)
        matrix = np.frombuffer(b"".join(parts), dtype=np.float32)
        return matrix.reshape(len(parts), self.am.dim)

    def neighbors(self, node: int, level: int) -> list[int]:
        # Per neighbor page: one pin, one header read and one unpack of
        # the tuple area.  The pages are only ever rewritten whole (never
        # ``delete_item``'d), so the area is exactly the page's items,
        # last item first.
        meta = self._nodes[node]
        if level >= len(meta.neighbor_heads):
            return []
        ids: list[int] = []
        buffer, rel = self.buffer, self.neighbor_rel
        blkno = meta.neighbor_heads[level]
        while blkno != _NO_BLOCK:
            frame = buffer.pin(rel, blkno)
            try:
                page = frame.page
                lower, upper, special = page.bounds()
                n = (lower - PAGE_HEADER_SIZE) // LINE_POINTER_SIZE
                if special - upper != _NEIGHBOR.size * n:
                    raise PageCorruptError(f"{rel} page {blkno} is not packed")
                ids += struct.unpack_from("<" + _NEIGHBOR_ID * n, page.buf, upper)[::-1]
                (blkno,) = _NEXT.unpack_from(page.buf, special)
            finally:
                buffer.unpin(frame)
        return ids

    def set_neighbors(self, node: int, level: int, ids: Sequence[int]) -> None:
        meta = self._nodes[node]
        if level >= len(meta.neighbor_heads):
            raise IndexError(f"node {node} has no level {level}")
        # The head page is dedicated to this adjacency list (fresh page
        # per list, RC#4), so rewriting in place is safe.  Pages past the
        # end of the new list are emptied but stay linked: a shorter list
        # must not read back the old list's tail.
        fields = [self._neighbor_fields(nid) for nid in ids]
        per_page = self._per_page
        blkno = meta.neighbor_heads[level]
        start = 0
        while True:
            chunk = fields[start : start + per_page]
            start += len(chunk)
            frame = self.buffer.pin(self.neighbor_rel, blkno)
            try:
                (next_blk,) = _NEXT.unpack_from(frame.page.buf, self._next_at)
                self._write_list_page(frame.page, chunk, next_blk)
            finally:
                self.buffer.unpin(frame, dirty=True)
            if start < len(fields) and next_blk == _NO_BLOCK:
                next_blk = self._new_neighbor_page()
                self._link_next(blkno, next_blk)
            if next_blk == _NO_BLOCK:
                break
            blkno = next_blk

    def add_node(self, vector: np.ndarray, level: int) -> int:
        node_id = len(self._nodes)
        # The heap TID is stamped in once the caller knows it.
        data_blkno, data_offset = self.am._append_data(
            _DATA_HEAD.pack(node_id, 0, 0, level) + vector.tobytes()
        )
        # RC#4: one fresh page per adjacency list, at every level.
        heads = [self._new_neighbor_page() for _ in range(level + 1)]
        self._nodes.append(_NodeMeta(data_blkno, data_offset, level, heads))
        return node_id

    def node_count(self) -> int:
        return len(self._nodes)

    def make_visited(self) -> _TupleVisited:
        return _TupleVisited(self)

    # ------------------------------------------------------------------
    # page plumbing
    # ------------------------------------------------------------------
    def _neighbor_fields(self, node_id: int) -> tuple[int, int, int, int]:
        """The fields of ``node_id``'s ``HNSWNeighborTuple``."""
        meta = self._nodes[node_id]
        nblkid = meta.neighbor_heads[0] if meta.neighbor_heads else _NO_BLOCK
        return (node_id, nblkid, meta.data_blkno, meta.data_offset)

    def _write_list_page(self, page: Page, fields: list[tuple[int, ...]], next_blk: int) -> None:
        """Overwrite ``page`` with one neighbor-list page image.

        Byte for byte what :meth:`Page.init` followed by one
        ``insert_item`` per tuple leaves (item 1 ends at the special
        space, each later item below the previous one, checksum and LSN
        zero), written as one image: the empty page, the two header
        bounds, the pointer-array prefix and one pack of the tuple area.
        """
        n = len(fields)
        buf = page.buf
        lower = PAGE_HEADER_SIZE + LINE_POINTER_SIZE * n
        upper = self._next_at - _NEIGHBOR.size * n
        buf[:] = self._empty_page
        page.lower = lower
        page.upper = upper
        buf[PAGE_HEADER_SIZE:lower] = self._pointer_array[: LINE_POINTER_SIZE * n]
        values = [value for tup in reversed(fields) for value in tup]
        struct.pack_into("<" + _NEIGHBOR.format[1:] * n, buf, upper, *values)
        _NEXT.pack_into(buf, self._next_at, next_blk)

    def _new_neighbor_page(self) -> int:
        blkno, frame = self.buffer.new_page(self.neighbor_rel, special_size=_NEXT.size)
        try:
            frame.page.write_special(_NEXT.pack(_NO_BLOCK))
        finally:
            self.buffer.unpin(frame, dirty=True)
        return blkno

    def _link_next(self, blkno: int, next_blk: int) -> None:
        frame = self.buffer.pin(self.neighbor_rel, blkno)
        try:
            frame.page.write_special(_NEXT.pack(next_blk))
        finally:
            self.buffer.unpin(frame, dirty=True)

    def set_heap_tid(self, node: int, tid: TID) -> None:
        """Stamp the owning heap tuple's TID into a node's data tuple."""
        meta = self._nodes[node]
        frame = self.buffer.pin(self.data_rel, meta.data_blkno)
        try:
            view = frame.page.get_item_view(meta.data_offset)
            struct.pack_into("<IH", view, 4, tid.blkno, tid.offset)
        finally:
            self.buffer.unpin(frame, dirty=True)

    def heap_tid(self, node: int) -> TID:
        """Read back the heap TID stored in a node's data tuple."""
        return self.heap_tids([node])[0]

    def heap_tids(self, nodes: Sequence[int]) -> list[TID]:
        """Batched :meth:`heap_tid`: one buffer pin per data block."""
        out: list[TID | None] = [None] * len(nodes)
        by_block: dict[int, list[int]] = {}
        for i, node in enumerate(nodes):
            by_block.setdefault(self._nodes[node].data_blkno, []).append(i)
        for blkno, positions in by_block.items():
            with self.buffer.page(self.data_rel, blkno) as page:
                for i in positions:
                    off, __ = page.item_bounds(self._nodes[nodes[i]].data_offset)
                    __, heap_blk, heap_off, __ = _DATA_HEAD.unpack_from(page.buf, off)
                    out[i] = TID(heap_blk, heap_off)
        return out  # type: ignore[return-value]


class HNSWCore(IndexAmRoutine):
    """One HNSW access method, parameterised by where the graph lives.

    Runs :mod:`repro.common.graph` behind the AM contract — build,
    insert, VACUUM repair, the tuple and batch scans, the in-filter beam
    with its ef-widening loop, costs — once for both HNSW AMs.  A
    subclass supplies only its residence: the hooks under "what a
    residence supplies", its ``FORKS`` and ``CANDIDATE_TOLL``, and a
    ``size_info`` if part of it lives outside pages.
    """

    amcanfilter = True
    FORKS = ("data",)
    #: Per-candidate share of the two page-tuple reads + one distance a
    #: beam visit costs on pages (1.0); memory residences pay less.
    CANDIDATE_TOLL = 1.0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.opts = parse_hnsw_options(self.options)
        self.build_stats = BuildStats()
        self.params = graph.HNSWParams(bnn=self.opts.bnn, efb=self.opts.efb)
        self.dim: int | None = None
        self.store: Any = None
        #: Node ids unlinked by VACUUM (ids are positional, never reused);
        #: their data tuples are gone, so readers and later vacuums skip them.
        self.removed: set[int] = set()
        self._rng = make_rng(self.opts.seed)
        self._data_insert_block: int | None = None

    # ------------------------------------------------------------------
    # what a residence supplies
    # ------------------------------------------------------------------
    def _new_store(self) -> Any:
        """An empty graph store (pages or memory), made at the first vector."""
        raise NotImplementedError

    def _record(self, node: int, tid: TID, vec: np.ndarray) -> None:
        """Remember a new node's heap TID (and write its data tuple)."""
        raise NotImplementedError

    def _tid_of(self, node: int) -> TID:
        """Node -> heap TID on the tuple interface."""
        raise NotImplementedError

    def _tids_of(self, nodes: Sequence[int]) -> list[TID]:
        """The same for many nodes (batch interface, in-filter mask)."""
        raise NotImplementedError

    def _node_levels(self) -> Sequence[int]:
        """Every node's top level (VACUUM repair walks each of them)."""
        raise NotImplementedError

    def _delete_data(self, dead: set[int]) -> None:
        """Drop vacuumed nodes' data tuples."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # build / insert
    # ------------------------------------------------------------------
    def build(self) -> None:
        for fork in self.FORKS:
            self.create_fork(fork)
        self.store = self.dim = self._data_insert_block = None
        self.removed = set()
        start = time.perf_counter()
        count = 0
        # HNSW builds incrementally: each tuple is inserted and linked
        # in one pass, so "insert" covers the whole loop and "link" is
        # the (cheap) final state, mirroring pg_stat_progress phases.
        # An empty table builds an empty index that later inserts fill.
        self.progress.set_phase("insert")
        for tid, values in self.table.scan():
            self.insert(tid, values[self.column_index])
            count += 1
            self.progress.tick()
        self.progress.set_phase("link")
        self.build_stats.add_seconds = time.perf_counter() - start
        self.build_stats.vectors_added = count
        if self.store is not None:
            self.build_stats.distance_computations = self.store.counters.distance_computations

    def insert(self, tid: TID, value: Any) -> None:
        vec = np.ascontiguousarray(value, dtype=np.float32)
        if self.dim is None:
            self.dim = int(vec.shape[0])
        # Before any page is written: a rejected row leaves no node behind.
        if vec.shape != (self.dim,):
            raise ValueError(f"expected a {self.dim}-dim vector, got shape {vec.shape}")
        if self.store is None:
            self.store = self._new_store()
        node = graph.insert(self.store, self.params, vec, self._rng)
        self._record(node, tid, vec)

    def _append_data(self, item: bytes) -> tuple[int, int]:
        """Append one data tuple to the current insert page of the data
        fork (a fresh page once it is full); returns its location."""
        rel = self.relation_name("data")
        if self._data_insert_block is not None:
            frame = self.buffer.pin(rel, self._data_insert_block)
            try:
                offset = frame.page.insert_item(item)
            except PageFullError:
                self.buffer.unpin(frame)
            else:
                self.buffer.unpin(frame, dirty=True)
                return self._data_insert_block, offset
        blkno, frame = self.buffer.new_page(rel)
        try:
            offset = frame.page.insert_item(item)
        finally:
            self.buffer.unpin(frame, dirty=True)
        self._data_insert_block = blkno
        return blkno, offset

    # ------------------------------------------------------------------
    # vacuum (ambulkdelete)
    # ------------------------------------------------------------------
    def ambulkdelete(self, dead_tids: set[TID]) -> int:
        """Unlink graph nodes whose heap tuples were vacuumed.

        Survivor neighbor lists are repaired by bridging through the
        dead nodes' own neighbors (the shared
        :func:`repro.common.graph.repair_after_delete`), then the dead
        nodes' data tuples are deleted so their bytes stop counting as
        used, their vectors stop costing distance computations and a
        restart rebuild never resurrects them.
        """
        store = self.store
        if store is None or not dead_tids:
            return 0
        candidates = [n for n in range(store.node_count()) if n not in self.removed]
        tids = self._tids_of(candidates)
        dead = {n for n, tid in zip(candidates, tids) if tid in dead_tids}
        if not dead:
            return 0
        # Previously removed nodes join the dead set so the repair
        # never picks one as a bridge or replacement entry point.
        graph.repair_after_delete(store, self.params, dead | self.removed, self._node_levels())
        self._delete_data(dead)
        self.removed |= dead
        self.vacuum_progress.tick_index_entries(len(dead))
        return len(dead)

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _search(self, query: np.ndarray, k: int, admit: Any = None) -> list[Neighbor]:
        """The graph search behind every scan, counted as one scan.

        One beam at ``pase.efs`` — or, in-filter (``admit`` given), a
        beam widened geometrically until k admitted nodes come back or
        ef covers the live graph.  An empty index returns nothing.
        """
        store = self.store
        if store is None or store.node_count() == 0:
            return []
        query = np.ascontiguousarray(query, dtype=np.float32)
        if query.shape != (self.dim,):
            raise ValueError(f"query must be {self.dim}-dim, got shape {query.shape}")
        # Refresh the store's profiler in case the harness replaced ours.
        store.profiler = self.profiler
        live = max(store.node_count() - len(self.removed), 1)
        ef = max(int(self.catalog.get_setting("pase.efs")), k)
        dist0 = store.counters.distance_computations
        while True:
            neighbors = graph.search(store, self.params, query, k, efs=ef, admit=admit)
            if admit is None or len(neighbors) >= k or ef >= live:
                break
            ef = min(live, ef * 2)
        self.scan_stats.scans += 1
        self.scan_stats.candidates += store.counters.distance_computations - dist0
        return neighbors

    def scan(self, query: np.ndarray, k: int) -> Iterator[tuple[TID, float]]:
        for neighbor in self._search(query, k):
            yield self._tid_of(neighbor.vector_id), neighbor.distance

    def get_batch(self, query: np.ndarray, k: int) -> ScanBatch:
        """Batched scan: graph search once, heap TIDs resolved together.

        The traversal itself is identical to :meth:`scan` (same graph
        walk, same float results); what batching removes on pages is
        the one buffer pin per result that the tuple path's TID lookup
        costs.
        """
        neighbors = self._search(query, k)
        if not neighbors:
            return ScanBatch.empty()
        tids = self._tids_of([n.vector_id for n in neighbors])
        return ScanBatch.from_pairs(zip(tids, [n.distance for n in neighbors]))

    # ------------------------------------------------------------------
    # in-filter search (amsearch_filtered)
    # ------------------------------------------------------------------
    def amsearch_filtered(
        self, query: np.ndarray, k: int, mask_fn: Any
    ) -> Iterator[tuple[TID, float]]:
        """In-filter search: the predicate rides inside the beam.

        ``mask_fn`` is evaluated on candidates' heap TIDs (batched per
        hop, cached across ef expansions); filtered-out nodes still
        route through the frontier but never enter the result heap.
        When fewer than k allowed nodes come back, the beam widens
        geometrically until k match or ef covers the live graph.
        """
        allowed: dict[int, bool] = {}

        def admit(nodes: list[int]) -> list[bool]:
            fresh = [n for n in nodes if n not in allowed]
            if fresh:
                live = [n for n in fresh if n not in self.removed]
                for n in fresh:
                    allowed[n] = False
                if live:
                    for n, ok in zip(live, mask_fn(self._tids_of(live))):
                        allowed[n] = bool(ok)
            return [allowed[n] for n in nodes]

        neighbors = self._search(query, k, admit)
        self.last_filtered_examined = len(allowed)
        return ((self._tid_of(n.vector_id), n.distance) for n in neighbors)

    # ------------------------------------------------------------------
    # planner cost estimate
    # ------------------------------------------------------------------
    def amestimate_candidates(self, ntuples: float, fetch_k: int) -> float:
        """Beam size the in-filter mask is charged for: ``ef * log2(n)``."""
        n = max(float(ntuples), 2.0)
        ef = float(max(int(self.catalog.get_setting("pase.efs")), fetch_k, 1))
        return min(n, ef * math.log2(n))

    def amcostestimate(self, ntuples: float, fetch_k: int, cost: Any) -> tuple[float, float]:
        """Beam-search cost: roughly ``ef * log2(n)`` candidates visited,
        each paying two page-tuple reads (data tuple + neighbor tuple)
        and one distance, times the residence's ``CANDIDATE_TOLL``.
        ``ef`` widens with ``fetch_k`` exactly as the search does when
        the executor over-fetches past ``ef_search``."""
        total = self.CANDIDATE_TOLL * self.amestimate_candidates(ntuples, fetch_k) * (
            2.0 * cost.cpu_index_tuple_cost + DISTANCE_OP_WEIGHT * cost.cpu_operator_cost
        )
        return total, total


@register_am
class PaseHNSW(HNSWCore):
    """HNSW access method (PASE page layout)."""

    amname = "pase_hnsw"
    aliases = ("hnsw_fun",)
    FORKS = ("data", "neighbors")

    def _new_store(self) -> PageGraphStore:
        return PageGraphStore(self)

    def _record(self, node: int, tid: TID, vec: np.ndarray) -> None:
        self.store.set_heap_tid(node, tid)

    def _tid_of(self, node: int) -> TID:
        return self.store.heap_tid(node)  # one data-page pin per result (RC#2)

    def _tids_of(self, nodes: Sequence[int]) -> list[TID]:
        return self.store.heap_tids(nodes)

    def _node_levels(self) -> list[int]:
        return [meta.level for meta in self.store._nodes]

    def _delete_data(self, dead: set[int]) -> None:
        for node in dead:
            meta = self.store._nodes[node]
            frame = self.buffer.pin(self.store.data_rel, meta.data_blkno)
            try:
                frame.page.delete_item(meta.data_offset)
            finally:
                self.buffer.unpin(frame, dirty=True)
