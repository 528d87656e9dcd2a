"""The page-structured IVF index every IVF access method is built on.

The paper varies two things across its IVF systems — how a list entry is
*encoded* (raw float / PQ code / SQ8 code) and where the vector *lives*
(on the index page, in the heap behind a TID, in a memory mirror).
:class:`PagedIVF` owns everything else; each registered AM subclasses it
and supplies only those two.

Layout (following the paper's description of PASE, Sec. II-E/VI-A):

- **meta fork** — one page, one tuple: ``(dim, clusters, distance_type)``
  plus whatever the codec appends.
- **centroid fork** — fixed-size centroid tuples packed into pages:
  ``centroid_id (u32) | bucket_head_blkno (u32) | vector (d * f32)``.
  Because tuples are fixed-size, centroid *i*'s page and offset are
  computable, like PASE's centroid pages.
- **data fork** — per-bucket chains of data pages.  Each data tuple is
  ``heap_blkno (u32) | heap_offset (u16) | pad (2) | payload``; each
  page's 8-byte special space holds the next block in the chain.  The
  payload is the variant's encoding of the vector (possibly empty).
- codec forks (PQ codebook, SQ8 ranges) written by the variant.

Construction trains centroids with PASE's k-means flavour (RC#5) and
assigns base vectors one at a time without SGEMM (RC#1).  Search walks
centroid pages and bucket chains through the buffer manager — paying
the per-tuple toll of RC#2 — and collects candidates into a size-*n*
heap (RC#6) unless ``SET pase.fixed_heap = true``.

What a variant overrides:

=========================  ============================================
``FORKS``                  page files it owns, in size-report order
``_encode``                vectors -> payload matrix (dtype and width)
``_train_codec`` etc.      codec training, its fork and meta tail
``_tuple_scorer``          per-query ``score_one(key, payload)``
``_rows_scorer``           per-query ``score_rows(keys, payloads)``
``_candidate_cost``        planner weight of one scored candidate
``_train_coarse/_assign``  the two build-algorithm hooks (RC#5, RC#1)
=========================  ============================================
"""

from __future__ import annotations

import heapq
import struct
import time
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.common.distance import pairwise_kernel, rows_kernel
from repro.common.heap import BoundedMaxHeap, NaiveTopK
from repro.common.kmeans import pase_kmeans, sample_training_rows
from repro.common.types import BuildStats, DistanceType
from repro.pase.options import parse_ivf_options
from repro.pgsim.am import IndexAmRoutine, ScanBatch, topk_batch
from repro.pgsim.constants import LINE_POINTER_SIZE, PAGE_HEADER_SIZE
from repro.pgsim.heapam import TID
from repro.pgsim.page import Page, PageCorruptError, PageFullError
from repro.pgsim.paths import DISTANCE_OP_WEIGHT

_META = struct.Struct("<III")  # dim, clusters, distance_type
_CENTROID_HEAD = struct.Struct("<II")  # centroid_id, bucket_head_blkno
_DATA_HEAD = struct.Struct("<IHxx")  # heap blkno, heap offset, pad
_NEXT = struct.Struct("<I")  # chain pointer in the special space

#: "no bucket page" sentinel.
_NO_BLOCK = 0xFFFFFFFF

SEC_DISTANCE = "fvec_L2sqr"
SEC_TUPLE_ACCESS = "Tuple Access"
SEC_HEAP = "Min-heap"

#: ``score_one(key, payload) -> distance`` (None: entry lags a VACUUM);
#: ``key`` is the packed heap TID ``(blkno << 16) | offset``.
TupleScorer = Callable[[int, np.ndarray], "float | None"]
#: ``score_rows(keys, payloads) -> (keys, distances)``; may drop rows.
RowsScorer = Callable[[np.ndarray, np.ndarray], "tuple[np.ndarray, np.ndarray]"]


class PagedIVF(IndexAmRoutine):
    """Page-backed IVF: build, insert, vacuum, scans, costs, sizes."""

    amcanfilter = True
    FORKS = ("meta", "centroid", "data")
    #: Whether the data fork stores raw float32 vectors.  Only then may
    #: VACUUM re-center centroids from surviving entries; the quantized
    #: variants keep codes, so a recomputed centroid would drift from
    #: the codec's training frame — they compact only.
    PAYLOAD_IS_VECTOR = False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The IVF options (``self.opts`` may wrap them, as IVF_PQ does).
        self.ivf = self.opts = parse_ivf_options(self.options)
        self.build_stats = BuildStats()
        self.dim: int | None = None
        self._centroids_per_page: int | None = None
        self._payload_dtype = np.dtype(np.uint8)
        self._item_size = _DATA_HEAD.size
        #: ``(query bytes, full centroid order, bucket heads)`` from the
        #: most recent scan — lets ``amrescan_continue`` skip re-ranking
        #: the centroids when the over-fetch loop widens ``k``.
        self._rescan_cache: tuple[bytes, np.ndarray, list[int]] | None = None
        #: Per-centroid count of post-build inserts, consulted by
        #: VACUUM's re-centering heuristic (ivf_recluster_threshold).
        self._bucket_inserts: dict[int, int] = {}

    # ------------------------------------------------------------------
    # what a variant supplies
    # ------------------------------------------------------------------
    def _metric(self) -> DistanceType:
        """Metric the lists are ranked (and float payloads scored) under."""
        return self.ivf.distance_type

    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        """``(n, d)`` float32 vectors -> ``(n, width)`` payload matrix."""
        raise NotImplementedError

    def _codec_training_floor(self) -> int:
        """Rows the training sample must keep for the codec (PQ: c_pq)."""
        return 0

    def _train_codec(self, sample: np.ndarray) -> None:
        """Fit the payload codec on the training sample (default: none)."""

    def _write_codec_fork(self) -> None:
        """Persist the codec's own fork (default: none)."""

    def _meta_item(self, n_clusters: int) -> bytes:
        return _META.pack(self.dim, n_clusters, int(self.ivf.distance_type))

    def _tuple_scorer(self, query: np.ndarray) -> TupleScorer:
        """Per-query scorer for one data tuple; owns its profiler sections."""
        raise NotImplementedError

    def _rows_scorer(self, query: np.ndarray) -> RowsScorer | None:
        """Per-query scorer for a whole bucket, or None when the variant
        has no vectorised kernel (batch scans then wrap the tuple scan)."""
        return None

    def _candidate_cost(self, cost: Any) -> float:
        """Planner cost of visiting and scoring one probed candidate."""
        raise NotImplementedError

    def _query_setup_cost(self, cost: Any) -> float:
        """Per-query work ahead of the list scan (PQ: the ADC table)."""
        return 0.0

    def _train_coarse(self, sample: np.ndarray, n_clusters: int) -> np.ndarray:
        """Coarse quantizer training: PASE's k-means flavour (RC#5)."""
        return pase_kmeans(sample, n_clusters, self.ivf.kmeans_iterations).centroids

    def _assign(self, vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
        """PASE's adding phase: one distance row per base vector, no
        SGEMM (the paper's RC#1)."""
        assignments = np.empty(vectors.shape[0], dtype=np.int64)
        tick = self.progress.tick
        for i, vec in enumerate(vectors):
            diff = centroids - vec
            assignments[i] = np.argmin(np.einsum("ij,ij->i", diff, diff))
            tick()
        return assignments

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def build(self) -> None:
        rows = [(tid, values[self.column_index]) for tid, values in self.table.scan()]
        if not rows:
            raise RuntimeError("cannot build an IVF index over an empty table")
        tids = [tid for tid, __ in rows]
        vectors = np.vstack([v for __, v in rows]).astype(np.float32)
        self.dim = int(vectors.shape[1])
        n_clusters = min(self.ivf.clusters, len(rows))

        start = time.perf_counter()
        self.progress.set_phase("sample")
        sample = sample_training_rows(
            vectors,
            self.ivf.sample_ratio,
            max(n_clusters, self._codec_training_floor()),
            self.ivf.seed,
        )
        self.progress.set_phase("kmeans")
        self._train_codec(sample)
        centroids = self._train_coarse(sample, n_clusters)
        self.build_stats.train_seconds = time.perf_counter() - start

        start = time.perf_counter()
        self.progress.set_phase("assign", tuples_total=len(rows))
        payloads = self._encode(vectors)
        self._payload_dtype = payloads.dtype
        self._item_size = _DATA_HEAD.size + payloads.shape[1] * payloads.itemsize
        buckets: list[list[int]] = [[] for _ in range(n_clusters)]
        for row, bucket in enumerate(self._assign(vectors, centroids).tolist()):
            buckets[bucket].append(row)
        self.build_stats.distance_computations += len(rows) * n_clusters

        self.progress.set_phase("flush")
        self._flush(centroids, tids, payloads, buckets)
        self.build_stats.add_seconds = time.perf_counter() - start
        self.build_stats.vectors_added = len(rows)
        self._rescan_cache = None
        self._bucket_inserts = {}

    def _flush(
        self,
        centroids: np.ndarray,
        tids: list[TID],
        payloads: np.ndarray,
        buckets: list[list[int]],
    ) -> None:
        """Write the trained lists out as pages."""
        heads = [self._write_bucket(tids, payloads, rows) for rows in buckets]
        self._write_centroids(centroids, heads)
        self._write_codec_fork()
        if "meta" in self.FORKS:
            __, frame = self.buffer.new_page(self.create_fork("meta"))
            try:
                frame.page.insert_item(self._meta_item(len(heads)))
            finally:
                self.buffer.unpin(frame, dirty=True)

    def _write_centroids(self, centroids: np.ndarray, heads: list[int]) -> None:
        rel = self.create_fork("centroid")
        tuple_size = _CENTROID_HEAD.size + centroids.shape[1] * 4
        self._centroids_per_page = max(
            (self.buffer.disk.page_size - PAGE_HEADER_SIZE)
            // (tuple_size + LINE_POINTER_SIZE),
            1,
        )
        frame = None
        for i, (centroid, head) in enumerate(zip(centroids, heads)):
            if i % self._centroids_per_page == 0:
                if frame is not None:
                    self.buffer.unpin(frame, dirty=True)
                __, frame = self.buffer.new_page(rel)
            frame.page.insert_item(_CENTROID_HEAD.pack(i, head) + centroid.tobytes())
        if frame is not None:
            self.buffer.unpin(frame, dirty=True)

    def _write_bucket(self, tids: list[TID], payloads: np.ndarray, rows: list[int]) -> int:
        """Write one bucket as a page chain; returns its head block."""
        rel = self.create_fork("data")
        head = _NO_BLOCK
        frame = None
        for row in rows:
            tid = tids[row]
            item = _DATA_HEAD.pack(tid.blkno, tid.offset) + payloads[row].tobytes()
            if frame is not None:
                try:
                    frame.page.insert_item(item)
                    continue
                except PageFullError:
                    self.buffer.unpin(frame, dirty=True)
                    frame = None
            blkno, frame = self.buffer.new_page(rel, special_size=_NEXT.size)
            frame.page.write_special(_NEXT.pack(head))
            head = blkno
            frame.page.insert_item(item)
        if frame is not None:
            self.buffer.unpin(frame, dirty=True)
        return head

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def insert(self, tid: TID, value: Any) -> None:
        if self.dim is None:
            raise RuntimeError("index must be built before single inserts")
        self._rescan_cache = None
        vec = np.ascontiguousarray(value, dtype=np.float32)
        if vec.shape != (self.dim,):
            raise ValueError(f"expected a {self.dim}-dim vector, got shape {vec.shape}")
        payload = self._encode(vec.reshape(1, -1))[0]
        best_id, best_dist = -1, float("inf")
        for cent_id, __, centroid in self._iter_centroids():
            diff = centroid - vec
            dist = float(np.dot(diff, diff))
            if dist < best_dist:
                best_id, best_dist = cent_id, dist
        self._bucket_inserts[best_id] = self._bucket_inserts.get(best_id, 0) + 1
        item = _DATA_HEAD.pack(tid.blkno, tid.offset) + payload.tobytes()
        head = self._bucket_head(best_id)
        rel = self.relation_name("data")
        if head != _NO_BLOCK:
            frame = self.buffer.pin(rel, head)
            try:
                frame.page.insert_item(item)
            except PageFullError:
                self.buffer.unpin(frame)
            else:
                self.buffer.unpin(frame, dirty=True)
                return
        blkno, frame = self.buffer.new_page(rel, special_size=_NEXT.size)
        try:
            frame.page.write_special(_NEXT.pack(head))
            frame.page.insert_item(item)
        finally:
            self.buffer.unpin(frame, dirty=True)
        self._set_bucket_head(best_id, blkno)

    # ------------------------------------------------------------------
    # vacuum (ambulkdelete)
    # ------------------------------------------------------------------
    def ambulkdelete(self, dead_tids: set[TID]) -> int:
        """Compact bucket chains, dropping entries for vacuumed tuples.

        Each bucket's page chain is rewritten in place with only the
        surviving entries.  Where the payload is the raw vector and a
        list has churned past the ``ivf_recluster_threshold`` GUC — dead
        entries plus post-build inserts as a fraction of its current
        size — its centroid is re-centered to the mean of the surviving
        vectors, PASE's answer to cluster drift under streaming ingest.
        """
        if self.dim is None or not dead_tids:
            return 0
        threshold = float(self.catalog.get_setting("ivf_recluster_threshold"))
        removed_total = 0
        for cent_id, removed, survivors in self._compact_bucket_chains(dead_tids):
            removed_total += removed
            if removed:
                # Per-bucket progress tick (pg_stat_progress_vacuum):
                # observers see entry reclamation advance chain by chain.
                self.vacuum_progress.tick_index_entries(removed)
            if not self.PAYLOAD_IS_VECTOR or not survivors:
                continue
            inserts = self._bucket_inserts.get(cent_id, 0)
            if (removed + inserts) / len(survivors) <= threshold:
                continue
            mat = np.vstack(
                [
                    np.frombuffer(item, dtype=np.float32, offset=_DATA_HEAD.size)
                    for item in survivors
                ]
            )
            self._recenter(cent_id, mat.mean(axis=0).astype(np.float32))
            self._bucket_inserts[cent_id] = 0
        if removed_total:
            self._rescan_cache = None
        return removed_total

    def _recenter(self, centroid_id: int, centroid: np.ndarray) -> None:
        """Overwrite one centroid vector in place (chain head unchanged)."""
        blkno, off = self._centroid_location(centroid_id)
        frame = self.buffer.pin(self.relation_name("centroid"), blkno)
        try:
            view = frame.page.get_item_view(off)
            view[_CENTROID_HEAD.size :] = centroid.tobytes()
        finally:
            self.buffer.unpin(frame, dirty=True)

    def _compact_bucket_chains(
        self, dead_tids: set[TID]
    ) -> Iterator[tuple[int, int, list[bytes]]]:
        """Drop dead entries from every bucket chain.

        Compaction only needs the raw item bytes (every variant shares
        the ``heap_blkno | heap_off | pad`` item prefix), so it never
        decodes the payload.  For each bucket, yields ``(centroid_id,
        removed, survivor_items)`` where survivor items are byte copies
        of the entries kept.  Chains with removals are rewritten in
        place: each page is re-initialized (keeping its next pointer)
        and refilled front-to-back, so surviving items stay contiguous —
        the layout ``_read_records`` copies in one slice per page — and
        trailing chain pages are simply left empty.  Index forks are not
        WAL-logged (recovery rebuilds them from the DDL log), so the
        wholesale page rewrite needs no log record.
        """
        rel = self.relation_name("data")
        if not self.buffer.disk.relation_exists(rel):
            return
        buckets = [(cent_id, head) for cent_id, head, __ in self._iter_centroids()]
        for cent_id, head in buckets:
            survivors: list[bytes] = []
            removed = 0
            blkno = head
            while blkno != _NO_BLOCK:
                frame = self.buffer.pin(rel, blkno)
                try:
                    page = frame.page
                    for off in range(1, page.item_count + 1):
                        view = page.get_item_view(off)
                        heap_blk, heap_off = _DATA_HEAD.unpack_from(view, 0)
                        if TID(heap_blk, heap_off) in dead_tids:
                            removed += 1
                        else:
                            # Copy: the view dangles once the frame is
                            # unpinned (the buffer may recycle it).
                            survivors.append(bytes(view))
                    (blkno,) = _NEXT.unpack(page.read_special())
                finally:
                    self.buffer.unpin(frame)
            if removed:
                self._refill_chain(rel, head, survivors)
            yield cent_id, removed, survivors

    def _refill_chain(self, rel: str, head: int, survivors: list[bytes]) -> None:
        """Rewrite a bucket chain's pages in place with the surviving items."""
        pending = iter(survivors)
        item = next(pending, None)
        blkno = head
        while blkno != _NO_BLOCK:
            frame = self.buffer.pin(rel, blkno)
            try:
                page = frame.page
                (nxt,) = _NEXT.unpack(page.read_special())
                fresh = Page.init(page.page_size, special_size=_NEXT.size)
                page.buf[:] = fresh.buf
                page.write_special(_NEXT.pack(nxt))
                while item is not None:
                    try:
                        page.insert_item(item)
                    except PageFullError:
                        break
                    item = next(pending, None)
                blkno = nxt
            finally:
                self.buffer.unpin(frame, dirty=True)
        if item is not None:
            raise PageCorruptError(f"{rel} chain at {head}: survivors exceed its capacity")

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _check_query(self, query: np.ndarray) -> np.ndarray:
        if self.dim is None:
            raise RuntimeError("index has not been built")
        query = np.ascontiguousarray(query, dtype=np.float32)
        if query.shape != (self.dim,):
            raise ValueError(f"query must be {self.dim}-dim, got shape {query.shape}")
        return query

    def _nprobe(self) -> int:
        return max(int(self.catalog.get_setting("pase.nprobe")), 1)

    def _rank_centroids(
        self, query: np.ndarray, reuse: bool = False, batch: bool = False
    ) -> tuple[np.ndarray, list[int]]:
        """Rank every centroid by distance to ``query``.

        Returns ``(full sorted centroid order, bucket heads)``.  With
        ``reuse`` (the over-fetch rescan path) a cached ranking from the
        initial scan of the same query is returned without recomputing
        the centroid distances; plain scans always recompute, keeping
        their measured work identical to before.  The tuple interface
        walks centroid tuples one kernel call each; ``batch`` (the batch
        interface) pins the same pages but decodes the whole fork at
        once, in stored-id order, and ranks it with one rows-kernel call.
        """
        key = query.tobytes()
        if reuse and self._rescan_cache is not None and self._rescan_cache[0] == key:
            return self._rescan_cache[1], self._rescan_cache[2]
        if batch:
            section = self.profiler.section
            with section(SEC_TUPLE_ACCESS):
                size = _CENTROID_HEAD.size + 4 * self.dim
                words = self._read_records("centroid", size).view("<u4")
                words = words[np.argsort(words[:, 0], kind="stable")]  # id | head | vector
            with section(SEC_DISTANCE):
                dists = rows_kernel(self._metric())(query, words[:, 2:].view("<f4"))
            order, heads = np.argsort(dists, kind="stable"), words[:, 1].tolist()
            self._rescan_cache = (key, order, heads)
            return order, heads
        kernel = self.profiler.timed(SEC_DISTANCE, pairwise_kernel(self._metric()))
        cent_dists: list[float] = []
        heads: list[int] = []
        for __, head, centroid in self._iter_centroids():
            cent_dists.append(kernel(query, centroid))
            heads.append(head)
        order = np.argsort(np.asarray(cent_dists), kind="stable")
        self._rescan_cache = (key, order, heads)
        return order, heads

    def scan(self, query: np.ndarray, k: int) -> Iterator[tuple[TID, float]]:
        return self._tuple_scan(query, k, reuse=False)

    def amrescan_continue(self, query: np.ndarray, k: int) -> Iterator[tuple[TID, float]]:
        """Over-fetch continuation: reuse the scan's centroid ranking."""
        return self._tuple_scan(query, k, reuse=True)

    def _tuple_scan(self, query: np.ndarray, k: int, reuse: bool) -> Iterator[tuple[TID, float]]:
        query = self._check_query(query)
        order, heads = self._rank_centroids(query, reuse)
        probes = order[: self._nprobe()].tolist()
        return self._scan_buckets(k, probes, heads, self._tuple_scorer(query))

    def _scan_buckets(
        self, k: int, probes: list[int], heads: list[int], score_one: TupleScorer
    ) -> Iterator[tuple[TID, float]]:
        """Walk the probed buckets, yielding the k nearest ``(tid, dist)``.

        Every scored candidate is offered to the heap once, inside its
        own ``Min-heap`` section when profiling."""
        timed = self.profiler.timed
        chain_pages = self._chain_pages
        candidates = 0
        if self.catalog.get_bool("pase.fixed_heap"):
            # RC#6 neutralized: k-sized heap, candidates rejected with a
            # single comparison against the current worst survivor (a
            # tie at the worst distance is settled on TID by the push).
            heap = BoundedMaxHeap(k)
            push = heap.push
            worst = heap.worst_distance

            def offer(dist: float, key: int) -> None:
                nonlocal worst
                if dist <= worst and push(dist, key):
                    worst = heap.worst_distance

        else:
            # PASE's design: every candidate enters a size-n heap.
            heap = NaiveTopK(k)
            offer = heap.push
        offer = timed(SEC_HEAP, offer)
        for bucket in probes:
            for keys, payloads in chain_pages(heads[bucket]):
                candidates += len(keys)
                for key, payload in zip(keys, payloads):
                    dist = score_one(key, payload)
                    if dist is not None:
                        offer(dist, key)
        self.scan_stats.scans += 1
        self.scan_stats.candidates += candidates
        for neighbor in timed(SEC_HEAP, heap.results)():
            yield _key_tid(neighbor.vector_id), neighbor.distance

    def get_batch(self, query: np.ndarray, k: int) -> ScanBatch:
        """Batched scan: the probed lists scored with one kernel call.

        Same pages pinned and candidates scored as :meth:`scan`, but
        per-tuple Python work (line-pointer walk, kernel call, profiler
        section, heap push — the paper's RC#2/RC#3/RC#6 toll) collapses
        into one copy per page and array ops per statement.
        """
        return self._batch_scan(query, k, reuse=False)

    def amrescan_continue_batch(self, query: np.ndarray, k: int) -> ScanBatch:
        """Batched over-fetch continuation (cached centroid ranking)."""
        return self._batch_scan(query, k, reuse=True)

    def _batch_scan(self, query: np.ndarray, k: int, reuse: bool) -> ScanBatch:
        query = self._check_query(query)
        score_rows = self._rows_scorer(query)
        if score_rows is None:
            return ScanBatch.from_pairs(self._tuple_scan(query, k, reuse))
        order, heads = self._rank_centroids(query, reuse, batch=True)
        section = self.profiler.section
        with section(SEC_TUPLE_ACCESS):
            keys, payloads = self._gather_buckets([heads[b] for b in order[: self._nprobe()]])
        self.scan_stats.scans += 1
        self.scan_stats.candidates += int(keys.shape[0])
        keys, dists = score_rows(keys, payloads)
        with section(SEC_HEAP):
            return topk_batch(keys, dists, k)

    # ------------------------------------------------------------------
    # in-filter search (amsearch_filtered)
    # ------------------------------------------------------------------
    def amsearch_filtered(
        self, query: np.ndarray, k: int, mask_fn: Any
    ) -> Iterator[tuple[TID, float]]:
        """In-filter scan: each probed bucket's TIDs go through the
        predicate mask before any distance work, so rejected candidates
        never reach a scorer call (kernel, table lookup, heap fetch).
        The k nearest survivors come back in ``(distance, tid)`` order,
        the tie-break every other scan path uses."""
        query = self._check_query(query)
        order, heads = self._rank_centroids(query)
        score_one = self._tuple_scorer(query)
        chain_pages = self._chain_pages
        scored: list[tuple[float, int]] = []
        keep = scored.append

        def visit(bucket: int) -> tuple[int, int]:
            keys: list[int] = []
            payloads: list[np.ndarray] = []
            for page_keys, page_payloads in chain_pages(heads[bucket]):
                keys += page_keys
                payloads += page_payloads
            if not keys:
                return 0, 0
            matched = 0
            mask = mask_fn([_key_tid(key) for key in keys])
            for key, payload, ok in zip(keys, payloads, mask):
                if not ok:
                    continue
                matched += 1
                dist = score_one(key, payload)
                if dist is not None:
                    keep((dist, key))
            return len(keys), matched

        self._widen_probes(order.tolist(), k, visit)
        self.scan_stats.candidates += len(scored)
        nearest = self.profiler.timed(SEC_HEAP, heapq.nsmallest)(k, scored)
        return iter([(_key_tid(key), dist) for dist, key in nearest])

    def _widen_probes(
        self, order: Sequence[int], k: int, visit: Callable[[int], tuple[int, int]]
    ) -> None:
        """The in-filter probe loop shared by every filtered scan.

        Visits lists in the caller's *full* centroid ranking, ``nprobe``
        first; while fewer than k candidates have passed the mask the
        probe set widens geometrically over the remaining ranking until
        k match or every list has been scanned.  ``visit(bucket)``
        masks and scores one list and returns ``(examined, matched)``.
        Records the scan and sets ``last_filtered_examined`` to the
        number of mask-judged candidates.
        """
        examined = matched = probed = 0
        target = min(self._nprobe(), len(order))
        while True:
            for bucket in order[probed:target]:
                seen, passed = visit(bucket)
                examined += seen
                matched += passed
            probed = target
            if matched >= k or probed >= len(order):
                break
            target = min(len(order), target * 2)
        self.scan_stats.scans += 1
        self.last_filtered_examined = examined

    # ------------------------------------------------------------------
    # planner cost estimate
    # ------------------------------------------------------------------
    def amestimate_candidates(self, ntuples: float, fetch_k: int) -> float:
        """Candidates one scan scores — and the in-filter mask must
        judge: the probed share of the indexed tuples (``nprobe/clusters``
        of n)."""
        n = max(float(ntuples), 1.0)
        clusters = max(1.0, min(float(self.ivf.clusters), n))
        nprobe = float(min(self._nprobe(), int(clusters)))
        return n * (nprobe / clusters)

    def amcostestimate(self, ntuples: float, fetch_k: int, cost: Any) -> tuple[float, float]:
        """IVF scan cost: rank every centroid, score ``nprobe/clusters``
        of the indexed tuples.  ``fetch_k`` barely matters — the heap is
        k-bounded but every probed candidate still gets a distance."""
        clusters = max(1.0, min(float(self.ivf.clusters), max(float(ntuples), 1.0)))
        total = clusters * DISTANCE_OP_WEIGHT * cost.cpu_operator_cost
        total += self._query_setup_cost(cost)
        total += self.amestimate_candidates(ntuples, fetch_k) * self._candidate_cost(cost)
        return total, total

    # ------------------------------------------------------------------
    # page iteration
    # ------------------------------------------------------------------
    def _iter_centroids(self) -> Iterator[tuple[int, int, np.ndarray]]:
        """Yield ``(centroid_id, bucket_head, vector)`` from centroid pages,
        each centroid decoded in its own ``Tuple Access`` section."""
        rel = self.relation_name("centroid")
        unpack, frombuffer = _CENTROID_HEAD.unpack_from, np.frombuffer
        head_size, dim = _CENTROID_HEAD.size, self.dim
        buf = item_bounds = None  # the pinned page's, rebound per page

        def read_tuple(offno: int) -> tuple[int, int, np.ndarray]:
            off, __ = item_bounds(offno)
            cent_id, head = unpack(buf, off)
            return cent_id, head, frombuffer(buf, np.float32, dim, off + head_size)

        read_tuple = self.profiler.timed(SEC_TUPLE_ACCESS, read_tuple)
        for blkno in range(self.buffer.disk.n_blocks(rel)):
            frame = self.buffer.pin(rel, blkno)
            try:
                page = frame.page
                buf, item_bounds = page.buf, page.item_bounds
                for offno in range(1, page.item_count + 1):
                    yield read_tuple(offno)
            finally:
                self.buffer.unpin(frame)

    def _chain_pages(self, head: int) -> Iterator[tuple[list[int], list[np.ndarray]]]:
        """Walk one bucket's page chain, yielding per page ``(packed heap
        TID keys, payload views)`` — the tuple interface's list reader.

        Per page: one pin; per data tuple, inside its own ``Tuple
        Access`` section, one line-pointer lookup (``item_bounds``, with
        its range and dead-item checks), one head unpack and one view of
        the fixed-width payload; the next pointer from one unpack at the
        special space.  The page stays pinned while the caller consumes
        it; the views stay valid after the unpin, because a frame read
        back in gets a fresh buffer rather than overwriting this one.
        """
        rel = self.relation_name("data")
        buffer = self.buffer
        unpack, frombuffer = _DATA_HEAD.unpack_from, np.frombuffer
        dtype = self._payload_dtype
        head_size = _DATA_HEAD.size
        width = (self._item_size - head_size) // dtype.itemsize
        buf = item_bounds = add_key = add_payload = None  # the pinned page's, rebound per page

        def read_tuple(offno: int) -> None:
            off, __ = item_bounds(offno)
            heap_blk, heap_off = unpack(buf, off)
            add_key((heap_blk << 16) | heap_off)
            add_payload(frombuffer(buf, dtype, width, off + head_size))

        read_tuple = self.profiler.timed(SEC_TUPLE_ACCESS, read_tuple)
        blkno = head
        while blkno != _NO_BLOCK:
            frame = buffer.pin(rel, blkno)
            try:
                page = frame.page
                buf, item_bounds = page.buf, page.item_bounds
                keys: list[int] = []
                payloads: list[np.ndarray] = []
                add_key, add_payload = keys.append, payloads.append
                for offno in range(1, page.item_count + 1):
                    read_tuple(offno)
                (blkno,) = _NEXT.unpack_from(buf, page.special)
                yield keys, payloads
            finally:
                buffer.unpin(frame)

    def _read_records(
        self, fork: str, item_size: int, heads: Sequence[int] | None = None
    ) -> np.ndarray:
        """Copy fixed-size tuples out of pages as one ``(n, item_size)``
        byte matrix: the bucket chains starting at ``heads``, or with
        ``heads=None`` every page of ``fork`` in block order.

        The batch interface's only page reader.  Each page is pinned
        once, its header read once, and its tuple area ``[upper,
        special)`` — where fixed-size items sit back to back, newest
        first — copied in one slice before the unpin.  These forks are
        only appended to, refilled front to back or overwritten at the
        same size, never holed, so the area is exactly the page's items.
        Nothing outlives the call outside the buffer pool.
        """
        rel = self.relation_name(fork)
        chained = heads is not None
        chunks: list[bytearray] = []
        for blkno in heads if chained else range(self.buffer.disk.n_blocks(rel)):
            while blkno != _NO_BLOCK:
                frame = self.buffer.pin(rel, blkno)
                try:
                    page = frame.page
                    lower, upper, special = page.bounds()
                    n = (lower - PAGE_HEADER_SIZE) // LINE_POINTER_SIZE
                    if special - upper != n * item_size:
                        raise PageCorruptError(f"{rel} page {blkno} is not packed")
                    chunks.append(page.buf[upper:special])
                    blkno = _NEXT.unpack_from(page.buf, special)[0] if chained else _NO_BLOCK
                finally:
                    self.buffer.unpin(frame)
        return np.frombuffer(b"".join(chunks), dtype=np.uint8).reshape(-1, item_size)

    def _gather_buckets(self, heads: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The lists at ``heads`` as ``(packed TID keys, payload matrix)``,
        decoded with one reshape and one key pack for all of them."""
        records = self._read_records("data", self._item_size, heads)
        words = records[:, : _DATA_HEAD.size].copy().view("<u4")  # blkno | offset, pad
        keys = (words[:, 0].astype(np.int64) << 16) | (words[:, 1] & 0xFFFF)
        dtype = self._payload_dtype
        return keys, records.view(dtype)[:, _DATA_HEAD.size // dtype.itemsize :]

    # ------------------------------------------------------------------
    # centroid tuple addressing
    # ------------------------------------------------------------------
    def _centroid_location(self, centroid_id: int) -> tuple[int, int]:
        assert self._centroids_per_page is not None
        return (
            centroid_id // self._centroids_per_page,
            centroid_id % self._centroids_per_page + 1,
        )

    def _bucket_head(self, centroid_id: int) -> int:
        blkno, off = self._centroid_location(centroid_id)
        with self.buffer.page(self.relation_name("centroid"), blkno) as page:
            return _CENTROID_HEAD.unpack_from(page.get_item_view(off), 0)[1]

    def _set_bucket_head(self, centroid_id: int, head: int) -> None:
        blkno, off = self._centroid_location(centroid_id)
        frame = self.buffer.pin(self.relation_name("centroid"), blkno)
        try:
            struct.pack_into("<I", frame.page.get_item_view(off), 4, head)
        finally:
            self.buffer.unpin(frame, dirty=True)


def topk_parts(key_parts: list[np.ndarray], dist_parts: list[np.ndarray], k: int) -> ScanBatch:
    """The k nearest over per-bucket ``(keys, distances)`` parts."""
    if not key_parts:
        return ScanBatch.empty()
    return topk_batch(np.concatenate(key_parts), np.concatenate(dist_parts), k)


def _tid_key(tid: TID) -> int:
    """Pack a TID into one int for heap entries."""
    return (tid.blkno << 16) | tid.offset


def _key_tid(key: int) -> TID:
    return TID(key >> 16, key & 0xFFFF)
