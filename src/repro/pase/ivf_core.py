"""The page-structured IVF index every IVF access method is built on.

The paper varies two things across its IVF systems — how a list entry is
*encoded* (raw float / PQ code / SQ8 code) and where the vector *lives*
(on the index page, in the heap behind a TID, in memory as well).
:class:`PagedIVF` owns everything else; each registered AM subclasses it
and supplies only those two.

Forks (following the paper's description of PASE, Sec. II-E/VI-A):
one meta tuple, fixed-size centroid tuples (centroid *i*'s page and
slot are computable), per-bucket chains of data pages whose payload is
the variant's encoding of the vector (possibly empty), and the
variant's codec forks.  Their page formats are declared in
:mod:`repro.pase.layout`.

Construction trains the variant's ``MODEL``, the one IVF model
(:class:`repro.specialized.ivf_core.IVFIndex`), in PASE's flavour —
PASE's k-means (RC#5), assignment without SGEMM (RC#1) — and writes
the pages from its centroids, codec and assignments; search, insert and
VACUUM read both back from pages.  The tuple scan walks centroid pages
and bucket chains through the buffer manager — paying the per-tuple
toll of RC#2 — and collects candidates into a size-*n* heap (RC#6)
unless ``SET pase.fixed_heap = true``.  The batch search is written
once, over the two residence hooks below.

What a variant states or overrides:

==========================  ===========================================
``FORKS``                   page files it owns, in size-report order
``MODEL``, ``_model_opts``  the model class and its own arguments
``KMEANS_STYLE/USE_SGEMM``  the build flavour (RC#5, RC#1)
``_encode``                 vectors -> payload matrix (dtype and width)
``_write_codec_fork`` etc.  the model's codec: its fork and meta tail
``_tuple_scorer``           per-query ``score_one(key, payload)``
``_rows_scorer``            per-query ``score_rows(keys, payloads)``
``_rank_lists``             residence: every list nearest first, and
                            each list's locator (pages: chain heads)
``_list_parts``             residence: those lists as ``(keys,
                            payloads)`` parts (pages: one per gather)
``_candidate_cost``         planner weight of one scored candidate
==========================  ===========================================
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.common.distance import pairwise_kernel, rows_kernel
from repro.common.heap import BoundedMaxHeap, NaiveTopK
from repro.common.parallel import ScheduleResult, parallel_search
from repro.common.profiling import SEC_DISTANCE, SEC_HEAP, SEC_TUPLE_ACCESS
from repro.common.types import BuildStats, SearchResult
from repro.pase.layout import IVF_CENTROID, IVF_DATA, IVF_META, PageLayout
from repro.pase.options import parse_ivf_options
from repro.pgsim.am import IndexAmRoutine, ScanBatch, topk_batch
from repro.pgsim.heapam import TID, key_tid, tid_key
from repro.pgsim.page import Page, PageCorruptError
from repro.pgsim.paths import DISTANCE_OP_WEIGHT
from repro.specialized.ivf_core import IVFIndex
from repro.specialized.ivf_flat import IVFFlatIndex

#: ``score_one(key, payload) -> distance`` (None: entry lags a VACUUM);
#: ``key`` is the packed heap TID ``(blkno << 16) | offset``.
TupleScorer = Callable[[int, np.ndarray], "float | None"]
#: ``score_rows(keys, payloads) -> (keys, distances)``; may drop rows.
#: The paged residence hands over payload matrices the scan owns (fresh
#: gathers, masked copies), so a paged scorer may write into them; a
#: residence whose parts are shared pairs them with a scorer that does not.
RowsScorer = Callable[[np.ndarray, np.ndarray], "tuple[np.ndarray, np.ndarray]"]
#: ``read(offno) -> (key, payload view)``: one page's bound tuple decode.
ItemReader = Callable[[int], "tuple[int, np.ndarray]"]
#: ``(packed TID keys, payloads)`` of some lists' rows, as a residence hands them over.
Part = tuple[np.ndarray, np.ndarray]


class PagedIVF(IndexAmRoutine):
    """Page-backed IVF: build, insert, vacuum, scans, costs, sizes."""

    amcanfilter = True
    FORKS = ("meta", "centroid", "data")
    #: Whether the data fork stores raw float32 vectors.  Only then may
    #: VACUUM re-center centroids from surviving entries; the quantized
    #: variants keep codes, so a recomputed centroid would drift from
    #: the codec's training frame — they compact only.
    PAYLOAD_IS_VECTOR = False
    #: The model the build trains, assigns and encodes with.
    MODEL: type[IVFIndex] = IVFFlatIndex
    #: The build flavour: PASE's k-means (RC#5), no SGEMM (RC#1).
    KMEANS_STYLE, USE_SGEMM = "pase", False

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: The IVF options (``self.opts`` may wrap them, as IVF_PQ does).
        self.ivf = self.opts = parse_ivf_options(self.options)
        self.build_stats = BuildStats()
        self.dim: int | None = None
        #: Each fork's page format, bound to this index's widths at build.
        self.layouts: dict[str, PageLayout] = {}
        #: ``(query bytes, full centroid order, list locators, scored)``
        #: from the most recent scan, ``scored`` being ``(nprobe, keys,
        #: distances)`` of every candidate a batch pass scored (else
        #: None).  When the over-fetch loop widens ``k``,
        #: ``amrescan_continue`` skips re-ranking the centroids and
        #: ``amrescan_continue_batch`` answers from the scored candidates.
        #: Every index change (build, insert, VACUUM removal, re-centre)
        #: clears it.
        self._rescan_cache: tuple[bytes, np.ndarray, Sequence, tuple | None] | None = None
        #: Per-centroid count of post-build inserts, consulted by
        #: VACUUM's re-centering heuristic (ivf_recluster_threshold).
        self._bucket_inserts: dict[int, int] = {}

    # ------------------------------------------------------------------
    # what a variant supplies
    # ------------------------------------------------------------------
    def _encode(self, vectors: np.ndarray) -> np.ndarray:
        """``(n, d)`` float32 vectors -> ``(n, width)`` payload matrix."""
        raise NotImplementedError

    def _model_opts(self) -> dict[str, Any]:
        """The variant's own ``MODEL`` arguments (IVF_PQ: m, c_pq)."""
        return {}

    def _write_codec_fork(self, model: IVFIndex) -> None:
        """Persist the model's codec to its own fork and keep it as the
        decoded copy (default: no codec)."""

    def _meta_tail(self) -> list[int]:
        """What the codec appends to the meta tuple (IVF_PQ: m, c_pq)."""
        return []

    def _tuple_scorer(self, query: np.ndarray) -> TupleScorer:
        """Per-query scorer for one data tuple; owns its profiler sections."""
        raise NotImplementedError

    def _rows_scorer(self, query: np.ndarray) -> RowsScorer:
        """Per-query scorer for the gathered payload matrix of the probed
        buckets (the batch interface); owns its profiler sections."""
        raise NotImplementedError

    def _rank_lists(self, query: np.ndarray, reuse: bool = False) -> tuple[np.ndarray, Sequence]:
        """Residence: every list id, nearest first, and each list's
        locator for :meth:`_list_parts` (pages: the chain heads)."""
        return self._rank_centroids(query, reuse, batch=True)

    def _list_parts(self, lists: Sequence, buckets: Sequence[int]) -> list[Part]:
        """Residence: the lists ``buckets`` as parts (pages: one part
        for all, their chains read page-granular)."""
        with self.profiler.section(SEC_TUPLE_ACCESS):
            return [self._gather_buckets([lists[bucket] for bucket in buckets])]

    def _candidate_cost(self, cost: Any) -> float:
        """Planner cost of visiting and scoring one probed candidate."""
        raise NotImplementedError

    def _query_setup_cost(self, cost: Any) -> float:
        """Per-query work ahead of the list scan (PQ: the ADC table)."""
        return 0.0

    # ------------------------------------------------------------------
    # build
    # ------------------------------------------------------------------
    def build(self) -> None:
        keys, vectors = self._heap_vectors()
        self.dim = int(vectors.shape[1])
        start = time.perf_counter()
        model = self.MODEL(
            self.dim, min(self.ivf.clusters, len(keys)), sample_ratio=self.ivf.sample_ratio,
            use_sgemm=self.USE_SGEMM, kmeans_style=self.KMEANS_STYLE,
            kmeans_iterations=self.ivf.kmeans_iterations, seed=self.ivf.seed,
            distance_type=self.ivf.distance_type, **self._model_opts(),
        )
        model.progress = self.progress
        model.train(vectors)
        self.build_stats.train_seconds = time.perf_counter() - start

        start = time.perf_counter()
        self.layouts = {}
        self._write_codec_fork(model)
        payloads = self._encode(vectors)
        assignments = model.assign(vectors)
        self.build_stats.distance_computations += len(keys) * model.n_clusters
        self.progress.set_phase("flush")
        self._flush(model, keys, payloads, assignments)
        self.build_stats.add_seconds = time.perf_counter() - start
        self.build_stats.vectors_added = len(keys)
        self._rescan_cache = None
        self._bucket_inserts = {}

    def _heap_vectors(self) -> tuple[np.ndarray, np.ndarray]:
        """Every visible row's packed TID (:func:`tid_key`) and vector,
        in heap order: the build's input.  One column-wise scan of the
        indexed column (each page pinned once, as a tuple-at-a-time scan
        pins it), whose chunks hand the vectors out as ``(rows, d)``
        float32 blocks."""
        keys, blocks = [], []
        for chunk in self.table.scan_batches(columns=[self.column_index]):
            keys.append((chunk.blknos << 16) | chunk.offsets)
            column = chunk.columns[self.column_index]
            blocks.append(column if isinstance(column, np.ndarray) else np.vstack(column))
        if not blocks:
            raise RuntimeError("cannot build an IVF index over an empty table")
        return np.concatenate(keys), np.vstack(blocks).astype(np.float32)

    def _flush(
        self, model: IVFIndex, keys: np.ndarray, payloads: np.ndarray, assignments: np.ndarray
    ) -> None:
        """Write the trained lists out as pages: each list a chain of
        data pages (its rows in heap order), then the centroids carrying
        the chain heads, then the meta tuple.  ``keys[i]`` is the packed
        heap TID of ``payloads[i]``, which joins list ``assignments[i]``."""
        self.layouts.update(
            meta=IVF_META.bind(len(self._meta_tail())),
            centroid=IVF_CENTROID.bind(self.dim),
            data=IVF_DATA.bind(payloads.shape[1], payloads.dtype),
        )
        layouts, buffer = self.layouts, self.buffer
        data, centroid, meta = layouts["data"], layouts["centroid"], layouts["meta"]
        records = data.pack(
            len(keys), heap_blkno=keys >> 16, heap_offset=keys & 0xFFFF, payload=payloads,
        )
        order = np.argsort(assignments, kind="stable")
        bounds = np.searchsorted(assignments[order], np.arange(model.n_clusters + 1)).tolist()
        rel = self.create_fork("data")
        heads = [data.write(buffer, rel, records[order[lo:hi]]) for lo, hi in zip(bounds, bounds[1:])]
        centroid.write(buffer, self.create_fork("centroid"), centroid.pack(
            len(heads), centroid_id=range(len(heads)), bucket_head=heads, payload=model.centroids
        ))
        if "meta" in self.FORKS:
            meta.write(buffer, self.create_fork("meta"), meta.pack(
                1, dim=self.dim, clusters=len(heads), distance_type=self.ivf.distance_type,
                payload=self._meta_tail(),
            ))

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def insert(self, tid: TID, value: Any) -> int:
        """Append one row to the list of its nearest centroid (exact L2,
        one centroid tuple at a time); returns that list's id."""
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
        data = self.layouts["data"]
        item = data.pack(1, heap_blkno=tid.blkno, heap_offset=tid.offset, payload=payload)
        with self._centroid(best_id) as (page, offno):
            head = self.layouts["centroid"].get(page, offno, "bucket_head")
        blkno, __ = data.append(self.buffer, self.relation_name("data"), item.tobytes(), head)
        if blkno != head:  # the chain grew a new head page
            with self._centroid(best_id, dirty=True) as (page, offno):
                self.layouts["centroid"].put(page, offno, bucket_head=blkno)
        return best_id

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
            if not self.PAYLOAD_IS_VECTOR or not len(survivors):
                continue
            inserts = self._bucket_inserts.get(cent_id, 0)
            if (removed + inserts) / len(survivors) <= threshold:
                continue
            self._recenter(cent_id, survivors["payload"].mean(axis=0).astype(np.float32))
            self._bucket_inserts[cent_id] = 0
        if removed_total:
            self._rescan_cache = None
        return removed_total

    def _recenter(self, centroid_id: int, centroid: np.ndarray) -> None:
        """Overwrite one centroid vector in place (chain head unchanged)."""
        self._rescan_cache = None
        with self._centroid(centroid_id, dirty=True) as (page, offno):
            self.layouts["centroid"].put(page, offno, payload=centroid)

    def _compact_bucket_chains(
        self, dead_tids: set[TID]
    ) -> Iterator[tuple[int, int, np.ndarray]]:
        """Drop dead entries from every bucket chain.

        For each bucket, yields ``(centroid_id, removed, survivors)``,
        the survivors a record array of the entries kept.  Chains with
        removals are refilled in place front to back (next pointers
        kept, trailing pages left empty), so they stay packed.  Index
        forks are not WAL-logged (recovery rebuilds them from the DDL
        log), so the wholesale page rewrite needs no log record.
        """
        rel = self.relation_name("data")
        if not self.buffer.disk.relation_exists(rel):
            return
        dead = {tid_key(tid) for tid in dead_tids}
        for cent_id, head, __ in list(self._iter_centroids()):
            items = self.layouts["data"].read_packed(self.buffer, rel, [head], item_order=True)
            survivors = items[[key not in dead for key in record_keys(items).tolist()]]
            if len(survivors) < len(items):
                self._refill_chain(rel, head, survivors)
            yield cent_id, len(items) - len(survivors), survivors

    def _refill_chain(self, rel: str, head: int, survivors: np.ndarray) -> None:
        """Rewrite a bucket chain's pages in place with the surviving
        records, each page a packed image."""
        data = self.layouts["data"]
        per_page, start = data.per_page(self.buffer.disk.page_size), 0
        for page in data.pages(self.buffer, rel, head, dirty=True):
            chunk = survivors[start : start + per_page][::-1].tobytes()
            data.write_page(page, chunk, data.next_block(page))
            start += per_page
        if start < len(survivors):
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
        interface) pins the same pages but gathers the whole fork at
        once, ranks it with one rows-kernel call, and scatters the
        distances and heads to their centroid ids.
        """
        key = query.tobytes()
        if reuse and self._rescan_cache is not None and self._rescan_cache[0] == key:
            return self._rescan_cache[1], self._rescan_cache[2]
        if batch:
            section = self.profiler.section
            with section(SEC_TUPLE_ACCESS):
                rel = self.relation_name("centroid")
                recs, vectors = self.layouts["centroid"].read_packed(self.buffer, rel, split=True)
            with section(SEC_DISTANCE):
                stored = rows_kernel(self.ivf.distance_type)(query, vectors)
            ids = recs["centroid_id"]
            dists, heads_at = np.empty_like(stored), np.empty(len(ids), dtype=np.int64)
            dists[ids], heads_at[ids] = stored, recs["bucket_head"]
            order, heads = np.argsort(dists, kind="stable"), heads_at.tolist()
            self._rescan_cache = (key, order, heads, None)
            return order, heads
        kernel = self.profiler.timed(SEC_DISTANCE, pairwise_kernel(self.ivf.distance_type))
        cent_dists: list[float] = []
        heads: list[int] = []
        for __, head, centroid in self._iter_centroids():
            cent_dists.append(kernel(query, centroid))
            heads.append(head)
        order = np.argsort(np.asarray(cent_dists), kind="stable")
        self._rescan_cache = (key, order, heads, None)
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
            for n, read in chain_pages(heads[bucket]):
                candidates += n
                for offno in range(1, n + 1):
                    key, payload = read(offno)
                    dist = score_one(key, payload)
                    if dist is not None:
                        offer(dist, key)
        self.scan_stats.scans += 1
        self.scan_stats.candidates += candidates
        for neighbor in timed(SEC_HEAP, heap.results)():
            yield key_tid(neighbor.vector_id), neighbor.distance

    def get_batch(self, query: np.ndarray, k: int) -> ScanBatch:
        """Batched scan: on pages, the pages :meth:`scan` pins and the
        candidates it scores, but its per-tuple Python work (the paper's
        RC#2/RC#3/RC#6 toll) collapses into one copy per page and one
        scorer call for all the probed lists."""
        return self._batch_scan(query, k, reuse=False)

    def amrescan_continue_batch(self, query: np.ndarray, k: int) -> ScanBatch:
        """Batched over-fetch continuation: the k nearest of the
        candidates the last batch pass scored for this query and
        ``nprobe`` — its answer at a larger k, with no page read and no
        distance recomputed — else a re-scan on the cached ranking."""
        query = self._check_query(query)
        cache = self._rescan_cache
        scored = None if cache is None or cache[0] != query.tobytes() else cache[3]
        if scored is None or scored[0] != self._nprobe():
            return self._batch_scan(query, k, reuse=True)
        self.scan_stats.scans += 1
        with self.profiler.section(SEC_HEAP):
            return topk_batch(scored[1], scored[2], k)

    def _batch_scan(self, query: np.ndarray, k: int, reuse: bool) -> ScanBatch:
        query = self._check_query(query)
        score_rows = self._rows_scorer(query)
        order, lists = self._rank_lists(query, reuse)
        nprobe = self._nprobe()
        parts = self._list_parts(lists, order[:nprobe].tolist())
        self.scan_stats.scans += 1
        self.scan_stats.candidates += sum(keys.shape[0] for keys, __ in parts)
        keys, dists = self._score(score_rows, parts)
        self._rescan_cache = (query.tobytes(), order, lists, (nprobe, keys, dists))
        with self.profiler.section(SEC_HEAP):
            return topk_batch(keys, dists, k)

    def amsearch_filtered_batch(self, query: np.ndarray, k: int, mask_fn: Any) -> ScanBatch:
        """Batched in-filter: each widening round's lists are handed over
        as parts and masked by packed TID key with one ``mask_fn`` call;
        the rows that pass are scored one part at a time once the
        widening stops."""
        query = self._check_query(query)
        order, lists = self._rank_lists(query)
        passed: list[Part] = []

        def visit(buckets: Sequence[int]) -> tuple[int, int]:
            parts = [part for part in self._list_parts(lists, buckets) if part[0].shape[0]]
            if not parts:
                return 0, 0
            sizes = [keys.shape[0] for keys, __ in parts]
            mask = np.asarray(mask_fn(np.concatenate([keys for keys, __ in parts])), dtype=bool)
            for (keys, payloads), keep in zip(parts, np.split(mask, np.cumsum(sizes)[:-1])):
                if keep.any():
                    passed.append((keys[keep], payloads[keep]))
            return sum(sizes), int(mask.sum())

        self._widen_probes(order.tolist(), k, visit)
        keys, dists = self._score(self._rows_scorer(query), passed)
        self.scan_stats.candidates += keys.shape[0]
        with self.profiler.section(SEC_HEAP):
            return topk_batch(keys, dists, k)

    @staticmethod
    def _score(score_rows: RowsScorer, parts: list[Part]) -> tuple[np.ndarray, np.ndarray]:
        """``(keys, distances)`` of the rows of the parts, one scorer
        call per non-empty part (a scorer may drop rows)."""
        scored = [score_rows(keys, payloads) for keys, payloads in parts if keys.shape[0]]
        if not scored:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        if len(scored) == 1:
            return scored[0]
        keys, dists = (np.concatenate(column) for column in zip(*scored))
        return keys, dists

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

        def visit(buckets: Sequence[int]) -> tuple[int, int]:
            keys: list[int] = []
            payloads: list[np.ndarray] = []
            for bucket in buckets:
                for n, read in chain_pages(heads[bucket]):
                    for offno in range(1, n + 1):
                        key, payload = read(offno)
                        keys.append(key)
                        # Copied while the page is pinned: the round's
                        # payloads outlive it (and the heap mask below).
                        payloads.append(payload.copy())
            if not keys:
                return 0, 0
            matched = 0
            mask = mask_fn([key_tid(key) for key in keys])
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
        return iter([(key_tid(key), dist) for dist, key in nearest])

    def _widen_probes(
        self, order: Sequence[int], k: int, visit: Callable[[Sequence[int]], tuple[int, int]]
    ) -> None:
        """The in-filter probe loop shared by every filtered scan.

        Visits lists in the caller's *full* centroid ranking, a round at
        a time: the first ``nprobe`` lists, then — while fewer than k
        candidates have passed the mask — the rest of a probe set
        doubled over the remaining ranking, until k match or every list
        has been scanned.  ``visit(buckets)`` masks one round's lists
        (in ranking order, with one mask call; the tuple form scores the
        survivors as it goes) and returns ``(examined, matched)``.  Records the scan and sets
        ``last_filtered_examined`` to the number of mask-judged
        candidates.
        """
        examined = matched = probed = 0
        target = min(self._nprobe(), len(order))
        while True:
            seen, passed = visit(order[probed:target])
            examined += seen
            matched += passed
            probed = target
            if matched >= k or probed >= len(order):
                break
            target = min(len(order), target * 2)
        self.scan_stats.scans += 1
        self.last_filtered_examined = examined

    # ------------------------------------------------------------------
    # intra-query parallel search (RC#3)
    # ------------------------------------------------------------------
    def parallel_search(
        self, query: np.ndarray, k: int, nprobe: int, thread_counts: list[int]
    ) -> tuple[SearchResult, dict[int, ScheduleResult]]:
        """PASE's design (Sec. VII-D): each of the ``nprobe`` nearest
        chains is walked and scored by the variant's tuple scorer, and
        every candidate goes into one global locked heap.  Result ids
        are packed heap TID keys."""
        query = self._check_query(query)
        order, heads = self._rank_centroids(query)
        score_one = self._tuple_scorer(query)
        chain_pages = self._chain_pages

        def score(bucket: int) -> tuple[np.ndarray, np.ndarray]:
            keys, dists = [], []
            for n, read in chain_pages(heads[bucket]):
                for offno in range(1, n + 1):
                    key, payload = read(offno)
                    if (dist := score_one(key, payload)) is not None:
                        keys.append(key)
                        dists.append(dist)
            return np.asarray(keys, dtype=np.int64), np.asarray(dists, dtype=np.float64)

        probes = order[: max(nprobe, 1)].tolist()
        return parallel_search(probes, score, k, thread_counts, heap="global")

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
        timed = self.profiler.timed
        rel = self.relation_name("centroid")
        for n, read in self.layouts["centroid"].items(
            self.buffer, rel, timed=lambda read: timed(SEC_TUPLE_ACCESS, read)
        ):
            for offno in range(1, n + 1):
                (cent_id, head), vector = read(offno)
                yield cent_id, head, vector

    def _chain_pages(self, head: int) -> Iterator[tuple[int, ItemReader]]:
        """Walk one bucket's page chain, yielding per pinned page ``(item
        count, read)`` — the tuple interface's list reader, the caller
        looping ``read(offno)`` over offsets 1..count, each call one data
        tuple's ``(packed heap TID key, payload view)`` decoded in its
        own ``Tuple Access`` section.  The views are valid until the
        next pull, while the page is pinned (see
        :meth:`~repro.pase.layout.PageLayout.items`)."""
        timed = self.profiler.timed
        return self.layouts["data"].items(
            self.buffer, self.relation_name("data"), head,
            timed=lambda read: timed(SEC_TUPLE_ACCESS, read),
        )

    def _gather_buckets(self, heads: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """The lists at ``heads`` as ``(packed TID keys, payload matrix)``,
        read page-granular as columns (each candidate copied out of the
        pool once, its payload into one contiguous matrix the scan owns)
        and keyed with one pack for all."""
        rel = self.relation_name("data")
        heads_rec, payloads = self.layouts["data"].read_packed(self.buffer, rel, heads, split=True)
        return record_keys(heads_rec), payloads

    @contextmanager
    def _centroid(self, centroid_id: int, dirty: bool = False) -> Iterator[tuple[Page, int]]:
        """Centroid ``centroid_id``'s page, pinned, and its offset
        number: computable, as the tuples are fixed-size."""
        per_page = self.layouts["centroid"].per_page(self.buffer.disk.page_size)
        blkno, slot = divmod(centroid_id, per_page)
        with self.buffer.page(self.relation_name("centroid"), blkno, dirty) as page:
            yield page, slot + 1


def record_keys(records: np.ndarray) -> np.ndarray:
    """Packed heap TID keys of IVF data records."""
    return (records["heap_blkno"].astype(np.int64) << 16) | records["heap_offset"]

