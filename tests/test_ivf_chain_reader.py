"""The IVF tuple interface against a reference decoder kept here.

``PagedIVF._chain_pages`` reads a bucket chain as one ``(packed keys,
payload views)`` pair per page; the scans built on it must answer, count
and pin exactly as the per-item walk they replaced: ``get_item_view`` ->
``unpack`` -> a keyword ``frombuffer`` per tuple, a ``TID`` per
candidate, ``np.dot`` per pair.  That walk is kept below as the
reference, over the page-backed variants in three states (as built,
after INSERTs that extend chains, after DELETE + VACUUM compaction).
"""

from __future__ import annotations

import functools
import heapq
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pase  # noqa: F401  — registers the pase_* access methods
import repro.pgvector  # noqa: F401  — registers ivfflat
from repro.common import pq, sq
from repro.common.profiling import SEC_DISTANCE, SEC_HEAP, SEC_TUPLE_ACCESS, Profiler
from repro.pgsim import PgSimDatabase
from repro.pgsim.heapam import TID, key_tid
from repro.pgsim.page import PageCorruptError

#: AM name -> extra WITH options.
AMS = {
    "pase_ivfflat": "",
    "pase_ivfpq": ", m = 4, c_pq = 16",
    "pase_ivfsq8": "",
    "ivfflat": "",
}
STATES = ("built", "inserted", "vacuumed")
N, DIM, CLUSTERS = 240, 8, 6
_NO_BLOCK = 0xFFFFFFFF


def _lit(vec: np.ndarray) -> str:
    return ",".join(f"{x:.6f}" for x in np.asarray(vec, dtype=np.float32))


def _rows(rng: np.random.Generator, centers: np.ndarray, n: int) -> np.ndarray:
    picks = centers[rng.integers(0, CLUSTERS, n)]
    return (picks + rng.normal(size=(n, DIM))).astype(np.float32)


@functools.cache
def _index(name: str, state: str):
    """One small indexed table per (variant, state); scans never write.

    512-byte pages keep chains several pages long, so 80 inserts grow
    new chain heads and a VACUUM leaves emptied pages at chain tails.
    """
    rng = np.random.default_rng(5)
    centers = rng.normal(size=(CLUSTERS, DIM)) * 5.0
    db = PgSimDatabase(page_size=512, buffer_pool_pages=4096)
    db.execute("CREATE TABLE t (id int, vec float[])")
    heap = db.catalog.table("t").heap
    for i, vec in enumerate(_rows(rng, centers, N)):
        heap.insert([i, vec], xid=1)
    db.wal.log_commit(1)
    db.execute(
        f"CREATE INDEX ix ON t USING {name} (vec) "
        f"WITH (clusters = {CLUSTERS}, sample_ratio = 1.0, seed = 3{AMS[name]})"
    )
    if state != "built":
        for i, vec in enumerate(_rows(rng, centers, 80), start=N):
            db.execute(f"INSERT INTO t VALUES ({i}, '{_lit(vec)}'::PASE)")
    if state == "vacuumed":
        db.execute("DELETE FROM t WHERE id < 150")
        db.execute("VACUUM t")
    return db, db.catalog.find_index("ix").am, centers


def _pins(db) -> int:
    return db.buffer.stats.hits + db.buffer.stats.misses


# ----------------------------------------------------------------------
# the reference: the per-item walk the chain reader replaced
# ----------------------------------------------------------------------
def _ref_centroids(am) -> tuple[list[int], list[np.ndarray], int]:
    """Bucket heads and centroid vectors in stored order, and the pages."""
    rel = am.relation_name("centroid")
    heads, vectors = [], []
    n_pages = am.buffer.disk.n_blocks(rel)
    for blkno in range(n_pages):
        with am.buffer.page(rel, blkno) as page:
            for off in range(1, page.item_count + 1):
                view = page.get_item_view(off)
                __, head = struct.unpack_from("<II", view, 0)
                heads.append(head)
                vectors.append(np.frombuffer(view, dtype=np.float32, offset=8).copy())
    return heads, vectors, n_pages


def _ref_chain(am, head: int) -> tuple[list[tuple[TID, np.ndarray]], int]:
    """One bucket's ``(tid, payload copy)`` entries and its page count."""
    rel = am.relation_name("data")
    entries, pages, blkno = [], 0, head
    while blkno != _NO_BLOCK:
        pages += 1
        with am.buffer.page(rel, blkno) as page:
            for off in range(1, page.item_count + 1):
                view = page.get_item_view(off)
                heap_blk, heap_off = struct.unpack_from("<IHxx", view, 0)
                payload = np.frombuffer(view, dtype=am.layouts["data"].dtype, offset=8).copy()
                entries.append((TID(heap_blk, heap_off), payload))
            (blkno,) = struct.unpack("<I", page.read_special())
    return entries, pages


def _ref_scorer(am, query: np.ndarray):
    """``(tid, payload) -> distance`` the way each variant scored it,
    every float pair through ``np.dot``."""
    if am.amname == "pase_ivfflat":
        return lambda __, vec: float(np.dot(query - vec, query - vec))
    if am.amname == "ivfflat":
        heap = am.table

        def fetch_and_score(tid, __):
            vec = np.asarray(heap.fetch_column_any(tid, am.column_index), dtype=np.float32)
            return float(np.dot(query - vec, query - vec))

        return fetch_and_score
    if am.amname == "pase_ivfsq8":
        codec = am._load_codec()
        scale = codec.vdiff / sq.LEVELS

        def dequantize_and_score(__, code):
            diff = code.astype(np.float32) * scale + codec.vmin - query
            return float(np.dot(diff, diff))

        return dequantize_and_score
    table = am._adc_table(query)
    return lambda __, code: pq.adc_distance_single(table, code)


def _reference_scan(am, query: np.ndarray, k: int, nprobe: int):
    """``(k nearest (tid, distance), candidates, chain pages, centroids,
    centroid pages)`` by the per-item walk."""
    heads, centroids, centroid_pages = _ref_centroids(am)
    cent_dists = [float(np.dot(query - c, query - c)) for c in centroids]
    order = np.argsort(np.asarray(cent_dists), kind="stable")
    score = _ref_scorer(am, query)
    scored, candidates, chain_pages = [], 0, 0
    for bucket in order[:nprobe].tolist():
        entries, pages = _ref_chain(am, heads[bucket])
        chain_pages += pages
        candidates += len(entries)
        for tid, payload in entries:
            scored.append((score(tid, payload), (tid.blkno << 16) | tid.offset))
    nearest = [(key_tid(key), dist) for dist, key in heapq.nsmallest(k, scored)]
    return nearest, candidates, chain_pages, len(centroids), centroid_pages


class _CountingOffProfiler(Profiler):
    """A disabled profiler that counts the ``section`` calls made on it."""

    def __init__(self) -> None:
        super().__init__(enabled=False)
        self.section_calls = 0

    def section(self, name: str):
        self.section_calls += 1
        return super().section(name)


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(AMS)),
    state=st.sampled_from(STATES),
    seed=st.integers(0, 2**16),
    k=st.integers(1, 40),
    nprobe=st.integers(1, CLUSTERS),
    fixed_heap=st.booleans(),
    profiled=st.booleans(),
)
def test_scan_matches_the_per_item_walk(name, state, seed, k, nprobe, fixed_heap, profiled):
    """Same answers to the bit, same candidates, same pins.  Profiled:
    one ``Tuple Access`` / ``fvec_L2sqr`` section per centroid and
    candidate plus one ``Min-heap`` section per scored candidate and the
    pop.  Not profiled: no ``section`` call at all."""
    db, am, centers = _index(name, state)
    rng = np.random.default_rng(seed)
    query = (centers[rng.integers(CLUSTERS)] + rng.normal(size=DIM)).astype(np.float32)
    db.execute(f"SET pase.nprobe = {nprobe}")
    db.execute(f"SET pase.fixed_heap = {'on' if fixed_heap else 'off'}")
    want, candidates, chain_pages, n_centroids, centroid_pages = _reference_scan(
        am, query, k, nprobe
    )

    original, am.profiler = am.profiler, Profiler() if profiled else _CountingOffProfiler()
    before_pins, before_candidates = _pins(db), am.scan_stats.candidates
    try:
        got = list(am.scan(query, k))
    finally:
        profiler, am.profiler = am.profiler, original
    pins = _pins(db) - before_pins

    assert got == want
    assert am.scan_stats.candidates - before_candidates == candidates
    heap_fetches = candidates if name == "ivfflat" else 0
    assert pins == centroid_pages + chain_pages + heap_fetches
    assert db.buffer.pinned_pages() == 0
    if profiled:
        calls = {row.name: row.calls for row in profiler.breakdown()}
        assert calls[SEC_TUPLE_ACCESS] == n_centroids + candidates
        assert calls[SEC_DISTANCE] == n_centroids + candidates
        assert calls[SEC_HEAP] == candidates + 1
    else:
        assert profiler.section_calls == 0
        assert profiler.breakdown() == []

    # The shared-heap parallel driver reads the same chains.
    result, __ = am.parallel_search(query, k, nprobe, [1])
    assert [(key_tid(n.vector_id), n.distance) for n in result.neighbors] == want


@pytest.mark.parametrize("name", sorted(AMS))
def test_chain_pages_yield_every_item_in_order(name):
    """Page by page, the reader's keys and payloads are the per-item
    decode's, empty pages left by compaction included."""
    db, am, __ = _index(name, "vacuumed")
    heads, __, __ = _ref_centroids(am)
    saw_empty_page = False
    for head in heads:
        entries, pages = _ref_chain(am, head)
        got = list(am._chain_pages(head))
        assert len(got) == pages
        saw_empty_page |= any(not keys for keys, __ in got)
        keys = [key for page_keys, __ in got for key in page_keys]
        payloads = [payload for __, page_payloads in got for payload in page_payloads]
        assert [key_tid(key) for key in keys] == [tid for tid, __ in entries]
        assert [p.tobytes() for p in payloads] == [p.tobytes() for __, p in entries]
        assert all(p.dtype == am.layouts["data"].dtype for p in payloads)
    assert saw_empty_page
    assert db.buffer.pinned_pages() == 0


@pytest.mark.parametrize("name", sorted(AMS))
def test_dead_data_item_raises_like_get_item_view(name):
    """A dead line pointer on a chain page fails the scan with the
    exception ``get_item_view`` raises, and leaves nothing pinned."""
    db, am, centers = _index.__wrapped__(name, "built")
    heads, __, __ = _ref_centroids(am)
    head = next(h for h in heads if h != _NO_BLOCK)
    with db.buffer.page(am.relation_name("data"), head, dirty=True) as page:
        page.delete_item(page.item_count)
        with pytest.raises(PageCorruptError):
            page.get_item_view(page.item_count)
    db.execute(f"SET pase.nprobe = {CLUSTERS}")
    with pytest.raises(PageCorruptError):
        list(am.scan(centers[0].astype(np.float32), 5))
    assert db.buffer.pinned_pages() == 0
