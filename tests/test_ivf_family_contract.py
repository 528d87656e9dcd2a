"""What every IVF access method promises, asserted once for all five.

The page-backed variants (`pase_ivfflat`, `pase_ivfpq`, `pase_ivfsq8`,
pgvector's `ivfflat`) share one implementation and differ only in codec
and vector residence; `bridged_ivfflat` also serves its lists from a
memory-resident specialized `IVFFlatIndex`.  Each test
here runs against all of them, so a behaviour cannot drift in one
variant without a failure naming it.
"""

from __future__ import annotations

import struct
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import repro.bridged  # noqa: F401  — registers bridged_ivfflat
import repro.pase  # noqa: F401  — registers the pase_* access methods
import repro.pgvector  # noqa: F401  — registers ivfflat
from repro.common import heap as heap_mod
from repro.pase.ivf_core import record_keys
from repro.pase.layout import NO_BLOCK
from repro.pgsim import PgSimDatabase
from repro.pgsim.am import lookup_am
from repro.pgsim.heapam import TID, tid_key
from repro.pgsim.page import PageCorruptError
from repro.specialized import IVFFlatIndex, IVFPQIndex, IVFSQ8Index

#: AM name -> extra WITH options.
AMS = {
    "pase_ivfflat": "",
    "pase_ivfpq": ", m = 4, c_pq = 16",
    "pase_ivfsq8": "",
    "ivfflat": "",
    "bridged_ivfflat": "",
}
#: Variants whose distances are exact float L2 (no quantization).
EXACT = {"pase_ivfflat", "ivfflat", "bridged_ivfflat"}
#: Variants that refuse a non-L2 ``distance_type`` (they score in L2 only).
L2_ONLY = {"pase_ivfpq", "pase_ivfsq8"}
N, DIM, CLUSTERS = 240, 8, 6
#: AM name -> the specialized model its build trains, and its flavour
#: (k-means style, SGEMM assignment).
MODELS = {
    "pase_ivfflat": (IVFFlatIndex, "pase", False),
    "pase_ivfpq": (IVFPQIndex, "pase", False),
    "pase_ivfsq8": (IVFSQ8Index, "pase", False),
    "ivfflat": (IVFFlatIndex, "pase", False),
    "bridged_ivfflat": (IVFFlatIndex, "faiss", True),
}


def _lit(vec: np.ndarray) -> str:
    return ",".join(f"{x:.6f}" for x in np.asarray(vec, dtype=np.float32))


@pytest.fixture(params=sorted(AMS))
def ivf(request) -> SimpleNamespace:
    return _build(request.param)


def _build(name: str, options: str = "", pool_pages: int = 2048) -> SimpleNamespace:
    """A small table indexed by one IVF variant.

    512-byte pages keep bucket chains several pages long, so a few
    dozen inserts are enough to grow a new chain head.
    """
    rng = np.random.default_rng(11)
    centers = rng.normal(size=(CLUSTERS, DIM)) * 5.0
    base = (centers[rng.integers(0, CLUSTERS, N)] + rng.normal(size=(N, DIM))).astype(np.float32)
    db = PgSimDatabase(page_size=512, buffer_pool_pages=pool_pages)
    db.execute("CREATE TABLE t (id int, vec float[])")
    heap = db.catalog.table("t").heap
    id_of = {heap.insert([i, vec], xid=1): i for i, vec in enumerate(base)}
    db.wal.log_commit(1)
    db.execute(
        f"CREATE INDEX ix ON t USING {name} (vec) "
        f"WITH (clusters = {CLUSTERS}, sample_ratio = 1.0, seed = 3{AMS[name]}{options})"
    )
    queries = (centers[:4] + rng.normal(size=(4, DIM))).astype(np.float32)
    return SimpleNamespace(
        name=name,
        db=db,
        am=db.catalog.find_index("ix").am,
        heap=heap,
        base=base,
        id_of=id_of,
        queries=queries,
    )


def _indexed_entries(am) -> int:
    return sum(
        sum(n for n, __ in am._chain_pages(head))
        for __, head, __v in list(am._iter_centroids())
    )


def test_registry_resolves_the_family():
    for name in AMS:
        cls = lookup_am(name)
        assert cls.amname == name and cls.amcanfilter
    for alias, name in (
        ("ivfflat_fun", "pase_ivfflat"),
        ("ivfpq_fun", "pase_ivfpq"),
        ("ivfsq8_fun", "pase_ivfsq8"),
    ):
        assert lookup_am(alias) is lookup_am(name)


def test_tuple_and_batch_scans_return_the_same_tids(ivf):
    """Both interfaces return the same ``(tid, distance)`` pairs, the
    distances equal to the bit under every metric the variant takes:
    the row kernels reduce each row as the per-pair kernels do."""
    for metric in (0,) if ivf.name in L2_ONLY else (0, 1, 2):
        built = _build(ivf.name, f", distance_type = {metric}") if metric else ivf
        built.db.execute("SET pase.nprobe = 3")
        for q in built.queries:
            pairs = list(built.am.scan(q, 10))
            assert len(pairs) == 10
            assert built.am.get_batch(q, 10).pairs() == pairs


@pytest.mark.parametrize(
    ("name", "options"),
    [*((name, "") for name in sorted(AMS)), ("pase_ivfpq", ", c_pq = 256")],
    ids=[*sorted(AMS), "pase_ivfpq-clamped"],
)
def test_pages_hold_the_model_trained_in_the_am_flavour(name, options):
    """One IVF model: the variant's specialized index, trained on the
    heap rows in the AM's flavour, has the pages' centroids, codec
    bytes (reloaded from its fork) and every row's list and payload.
    ``c_pq = 256`` exceeds the 240 rows: both clamp it to the rows."""
    ivf = _build(name, options)
    am = ivf.am
    cls, style, sgemm = MODELS[name]
    extra = {"m": am.opts.m, "c_pq": am.opts.c_pq} if cls is IVFPQIndex else {}
    model = cls(DIM, CLUSTERS, sample_ratio=1.0, seed=3, kmeans_style=style, use_sgemm=sgemm,
                **extra)
    model.train(ivf.base)
    keys = np.asarray([tid_key(tid) for tid in sorted(ivf.id_of, key=ivf.id_of.get)])
    model.add_core(keys, model.assign(ivf.base), ivf.base)
    buffer, data = ivf.db.buffer, am.layouts["data"]
    cents = am.layouts["centroid"].read_packed(buffer, am.relation_name("centroid"), item_order=True)
    assert cents["payload"].tobytes() == model.centroids.tobytes()
    for (list_keys, payloads), head in zip(model.lists(), cents["bucket_head"].tolist()):
        rows = data.read_packed(buffer, am.relation_name("data"), [head])
        rows = rows[np.argsort(record_keys(rows))]  # the model's lists are in heap order
        assert record_keys(rows).tolist() == list_keys.tolist()
        if data.width:  # pgvector's entries carry only the TID
            assert rows["payload"].tobytes() == payloads.tobytes()
    if cls is IVFPQIndex:  # the codecs as reloaded from their forks
        am._codebook = None
        assert am._load_codebook().codebooks.tobytes() == model.codebook.codebooks.tobytes()
        assert model.codebook.c_pq == min(am.opts.c_pq, N)
    elif cls is IVFSQ8Index:
        am._codec = None
        reloaded, codec = am._load_codec(), model.codec
        assert reloaded.vmin.tobytes() + reloaded.vdiff.tobytes() == (
            codec.vmin.tobytes() + codec.vdiff.tobytes()
        )


def test_tuple_and_batch_scans_pin_the_same_index_pages(ivf, monkeypatch):
    """One pin per page and nothing cached outside the pool: at one
    ``nprobe`` the batch interface pins exactly the index pages the
    tuple interface pins.  Only pgvector's heap fetches differ by
    design — one pin per candidate tuple-at-a-time (RC#2), one per
    distinct heap block for the batch."""
    ivf.db.execute("SET pase.nprobe = 3")
    buffer, heap_rel = ivf.db.buffer, ivf.heap.relation
    pinned: list[str] = []
    pin = buffer.pin

    def counting_pin(rel, blkno):
        pinned.append(rel)
        return pin(rel, blkno)

    monkeypatch.setattr(buffer, "pin", counting_pin)
    for q in ivf.queries:
        pins = {}
        for form, run in (
            ("tuple", lambda: list(ivf.am.scan(q, 10))),
            ("batch", lambda: ivf.am.get_batch(q, 10)),
        ):
            pinned.clear()
            accesses = buffer.stats.hits + buffer.stats.misses
            run()
            assert buffer.stats.hits + buffer.stats.misses - accesses == len(pinned)
            pins[form] = Counter(pinned)
        heap_pins = {form: counts.pop(heap_rel, 0) for form, counts in pins.items()}
        assert pins["batch"] == pins["tuple"]
        if ivf.name == "ivfflat":
            assert 0 < heap_pins["batch"] < heap_pins["tuple"]
        else:
            assert heap_pins["batch"] == heap_pins["tuple"] == 0


def _batch_ranking(am, query: np.ndarray) -> list[int]:
    """Every list in the order the batch interface ranks them."""
    if am.amname == "bridged_ivfflat":
        return am._memory().probe_order(query, CLUSTERS).tolist()
    return am._rank_centroids(query, batch=True)[0].tolist()


@pytest.mark.parametrize(
    ("name", "data", "metric"),
    [
        pytest.param(name, data, metric, id=f"{name}-{data}-{label}")
        for name in sorted(AMS)
        for data in ("float", "tied_int")
        for metric, label in ((0, "l2"), (1, "inner_product"), (2, "cosine"))
        if metric == 0 or name not in L2_ONLY
    ],
)
def test_batch_ranking_probes_the_tuple_ranking_lists(name, data, metric):
    """The batch interface ranks centroids with one kernel call over the
    whole fork; its order is the per-centroid tuple ranking's, ties
    included (they break toward the smaller centroid id on both).  ``tied_int`` overwrites the centroids with two small
    integer vectors, each twice plus a doubled copy, and queries them
    with integer vectors (one all-zero), so every distance is exact and
    many tie."""
    ivf = _build(name, f", distance_type = {metric}")
    am = ivf.am
    queries = ivf.queries
    if data == "tied_int":
        rng = np.random.default_rng(metric)
        a, b = rng.integers(-1, 2, size=(2, DIM)).astype(np.float32)
        for cid, centroid in enumerate((a, b, a, 2 * a, b, 2 * b)):
            am._recenter(cid, centroid)
        queries = rng.integers(-1, 2, size=(6, DIM)).astype(np.float32)
        queries[0] = 0.0
    for q in queries:
        assert _batch_ranking(am, q) == am._rank_centroids(q)[0].tolist()


def test_rescan_continue_equals_a_fresh_scan(ivf):
    ivf.db.execute("SET pase.nprobe = 3")
    for q in ivf.queries:
        list(ivf.am.scan(q, 5))
        assert list(ivf.am.amrescan_continue(q, 25)) == list(ivf.am.scan(q, 25))
        ivf.am.get_batch(q, 5)
        assert ivf.am.amrescan_continue_batch(q, 25).pairs() == ivf.am.get_batch(q, 25).pairs()


def test_shared_heap_parallel_driver_matches_the_scan(ivf):
    """`parallel_search` ranks and scores through the access method, so
    it drives every variant: PASE's shared locked heap over the pages,
    or, on `bridged_ivfflat`, local heaps over the memory index."""
    ivf.db.execute("SET pase.nprobe = 3")
    for q in ivf.queries[:2]:
        result, curve = ivf.am.parallel_search(q, 10, 3, [1, 2])
        keys = [(tid.blkno << 16) | tid.offset for tid, __ in ivf.am.get_batch(q, 10).pairs()]
        assert [nb.vector_id for nb in result.neighbors] == keys
        assert set(curve) == {1, 2}


def _far_query(ivf) -> np.ndarray:
    """A query far outside the data, so rows placed on it are nearest
    under every codec (quantized or not)."""
    return (ivf.base.max(axis=0) + 30.0).astype(np.float32)


def test_ranking_cache_dropped_by_insert(ivf):
    """Rows inserted between a scan and its continuation grow a new
    chain head; a continuation served from the stale ranking (with its
    stale bucket heads) would walk the old chain and miss them."""
    ivf.db.execute("SET pase.nprobe = 2")
    q = _far_query(ivf)
    list(ivf.am.scan(q, 5))
    rng = np.random.default_rng(5)
    for j in range(60):
        vec = q + rng.normal(size=DIM).astype(np.float32) * 0.01
        ivf.db.execute(f"INSERT INTO t VALUES ({N + j}, '{_lit(vec)}'::PASE)")
    new_tids = {tid for tid, values in ivf.heap.scan() if values[0] >= N}
    assert len(new_tids) == 60
    continued = list(ivf.am.amrescan_continue(q, 100))
    assert new_tids <= {tid for tid, __ in continued}
    assert continued == list(ivf.am.scan(q, 100))


def test_ranking_cache_dropped_by_ambulkdelete(ivf):
    ivf.db.execute("SET pase.nprobe = 2")
    ivf.db.execute("SET ivf_recluster_threshold = 0.0")
    for q in ivf.queries:
        list(ivf.am.scan(q, 5))
    q = ivf.queries[-1]
    ivf.db.execute(f"DELETE FROM t WHERE id < {N // 2}")
    ivf.db.execute("VACUUM t")
    dead = {tid for tid, i in ivf.id_of.items() if i < N // 2}
    continued = list(ivf.am.amrescan_continue(q, 30))
    assert not dead & {tid for tid, __ in continued}
    assert continued == list(ivf.am.scan(q, 30))


def test_ranking_cache_dropped_by_build(ivf):
    """Rebuilding in place (storage released first, as REINDEX does)
    must not leave a ranking that points at the old chains."""
    ivf.db.execute("SET pase.nprobe = 2")
    q = _far_query(ivf)
    list(ivf.am.scan(q, 5))
    new_tids = {ivf.heap.insert([N + j, q + 0.01 * j], xid=1) for j in range(20)}
    for rel in ivf.am.relations():
        ivf.db.buffer.drop_relation(rel)
        ivf.db.disk.drop_relation(rel)
    ivf.am.build()
    continued = list(ivf.am.amrescan_continue(q, 40))
    assert new_tids <= {tid for tid, __ in continued}
    assert continued == list(ivf.am.scan(q, 40))


#: Every ``k`` the executor's over-fetch doubling reaches from 5 until a
#: pass must come back short (more than the table's rows).
DOUBLINGS = [5 << i for i in range(7)]


def test_batch_continuation_is_the_first_pass_at_every_doubling(ivf):
    """Each continuation the executor's doubling issues equals a fresh
    ``get_batch`` at its k, and reads no page and scores no candidate:
    it answers from the candidates the first pass scored.  At another
    ``nprobe`` the kept candidates are not the answer: it re-scans."""
    for metric in (0,) if ivf.name in L2_ONLY else (0, 1, 2):
        built = _build(ivf.name, f", distance_type = {metric}") if metric else ivf
        am, stats = built.am, built.db.buffer.stats
        built.db.execute("SET pase.nprobe = 3")
        for q in built.queries:
            fresh = {k: am.get_batch(q, k).pairs() for k in DOUBLINGS}
            am.get_batch(q, DOUBLINGS[0])
            for k in DOUBLINGS[1:]:
                pins, candidates = stats.hits + stats.misses, am.scan_stats.candidates
                assert am.amrescan_continue_batch(q, k).pairs() == fresh[k]
                assert stats.hits + stats.misses == pins
                assert am.scan_stats.candidates == candidates
        q = built.queries[0]
        am.get_batch(q, DOUBLINGS[0])
        built.db.execute("SET pase.nprobe = 4")
        candidates = am.scan_stats.candidates
        continued = am.amrescan_continue_batch(q, 160).pairs()
        assert am.scan_stats.candidates > candidates  # it re-scanned
        assert continued == am.get_batch(q, 160).pairs()


def test_batch_continuation_after_an_insert_equals_a_fresh_scan(ivf):
    ivf.db.execute("SET pase.nprobe = 2")
    q = _far_query(ivf)
    ivf.am.get_batch(q, 5)
    ivf.db.execute(f"INSERT INTO t VALUES ({N}, '{_lit(q)}'::PASE)")
    (new,) = [tid for tid, values in ivf.heap.scan() if values[0] == N]
    continued = ivf.am.amrescan_continue_batch(q, 20).pairs()
    assert continued[0][0] == new
    assert continued == ivf.am.get_batch(q, 20).pairs()


def test_batch_continuation_after_a_vacuum_removal_equals_a_fresh_scan(ivf):
    ivf.db.execute("SET pase.nprobe = 2")
    q = ivf.queries[-1]
    ivf.am.get_batch(q, 5)
    ivf.db.execute(f"DELETE FROM t WHERE id < {N // 2}")
    ivf.db.execute("VACUUM t")
    dead = {tid for tid, i in ivf.id_of.items() if i < N // 2}
    continued = ivf.am.amrescan_continue_batch(q, 30).pairs()
    assert not dead & {tid for tid, __ in continued}
    assert continued == ivf.am.get_batch(q, 30).pairs()


def test_scan_cache_dropped_by_a_recentre_without_removals(ivf):
    """A VACUUM whose dead TIDs the index does not hold removes nothing,
    yet re-centres the lists that inserts moved: the scored candidates
    kept for a continuation must go with the old centroids."""
    ivf.db.execute("SET pase.nprobe = 2")
    ivf.db.execute("SET ivf_recluster_threshold = 0.0")
    q = _far_query(ivf)
    rng = np.random.default_rng(5)
    for j in range(30):
        vec = q + rng.normal(size=DIM).astype(np.float32)
        ivf.db.execute(f"INSERT INTO t VALUES ({N + j}, '{_lit(vec)}'::PASE)")
    before = [vector.copy() for __, __, vector in ivf.am._iter_centroids()]
    ivf.am.get_batch(q, 5)
    assert ivf.am.ambulkdelete({TID(ivf.heap.n_blocks() + 7, 1)}) == 0
    after = [vector for __, __, vector in ivf.am._iter_centroids()]
    moved = any(not np.array_equal(a, b) for a, b in zip(before, after))
    assert moved == ivf.am.PAYLOAD_IS_VECTOR  # only raw vectors re-centre
    if moved:
        assert ivf.am._rescan_cache is None
    assert ivf.am.amrescan_continue_batch(q, 40).pairs() == ivf.am.get_batch(q, 40).pairs()


def _pool_is_disk(buffer) -> None:
    """Every resident page is clean and byte for byte its block on disk."""
    block = bytearray(buffer.disk.page_size)
    for (rel, blkno), frame in buffer._frames.items():
        assert not frame.dirty and frame.pin_count == 0
        buffer.disk.read_block(rel, blkno, block)
        assert bytes(frame.page.buf) == bytes(block), (rel, blkno)


@pytest.mark.parametrize("pool_pages", [2048, 16])
def test_batch_entry_points_write_nothing_into_the_pool(ivf, pool_pages, monkeypatch):
    """The batch scan, its continuation and the batch in-filter gather
    from the arena and score their own copies: no byte of the pool
    changes under any metric — on a 16-frame pool too, where gathers
    split into several windows and pages are loaded as they go."""
    passing = {tid for tid, i in ivf.id_of.items() if i % 50 == 0}  # widens to every list
    for metric in (0,) if ivf.name in L2_ONLY else (0, 1, 2):
        built = _build(ivf.name, f", distance_type = {metric}", pool_pages=pool_pages)
        built.db.execute("SET pase.nprobe = 3")
        buffer = built.db.buffer
        buffer.flush_all()
        windows, most = buffer.pin_windows, [0]

        def counted(*args, windows=windows, most=most):
            for n, window in enumerate(windows(*args), 1):
                most[0] = max(most[0], n)
                yield window

        monkeypatch.setattr(buffer, "pin_windows", counted)
        for q in built.queries:
            arena = buffer.arena.copy()
            built.am.get_batch(q, 10)
            built.am.amrescan_continue_batch(q, 20)
            # A continuation that re-scans, every list at once.
            built.db.execute(f"SET pase.nprobe = {CLUSTERS}")
            built.am.amrescan_continue_batch(q, 40)
            built.db.execute("SET pase.nprobe = 3")
            built.am.amsearch_filtered_batch(q, 10, _key_mask(passing))
            if pool_pages > 16:
                assert np.array_equal(buffer.arena, arena)
            _pool_is_disk(buffer)
        # pase_ivfflat's 40-byte entries fill more pages than 16 frames
        # hold (the codes and bare TIDs of the others fit in fewer).
        assert (most[0] > 1) == (pool_pages == 16 and ivf.name == "pase_ivfflat")


def _key_mask(passing: set) -> object:
    """The batch form's mask (packed TID keys in, bools out) with the
    verdicts of ``tid in passing``."""
    keys = {(tid.blkno << 16) | tid.offset for tid in passing}
    return lambda batch: np.asarray([key in keys for key in batch.tolist()], dtype=bool)


def test_filtered_scans_agree_with_masked_brute_force(ivf, monkeypatch):
    """Both forms return the masked exhaustive answer; the batch form
    is the one batch search, scoring with the rows scorer only."""
    ivf.db.execute(f"SET pase.nprobe = {CLUSTERS}")  # exhaustive: exact for EXACT
    passing = {tid for tid, i in ivf.id_of.items() if i % 5 == 0}
    tids_by_row = sorted(ivf.id_of, key=ivf.id_of.get)
    scorers: Counter = Counter()
    for name in ("_rows_scorer", "_tuple_scorer"):
        def spy(query, _name=name, _original=getattr(ivf.am, name)):
            scorers[_name] += 1
            return _original(query)

        monkeypatch.setattr(ivf.am, name, spy)

    def mask_fn(tids):
        return np.asarray([tid in passing for tid in tids], dtype=bool)

    key_mask = _key_mask(passing)
    for q in ivf.queries:
        ivf.am.last_filtered_examined = -1
        tuple_form = [tid for tid, __ in ivf.am.amsearch_filtered(q, 7, mask_fn)]
        assert ivf.am.last_filtered_examined == N
        ivf.am.last_filtered_examined = -1
        scorers.clear()
        batch_form = ivf.am.amsearch_filtered_batch(q, 7, key_mask).tids()
        assert scorers == {"_rows_scorer": 1}
        assert ivf.am.last_filtered_examined == N
        assert tuple_form == batch_form
        assert len(tuple_form) == 7 and set(tuple_form) <= passing
        if ivf.name in EXACT:
            dists = ((ivf.base - q) ** 2).sum(axis=1)
            brute = [tids_by_row[i] for i in np.argsort(dists, kind="stable") if i % 5 == 0]
            assert tuple_form == brute[:7]


def test_filtered_scans_break_distance_ties_by_tid(ivf):
    """Equal distances resolve to the smallest TIDs on both forms — the
    ``(distance, tid)`` order the unfiltered batch scan produces — not
    to whichever duplicate the chain walk happens to meet first."""
    ivf.db.execute(f"SET pase.nprobe = {CLUSTERS}")
    twin = ivf.base[17] + np.float32(0.37)  # near the data, equal to no base row
    for j in range(12):
        ivf.db.execute(f"INSERT INTO t VALUES ({N + j}, '{_lit(twin)}'::PASE)")
    q = np.asarray(_lit(twin).split(","), dtype=np.float32)  # the copies, exactly
    reference = ivf.am.get_batch(q, 5)
    if ivf.name != "bridged_ivfflat":  # SGEMM rounds duplicates apart
        assert len(set(reference.distances.tolist())) == 1, "not a 5-way tie"

    def mask_fn(tids):
        return np.ones(len(tids), dtype=bool)

    assert [tid for tid, __ in ivf.am.amsearch_filtered(q, 5, mask_fn)] == reference.tids()
    assert ivf.am.amsearch_filtered_batch(q, 5, mask_fn).tids() == reference.tids()


def test_filtered_scans_widen_until_k_match(ivf):
    ivf.db.execute("SET pase.nprobe = 1")
    passing = {tid for tid, i in ivf.id_of.items() if i % 20 == 0}  # 12 rows, ~2 per list

    def mask_fn(tids):
        return np.asarray([tid in passing for tid in tids], dtype=bool)

    q = ivf.queries[0]
    for form in (
        lambda: [tid for tid, __ in ivf.am.amsearch_filtered(q, 7, mask_fn)],
        lambda: ivf.am.amsearch_filtered_batch(q, 7, _key_mask(passing)).tids(),
    ):
        ivf.am.last_filtered_examined = -1
        tids = form()
        assert len(tids) == 7 and set(tids) <= passing
        # One list holds ~N/CLUSTERS rows; reaching 7 of 12 matches takes several.
        assert N // CLUSTERS < ivf.am.last_filtered_examined <= N


def test_vacuum_leaves_exactly_the_live_rows_indexed(ivf):
    assert _indexed_entries(ivf.am) == N
    ivf.db.execute("DELETE FROM t WHERE id < 100")
    ivf.db.execute("VACUUM t")
    assert _indexed_entries(ivf.am) == N - 100
    ivf.db.execute(f"SET pase.nprobe = {CLUSTERS}")
    assert len(list(ivf.am.scan(ivf.queries[0], N))) == N - 100


def _verify_every_page(am) -> int:
    """Check every page of every fork against its layout; the page count."""
    pages = 0
    for fork in am.FORKS:
        layout = am.layouts[fork]
        for page in layout.pages(am.buffer, am.relation_name(fork)):
            layout.verify(page)
            pages += 1
    return pages


def test_every_page_verifies_in_every_state(ivf):
    """Every page of every fork is its layout's, packed: as built, after
    INSERTs that grow chain heads, after DELETE + VACUUM compaction."""
    built = _verify_every_page(ivf.am)
    assert built >= len(ivf.am.FORKS)
    q = _far_query(ivf)
    for j in range(40):
        ivf.db.execute(f"INSERT INTO t VALUES ({N + j}, '{_lit(q + 0.01 * j)}'::PASE)")
    assert _verify_every_page(ivf.am) > built
    ivf.db.execute("DELETE FROM t WHERE id < 100")
    ivf.db.execute("VACUUM t")
    _verify_every_page(ivf.am)
    assert ivf.db.buffer.pinned_pages() == 0


def test_a_torn_line_pointer_fails_verify_and_the_batch_reader(ivf):
    """One data-page line pointer whose length is off by one: ``verify``
    and the page-granular batch reader refuse the page, pinning nothing
    afterwards."""
    am, buffer = ivf.am, ivf.db.buffer
    rel, data = am.relation_name("data"), am.layouts["data"]
    head = next(head for __, head, __ in am._iter_centroids() if head != NO_BLOCK)
    with buffer.page(rel, head, dirty=True) as page:
        off, length = struct.unpack_from("<HH", page.buf, 24)  # line pointer 1
        struct.pack_into("<HH", page.buf, 24, off, length + 1)
        with pytest.raises(PageCorruptError, match="not packed"):
            data.verify(page)
    with pytest.raises(PageCorruptError, match="not packed"):
        am._gather_buckets([head])
    assert buffer.pinned_pages() == 0


def test_size_info_reports_every_fork(ivf):
    forks = {rel.rsplit(".", 1)[1] for rel in ivf.am.relations()}
    assert {"centroid", "data"} <= forks
    info = ivf.am.size_info()
    assert set(info.detail) == {f"{fork}_pages" for fork in forks}
    assert info.page_count == sum(info.detail.values())
    assert 0 < info.used_bytes <= info.allocated_bytes


@pytest.mark.parametrize(
    ("setting", "paged_heap"),
    [("on", "BoundedMaxHeap"), ("off", "NaiveTopK"), ("false", "NaiveTopK")],
)
def test_fixed_heap_guc_selects_the_heap_class(ivf, monkeypatch, setting, paged_heap):
    """``SET pase.fixed_heap = off`` stores the *string* 'off'; a scan
    that tests its truthiness silently runs the k-sized heap exactly
    when the RC#6 ablation asks for PASE's size-n one."""
    built: list[str] = []
    for cls in (heap_mod.BoundedMaxHeap, heap_mod.NaiveTopK):
        def init(self, k, _cls=cls, _original=cls.__init__):
            built.append(_cls.__name__)
            _original(self, k)

        monkeypatch.setattr(cls, "__init__", init)
    ivf.db.execute(f"SET pase.fixed_heap = {setting}")
    assert len(list(ivf.am.scan(ivf.queries[0], 5))) == 5
    # The bridged variant's scan is its batch search, which selects the k
    # nearest without a heap whatever the setting (RC#6 neutralized).
    assert built == ([] if ivf.name == "bridged_ivfflat" else [paged_heap])


def test_wrong_dimension_queries_are_rejected(ivf):
    bad = np.ones(1, dtype=np.float32)
    message = f"query must be {DIM}-dim"

    def mask_fn(tids):
        return np.ones(len(tids), dtype=bool)

    for call in (
        lambda: list(ivf.am.scan(bad, 3)),
        lambda: ivf.am.get_batch(bad, 3),
        lambda: list(ivf.am.amrescan_continue(bad, 3)),
        lambda: ivf.am.amrescan_continue_batch(bad, 3),
        lambda: list(ivf.am.amsearch_filtered(bad, 3, mask_fn)),
        lambda: ivf.am.amsearch_filtered_batch(bad, 3, mask_fn),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    for batch_exec in ("off", "on"):
        ivf.db.execute(f"SET enable_batch_exec = {batch_exec}")
        with pytest.raises(ValueError, match=message):
            ivf.db.query("SELECT id FROM t ORDER BY vec <-> '5'::PASE LIMIT 3")


def test_wrong_dimension_inserts_are_rejected(ivf):
    with pytest.raises(ValueError, match=f"expected a {DIM}-dim vector"):
        ivf.db.execute("INSERT INTO t VALUES (999, '7'::PASE)")
    # The statement left nothing behind: no heap row, no index entry,
    # and the batch path (which stacks fetched vectors) still works.
    assert ivf.db.query("SELECT id FROM t WHERE id = 999") == []
    assert _indexed_entries(ivf.am) == N
    ivf.db.execute("SET enable_batch_exec = on")
    q = _lit(ivf.queries[0])
    assert len(ivf.db.query(f"SELECT id FROM t ORDER BY vec <-> '{q}'::PASE LIMIT 3")) == 3


@pytest.mark.parametrize("name", sorted(AMS))
def test_tied_integer_data_orders_by_distance_then_tid(name):
    """{0,1}^4 rows: only 16 distinct vectors, so nearly every distance
    ties.  Every scan form — the k-sized heap (``pase.fixed_heap = on``),
    PASE's size-n heap, the batch selection — keeps the ``(distance,
    tid)`` prefix; the RC#6 toggle changes cost, never the answer."""
    rng = np.random.default_rng(0)
    base = rng.integers(0, 2, size=(300, 4)).astype(np.float32)
    db = PgSimDatabase(page_size=2048, buffer_pool_pages=2048)
    db.execute("CREATE TABLE t (id int, vec float[])")
    heap = db.catalog.table("t").heap
    tids = [heap.insert([i, vec], xid=1) for i, vec in enumerate(base)]
    db.wal.log_commit(1)
    db.execute(
        f"CREATE INDEX ix ON t USING {name} (vec) "
        f"WITH (clusters = 4, sample_ratio = 1.0, seed = 1{AMS[name]})"
    )
    db.execute("SET pase.nprobe = 4")
    am = db.catalog.find_index("ix").am
    for q in rng.integers(0, 2, size=(20, 4)).astype(np.float32):
        forms = []
        for fixed in ("on", "off"):
            db.execute(f"SET pase.fixed_heap = {fixed}")
            forms.append([tid for tid, __ in am.scan(q, 5)])
        forms.append(am.get_batch(q, 5).tids())
        assert forms[0] == forms[1] == forms[2]
        if name in EXACT:
            oracle = sorted(zip(((base - q) ** 2).sum(axis=1).tolist(), tids))
            assert forms[0] == [tid for __, tid in oracle[:5]]
