"""What every IVF access method promises, asserted once for all five.

The page-backed variants (`pase_ivfflat`, `pase_ivfpq`, `pase_ivfsq8`,
pgvector's `ivfflat`) share one implementation and differ only in codec
and vector residence; `bridged_ivfflat` adds a memory mirror.  Each test
here runs against all of them, so a behaviour cannot drift in one
variant without a failure naming it.
"""

from __future__ import annotations

from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

import repro.bridged  # noqa: F401  — registers bridged_ivfflat
import repro.pase  # noqa: F401  — registers the pase_* access methods
import repro.pgvector  # noqa: F401  — registers ivfflat
from repro.common import heap as heap_mod
from repro.pase.parallel import parallel_search
from repro.pgsim import PgSimDatabase
from repro.pgsim.am import lookup_am

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
N, DIM, CLUSTERS = 240, 8, 6


def _lit(vec: np.ndarray) -> str:
    return ",".join(f"{x:.6f}" for x in np.asarray(vec, dtype=np.float32))


@pytest.fixture(params=sorted(AMS))
def ivf(request) -> SimpleNamespace:
    return _build(request.param)


def _build(name: str, options: str = "") -> SimpleNamespace:
    """A small table indexed by one IVF variant.

    512-byte pages keep bucket chains several pages long, so a few
    dozen inserts are enough to grow a new chain head.
    """
    rng = np.random.default_rng(11)
    centers = rng.normal(size=(CLUSTERS, DIM)) * 5.0
    base = (centers[rng.integers(0, CLUSTERS, N)] + rng.normal(size=(N, DIM))).astype(np.float32)
    db = PgSimDatabase(page_size=512, buffer_pool_pages=2048)
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
        sum(1 for __ in am._iter_bucket(head)) for __, head, __v in list(am._iter_centroids())
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
    ivf.db.execute("SET pase.nprobe = 3")
    for q in ivf.queries:
        tuple_tids = [tid for tid, __ in ivf.am.scan(q, 10)]
        assert len(tuple_tids) == 10
        assert ivf.am.get_batch(q, 10).tids() == tuple_tids


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


def _batch_ranking(am, query: np.ndarray, nprobe: int) -> list[int]:
    """The lists the batch interface probes, nearest first."""
    if am.amname == "bridged_ivfflat":
        return am._probe(query, nprobe)[2]
    return am._rank_centroids(query, batch=True)[0][:nprobe].tolist()


@pytest.mark.parametrize("metric", [0, 1, 2], ids=["l2", "inner_product", "cosine"])
@pytest.mark.parametrize("data", ["float", "tied_int"])
@pytest.mark.parametrize("name", sorted(AMS))
def test_batch_ranking_probes_the_tuple_ranking_lists(name, data, metric):
    """The batch interface ranks centroids with one kernel call over the
    whole fork; its first ``nprobe`` lists are the per-centroid tuple
    ranking's, ties included (they break toward the smaller centroid
    id on both).  ``tied_int`` overwrites the centroids with two small
    integer vectors, each twice plus a doubled copy, and queries them
    with integer vectors (one all-zero), so every distance is exact and
    many tie."""
    ivf = _build(name, f", distance_type = {metric}")
    am, nprobe = ivf.am, 3
    queries = ivf.queries
    if data == "tied_int":
        rng = np.random.default_rng(metric)
        a, b = rng.integers(-1, 2, size=(2, DIM)).astype(np.float32)
        for cid, centroid in enumerate((a, b, a, 2 * a, b, 2 * b)):
            am._recenter(cid, centroid)
        queries = rng.integers(-1, 2, size=(6, DIM)).astype(np.float32)
        queries[0] = 0.0
        if name == "bridged_ivfflat":
            am._mirror = None  # re-read the overwritten centroids from the pages
    for q in queries:
        tuple_order = am._rank_centroids(q)[0][:nprobe].tolist()
        assert _batch_ranking(am, q, nprobe) == tuple_order


def test_rescan_continue_equals_a_fresh_scan(ivf):
    ivf.db.execute("SET pase.nprobe = 3")
    for q in ivf.queries:
        list(ivf.am.scan(q, 5))
        assert list(ivf.am.amrescan_continue(q, 25)) == list(ivf.am.scan(q, 25))
        ivf.am.get_batch(q, 5)
        assert ivf.am.amrescan_continue_batch(q, 25).pairs() == ivf.am.get_batch(q, 25).pairs()


def test_shared_heap_parallel_driver_matches_the_scan(ivf):
    """`pase.parallel` ranks and scores through the access method, so it
    drives every variant (it used to special-case FLAT and PQ)."""
    ivf.db.execute("SET pase.nprobe = 3")
    for q in ivf.queries[:2]:
        result, curve = parallel_search(ivf.am, q, 10, 3, [1, 2])
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


def test_filtered_scans_agree_with_masked_brute_force(ivf):
    ivf.db.execute(f"SET pase.nprobe = {CLUSTERS}")  # exhaustive: exact for EXACT
    passing = {tid for tid, i in ivf.id_of.items() if i % 5 == 0}
    tids_by_row = sorted(ivf.id_of, key=ivf.id_of.get)

    def mask_fn(tids):
        return np.asarray([tid in passing for tid in tids], dtype=bool)

    for q in ivf.queries:
        ivf.am.last_filtered_examined = -1
        tuple_form = [tid for tid, __ in ivf.am.amsearch_filtered(q, 7, mask_fn)]
        assert ivf.am.last_filtered_examined == N
        ivf.am.last_filtered_examined = -1
        batch_form = ivf.am.amsearch_filtered_batch(q, 7, mask_fn).tids()
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
        lambda: ivf.am.amsearch_filtered_batch(q, 7, mask_fn).tids(),
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
    # The bridged variant's k-sized heap is by design (RC#6 neutralized).
    assert built == ["BoundedMaxHeap" if ivf.name == "bridged_ivfflat" else paged_heap]


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
