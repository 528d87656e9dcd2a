"""What every HNSW access method promises, asserted once for both.

`pase_hnsw` keeps the graph on pages (24-byte neighbor tuples, one pin
per gathered vector) and `bridged_hnsw` keeps it in memory; both run
one core (`repro.pase.hnsw.HNSWCore`) over the one graph algorithm in
`repro.common.graph`.  Each test here runs against both, so a behaviour
cannot drift in one residence without a failure naming it.  The twin
of `test_ivf_family_contract.py`.
"""

from __future__ import annotations

import struct
from types import SimpleNamespace

import numpy as np
import pytest

import repro.bridged  # noqa: F401  — registers bridged_hnsw
import repro.pase  # noqa: F401  — registers pase_hnsw
from repro.common import graph
from repro.pase.hnsw import HNSWCore
from repro.pase.options import IndexOptionError
from repro.pgsim import PgSimDatabase
from repro.pgsim.am import lookup_am
from repro.pgsim.page import PageCorruptError
from repro.specialized import HNSWIndex

AMS = ("pase_hnsw", "bridged_hnsw")
N, DIM, BNN, EFB, SEED = 200, 8, 6, 24, 3
K, K_CONTINUE = 10, 30


def _lit(vec: np.ndarray) -> str:
    return ",".join(repr(float(x)) for x in np.asarray(vec, dtype=np.float32))


def _build(
    name: str, base: np.ndarray | None = None, page_size: int = 1024, bnn: int = BNN
) -> SimpleNamespace:
    """A table of ``base`` indexed by one HNSW variant; ``pase.efs``
    covers ``K_CONTINUE`` so every ``k`` up to it runs the same beam.

    The default base is one Gaussian blob: well-separated clusters can
    leave level 0 disconnected (the diversity heuristic prunes the long
    edges), and the exactness checks below need one component.
    """
    rng = np.random.default_rng(11)
    if base is None:
        base = rng.normal(size=(N, DIM)).astype(np.float32)
    db = PgSimDatabase(page_size=page_size, buffer_pool_pages=4096)
    db.execute("CREATE TABLE t (id int, vec float[])")
    heap = db.catalog.table("t").heap
    id_of = {heap.insert([i, vec], xid=1): i for i, vec in enumerate(base)}
    db.wal.log_commit(1)
    db.execute(
        f"CREATE INDEX ix ON t USING {name} (vec) WITH (bnn = {bnn}, efb = {EFB}, seed = {SEED})"
    )
    db.execute(f"SET pase.efs = {K_CONTINUE}")
    queries = (base[:4] + rng.normal(size=(4, base.shape[1]))).astype(np.float32)
    return SimpleNamespace(
        name=name, db=db, am=db.catalog.find_index("ix").am, heap=heap, base=base,
        id_of=id_of, queries=queries,
    )


@pytest.fixture(scope="module", params=AMS)
def built(request) -> SimpleNamespace:
    """Read-only: tests using it must not change the table or index."""
    return _build(request.param)


@pytest.fixture(params=AMS)
def hnsw(request) -> SimpleNamespace:
    return _build(request.param)


def _pins(db) -> int:
    return db.buffer.stats.hits + db.buffer.stats.misses


def _brute(built, q: np.ndarray, keep=lambda i: True) -> list:
    """TIDs in ``(distance, tid)`` order, distances as the graph computes them."""
    diff = built.base - q
    dists = np.einsum("ij,ij->i", diff, diff).tolist()
    tids = sorted(built.id_of, key=built.id_of.get)
    return [tid for __, tid in sorted((dists[i], tids[i]) for i in range(len(tids)) if keep(i))]


def test_registry_resolves_the_family():
    for name in AMS:
        cls = lookup_am(name)
        assert cls.amname == name and cls.amcanfilter and issubclass(cls, HNSWCore)
    assert lookup_am("hnsw_fun") is lookup_am("pase_hnsw")


def test_scan_batch_and_continuations_agree(built):
    for q in built.queries:
        pairs = list(built.am.scan(q, K))
        assert len(pairs) == K
        assert built.am.get_batch(q, K).pairs() == pairs
        assert list(built.am.amrescan_continue(q, K_CONTINUE))[:K] == pairs
        assert built.am.amrescan_continue_batch(q, K_CONTINUE).pairs()[:K] == pairs


def _key_mask(passing: set) -> object:
    """The batch form's mask (packed TID keys in, bools out) with the
    verdicts of ``tid in passing``."""
    keys = {(tid.blkno << 16) | tid.offset for tid in passing}
    return lambda batch: np.asarray([key in keys for key in batch.tolist()], dtype=bool)


def test_filtered_forms_agree_with_masked_brute_force(built):
    """At ef >= live rows the in-filter beam visits the whole connected
    graph, so it is exact; both forms judge every node once."""
    built.db.execute(f"SET pase.efs = {N}")
    passing = {tid for tid, i in built.id_of.items() if i % 5 == 0}

    def mask_fn(tids):
        return np.asarray([tid in passing for tid in tids], dtype=bool)

    key_mask = _key_mask(passing)
    try:
        for q in built.queries:
            built.am.last_filtered_examined = -1
            tuple_form = list(built.am.amsearch_filtered(q, 7, mask_fn))
            assert built.am.last_filtered_examined == N
            built.am.last_filtered_examined = -1
            assert built.am.amsearch_filtered_batch(q, 7, key_mask).pairs() == tuple_form
            assert built.am.last_filtered_examined == N
            assert [tid for tid, __ in tuple_form] == _brute(built, q, lambda i: i % 5 == 0)[:7]
    finally:
        built.db.execute(f"SET pase.efs = {K_CONTINUE}")


def test_batch_in_filter_masks_packed_keys_with_the_tuple_forms_pins(built):
    """The batch in-filter hands its mask one int64 array of packed keys
    per hop — the nodes the tuple form hands over as TIDs, read with
    the same pins — and returns the tuple form's answer."""
    passing = {tid for tid, i in built.id_of.items() if i % 4 == 0}
    keys = _key_mask(passing)
    calls = {"tuple": [], "batch": []}

    def mask_fn(tids):
        calls["tuple"].append([(tid.blkno << 16) | tid.offset for tid in tids])
        return np.asarray([tid in passing for tid in tids], dtype=bool)

    def key_mask(batch):
        assert isinstance(batch, np.ndarray) and batch.dtype == np.int64
        calls["batch"].append(batch.tolist())
        return keys(batch)

    for q in built.queries:
        pins = _pins(built.db)
        tuple_form = list(built.am.amsearch_filtered(q, K, mask_fn))
        tuple_pins, pins = _pins(built.db) - pins, _pins(built.db)
        assert built.am.amsearch_filtered_batch(q, K, key_mask).pairs() == tuple_form
        assert _pins(built.db) - pins == tuple_pins
    assert calls["batch"] == calls["tuple"]


def test_filtered_scans_widen_until_k_match(built):
    built.db.execute("SET pase.efs = 4")
    passing = {tid for tid, i in built.id_of.items() if i % 100 == 0}  # 1 %: two rows

    def mask_fn(tids):
        return np.asarray([tid in passing for tid in tids], dtype=bool)

    try:
        q = built.queries[0]
        for form in (
            lambda: [tid for tid, __ in built.am.amsearch_filtered(q, 2, mask_fn)],
            lambda: built.am.amsearch_filtered_batch(q, 2, _key_mask(passing)).tids(),
        ):
            tids = form()
            assert set(tids) == passing
            # An ef of 4 could never have met both matches: the beam widened.
            assert built.am.last_filtered_examined > 4 * BNN
    finally:
        built.db.execute(f"SET pase.efs = {K_CONTINUE}")


def test_vacuum_twice_leaves_a_live_graph(hnsw):
    am, store = hnsw.am, hnsw.am.store
    hnsw.db.execute(f"SET pase.efs = {N}")
    for cut in (N // 4, N // 2):
        hnsw.db.execute(f"DELETE FROM t WHERE id < {cut}")
        hnsw.db.execute("VACUUM t")
        dead = {node for node in range(store.node_count()) if node < cut}
        assert am.removed == dead
        assert store.entry_point is not None and store.entry_point not in dead
        levels = am._node_levels()
        for node in range(store.node_count()):
            for level in range(levels[node] + 1):
                nbrs = store.neighbors(node, level)
                assert not (set(nbrs) & dead)
                assert node not in dead or nbrs == []
        for q in hnsw.queries:
            found = [tid for tid, __ in am.scan(q, K)]
            assert found == _brute(hnsw, q, lambda i, cut=cut: i >= cut)[:K]


@pytest.mark.parametrize("page_size", [256, 8192])
@pytest.mark.parametrize("name", AMS)
def test_vacuum_leaves_bounded_lists_and_empty_dead_nodes(name, page_size):
    """At 256-byte pages a level-0 list (2 * bnn = 16 entries, 8 per
    page) spans a chain of neighbor pages; a list that shrinks must not
    read back the old list's tail from the later pages."""
    base = np.random.default_rng(7).normal(size=(400, 4)).astype(np.float32)
    idx = _build(name, base, page_size=page_size, bnn=8)
    am, store = idx.am, idx.am.store
    idx.db.execute("DELETE FROM t WHERE id < 250")
    idx.db.execute("VACUUM t")
    assert len(am.removed) == 250
    levels = am._node_levels()
    for node in range(store.node_count()):
        for level in range(levels[node] + 1):
            nbrs = store.neighbors(node, level)
            if node in am.removed:
                assert nbrs == [], (node, level)
            assert len(nbrs) <= am.params.max_neighbors(level)
            assert len(set(nbrs)) == len(nbrs)
            assert not set(nbrs) & am.removed
    if name == "pase_hnsw":
        # Neighbor pages are only ever rewritten whole, never holed, so
        # the reader may treat every line pointer as live.
        rel = store.neighbor_rel
        for blkno in range(idx.db.buffer.disk.n_blocks(rel)):
            with idx.db.buffer.page(rel, blkno) as page:
                assert page.live_items() == list(range(1, page.item_count + 1))


def test_same_graph_as_specialized_hnsw(built):
    """Same algorithm + same insertion order + same RNG = same graph."""
    spec = HNSWIndex(DIM, bnn=BNN, efb=EFB, seed=SEED)
    spec.add(built.base)
    store = built.am.store
    assert store.node_count() == spec.store.node_count()
    assert (store.entry_point, store.max_level) == (spec.store.entry_point, spec.store.max_level)
    assert list(built.am._node_levels()) == spec.store._levels
    for node in range(store.node_count()):
        for level in range(spec.store._levels[node] + 1):
            assert store.neighbors(node, level) == spec.store.neighbors(node, level)


@pytest.mark.parametrize("name", AMS)
def test_tied_integer_data_orders_by_distance_then_tid(name):
    """Integer vectors: every distance is exact and many tie.  With ef
    covering the table both forms return the ``(distance, tid)`` prefix."""
    base = np.random.default_rng(5).integers(-2, 3, size=(N, 4)).astype(np.float32)
    tied = _build(name, base)
    tied.db.execute(f"SET pase.efs = {N}")
    for q in np.random.default_rng(6).integers(-2, 3, size=(6, 4)).astype(np.float32):
        tids = [tid for tid, __ in tied.am.scan(q, K)]
        assert tids == tied.am.get_batch(q, K).tids() == _brute(tied, q)[:K]


def test_wrong_dimension_queries_are_rejected(built):
    bad = np.ones(1, dtype=np.float32)
    message = f"query must be {DIM}-dim"

    def mask_fn(tids):
        return np.ones(len(tids), dtype=bool)

    for call in (
        lambda: list(built.am.scan(bad, 3)),
        lambda: built.am.get_batch(bad, 3),
        lambda: list(built.am.amrescan_continue(bad, 3)),
        lambda: built.am.amrescan_continue_batch(bad, 3),
        lambda: list(built.am.amsearch_filtered(bad, 3, mask_fn)),
        lambda: built.am.amsearch_filtered_batch(bad, 3, mask_fn),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    for batch_exec in ("off", "on"):
        built.db.execute(f"SET enable_batch_exec = {batch_exec}")
        with pytest.raises(ValueError, match=message):
            built.db.query("SELECT id FROM t ORDER BY vec <-> '5'::PASE LIMIT 3")


def test_wrong_dimension_inserts_are_rejected(hnsw):
    before = hnsw.am.size_info()
    with pytest.raises(ValueError, match=f"expected a {DIM}-dim vector"):
        hnsw.db.execute("INSERT INTO t VALUES (999, '7,8'::PASE)")
    # The statement left nothing behind: no heap row, no node, no tuple.
    assert hnsw.db.query("SELECT id FROM t WHERE id = 999") == []
    assert hnsw.am.store.node_count() == N
    assert hnsw.am.size_info() == before
    q = _lit(hnsw.queries[0])
    assert len(hnsw.db.query(f"SELECT id FROM t ORDER BY vec <-> '{q}'::PASE LIMIT 3")) == 3


@pytest.mark.parametrize("name", AMS)
def test_empty_table_builds_and_serves_later_inserts(name):
    db = PgSimDatabase(page_size=1024, buffer_pool_pages=256)
    db.execute("CREATE TABLE t (id int, vec float[])")
    db.execute(f"CREATE INDEX ix ON t USING {name} (vec) WITH (bnn = 4, seed = 1)")
    am = db.catalog.find_index("ix").am
    q = np.ones(3, dtype=np.float32)
    assert list(am.scan(q, 3)) == [] and len(am.get_batch(q, 3)) == 0
    assert am.size_info().used_bytes == 0
    db.execute("INSERT INTO t VALUES (1, '1,2,3'::PASE)")
    db.execute("INSERT INTO t VALUES (2, '1,1,1'::PASE)")
    assert db.query("SELECT id FROM t ORDER BY vec <-> '1,1,1'::PASE LIMIT 2") == [(2,), (1,)]
    assert am.store.node_count() == 2


@pytest.mark.parametrize("name", AMS)
@pytest.mark.parametrize("metric", [1, 2], ids=["inner_product", "cosine"])
def test_non_l2_distance_type_is_rejected(name, metric):
    db = PgSimDatabase(buffer_pool_pages=64)
    db.execute("CREATE TABLE t (id int, vec float[])")
    with pytest.raises(IndexOptionError, match="distance_type"):
        db.execute(f"CREATE INDEX ix ON t USING {name} (vec) WITH (distance_type = {metric})")
    db.execute(f"CREATE INDEX ix ON t USING {name} (vec) WITH (distance_type = 0)")


def _verify_every_page(am) -> int:
    """Check every page of every fork against its layout; the page count."""
    pages = 0
    for fork in am.FORKS:
        layout = am.layouts[fork]
        for page in layout.pages(am.buffer, am.relation_name(fork)):
            layout.verify(page)
            pages += 1
    return pages


def test_every_page_verifies_in_every_state(hnsw):
    """Every page of every fork is its layout's: as built, after INSERTs,
    and after DELETE + VACUUM, whose dead node tuples are the only holes
    (data pages) while neighbor pages stay packed."""
    built = _verify_every_page(hnsw.am)
    rng = np.random.default_rng(2)
    for j in range(40):
        vec = rng.normal(size=DIM).astype(np.float32)
        hnsw.db.execute(f"INSERT INTO t VALUES ({N + j}, '{_lit(vec)}'::PASE)")
    assert _verify_every_page(hnsw.am) > built
    hnsw.db.execute(f"DELETE FROM t WHERE id < {N // 2}")
    hnsw.db.execute("VACUUM t")
    assert len(hnsw.am.removed) == N // 2
    _verify_every_page(hnsw.am)
    assert hnsw.db.buffer.pinned_pages() == 0


def test_a_torn_line_pointer_fails_verify_and_the_neighbor_reader(hnsw):
    """One line pointer whose length is off by one on block 0 of each
    fork: ``verify`` refuses the page, and on pages ``neighbors()``
    refuses node 0's level-0 list (block 0 of the neighbor fork),
    pinning nothing afterwards."""
    am, buffer = hnsw.am, hnsw.db.buffer
    for fork in am.FORKS:
        with buffer.page(am.relation_name(fork), 0, dirty=True) as page:
            off, length = struct.unpack_from("<HH", page.buf, 24)  # line pointer 1
            struct.pack_into("<HH", page.buf, 24, off, length - 1)
            with pytest.raises(PageCorruptError, match="not packed"):
                am.layouts[fork].verify(page)
    if "neighbors" in am.FORKS:
        with pytest.raises(PageCorruptError, match="not packed"):
            am.store.neighbors(0, 0)
    assert buffer.pinned_pages() == 0


def test_size_info_reports_every_fork(built):
    forks = {rel.rsplit(".", 1)[1] for rel in built.am.relations()}
    assert "data" in forks
    info = built.am.size_info()
    assert {key for key in info.detail if key.endswith("_pages")} == {f"{f}_pages" for f in forks}
    assert info.page_count == sum(info.detail[f"{f}_pages"] for f in forks)
    assert 0 < info.used_bytes <= info.allocated_bytes


def test_tuple_scan_pins_a_data_page_per_result(built):
    """RC#2 on the tuple interface: on pages each result's heap TID costs
    one data-page pin; the batch interface reads them block by block.
    The memory residence pins nothing for either."""
    am, db = built.am, built.db
    for q in built.queries:
        pins = _pins(db)
        found = graph.search(am.store, am.params, q, K, efs=K_CONTINUE)
        traversal = _pins(db) - pins
        pins = _pins(db)
        list(am.scan(q, K))
        tuple_extra = _pins(db) - pins - traversal
        pins = _pins(db)
        am.get_batch(q, K)
        batch_extra = _pins(db) - pins - traversal
        if built.name == "bridged_hnsw":
            assert traversal == tuple_extra == batch_extra == 0
        else:
            blocks = {am.store._nodes[n.vector_id].data_blkno for n in found}
            assert tuple_extra == K
            assert batch_extra == len(blocks) <= K
