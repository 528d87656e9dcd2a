"""Tests for PASE HNSW (page graph store) and the pgvector comparator."""

import functools
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.metrics import mean_recall_at_k
from repro.common.profiling import Profiler
from repro.pase.layout import HNSW_DATA, HNSW_NEIGHBOR
from repro.pgsim import PgSimDatabase
from repro.pgsim.page import Page, PageCorruptError

# Reference formats, declared here with literal struct strings rather
# than imported from the module under test, so a changed declaration
# there fails these tests instead of silently moving the reference.
_NEIGHBOR = struct.Struct("<QIIH6x")  # node id, nblkid, dblkid, doffset
_DATA_HEAD = struct.Struct("<IIHH")  # node id, heap blkno, heap offset, level
_NEXT = struct.Struct("<I")  # next block in the special space
_NO_BLOCK = 0xFFFFFFFF


def _ids(db, am, query, k):
    table = db.catalog.table("items")
    return [table.heap.fetch_column(tid, 0) for tid, __ in am.scan(query, k)]


def _pins(db):
    return db.buffer.stats.hits + db.buffer.stats.misses


@pytest.fixture()
def hnsw_am(loaded_db):
    loaded_db.execute(
        "CREATE INDEX hx ON items USING pase_hnsw (vec) WITH (bnn = 8, efb = 24, seed = 4)"
    )
    return loaded_db.catalog.find_index("hx").am


class TestNeighborTupleLayout:
    def test_24_byte_neighbor_tuple(self):
        """Sec. VI-C2: each HNSWNeighborTuple takes 24 bytes; both page
        formats are the references above."""
        assert HNSW_NEIGHBOR.item_size == _NEIGHBOR.size == 24
        assert HNSW_NEIGHBOR.head.format == _NEIGHBOR.format
        assert HNSW_DATA.head.format == _DATA_HEAD.format


class TestPaseHNSW:
    def test_recall(self, loaded_db, hnsw_am, small_dataset):
        loaded_db.execute("SET pase.efs = 80")
        gt = small_dataset.ground_truth(10)
        res = [_ids(loaded_db, hnsw_am, q, 10) for q in small_dataset.queries]
        assert mean_recall_at_k(res, gt, 10) > 0.75

    def test_matches_specialized_hnsw_given_same_seed(self, loaded_db, hnsw_am, small_dataset):
        """Same algorithm + same insertion order + same RNG = same graph."""
        from repro.specialized import HNSWIndex

        spec = HNSWIndex(small_dataset.dim, bnn=8, efb=24, seed=4)
        spec.add(small_dataset.base)
        store = hnsw_am.store
        assert store.node_count() == spec.store.node_count()
        assert store.entry_point == spec.store.entry_point
        for node in range(0, store.node_count(), 97):
            assert store.neighbors(node, 0) == spec.store.neighbors(node, 0)

    def test_one_fresh_page_per_adjacency_list(self, hnsw_am):
        """RC#4: every (node, level) list starts on its own page."""
        store = hnsw_am.store
        lists = sum(len(meta.neighbor_heads) for meta in store._nodes)
        neighbor_pages = hnsw_am.buffer.disk.n_blocks("hx.neighbors")
        assert neighbor_pages >= lists  # chains may add extra pages

    def test_size_dominated_by_neighbor_pages(self, hnsw_am):
        info = hnsw_am.size_info()
        assert info.detail["neighbors_pages"] > info.detail["data_pages"]
        assert info.waste_ratio > 0.5  # RC#4's page waste

    def test_incremental_insert(self, loaded_db, hnsw_am, small_dataset):
        vec = small_dataset.base[3] + 40.0
        table = loaded_db.catalog.table("items")
        tid = table.heap.insert([5555, vec], xid=1)
        hnsw_am.insert(tid, vec)
        assert _ids(loaded_db, hnsw_am, vec, 1) == [5555]

    def test_efs_setting_respected(self, loaded_db, hnsw_am, small_dataset):
        gt = small_dataset.ground_truth(10)
        loaded_db.execute("SET pase.efs = 10")
        low = mean_recall_at_k(
            [_ids(loaded_db, hnsw_am, q, 10) for q in small_dataset.queries], gt, 10
        )
        loaded_db.execute("SET pase.efs = 120")
        high = mean_recall_at_k(
            [_ids(loaded_db, hnsw_am, q, 10) for q in small_dataset.queries], gt, 10
        )
        assert high >= low

    def test_profiled_sections(self, loaded_db, hnsw_am, small_dataset):
        prof = Profiler()
        hnsw_am.profiler = prof
        list(hnsw_am.scan(small_dataset.queries[0], 5))
        assert prof.inclusive_seconds("Tuple Access") > 0
        assert prof.inclusive_seconds("pasepfirst") > 0
        assert prof.inclusive_seconds("HVTGet") > 0

    def test_store_roundtrips_neighbors(self, hnsw_am):
        store = hnsw_am.store
        node = 10
        original = store.neighbors(node, 0)
        store.set_neighbors(node, 0, original[::-1])
        assert store.neighbors(node, 0) == original[::-1]
        store.set_neighbors(node, 0, original)

    def test_vectors_gather(self, hnsw_am, small_dataset):
        store = hnsw_am.store
        mat = store.vectors([0, 5, 9])
        np.testing.assert_allclose(mat[1], store.vector(5), rtol=1e-6)

    def test_heap_tid_roundtrip(self, hnsw_am, loaded_db):
        store = hnsw_am.store
        tid = store.heap_tid(0)
        row = loaded_db.catalog.table("items").heap.fetch(tid)
        assert row[0] == 0  # node 0 was the first row inserted


def _bare_store(page_size, nodes):
    """An empty pase_hnsw graph store holding ``nodes`` unlinked nodes."""
    db = PgSimDatabase(page_size=page_size, buffer_pool_pages=4096)
    db.execute("CREATE TABLE t (id int, vec float[])")
    db.execute("CREATE INDEX ix ON t USING pase_hnsw (vec) WITH (bnn = 4)")
    am = db.catalog.find_index("ix").am
    am.dim = 4
    store = am._new_store()
    vecs = np.random.default_rng(nodes).standard_normal((nodes, 4)).astype(np.float32)
    for i, vec in enumerate(vecs):
        store.add_node(vec, level=i % 3)
    return db, store


def _reference_page(store, ids, next_blk):
    """A neighbor-list page built the slow way: ``Page.init`` plus one
    ``insert_item`` per 24-byte tuple."""
    page = Page.init(store.buffer.disk.page_size, special_size=_NEXT.size)
    for nid in ids:
        meta = store._nodes[nid]
        page.insert_item(
            _NEIGHBOR.pack(nid, meta.neighbor_heads[0], meta.data_blkno, meta.data_offset)
        )
    page.write_special(_NEXT.pack(next_blk))
    return bytes(page.buf)


def _chain(store, node, level=0):
    blkno, chain = store._nodes[node].neighbor_heads[level], []
    while blkno != _NO_BLOCK:
        chain.append(blkno)
        with store.buffer.page(store.neighbor_rel, blkno) as page:
            (blkno,) = _NEXT.unpack(page.read_special())
    return chain


def _reference_neighbors(store, node, level=0):
    """A list decoded the slow way: one unpack per live pointer of
    every page in the chain."""
    ids = []
    for blkno in _chain(store, node, level):
        with store.buffer.page(store.neighbor_rel, blkno) as page:
            ids += [_NEIGHBOR.unpack_from(page.buf, off)[0] for __, off, __ in page.live_pointers()]
    return ids


def _reference_vectors(store, nodes):
    """Per-item decode through ``get_item_view``, stacked."""
    out = np.empty((len(nodes), store.am.dim), dtype=np.float32)
    for i, node in enumerate(nodes):
        meta = store._nodes[node]
        with store.buffer.page(store.data_rel, meta.data_blkno) as page:
            view = page.get_item_view(meta.data_offset)
            out[i] = np.frombuffer(view, dtype=np.float32, offset=_DATA_HEAD.size)
    return out


@functools.cache
def _read_only_store(page_size):
    """A store the vector-reader properties share (they never write)."""
    return _bare_store(page_size, 40)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([256, 8192]), st.lists(st.integers(0, 39), max_size=30))
@example(256, [])
@example(8192, [7, 7, 0, 39, 7])
def test_vectors_equal_per_item_decode(page_size, nodes):
    """The gather is the stacked per-item decode, duplicates and the
    empty list included, at one pin per requested vector."""
    db, store = _read_only_store(page_size)
    want = _reference_vectors(store, nodes)
    pins = _pins(db)
    got = store.vectors(nodes)
    assert _pins(db) - pins == len(nodes)
    assert got.shape == (len(nodes), 4) and got.dtype == np.float32
    assert got.tobytes() == want.tobytes()
    assert db.buffer.pinned_pages() == 0


@pytest.mark.parametrize("page_size", [256, 8192])
def test_data_readers_raise_like_get_item_view(page_size):
    """A dead or out-of-range data item fails every reader with the
    exception ``get_item_view`` raises, and leaves nothing pinned."""
    db, store = _bare_store(page_size, 6)
    meta = store._nodes[3]
    pins = _pins(db)
    assert store.heap_tid(3) == store.heap_tids([3])[0]
    assert _pins(db) - pins == 2  # one data-page pin per lookup
    for bad_offset, error in ((meta.data_offset, PageCorruptError), (999, IndexError)):
        with db.buffer.page(store.data_rel, meta.data_blkno, dirty=True) as page:
            if error is PageCorruptError:
                page.delete_item(meta.data_offset)
            with pytest.raises(error):
                page.get_item_view(bad_offset)
        meta.data_offset = bad_offset
        for read in (store.vectors, store.heap_tids):
            with pytest.raises(error):
                read([1, 3])
        for read in (store.vector, store.heap_tid):
            with pytest.raises(error):
                read(3)
        assert db.buffer.pinned_pages() == 0


class TestNeighborPages:
    @pytest.mark.parametrize("page_size", [256, 8192])
    def test_writer_and_reader_across_chained_pages(self, page_size):
        """Every length from empty to past two full pages, growing then
        shrinking one list: each page image is what the per-tuple path
        writes, the reader returns the list in order, and the pins are
        the per-page ones (one per page read; one per page rewritten,
        two per page added — its link and its write)."""
        per_page = (page_size - 24 - _NEXT.size) // 28
        store_nodes = 2 * per_page + 3
        db, store = _bare_store(page_size, store_nodes)
        node, others = 0, list(range(store_nodes - 1, 0, -1))
        lengths = list(range(2 * per_page + 2))
        for n in lengths + lengths[::-1]:
            ids = others[:n]
            before = len(_chain(store, node))
            pins = _pins(db)
            store.set_neighbors(node, 0, ids)
            set_pins = _pins(db) - pins
            chain = _chain(store, node)
            needed = max(1, -(-n // per_page))
            assert len(chain) == max(before, needed)  # later pages stay linked
            added = max(needed - before, 0)
            assert set_pins == len(chain) + added
            for i, blkno in enumerate(chain):
                next_blk = chain[i + 1] if i + 1 < len(chain) else _NO_BLOCK
                chunk = ids[i * per_page : (i + 1) * per_page]
                with db.buffer.page(store.neighbor_rel, blkno) as page:
                    assert bytes(page.buf) == _reference_page(store, chunk, next_blk), (n, i)
            assert _reference_neighbors(store, node) == ids
            pins = _pins(db)
            assert store.neighbors(node, 0) == ids
            assert _pins(db) - pins == len(chain)

    @settings(max_examples=25, deadline=None)
    @given(page_size=st.sampled_from([256, 8192]), data=st.data())
    def test_reader_matches_live_pointer_decode(self, page_size, data):
        """Any level's list, grown then shrunk through random lengths
        across chained pages, reads back as its live-pointer decode at
        one pin per chain page."""
        per_page = (page_size - 24 - _NEXT.size) // 28
        db, store = _bare_store(page_size, 2 * per_page + 3)
        node, level = 2, data.draw(st.integers(0, 2))  # node 2 has levels 0..2
        others = [i for i in range(store.node_count()) if i != node]
        lengths = data.draw(st.lists(st.integers(0, 2 * per_page + 2), min_size=1, max_size=5))
        for n in sorted(lengths) + sorted(lengths, reverse=True):
            ids = data.draw(st.permutations(others))[:n]
            store.set_neighbors(node, level, ids)
            pins = _pins(db)
            got = store.neighbors(node, level)
            assert _pins(db) - pins == len(_chain(store, node, level))
            assert got == _reference_neighbors(store, node, level) == ids

    def test_reader_rejects_an_unpacked_page(self):
        """A neighbor page whose tuple area is not exactly its items
        fails the reader's layout check instead of decoding garbage."""
        db, store = _bare_store(256, 6)
        store.set_neighbors(0, 0, [1, 2, 3])
        (head,) = _chain(store, 0)
        with db.buffer.page(store.neighbor_rel, head, dirty=True) as page:
            page.upper -= 4
        with pytest.raises(PageCorruptError, match="not packed"):
            store.neighbors(0, 0)
        assert db.buffer.pinned_pages() == 0


class TestPgVector:
    @pytest.fixture()
    def pgv_am(self, loaded_db):
        loaded_db.execute(
            "CREATE INDEX gx ON items USING ivfflat (vec) "
            "WITH (clusters = 10, sample_ratio = 0.6, seed = 2)"
        )
        return loaded_db.catalog.find_index("gx").am

    def test_same_results_as_pase(self, loaded_db, pgv_am, small_dataset):
        loaded_db.execute(
            "CREATE INDEX fx3 ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 10, sample_ratio = 0.6, seed = 2)"
        )
        pase_am = loaded_db.catalog.find_index("fx3").am
        loaded_db.execute("SET pase.nprobe = 6")
        for q in small_dataset.queries[:4]:
            assert _ids(loaded_db, pgv_am, q, 10) == _ids(loaded_db, pase_am, q, 10)

    def test_index_much_smaller_than_pase(self, loaded_db, pgv_am, small_dataset):
        loaded_db.execute(
            "CREATE INDEX fx4 ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 10, sample_ratio = 0.6, seed = 2)"
        )
        pase_am = loaded_db.catalog.find_index("fx4").am
        # TID-only entries: pgvector's live index payload is a small
        # fraction of PASE's (which stores the vectors).
        assert pgv_am.size_info().used_bytes < pase_am.size_info().used_bytes / 3

    def test_heap_fetch_per_candidate(self, loaded_db, pgv_am, small_dataset):
        prof = Profiler()
        pgv_am.profiler = prof
        loaded_db.execute("SET pase.nprobe = 6")
        list(pgv_am.scan(small_dataset.queries[0], 5))
        # The defining cost: vector fetched from the base heap per candidate.
        heap_fetch = {r.name: r for r in prof.breakdown()}["Heap Fetch"]
        assert heap_fetch.seconds > 0
        assert heap_fetch.calls > 50

    def test_insert(self, loaded_db, pgv_am, small_dataset):
        vec = small_dataset.base[2] + 60.0
        table = loaded_db.catalog.table("items")
        tid = table.heap.insert([4444, vec], xid=1)
        pgv_am.insert(tid, vec)
        assert _ids(loaded_db, pgv_am, vec, 1) == [4444]
