"""Tests for the bridged engine (the Sec. IX-C recipe implemented)."""

import numpy as np
import pytest

from repro.common import parallel
from repro.common.distance import squared_norms
from repro.common.metrics import mean_recall_at_k
from repro.common.parallel import scaling_curve
from repro.pgsim import PgSimDatabase
from repro.pgsim.heapam import key_tid, tid_key


def _ids(db, am, query, k):
    table = db.catalog.table("items")
    return [table.heap.fetch_column(tid, 0) for tid, __ in am.scan(query, k)]


@pytest.fixture()
def bridged_db(loaded_db):
    loaded_db.execute(
        "CREATE INDEX bx ON items USING bridged_ivfflat (vec) "
        "WITH (clusters = 10, sample_ratio = 0.6, seed = 2)"
    )
    loaded_db.execute("SET pase.nprobe = 10")
    return loaded_db


@pytest.fixture()
def bridged_am(bridged_db):
    return bridged_db.catalog.find_index("bx").am


@pytest.fixture()
def reopen(tmp_path, small_dataset):
    """``reopen()`` closes the file-backed database it opened last (if
    any) and opens the directory again — a real restart: recovery
    replays the WAL and re-runs CREATE INDEX over the recovered heap.
    The first call loads the small dataset under ``bridged_db``'s index."""
    opened: list[PgSimDatabase] = []

    def reopen_db() -> tuple[PgSimDatabase, object]:
        if opened:
            opened[-1].close()
        db = PgSimDatabase(data_dir=tmp_path / "db")
        if not opened:
            db.execute("CREATE TABLE items (id int, vec float[])")
            heap = db.catalog.table("items").heap
            for i, vec in enumerate(small_dataset.base):
                heap.insert([i, vec], xid=1)
            db.wal.log_commit(1)
            db.wal.flush()
            db.execute(
                "CREATE INDEX bx ON items USING bridged_ivfflat (vec) "
                "WITH (clusters = 10, sample_ratio = 0.6, seed = 2)"
            )
        db.execute("SET pase.nprobe = 10")
        opened.append(db)
        return db, db.catalog.find_index("bx").am

    yield reopen_db
    if opened:
        opened[-1].close()


def _page_keys(am) -> set[int]:
    """Packed heap TID keys of every entry on the index's data pages."""
    heads = [head for __, head, __ in am._iter_centroids()]
    return {
        read(offno)[0]
        for head in heads
        for n, read in am._chain_pages(head)
        for offno in range(1, n + 1)
    }


class TestBridgedIVFFlat:
    def test_exact_with_full_probe(self, bridged_db, bridged_am, small_dataset):
        gt = small_dataset.ground_truth(10)
        res = [_ids(bridged_db, bridged_am, q, 10) for q in small_dataset.queries]
        assert mean_recall_at_k(res, gt, 10) == 1.0

    def test_pages_persisted_like_pase(self, bridged_db, bridged_am):
        """Step#1 keeps durability: the PASE page layout is written."""
        for fork in ("meta", "centroid", "data"):
            assert bridged_db.disk.relation_exists(f"bx.{fork}")
        assert bridged_db.disk.n_blocks("bx.data") >= 10

    def test_mirror_rebuild_from_pages(self, reopen, small_dataset):
        """A restart loses the memory index; the reopened database
        serves the same answers (recovery rebuilds the index from the
        recovered heap, whose pages it writes again)."""
        db, am = reopen()
        before = [_ids(db, am, q, 10) for q in small_dataset.queries]
        db, am = reopen()
        assert am._index is not None and db.disk.n_blocks("bx.data") >= 10
        assert [_ids(db, am, q, 10) for q in small_dataset.queries] == before

    def test_matches_pase_results_with_same_clusters(self, bridged_db, bridged_am, small_dataset):
        """Bridged changes performance, never answers: a PASE index on
        the same centroids returns identical hits."""
        from repro.specialized import IVFFlatIndex

        centroids = []
        for __, __, vec in bridged_am._iter_centroids():
            centroids.append(vec.copy())
        ref = IVFFlatIndex(small_dataset.dim, n_clusters=10)
        ref.set_centroids(np.vstack(centroids))
        ref.add(small_dataset.base)
        for q in small_dataset.queries[:4]:
            assert _ids(bridged_db, bridged_am, q, 10) == ref.search(q, 10, nprobe=10).ids

    def test_insert_updates_pages_and_mirror(self, reopen, small_dataset):
        db, am = reopen()
        vec = small_dataset.base[0] + 20.0
        tid = db.catalog.table("items").heap.insert([31337, vec], xid=1)
        am.insert(tid, vec)
        db.wal.flush()
        assert _ids(db, am, vec, 1) == [31337]
        # The durable path got it too: the pages, and after a restart.
        assert tid_key(tid) in _page_keys(am)
        db, am = reopen()
        assert _ids(db, am, vec, 1) == [31337]

    def test_insert_joins_the_list_the_pages_chose(self, bridged_db, bridged_am, small_dataset):
        """One list decision per insert.  The pages pick the list with an
        exact L2 loop over the centroid tuples; SGEMM's ``norms - 2 C v``
        can pick the other list for a vector near a midpoint.  The
        memory index takes the pages' list, so answers at ``nprobe = 1``
        stay the same when a VACUUM rebuilds it from the pages."""
        centroids = np.vstack([vec.copy() for __, __, vec in bridged_am._iter_centroids()])
        norms = squared_norms(centroids)
        rng = np.random.default_rng(0)
        for __ in range(100_000):
            a, b = rng.choice(len(centroids), 2, replace=False)
            noise = rng.normal(size=centroids.shape[1]) * 1e-3
            vec = ((centroids[a] + centroids[b]) / 2 + noise).astype(np.float32)
            exact = int(np.argmin([np.dot(c - vec, c - vec) for c in centroids]))
            if exact != int(np.argmin(norms - 2.0 * (centroids @ vec))):
                break
        else:
            pytest.fail("no vector found on which the two list decisions differ")
        bridged_db.execute("SET pase.nprobe = 1")
        tid = bridged_db.catalog.table("items").heap.insert([31337, vec], xid=1)
        bridged_am.insert(tid, vec)
        queries = [vec, *small_dataset.queries]
        before = [_ids(bridged_db, bridged_am, q, 5) for q in queries]
        victim = next(i for i in range(small_dataset.n) if all(i not in ids for ids in before))
        bridged_db.execute(f"DELETE FROM items WHERE id = {victim}")
        bridged_db.execute("VACUUM items")  # drops the memory index: rebuilt from the pages
        assert [_ids(bridged_db, bridged_am, q, 5) for q in queries] == before
        assert tid_key(tid) in bridged_am._memory().lists()[exact][0].tolist()

    def test_scan_pins_no_pages_for_the_same_candidates(
        self, bridged_db, bridged_am, small_dataset
    ):
        """Why the mirror is faster, counted (the wall-clock gap is
        gated in ``benchmarks/bench_bridged_gap.py``): probing every
        list, PASE pins its centroid and data pages on each query while
        the mirror pins none, and both score every row."""
        bridged_db.execute(
            "CREATE INDEX px ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 10, sample_ratio = 0.6, seed = 2)"
        )
        pase_am = bridged_db.catalog.find_index("px").am
        stats = bridged_db.buffer.stats
        for q in small_dataset.queries:
            cost = {}
            for am in (bridged_am, pase_am):
                pins, candidates = stats.hits + stats.misses, am.scan_stats.candidates
                list(am.scan(q, 10))
                cost[am.amname] = (
                    stats.hits + stats.misses - pins,
                    am.scan_stats.candidates - candidates,
                )
            assert cost["bridged_ivfflat"][0] == 0 < cost["pase_ivfflat"][0]
            assert cost["bridged_ivfflat"][1] == cost["pase_ivfflat"][1] == small_dataset.n

    def test_parallel_units_local_heaps(self, bridged_am, small_dataset, monkeypatch):
        scheduled = []

        def record(units, thread_counts):
            scheduled.append(units)
            return scaling_curve(units, thread_counts)

        monkeypatch.setattr(parallel, "scaling_curve", record)
        q = small_dataset.queries[0]
        result, __ = bridged_am.parallel_search(q, 10, 8, [1, 2])
        assert [(key_tid(n.vector_id), n.distance) for n in result.neighbors] == list(
            bridged_am.scan(q, 10)
        )
        (units,) = scheduled
        assert len(units) == 8
        assert all(u.serial_ops == 1 for u in units)  # merge only, no per-push lock

    def test_sql_surface_unchanged(self, bridged_db, small_dataset, vec_lit):
        lit = vec_lit(small_dataset.queries[1])
        plan = bridged_db.explain(
            f"SELECT id FROM items ORDER BY vec <-> '{lit}'::PASE LIMIT 5"
        )
        assert "bridged_ivfflat" in plan
        rows = bridged_db.query(
            f"SELECT id FROM items ORDER BY vec <-> '{lit}'::PASE LIMIT 5"
        )
        assert [r[0] for r in rows] == small_dataset.ground_truth(5)[1].tolist()


class TestBridgedHNSW:
    @pytest.fixture()
    def hnsw_db(self, loaded_db):
        loaded_db.execute(
            "CREATE INDEX bh ON items USING bridged_hnsw (vec) "
            "WITH (bnn = 8, efb = 24, seed = 4)"
        )
        return loaded_db

    def test_recall(self, hnsw_db, small_dataset):
        am = hnsw_db.catalog.find_index("bh").am
        hnsw_db.execute("SET pase.efs = 80")
        gt = small_dataset.ground_truth(10)
        res = [_ids(hnsw_db, am, q, 10) for q in small_dataset.queries]
        assert mean_recall_at_k(res, gt, 10) > 0.75

    def test_same_graph_as_pase_hnsw(self, hnsw_db, small_dataset):
        """Same seed + same algorithm: bridged == PASE results, faster."""
        hnsw_db.execute(
            "CREATE INDEX ph ON items USING pase_hnsw (vec) "
            "WITH (bnn = 8, efb = 24, seed = 4)"
        )
        bridged = hnsw_db.catalog.find_index("bh").am
        pase = hnsw_db.catalog.find_index("ph").am
        for q in small_dataset.queries[:4]:
            assert _ids(hnsw_db, bridged, q, 10) == _ids(hnsw_db, pase, q, 10)

    def test_size_far_below_pase(self, hnsw_db, small_dataset):
        hnsw_db.execute(
            "CREATE INDEX ph2 ON items USING pase_hnsw (vec) "
            "WITH (bnn = 8, efb = 24, seed = 4)"
        )
        bridged = hnsw_db.catalog.find_index("bh").am.size_info()
        pase = hnsw_db.catalog.find_index("ph2").am.size_info()
        # RC#4 fixed: no fresh-page-per-list, 4-byte neighbor ids.
        assert bridged.allocated_bytes < pase.allocated_bytes / 3

    def test_insert(self, hnsw_db, small_dataset):
        am = hnsw_db.catalog.find_index("bh").am
        vec = small_dataset.base[5] + 15.0
        table = hnsw_db.catalog.table("items")
        tid = table.heap.insert([777, vec], xid=1)
        am.insert(tid, vec)
        assert _ids(hnsw_db, am, vec, 1) == [777]

    def test_drop_cleans_storage(self, hnsw_db):
        assert hnsw_db.disk.relation_exists("bh.data")
        hnsw_db.execute("DROP INDEX bh")
        assert not hnsw_db.disk.relation_exists("bh.data")
