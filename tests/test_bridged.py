"""Tests for the bridged engine (the Sec. IX-C recipe implemented)."""

import numpy as np
import pytest

from repro.common.metrics import mean_recall_at_k
from repro.pgsim import PgSimDatabase


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

    def test_mirror_rebuild_from_pages(self, bridged_db, bridged_am, small_dataset):
        q = small_dataset.queries[0]
        before = _ids(bridged_db, bridged_am, q, 10)
        bridged_am._mirror = None  # simulate restart: memory lost
        after = _ids(bridged_db, bridged_am, q, 10)
        assert before == after

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

    def test_insert_updates_pages_and_mirror(self, bridged_db, bridged_am, small_dataset):
        vec = small_dataset.base[0] + 20.0
        table = bridged_db.catalog.table("items")
        tid = table.heap.insert([31337, vec], xid=1)
        bridged_am.insert(tid, vec)
        assert _ids(bridged_db, bridged_am, vec, 1) == [31337]
        # The durable path got it too.
        bridged_am._mirror = None
        assert _ids(bridged_db, bridged_am, vec, 1) == [31337]

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

    def test_parallel_units_local_heaps(self, bridged_am, small_dataset):
        results, units = bridged_am.parallel_search_units(small_dataset.queries[0], 10, 8)
        assert len(results) == 10
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
