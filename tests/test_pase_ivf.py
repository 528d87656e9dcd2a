"""Tests for PASE IVF_FLAT and IVF_PQ access methods."""

import numpy as np
import pytest

from repro.common.metrics import mean_recall_at_k
from repro.common.profiling import Profiler
from repro.pase.options import (
    IndexOptionError,
    parse_hnsw_options,
    parse_ivf_options,
    parse_ivfpq_options,
)
from repro.pgsim import PgSimDatabase
from repro.pgsim.heapam import TID


def _search_am(am, query, k):
    return [tid for tid, __ in am.scan(np.asarray(query, dtype=np.float32), k)]


def _ids(db, am, query, k):
    table = db.catalog.table("items")
    return [table.heap.fetch_column(tid, 0) for tid in _search_am(am, query, k)]


@pytest.fixture()
def flat_am(loaded_db):
    loaded_db.execute(
        "CREATE INDEX fx ON items USING pase_ivfflat (vec) "
        "WITH (clusters = 10, sample_ratio = 0.6, seed = 2)"
    )
    return loaded_db.catalog.find_index("fx").am


@pytest.fixture()
def pq_am(loaded_db):
    loaded_db.execute(
        "CREATE INDEX px ON items USING pase_ivfpq (vec) "
        "WITH (clusters = 10, m = 4, c_pq = 32, sample_ratio = 0.9, seed = 2)"
    )
    return loaded_db.catalog.find_index("px").am


class TestOptions:
    def test_paper_style_clustering_params(self):
        opts = parse_ivf_options({"clustering_params": "10,256", "distance_type": 0})
        assert opts.sample_ratio == pytest.approx(0.01)
        assert opts.clusters == 256

    def test_named_options(self):
        opts = parse_ivf_options({"clusters": 32, "sample_ratio": 0.5})
        assert opts.clusters == 32
        assert opts.sample_ratio == 0.5

    def test_bad_clustering_params(self):
        with pytest.raises(IndexOptionError):
            parse_ivf_options({"clustering_params": "10"})
        with pytest.raises(IndexOptionError):
            parse_ivf_options({"clustering_params": "a,b"})

    def test_bad_distance_type(self):
        with pytest.raises(IndexOptionError):
            parse_ivf_options({"distance_type": "euclid"})

    def test_sample_ratio_bounds(self):
        with pytest.raises(IndexOptionError):
            parse_ivf_options({"sample_ratio": 0.0})

    def test_pq_options(self):
        opts = parse_ivfpq_options({"m": 8, "c_pq": 64})
        assert opts.m == 8 and opts.c_pq == 64
        with pytest.raises(IndexOptionError):
            parse_ivfpq_options({"c_pq": 1024})

    def test_hnsw_options(self):
        opts = parse_hnsw_options({"bnn": 32, "efb": 80})
        assert opts.bnn == 32 and opts.efb == 80
        with pytest.raises(IndexOptionError):
            parse_hnsw_options({"bnn": -1})


class TestPaseIVFFlat:
    def test_recall(self, loaded_db, flat_am, small_dataset):
        loaded_db.execute("SET pase.nprobe = 10")
        gt = small_dataset.ground_truth(10)
        res = [_ids(loaded_db, flat_am, q, 10) for q in small_dataset.queries]
        assert mean_recall_at_k(res, gt, 10) == 1.0  # all buckets probed

    def test_partial_probe_recall(self, loaded_db, flat_am, small_dataset):
        loaded_db.execute("SET pase.nprobe = 4")
        gt = small_dataset.ground_truth(10)
        res = [_ids(loaded_db, flat_am, q, 10) for q in small_dataset.queries]
        assert mean_recall_at_k(res, gt, 10) > 0.6

    def test_distances_sorted(self, flat_am, small_dataset):
        dists = [d for __, d in flat_am.scan(small_dataset.queries[0], 20)]
        assert dists == sorted(dists)

    def test_all_vectors_indexed(self, flat_am, small_dataset):
        total = 0
        for __, head, __ in flat_am._iter_centroids():
            total += sum(n for n, __ in flat_am._chain_pages(head))
        assert total == small_dataset.n

    def test_fixed_heap_same_results(self, loaded_db, flat_am, small_dataset):
        q = small_dataset.queries[0]
        loaded_db.execute("SET pase.fixed_heap = false")
        naive = _search_am(flat_am, q, 10)
        loaded_db.execute("SET pase.fixed_heap = true")
        fixed = _search_am(flat_am, q, 10)
        assert naive == fixed

    def test_insert_lands_in_correct_bucket(self, loaded_db, flat_am, small_dataset):
        vec = small_dataset.base[0] + 30.0
        table = loaded_db.catalog.table("items")
        tid = table.heap.insert([7777, vec], xid=1)
        flat_am.insert(tid, vec)
        got = _search_am(flat_am, vec, 1)
        assert got == [tid]

    def test_profiled_scan_sections(self, loaded_db, flat_am, small_dataset):
        prof = Profiler()
        flat_am.profiler = prof
        _search_am(flat_am, small_dataset.queries[0], 5)
        assert prof.inclusive_seconds("fvec_L2sqr") > 0
        assert prof.inclusive_seconds("Tuple Access") > 0
        assert prof.inclusive_seconds("Min-heap") > 0

    def test_size_info_pages(self, flat_am):
        info = flat_am.size_info()
        assert info.page_count > 0
        assert info.allocated_bytes == info.page_count * 8192
        assert 0 < info.used_bytes <= info.allocated_bytes
        assert info.detail["data_pages"] >= 10  # at least one page per bucket chain

    def test_build_stats(self, flat_am, small_dataset):
        assert flat_am.build_stats.vectors_added == small_dataset.n
        assert flat_am.build_stats.train_seconds > 0
        assert flat_am.build_stats.add_seconds > 0

    def test_build_indexes_the_rows_a_scan_sees(self):
        """The build reads the heap column-wise: deleted rows and another
        session's uncommitted rows stay out, as from a ``scan()``."""
        db = PgSimDatabase(buffer_pool_pages=64)
        rng = np.random.default_rng(5)
        db.execute("CREATE TABLE t (id int, vec float[])")
        for i in range(120):
            vec = ",".join(f"{x:.4f}" for x in rng.random(8))
            db.execute(f"INSERT INTO t VALUES ({i}, '{vec}'::PASE)")
        db.execute("DELETE FROM t WHERE id < 10")
        writer = db.session("writer")
        writer.execute("BEGIN")
        writer.execute("INSERT INTO t VALUES (500, '9,9,9,9,9,9,9,9'::PASE)")
        writer.execute("DELETE FROM t WHERE id = 50")
        db.execute(
            "CREATE INDEX tx ON t USING pase_ivfflat (vec) "
            "WITH (clusters = 6, sample_ratio = 1.0, seed = 3)"
        )
        writer.execute("ROLLBACK")
        am = db.catalog.find_index("tx").am
        heap = db.catalog.table("t").heap
        visible = {tid: values[1] for tid, values in heap.scan()}
        assert am.build_stats.vectors_added == len(visible) == 110
        query = np.full(8, 0.5, dtype=np.float32)
        db.execute("SET pase.nprobe = 6")
        hits = list(am.scan(query, len(visible) + 5))
        assert {tid for tid, __ in hits} == set(visible)
        for tid, dist in hits:
            assert dist == pytest.approx(float(((visible[tid] - query) ** 2).sum()), rel=1e-5)

    def test_query_dim_checked(self, flat_am):
        with pytest.raises(ValueError):
            list(flat_am.scan(np.zeros(3, dtype=np.float32), 1))

    def test_relations_listed(self, flat_am):
        assert set(flat_am.relations()) == {"fx.meta", "fx.centroid", "fx.data"}


class TestPaseIVFPQ:
    def test_reasonable_recall(self, loaded_db, pq_am, small_dataset):
        loaded_db.execute("SET pase.nprobe = 10")
        gt = small_dataset.ground_truth(10)
        res = [_ids(loaded_db, pq_am, q, 10) for q in small_dataset.queries]
        assert mean_recall_at_k(res, gt, 10) > 0.3

    def test_pctable_toggle_same_results(self, loaded_db, pq_am, small_dataset):
        q = small_dataset.queries[1]
        loaded_db.execute("SET pase.optimized_pctable = false")
        naive = _search_am(pq_am, q, 10)
        loaded_db.execute("SET pase.optimized_pctable = true")
        fast = _search_am(pq_am, q, 10)
        assert naive == fast

    def test_insert(self, loaded_db, pq_am, small_dataset):
        vec = small_dataset.base[1] + 25.0
        table = loaded_db.catalog.table("items")
        tid = table.heap.insert([8888, vec], xid=1)
        pq_am.insert(tid, vec)
        assert _search_am(pq_am, vec, 1) == [tid]

    def test_codebook_reload_from_pages(self, loaded_db, pq_am, small_dataset):
        cached = pq_am._load_codebook()
        pq_am._codebook = None  # force a reload from codebook pages
        reloaded = pq_am._load_codebook()
        np.testing.assert_allclose(cached.codebooks, reloaded.codebooks, rtol=1e-6)

    def test_size_smaller_than_flat(self, loaded_db, pq_am, small_dataset):
        loaded_db.execute(
            "CREATE INDEX fx2 ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 10, sample_ratio = 0.6, seed = 2)"
        )
        flat = loaded_db.catalog.find_index("fx2").am
        # PQ codes are a fraction of the raw vectors' bytes (page
        # counts may tie at this tiny scale, so compare live payload).
        assert pq_am.size_info().used_bytes < flat.size_info().used_bytes

    def test_indivisible_m_rejected(self, loaded_db):
        with pytest.raises(ValueError):
            loaded_db.execute(
                "CREATE INDEX bad ON items USING pase_ivfpq (vec) WITH (m = 5)"
            )
