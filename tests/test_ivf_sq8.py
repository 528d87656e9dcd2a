"""Tests for the IVF_SQ8 index family (both engines) and the SQ codec."""

import numpy as np
import pytest

from repro.common import sq
from repro.common.metrics import mean_recall_at_k
from repro.core.study import ComparativeStudy
from repro.specialized import IVFFlatIndex, IVFSQ8Index


class TestSQ8Codec:
    @pytest.fixture(scope="class")
    def codec(self, small_dataset):
        return sq.train_codec(small_dataset.base)

    def test_roundtrip_error_bounded(self, codec, small_dataset):
        codes = sq.encode(codec, small_dataset.base)
        approx = sq.decode(codec, codes)
        errors = ((approx - small_dataset.base) ** 2).sum(axis=1)
        assert float(errors.max()) <= sq.reconstruction_error_bound(codec) * 1.001

    def test_codes_are_bytes(self, codec, small_dataset):
        codes = sq.encode(codec, small_dataset.base[:10])
        assert codes.dtype == np.uint8

    def test_out_of_range_clamps(self, codec, small_dataset):
        far = small_dataset.base[:1] + 1000.0
        codes = sq.encode(codec, far)
        assert int(codes.max()) == sq.LEVELS

    def test_constant_dimension_exact(self):
        data = np.ones((10, 3), dtype=np.float32)
        data[:, 1] = np.linspace(0, 1, 10)
        codec = sq.train_codec(data)
        approx = sq.decode(codec, sq.encode(codec, data))
        np.testing.assert_allclose(approx[:, 0], 1.0)
        np.testing.assert_allclose(approx[:, 2], 1.0)

    def test_dim_mismatch_rejected(self, codec):
        with pytest.raises(ValueError):
            sq.encode(codec, np.zeros((2, 3), dtype=np.float32))
        with pytest.raises(ValueError):
            sq.decode(codec, np.zeros((2, 3), dtype=np.uint8))

    def test_empty_training_rejected(self):
        with pytest.raises(ValueError):
            sq.train_codec(np.zeros((0, 4), dtype=np.float32))


class TestSpecializedIVFSQ8:
    @pytest.fixture(scope="class")
    def index(self, small_dataset):
        ix = IVFSQ8Index(small_dataset.dim, n_clusters=12, sample_ratio=0.8, seed=3)
        ix.train(small_dataset.base)
        ix.add(small_dataset.base)
        return ix

    def test_high_recall(self, index, small_dataset):
        gt = small_dataset.ground_truth(10)
        res = [index.search(q, 10, nprobe=12).ids for q in small_dataset.queries]
        assert mean_recall_at_k(res, gt, 10) > 0.9  # SQ8 is nearly lossless

    def test_quarter_the_size_of_flat(self, index, small_dataset):
        flat = IVFFlatIndex(small_dataset.dim, n_clusters=12, sample_ratio=0.8, seed=3)
        flat.train(small_dataset.base)
        flat.add(small_dataset.base)
        assert index.size_info().detail["codes"] * 4 == flat.size_info().detail["vectors"]


class TestPaseIVFSQ8:
    @pytest.fixture()
    def am(self, loaded_db):
        loaded_db.execute(
            "CREATE INDEX sx ON items USING pase_ivfsq8 (vec) "
            "WITH (clusters = 10, sample_ratio = 0.8, seed = 2)"
        )
        loaded_db.execute("SET pase.nprobe = 10")
        return loaded_db.catalog.find_index("sx").am

    def _ids(self, db, am, q, k):
        table = db.catalog.table("items")
        return [table.heap.fetch_column(tid, 0) for tid, __ in am.scan(q, k)]

    def test_high_recall(self, loaded_db, am, small_dataset):
        gt = small_dataset.ground_truth(10)
        res = [self._ids(loaded_db, am, q, 10) for q in small_dataset.queries]
        assert mean_recall_at_k(res, gt, 10) > 0.9

    def test_paper_alias_registered(self, loaded_db, small_dataset):
        loaded_db.execute(
            "CREATE INDEX sx2 ON items USING ivfsq8_fun (vec) "
            "WITH (clusters = 6, sample_ratio = 0.8, seed = 2)"
        )
        assert loaded_db.catalog.find_index("sx2") is not None

    def test_codec_reload_from_pages(self, loaded_db, am, small_dataset):
        cached = am._load_codec()
        am._codec = None
        reloaded = am._load_codec()
        np.testing.assert_array_equal(cached.vmin, reloaded.vmin)
        np.testing.assert_array_equal(cached.vdiff, reloaded.vdiff)

    def test_insert(self, loaded_db, am, small_dataset):
        vec = small_dataset.base[4] + 12.0
        table = loaded_db.catalog.table("items")
        tid = table.heap.insert([6001, vec], xid=1)
        am.insert(tid, vec)
        assert self._ids(loaded_db, am, vec, 1) == [6001]

    def test_data_pages_smaller_than_flat(self, loaded_db, am, small_dataset):
        loaded_db.execute(
            "CREATE INDEX fx9 ON items USING pase_ivfflat (vec) "
            "WITH (clusters = 10, sample_ratio = 0.8, seed = 2)"
        )
        flat = loaded_db.catalog.find_index("fx9").am
        assert am.size_info().used_bytes < flat.size_info().used_bytes

    def test_fixed_heap_same_results(self, loaded_db, am, small_dataset):
        q = small_dataset.queries[0]
        loaded_db.execute("SET pase.fixed_heap = false")
        a = self._ids(loaded_db, am, q, 10)
        loaded_db.execute("SET pase.fixed_heap = true")
        b = self._ids(loaded_db, am, q, 10)
        assert a == b

    def test_batch_scan_returns_the_tuple_scans_tids(
        self, loaded_db, am, small_dataset, monkeypatch
    ):
        """The batch interface dequantizes the gathered codes once and
        scores them in one kernel call, off the tuple path: the tuple
        scan's TIDs in its order, exact ties (rows sharing one code)
        broken by key, at the same distances to the bit."""
        table = loaded_db.catalog.table("items")
        twin = small_dataset.base[7]
        twins = [table.heap.insert([7000 + i, twin], xid=1) for i in range(3)]
        for tid in twins:
            am.insert(tid, twin)
        queries = [*small_dataset.queries, twin]
        tuple_scans = [list(am.scan(q, 10)) for q in queries]
        monkeypatch.setattr(am, "_scan_buckets", None)  # the tuple path is off limits
        for q, pairs in zip(queries, tuple_scans):
            batch = am.get_batch(q, 10)
            assert batch.pairs() == pairs
        assert [tid for tid, __ in tuple_scans[-1] if tid in twins] == sorted(twins)


class TestSQ8Study:
    def test_full_comparison(self, medium_dataset):
        study = ComparativeStudy(
            medium_dataset, "ivf_sq8", {"clusters": 16, "sample_ratio": 0.4, "seed": 2}
        )
        build = study.compare_build()
        assert build.gap > 1.0
        search = study.compare_search(k=10, nprobe=16, n_queries=6, recall=True)
        assert search.generalized_recall == pytest.approx(
            search.specialized_recall, abs=0.15
        )
        assert search.generalized_recall > 0.85
