"""Tests for the specialized (Faiss-like) engine's indexes."""

import numpy as np
import pytest

from repro.common.metrics import mean_recall_at_k
from repro.common.profiling import Profiler
from repro.common.types import DistanceType
from repro.specialized import FlatIndex, HNSWIndex, IVFFlatIndex, IVFPQIndex


class TestFlatIndex:
    def test_exact_results(self, small_dataset):
        index = FlatIndex(small_dataset.dim)
        index.add(small_dataset.base)
        gt = small_dataset.ground_truth(5)
        for qi, q in enumerate(small_dataset.queries):
            assert index.search(q, 5).ids == gt[qi].tolist()

    def test_incremental_add(self, small_dataset):
        index = FlatIndex(small_dataset.dim)
        index.add(small_dataset.base[:100])
        index.add(small_dataset.base[100:])
        assert index.ntotal == small_dataset.n
        gt = small_dataset.ground_truth(3)
        assert index.search(small_dataset.queries[0], 3).ids == gt[0].tolist()

    def test_reconstruct(self, small_dataset):
        index = FlatIndex(small_dataset.dim)
        index.add(small_dataset.base)
        np.testing.assert_array_equal(index.reconstruct(17), small_dataset.base[17])
        with pytest.raises(IndexError):
            index.reconstruct(small_dataset.n)

    def test_empty_search_rejected(self):
        index = FlatIndex(4)
        with pytest.raises(RuntimeError):
            index.search(np.zeros(4, dtype=np.float32), 1)

    def test_dim_mismatch_rejected(self, small_dataset):
        index = FlatIndex(small_dataset.dim)
        with pytest.raises(ValueError):
            index.add(np.zeros((3, small_dataset.dim + 1), dtype=np.float32))

    def test_distance_computations_counted(self, small_dataset):
        index = FlatIndex(small_dataset.dim)
        index.add(small_dataset.base)
        result = index.search(small_dataset.queries[0], 3)
        assert result.distance_computations == small_dataset.n

    def test_inner_product_metric(self, small_dataset):
        index = FlatIndex(small_dataset.dim, distance_type=DistanceType.INNER_PRODUCT)
        index.add(small_dataset.base)
        result = index.search(small_dataset.queries[0], 3)
        ips = small_dataset.base @ small_dataset.queries[0]
        assert result.ids[0] == int(np.argmax(ips))


class TestIVFFlatIndex:
    @pytest.fixture(scope="class")
    def index(self, small_dataset):
        ix = IVFFlatIndex(small_dataset.dim, n_clusters=16, sample_ratio=0.5, seed=3)
        ix.train(small_dataset.base)
        ix.add(small_dataset.base)
        return ix

    def test_good_recall(self, index, small_dataset):
        gt = small_dataset.ground_truth(10)
        res = [index.search(q, 10, nprobe=8).ids for q in small_dataset.queries]
        assert mean_recall_at_k(res, gt, 10) > 0.85

    def test_full_probe_is_exact(self, index, small_dataset):
        gt = small_dataset.ground_truth(10)
        res = [index.search(q, 10, nprobe=16).ids for q in small_dataset.queries]
        assert mean_recall_at_k(res, gt, 10) == 1.0

    def test_recall_monotone_in_nprobe(self, index, small_dataset):
        gt = small_dataset.ground_truth(10)
        recalls = []
        for nprobe in (1, 4, 16):
            res = [index.search(q, 10, nprobe=nprobe).ids for q in small_dataset.queries]
            recalls.append(mean_recall_at_k(res, gt, 10))
        assert recalls[0] <= recalls[1] + 1e-9 <= recalls[2] + 2e-9

    def test_every_vector_in_exactly_one_bucket(self, index, small_dataset):
        sizes = index.bucket_sizes()
        assert sizes.sum() == small_dataset.n
        all_ids = np.concatenate([index.bucket_members(b) for b in range(16)])
        assert sorted(all_ids.tolist()) == list(range(small_dataset.n))

    def test_untrained_add_rejected(self, small_dataset):
        ix = IVFFlatIndex(small_dataset.dim, n_clusters=4)
        with pytest.raises(RuntimeError):
            ix.add(small_dataset.base)

    def test_set_centroids_transplant(self, index, small_dataset):
        other = IVFFlatIndex(small_dataset.dim, n_clusters=16)
        other.set_centroids(index.centroids)
        other.add(small_dataset.base)
        np.testing.assert_array_equal(other.bucket_sizes(), index.bucket_sizes())

    def test_set_centroids_after_add_rejected(self, index):
        with pytest.raises(RuntimeError):
            index.set_centroids(index.centroids)

    def test_no_sgemm_same_results(self, small_dataset):
        a = IVFFlatIndex(small_dataset.dim, n_clusters=8, sample_ratio=0.5, seed=3, use_sgemm=True)
        b = IVFFlatIndex(small_dataset.dim, n_clusters=8, sample_ratio=0.5, seed=3, use_sgemm=False)
        for ix in (a, b):
            ix.train(small_dataset.base)
            ix.add(small_dataset.base)
        q = small_dataset.queries[0]
        assert a.search(q, 5, nprobe=4).ids == b.search(q, 5, nprobe=4).ids

    def test_build_stats_recorded(self, index, small_dataset):
        assert index.build_stats.train_seconds > 0
        assert index.build_stats.add_seconds > 0
        assert index.build_stats.vectors_added == small_dataset.n

    def test_size_info(self, index, small_dataset):
        info = index.size_info()
        assert info.detail["vectors"] == small_dataset.n * small_dataset.dim * 4
        assert info.allocated_bytes == info.used_bytes

    def test_invalid_nprobe(self, index, small_dataset):
        with pytest.raises(ValueError):
            index.search(small_dataset.queries[0], 5, nprobe=0)


class TestIVFPQIndex:
    @pytest.fixture(scope="class")
    def index(self, small_dataset):
        ix = IVFPQIndex(
            small_dataset.dim, n_clusters=12, m=4, c_pq=32, sample_ratio=0.9, seed=3
        )
        ix.train(small_dataset.base)
        ix.add(small_dataset.base)
        return ix

    def test_reasonable_recall(self, index, small_dataset):
        gt = small_dataset.ground_truth(10)
        res = [index.search(q, 10, nprobe=12).ids for q in small_dataset.queries]
        # PQ is lossy; just demand far-better-than-random.
        assert mean_recall_at_k(res, gt, 10) > 0.3

    def test_pctable_toggle_same_results(self, small_dataset):
        results = {}
        for flag in (True, False):
            ix = IVFPQIndex(
                small_dataset.dim,
                n_clusters=8,
                m=4,
                c_pq=16,
                sample_ratio=0.9,
                seed=3,
                optimized_pctable=flag,
            )
            ix.train(small_dataset.base)
            ix.add(small_dataset.base)
            results[flag] = ix.search(small_dataset.queries[0], 5, nprobe=8).ids
        assert results[True] == results[False]

    def test_indivisible_dim_rejected(self):
        with pytest.raises(ValueError):
            IVFPQIndex(10, n_clusters=4, m=3)

    def test_size_smaller_than_flat(self, index, small_dataset):
        flat = IVFFlatIndex(small_dataset.dim, n_clusters=12, sample_ratio=0.9, seed=3)
        flat.train(small_dataset.base)
        flat.add(small_dataset.base)
        assert index.size_info().detail["codes"] < flat.size_info().detail["vectors"]


class TestHNSWIndex:
    @pytest.fixture(scope="class")
    def index(self, small_dataset):
        ix = HNSWIndex(small_dataset.dim, bnn=8, efb=30, efs=60, seed=5)
        ix.add(small_dataset.base)
        return ix

    def test_good_recall(self, index, small_dataset):
        gt = small_dataset.ground_truth(10)
        res = [index.search(q, 10, efs=80).ids for q in small_dataset.queries]
        assert mean_recall_at_k(res, gt, 10) > 0.8

    def test_no_training_required(self, small_dataset):
        assert not HNSWIndex(small_dataset.dim).requires_training

    def test_profiled_search(self, small_dataset):
        prof = Profiler()
        ix = HNSWIndex(small_dataset.dim, bnn=8, efb=20, seed=5, profiler=prof)
        ix.add(small_dataset.base[:200])
        ix.search(small_dataset.queries[0], 5)
        assert prof.inclusive_seconds("SearchNbToAdd") > 0
        assert prof.inclusive_seconds("fvec_L2sqr") > 0

    def test_size_info_neighbor_bytes(self, index):
        info = index.size_info()
        assert info.detail["neighbors"] == index.store.edge_count() * 4

    def test_distance_computations_counted(self, index, small_dataset):
        before = index.store.counters.distance_computations
        result = index.search(small_dataset.queries[0], 5)
        assert result.distance_computations > 0
        assert index.store.counters.distance_computations > before
