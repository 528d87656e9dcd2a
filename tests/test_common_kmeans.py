"""Tests for the two k-means implementations (RC#5)."""

import hashlib

import numpy as np
import pytest

from repro.common.datasets import generate_clustered
from repro.common.kmeans import (
    assign_nearest_batch,
    assign_nearest_loop,
    centroid_sums,
    faiss_kmeans,
    pase_kmeans,
    sample_training_rows,
)
from repro.common.pq import train_codebook


@pytest.fixture(scope="module")
def clustered():
    return generate_clustered(400, 8, n_components=5, seed=31, spread=0.1)


class TestAssignment:
    def test_batch_and_loop_agree(self, clustered):
        centroids = clustered[:10].copy()
        a_batch, d_batch = assign_nearest_batch(clustered, centroids)
        a_loop, d_loop = assign_nearest_loop(clustered, centroids)
        np.testing.assert_array_equal(a_batch, a_loop)
        np.testing.assert_allclose(d_batch, d_loop, rtol=1e-3, atol=1e-3)

    def test_assignment_is_nearest(self, clustered):
        centroids = clustered[::40].copy()
        assignments, dists = assign_nearest_batch(clustered, centroids)
        # Spot-check optimality: no other centroid is closer.
        for i in range(0, clustered.shape[0], 37):
            all_d = ((centroids - clustered[i]) ** 2).sum(axis=1)
            assert all_d[assignments[i]] == pytest.approx(all_d.min(), rel=1e-4, abs=1e-4)
            assert dists[i] == pytest.approx(all_d.min(), rel=1e-3, abs=1e-3)


class TestFaissKMeans:
    def test_shapes_and_inertia(self, clustered):
        result = faiss_kmeans(clustered, 5, seed=1)
        assert result.centroids.shape == (5, 8)
        assert result.assignments.shape == (400,)
        assert result.inertia > 0

    def test_inertia_improves_over_one_iteration(self, clustered):
        quick = faiss_kmeans(clustered, 8, max_iterations=1, seed=1)
        longer = faiss_kmeans(clustered, 8, max_iterations=10, seed=1)
        assert longer.inertia <= quick.inertia * 1.001

    def test_deterministic_for_seed(self, clustered):
        a = faiss_kmeans(clustered, 6, seed=5)
        b = faiss_kmeans(clustered, 6, seed=5)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_no_empty_clusters_on_clustered_data(self, clustered):
        result = faiss_kmeans(clustered, 5, seed=2)
        counts = np.bincount(result.assignments, minlength=5)
        assert (counts > 0).all()

    def test_sgemm_and_loop_paths_equivalent(self, clustered):
        a = faiss_kmeans(clustered, 5, seed=3, use_sgemm=True)
        b = faiss_kmeans(clustered, 5, seed=3, use_sgemm=False)
        np.testing.assert_allclose(a.centroids, b.centroids, rtol=1e-3, atol=1e-4)

    def test_rejects_too_few_rows(self):
        with pytest.raises(ValueError):
            faiss_kmeans(np.ones((3, 4), dtype=np.float32), 5)

    def test_rejects_bad_cluster_count(self, clustered):
        with pytest.raises(ValueError):
            faiss_kmeans(clustered, 0)


class TestPaseKMeans:
    def test_valid_clustering(self, clustered):
        result = pase_kmeans(clustered, 5)
        assert result.centroids.shape == (5, 8)
        # Quality should be in the same ballpark as the faiss variant.
        reference = faiss_kmeans(clustered, 5, seed=1)
        assert result.inertia < reference.inertia * 2.0

    def test_deterministic(self, clustered):
        a = pase_kmeans(clustered, 7)
        b = pase_kmeans(clustered, 7)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    def test_differs_from_faiss_variant(self, clustered):
        """RC#5: the two implementations produce different centroids."""
        pase = pase_kmeans(clustered, 6)
        faiss = faiss_kmeans(clustered, 6, seed=1)
        assert not np.allclose(pase.centroids, faiss.centroids)

    def test_early_stop_on_tolerance(self, clustered):
        loose = pase_kmeans(clustered, 5, max_iterations=50, tolerance=0.5)
        assert loose.iterations < 50

    def test_tiny_input_padding(self):
        data = np.eye(4, dtype=np.float32)
        result = pase_kmeans(data, 4, max_iterations=2)
        assert result.centroids.shape == (4, 4)


class TestSampling:
    def test_respects_ratio(self, clustered):
        sample = sample_training_rows(clustered, 0.25, 5, seed=1)
        assert sample.shape[0] == 100

    def test_guarantees_cluster_minimum(self, clustered):
        sample = sample_training_rows(clustered, 0.001, 50, seed=1)
        assert sample.shape[0] >= 50

    def test_full_ratio_returns_everything(self, clustered):
        sample = sample_training_rows(clustered, 1.0, 5, seed=1)
        assert sample.shape[0] == clustered.shape[0]

    def test_invalid_ratio_rejected(self, clustered):
        with pytest.raises(ValueError):
            sample_training_rows(clustered, 0.0, 5)
        with pytest.raises(ValueError):
            sample_training_rows(clustered, 1.5, 5)

    def test_rows_come_from_input(self, clustered):
        sample = sample_training_rows(clustered, 0.1, 5, seed=3)
        pool = {row.tobytes() for row in clustered}
        assert all(row.tobytes() in pool for row in sample)


def _add_at_sums(data, assignments, n_clusters):
    """The centroid update as both flavours once wrote it."""
    sums = np.zeros((n_clusters, data.shape[1]), dtype=np.float64)
    np.add.at(sums, assignments, data)
    return sums


class TestCentroidSums:
    """``centroid_sums`` must give ``np.add.at``'s bytes, so every
    centroid, codebook and index page stays what it was."""

    @pytest.mark.parametrize(
        "n, d, n_clusters, used",
        [
            (400, 8, 5, 5),  # every cluster has rows
            (300, 16, 12, 7),  # ids 7..11 never assigned: empty clusters
            (50, 4, 1, 1),  # one cluster
            (1, 3, 4, 1),  # one row
        ],
    )
    def test_equals_add_at(self, n, d, n_clusters, used):
        rng = np.random.default_rng(n * d + n_clusters)
        # Magnitudes 1e-30..1e30, so float64 sums round and the bytes
        # depend on the order in which each cluster's rows are added.
        data = (rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-30, 30, (n, d))).astype(
            np.float32
        )
        assignments = rng.integers(0, used, size=n)
        got = centroid_sums(data, assignments, n_clusters)
        want = _add_at_sums(data, assignments, n_clusters)
        assert got.dtype == np.float64 and got.shape == (n_clusters, d)
        assert got.tobytes() == want.tobytes()

    def test_unused_ids_sum_to_zero(self):
        data = np.arange(12, dtype=np.float32).reshape(6, 2)
        assignments = np.array([0, 0, 3, 3, 3, 0])
        sums = centroid_sums(data, assignments, 5)
        assert not sums[[1, 2, 4]].any()
        np.testing.assert_array_equal(sums[0], data[[0, 1, 5]].sum(axis=0))

    def test_strided_input(self):
        """PQ trains on column slices of a sub-vector tensor."""
        rng = np.random.default_rng(3)
        data = rng.standard_normal((200, 6)).astype(np.float32)[:, 1:4]
        assignments = rng.integers(0, 9, size=200)
        assert centroid_sums(data, assignments, 9).tobytes() == (
            _add_at_sums(data, assignments, 9).tobytes()
        )


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestGoldenCentroids:
    """SHA-256 of centroids and assignments (codebooks for PQ), recorded
    with the ``np.add.at`` centroid update.  A change to either
    flavour's arithmetic (RC#5) shows here as a new digest.  The
    duplicate-row case reaches both empty-cluster repairs; its exact
    distance ties are broken by the loop assignment only, which computes
    the same bits on every x86 NumPy, while SGEMM's rounding depends on
    the BLAS build.  Inertia is left out for the same reason."""

    @pytest.fixture(scope="class")
    def data(self):
        return generate_clustered(600, 16, n_components=6, seed=11, spread=0.2)

    @pytest.fixture(scope="class")
    def duplicates(self, data):
        return np.repeat(data[:12], 10, axis=0)

    @pytest.mark.parametrize("use_sgemm", [True, False])
    def test_faiss_clustered(self, data, use_sgemm):
        r = faiss_kmeans(data, 24, seed=5, use_sgemm=use_sgemm)
        assert r.iterations == 10
        assert _digest(r.centroids, r.assignments) == (
            "6dc817452c6dbdc220b4d759515393c00aec99c90cebd42fe7044e382d01fe62"
        )

    def test_faiss_duplicates_split_largest(self, duplicates):
        r = faiss_kmeans(duplicates, 20, seed=5, use_sgemm=False)
        assert _digest(r.centroids, r.assignments) == (
            "34493423c530f675e41701710f348473fe28f6195abb11297ab2680bc1daf349"
        )

    def test_pase_clustered(self, data):
        r = pase_kmeans(data, 24)
        assert r.iterations == 10
        assert _digest(r.centroids, r.assignments) == (
            "a528d381b1e8846150f61e16163dd82f4e138d84149b45c2908143818b966af2"
        )

    def test_pase_duplicates_reseed_farthest(self, duplicates):
        r = pase_kmeans(duplicates, 20)
        assert r.iterations == 2
        assert _digest(r.centroids, r.assignments) == (
            "ac101de0544f8f1db98aa0bddd4011e5ea1a9c441a3013f9f0a1164535df4bfb"
        )

    @pytest.mark.parametrize(
        "style, want",
        [
            ("faiss", "572ece79d74635b085aeb54e660e9c700f154437cf28df4fdd6e60514cc5d2ee"),
            ("pase", "7b3650b14597f8b5312eb9619a433f8e9209f86293690d979b47394e65c8ebac"),
        ],
    )
    def test_pq_codebooks(self, data, style, want):
        codebook = train_codebook(data, m=4, c_pq=32, seed=3, style=style)
        assert _digest(codebook.codebooks) == want
