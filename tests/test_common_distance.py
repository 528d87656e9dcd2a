"""Tests for repro.common.distance: kernel correctness and agreement."""

import numpy as np
import pytest

from repro.common import distance
from repro.common.types import DistanceType


@pytest.fixture(scope="module")
def mats(rng):
    q = rng.normal(size=(7, 12)).astype(np.float32)
    t = rng.normal(size=(23, 12)).astype(np.float32)
    return q, t


class TestPairwiseKernels:
    def test_l2_sqr_known_value(self):
        a = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        b = np.array([4.0, 0.0, 3.0], dtype=np.float32)
        assert distance.l2_sqr(a, b) == pytest.approx(9 + 4 + 0)

    def test_l2_sqr_zero_for_identical(self):
        a = np.arange(8, dtype=np.float32)
        assert distance.l2_sqr(a, a) == 0.0

    def test_inner_product_known_value(self):
        a = np.array([1.0, 2.0], dtype=np.float32)
        b = np.array([3.0, -1.0], dtype=np.float32)
        assert distance.inner_product(a, b) == pytest.approx(1.0)

    def test_cosine_distance_orthogonal(self):
        a = np.array([1.0, 0.0], dtype=np.float32)
        b = np.array([0.0, 5.0], dtype=np.float32)
        assert distance.cosine_distance(a, b) == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [1, 3, 128, 960])
    def test_per_pair_kernels_equal_np_dot_exactly(self, dim):
        """``ndarray.dot`` is ``np.dot`` minus its dispatcher: the same
        value to the bit, for contiguous vectors and for ``frombuffer``
        views at a page offset (how the scans hand payloads over)."""
        rng = np.random.default_rng(dim)
        for __ in range(20):
            a = rng.normal(size=dim).astype(np.float32)
            b = rng.normal(size=dim).astype(np.float32)
            page = bytearray(8192 + 8 * dim)
            page[56 : 56 + 4 * dim] = a.tobytes()
            page[4100 : 4100 + 4 * dim] = b.tobytes()
            a_view = np.frombuffer(page, np.float32, dim, 56)
            b_view = np.frombuffer(page, np.float32, dim, 4100)
            for x, y in ((a, b), (a, b_view), (a_view, b_view)):
                assert distance.l2_sqr(x, y) == float(np.dot(x - y, x - y))
                assert distance.inner_product(x, y) == float(np.dot(x, y))
                denom = float(np.linalg.norm(x)) * float(np.linalg.norm(y))
                assert distance.cosine_distance(x, y) == 1.0 - float(np.dot(x, y)) / denom

    def test_cosine_distance_parallel(self):
        a = np.array([2.0, 2.0], dtype=np.float32)
        assert distance.cosine_distance(a, 3 * a) == pytest.approx(0.0, abs=1e-6)

    def test_cosine_distance_zero_vector(self):
        a = np.zeros(4, dtype=np.float32)
        b = np.ones(4, dtype=np.float32)
        assert distance.cosine_distance(a, b) == 1.0


class TestBatchKernels:
    def test_l2_batch_matches_pairwise(self, mats):
        q, t = mats
        batch = distance.l2_sqr_batch(q, t)
        assert batch.shape == (7, 23)
        for i in range(q.shape[0]):
            for j in range(t.shape[0]):
                assert batch[i, j] == pytest.approx(distance.l2_sqr(q[i], t[j]), rel=1e-4, abs=1e-3)

    def test_l2_batch_matches_loop_reference(self, mats):
        q, t = mats
        np.testing.assert_allclose(
            distance.l2_sqr_batch(q, t),
            distance.l2_sqr_pairwise_loop(q, t),
            rtol=1e-4,
            atol=1e-3,
        )

    def test_l2_batch_nonnegative_despite_cancellation(self, rng):
        # Near-identical vectors provoke catastrophic cancellation in
        # the SGEMM decomposition; the kernel must clip at zero.
        base = rng.normal(size=(1, 32)).astype(np.float32) * 1e3
        near = base + rng.normal(size=(5, 32)).astype(np.float32) * 1e-4
        dists = distance.l2_sqr_batch(base, near)
        assert (dists >= 0.0).all()

    def test_l2_batch_precomputed_norms(self, mats):
        q, t = mats
        norms = distance.squared_norms(t)
        np.testing.assert_allclose(
            distance.l2_sqr_batch(q, t, norms),
            distance.l2_sqr_batch(q, t),
            rtol=1e-6,
        )

    def test_inner_product_batch_negated(self, mats):
        q, t = mats
        batch = distance.inner_product_batch(q, t)
        assert batch[0, 0] == pytest.approx(-distance.inner_product(q[0], t[0]), rel=1e-5)

    def test_cosine_batch_matches_pairwise(self, mats):
        q, t = mats
        batch = distance.cosine_distance_batch(q, t)
        for i in (0, 3):
            for j in (0, 11, 22):
                assert batch[i, j] == pytest.approx(
                    distance.cosine_distance(q[i], t[j]), rel=1e-4, abs=1e-5
                )

    def test_squared_norms(self, mats):
        __, t = mats
        np.testing.assert_allclose(
            distance.squared_norms(t), (t.astype(np.float64) ** 2).sum(axis=1), rtol=1e-4
        )


class TestKernelRegistry:
    @pytest.mark.parametrize("dt", list(DistanceType))
    def test_pairwise_kernel_exists(self, dt):
        kernel = distance.pairwise_kernel(dt)
        a = np.ones(4, dtype=np.float32)
        assert isinstance(kernel(a, a), float)

    @pytest.mark.parametrize("dt", list(DistanceType))
    def test_batch_kernel_exists(self, dt):
        kernel = distance.batch_kernel(dt)
        a = np.ones((2, 4), dtype=np.float32)
        assert kernel(a, a).shape == (2, 2)

    def test_unknown_distance_type_rejected(self):
        with pytest.raises(ValueError):
            distance.pairwise_kernel(99)  # type: ignore[arg-type]

    def test_smaller_is_more_similar_for_all_metrics(self, rng):
        # The engines rank ascending for every metric; check that a
        # vector is at least as close to itself as to a random other.
        a = rng.normal(size=16).astype(np.float32)
        b = rng.normal(size=16).astype(np.float32) * 3
        for dt in DistanceType:
            kernel = distance.pairwise_kernel(dt)
            assert kernel(a, a) <= kernel(a, b)
