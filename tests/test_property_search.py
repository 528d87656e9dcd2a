"""Property-based tests on search semantics and cross-engine invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.datasets import generate_clustered
from repro.common.kmeans import assign_nearest_batch, faiss_kmeans
from repro.common.metrics import mean_recall_at_k, recall_at_k
from repro.pgsim.am import topk_batch
from repro.specialized import FlatIndex, IVFFlatIndex


@st.composite
def small_corpus(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n = draw(st.integers(min_value=40, max_value=120))
    dim = draw(st.sampled_from([4, 8, 12]))
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n, dim)).astype(np.float32)
    query = rng.normal(size=dim).astype(np.float32)
    return base, query


@given(small_corpus(), st.integers(min_value=1, max_value=15))
@settings(max_examples=25, deadline=None)
def test_flat_search_is_exact(corpus, k):
    base, query = corpus
    index = FlatIndex(base.shape[1])
    index.add(base)
    got = index.search(query, k).ids
    truth = np.argsort(((base - query) ** 2).sum(axis=1), kind="stable")[:k]
    # Distances must match; ids may differ on exact ties.
    got_d = sorted(index.search(query, k).distances)
    truth_d = sorted((((base - query) ** 2).sum(axis=1))[truth].tolist())
    np.testing.assert_allclose(got_d, truth_d, rtol=1e-3, atol=1e-3)
    assert len(got) == min(k, base.shape[0])


@given(small_corpus())
@settings(max_examples=15, deadline=None)
def test_ivf_full_probe_equals_flat(corpus):
    """Probing every bucket makes IVF exact — for any corpus."""
    base, query = corpus
    n_clusters = min(5, base.shape[0])
    ivf = IVFFlatIndex(base.shape[1], n_clusters=n_clusters, sample_ratio=1.0, seed=0)
    ivf.train(base)
    ivf.add(base)
    flat = FlatIndex(base.shape[1])
    flat.add(base)
    got = ivf.search(query, 5, nprobe=n_clusters)
    want = flat.search(query, 5)
    np.testing.assert_allclose(got.distances, want.distances, rtol=1e-3, atol=1e-3)


@given(small_corpus())
@settings(max_examples=15, deadline=None)
def test_ivf_recall_monotone_in_nprobe(corpus):
    base, query = corpus
    n_clusters = min(6, base.shape[0])
    ivf = IVFFlatIndex(base.shape[1], n_clusters=n_clusters, sample_ratio=1.0, seed=0)
    ivf.train(base)
    ivf.add(base)
    truth = np.argsort(((base - query) ** 2).sum(axis=1), kind="stable")[:5].tolist()
    prev = -1.0
    for nprobe in range(1, n_clusters + 1):
        ids = ivf.search(query, 5, nprobe=nprobe).ids
        rec = recall_at_k(ids, truth, 5)
        assert rec >= prev - 1e-9
        prev = rec


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=20, deadline=None)
def test_kmeans_partition_is_total(seed):
    """Every vector lands in exactly one bucket for any seed."""
    data = generate_clustered(120, 6, n_components=4, seed=seed)
    result = faiss_kmeans(data, 6, seed=seed)
    assignments, dists = assign_nearest_batch(data, result.centroids)
    assert assignments.shape == (120,)
    assert (assignments >= 0).all() and (assignments < 6).all()
    assert (dists >= 0).all()


@given(st.integers(min_value=0, max_value=5000))
@settings(max_examples=10, deadline=None)
def test_recall_is_one_when_results_equal_truth(seed):
    rng = np.random.default_rng(seed)
    ids = rng.permutation(50)[:10]
    assert recall_at_k(ids.tolist(), ids.tolist(), 10) == 1.0


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=10, unique=True),
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=10, unique=True),
)
def test_recall_bounds(result_ids, truth_ids):
    k = min(len(result_ids), len(truth_ids))
    value = recall_at_k(result_ids, truth_ids, k)
    assert 0.0 <= value <= 1.0


@st.composite
def tied_candidates(draw):
    """Packed-TID keys and distances drawn from a handful of values, so
    many candidates tie exactly at the k-th distance (signed zeros and
    NaN included); ``k`` is one of 0, 1, n-1, n and n+3."""
    n = draw(st.integers(min_value=0, max_value=60))
    values = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.5, float("nan")])
    distances = np.asarray(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
    keys = draw(st.lists(st.integers(min_value=0, max_value=40 << 16), min_size=n, max_size=n))
    k = draw(st.sampled_from([0, 1, max(n - 1, 0), n, n + 3]))
    return np.asarray(keys, dtype=np.int64), distances, k


@given(tied_candidates())
@settings(max_examples=200, deadline=None)
def test_topk_batch_equals_a_full_lexsort(candidates):
    """``topk_batch`` partitions at the k-th distance before sorting;
    the result must be the full ``(distance, key)`` lexsort's prefix."""
    keys, distances, k = candidates
    order = np.lexsort((keys, distances))[:k]
    batch = topk_batch(keys, distances, k)
    np.testing.assert_array_equal(batch.blknos, keys[order] >> 16)
    np.testing.assert_array_equal(batch.offsets, keys[order] & 0xFFFF)
    # Bit patterns: the same candidates, signed zeros and NaNs included.
    np.testing.assert_array_equal(batch.distances.view(np.int64), distances[order].view(np.int64))
