"""What every specialized IVF index promises, asserted once for all three.

`IVFFlatIndex`, `IVFPQIndex` and `IVFSQ8Index` share one skeleton
(`repro.specialized.ivf_core.IVFIndex`) and differ only in how a list
entry is encoded and scored.  Each test here runs against every
variant (IVF_PQ with both ADC-table constructions), so a behaviour
cannot drift in one variant without a failure naming it.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.common import pq, sq
from repro.common.distance import batch_kernel
from repro.common.parallel import parallel_search
from repro.common.types import DistanceType
from repro.specialized import IVFFlatIndex, IVFPQIndex, IVFSQ8Index

K, NPROBE, CLUSTERS = 10, 3, 8

#: Variant -> (constructor, extra arguments, payloads -> vectors they stand for).
VARIANTS = {
    "ivf_flat": (IVFFlatIndex, {}, lambda ix, payloads: payloads),
    "ivf_pq": (IVFPQIndex, {"m": 4, "c_pq": 16}, lambda ix, codes: pq.decode(ix.codebook, codes)),
    "ivf_pq_naive_pctable": (
        IVFPQIndex,
        {"m": 4, "c_pq": 16, "optimized_pctable": False},
        lambda ix, codes: pq.decode(ix.codebook, codes),
    ),
    "ivf_sq8": (IVFSQ8Index, {}, lambda ix, codes: sq.decode(ix.codec, codes)),
}


@pytest.fixture(scope="module", params=sorted(VARIANTS))
def built(request, small_dataset) -> SimpleNamespace:
    cls, extra, decode = VARIANTS[request.param]
    index = cls(small_dataset.dim, n_clusters=CLUSTERS, sample_ratio=0.5, seed=3, **extra)
    index.train(small_dataset.base)
    # Two adds: the lists must come out the same as from one.
    index.add(small_dataset.base[:250])
    index.add(small_dataset.base[250:])
    return SimpleNamespace(
        index=index, queries=small_dataset.queries, decode=lambda p: decode(index, p)
    )


def _probed(index, query):
    lists = index.lists()
    return [lists[b] for b in index.probe_order(query, NPROBE).tolist()]


def test_topk_is_the_brute_force_over_the_probed_lists(built):
    """Ids, distances and order equal an exact scan of the entries the
    probed lists hold, as the vectors their payloads decode to."""
    index = built.index
    for q in built.queries:
        result = index.search(q, K, nprobe=NPROBE)
        probed = _probed(index, q)
        ids = np.concatenate([ids for ids, __ in probed])
        vectors = built.decode(np.concatenate([payloads for __, payloads in probed]))
        exact = ((vectors.astype(np.float64) - q) ** 2).sum(axis=1)
        by_id = dict(zip(ids.tolist(), exact.tolist()))
        assert [by_id[i] for i in result.ids] == pytest.approx(result.distances, rel=1e-4)
        assert result.distances == pytest.approx(np.sort(exact)[:K].tolist(), rel=1e-4)


def test_every_vector_sits_in_exactly_one_list(built, small_dataset):
    index = built.index
    assert index.bucket_sizes().sum() == index.ntotal == small_dataset.n
    members = np.concatenate([index.bucket_members(b) for b in range(CLUSTERS)])
    assert sorted(members.tolist()) == list(range(small_dataset.n))
    for ids, __ in index.lists():
        assert np.all(np.diff(ids) > 0)


def test_distance_count_is_the_centroids_plus_the_candidates(built):
    index = built.index
    for q in built.queries:
        candidates = sum(ids.shape[0] for ids, __ in _probed(index, q))
        result = index.search(q, K, nprobe=NPROBE)
        assert result.distance_computations == CLUSTERS + candidates


def test_set_centroids_after_add_and_a_nonpositive_nprobe_are_refused(built):
    index = built.index
    with pytest.raises(RuntimeError):
        index.set_centroids(index.centroids)
    for nprobe in (0, -1):
        with pytest.raises(ValueError):
            index.search(built.queries[0], K, nprobe=nprobe)


def test_size_detail_sums_to_the_allocated_bytes(built):
    info = built.index.size_info()
    assert sum(info.detail.values()) == info.allocated_bytes == info.used_bytes
    assert info.detail["ids"] == built.index.ntotal * 8


def test_parallel_search_returns_the_serial_neighbours(built):
    """The parallel driver ranks and scores through the index, so every
    variant — and IVF_PQ's naive table — gives `search`'s answer."""
    index = built.index
    for q in built.queries:
        probes, scores = index.probe_order(q, NPROBE), index.list_scores(q)
        result, curve = parallel_search(probes, scores, K, [1, 2])
        assert result.neighbors == index.search(q, K, nprobe=NPROBE).neighbors
        assert set(curve) == {1, 2}


@pytest.mark.parametrize("metric", list(DistanceType))
def test_probe_order_breaks_distance_ties_toward_the_smaller_list(metric):
    """The repo's one tie rule (DESIGN §3.1): the probed lists are a stable sort's
    prefix, so among equal centroid distances the smaller list id is
    both picked at the cut and ranked first.  Small integer centroids,
    each repeated, and integer queries make many distances tie."""
    rng = np.random.default_rng(7)
    kernel = batch_kernel(metric)
    for __ in range(40):
        index = IVFFlatIndex(3, 12, distance_type=metric)
        distinct = rng.integers(-1, 2, size=(4, 3)).astype(np.float32)
        index.set_centroids(distinct[rng.integers(0, 4, 12)])
        q = rng.integers(-1, 2, size=3).astype(np.float32)
        stable = np.argsort(kernel(q, index.centroids)[0], kind="stable")
        for nprobe in range(1, 13):
            assert index.probe_order(q, nprobe).tolist() == stable[:nprobe].tolist()


def test_add_core_keeps_caller_ids_and_lists_in_add_order():
    """Rows added under caller ids to caller-chosen lists stay there,
    nothing re-assigned; once the lists exist a one-row add appends to
    its list only, the other lists' arrays untouched."""
    rng = np.random.default_rng(2)
    index = IVFFlatIndex(4, 3)
    index.set_centroids(rng.normal(size=(3, 4)))
    vectors = rng.normal(size=(9, 4)).astype(np.float32)
    ids = np.asarray([90, 10, 50, 70, 30, 80, 20, 60, 40])
    list_ids = np.asarray([2, 0, 2, 1, 0, 0, 2, 1, 1])
    index.add_core(ids[:5], list_ids[:5], vectors[:5])
    index.add_core(ids[5:], list_ids[5:], vectors[5:])
    lists = index.lists()
    for bucket in range(3):
        rows = np.flatnonzero(list_ids == bucket)
        assert lists[bucket][0].tolist() == ids[rows].tolist()
        np.testing.assert_array_equal(lists[bucket][1], vectors[rows])
    untouched = (lists[0], lists[2])
    index.add_core(np.asarray([5]), np.asarray([1]), rng.normal(size=(1, 4)))
    assert index.lists()[1][0].tolist() == [70, 60, 40, 5]
    assert index.lists()[0] is untouched[0] and index.lists()[2] is untouched[1]
    assert index.ntotal == 10 and index.bucket_sizes().tolist() == [3, 4, 3]
