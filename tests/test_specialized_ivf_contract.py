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
from repro.specialized import IVFFlatIndex, IVFPQIndex, IVFSQ8Index
from repro.specialized import parallel as spec_parallel

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
        result, curve = spec_parallel.parallel_search(index, q, K, NPROBE, [1, 2])
        assert result.neighbors == index.search(q, K, nprobe=NPROBE).neighbors
        assert set(curve) == {1, 2}
