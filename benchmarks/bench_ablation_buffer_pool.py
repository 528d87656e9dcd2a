"""Design-choice ablation: buffer-pool-size sensitivity (RC#2 texture).

The paper runs with everything memory-resident; pgsim makes the buffer
pool's capacity a knob.  This bench shows PASE search cost as the pool
shrinks below the working set — page indirection turns into real
eviction traffic — while a pool that fits the index behaves like the
paper's warmed configuration.
"""

import time

import pytest

from repro.bench import SMOKE
from repro.core.study import GeneralizedVectorDB

IVF_PARAMS = dict(SMOKE.params["ivf_flat"])
K, NPROBE, N_QUERIES = SMOKE.search.k, SMOKE.search.nprobe, SMOKE.search.n_queries


def _engine(sift, pool_pages):
    gen = GeneralizedVectorDB(buffer_pool_pages=pool_pages)
    gen.load(sift.base)
    gen.create_index("ivf_flat", **IVF_PARAMS)
    gen.db.execute(f"SET pase.nprobe = {NPROBE}")
    return gen


def _mean_latency(gen, queries):
    for q in queries:  # warm
        gen.search(q, K)
    start = time.perf_counter()
    for q in queries:
        gen.search(q, K)
    return (time.perf_counter() - start) / len(queries)


@pytest.fixture(scope="module")
def engines(sift):
    return {pool: _engine(sift, pool) for pool in (16, 4096)}


def test_buffer_pool_large(benchmark, engines, sift):
    gen = engines[4096]
    benchmark(lambda: [gen.search(q, K) for q in sift.queries[:N_QUERIES]])


def test_buffer_pool_tiny(benchmark, engines, sift):
    gen = engines[16]
    benchmark(lambda: [gen.search(q, K) for q in sift.queries[:N_QUERIES]])


def test_shape_tiny_pool_thrashes(engines, sift):
    queries = sift.queries[:N_QUERIES]
    fast = _mean_latency(engines[4096], queries)
    slow = _mean_latency(engines[16], queries)
    assert slow > fast  # evictions + re-reads cost real time
    # And the statistics show why:
    assert engines[16].db.buffer_stats.evictions > 0
    assert engines[4096].db.buffer_stats.hit_ratio > engines[16].db.buffer_stats.hit_ratio


def test_shape_results_identical_regardless_of_pool(engines, sift):
    q = sift.queries[0]
    assert engines[16].search(q, K).ids == engines[4096].search(q, K).ids
