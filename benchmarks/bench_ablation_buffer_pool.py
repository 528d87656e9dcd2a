"""Design-choice ablation: buffer-pool-size sensitivity (RC#2 texture).

The paper runs with everything memory-resident; pgsim makes the buffer
pool's capacity a knob.  This bench shows PASE search cost as the pool
shrinks below the working set — page indirection turns into real
eviction traffic — while a pool that fits the index behaves like the
paper's warmed configuration.
"""

import statistics
import time

import pytest

from repro.bench import SMOKE
from repro.core.study import GeneralizedVectorDB

IVF_PARAMS = dict(SMOKE.params["ivf_flat"])
K, NPROBE, N_QUERIES = SMOKE.search.k, SMOKE.search.nprobe, SMOKE.search.n_queries
#: Alternating tiny/large timing pairs behind the thrash gate.
PAIRS = 7


def _engine(sift, pool_pages):
    gen = GeneralizedVectorDB(buffer_pool_pages=pool_pages)
    gen.load(sift.base)
    gen.create_index("ivf_flat", **IVF_PARAMS)
    gen.db.execute(f"SET pase.nprobe = {NPROBE}")
    return gen


def _seconds(gen, queries) -> float:
    start = time.perf_counter()
    for q in queries:
        gen.search(q, K)
    return time.perf_counter() - start


def _paired_slowdown(slow_gen, fast_gen, queries) -> tuple[float, list[float]]:
    """``PAIRS`` tiny/large-pool timings of the same queries after one
    warm pass each, alternating which pool goes first; returns the
    median per-pair slow/fast ratio and every pair's ratio."""
    for gen in (slow_gen, fast_gen):
        _seconds(gen, queries)
    ratios = []
    for pair in range(PAIRS):
        if pair % 2 == 0:
            slow, fast = _seconds(slow_gen, queries), _seconds(fast_gen, queries)
        else:
            fast, slow = _seconds(fast_gen, queries), _seconds(slow_gen, queries)
        ratios.append(slow / fast)
    return statistics.median(ratios), ratios


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
    slowdown, ratios = _paired_slowdown(engines[16], engines[4096], queries)
    # Evictions + re-reads cost real time: slow > fast in the median pair.
    assert slowdown > 1.0, (
        f"16-page pool should be slower: median of {PAIRS} pairs {slowdown:.2f}x "
        f"(pairs {', '.join(f'{r:.2f}' for r in ratios)})"
    )
    # And the statistics show why:
    assert engines[16].db.buffer_stats.evictions > 0
    assert engines[4096].db.buffer_stats.hit_ratio > engines[16].db.buffer_stats.hit_ratio


def test_shape_results_identical_regardless_of_pool(engines, sift):
    q = sift.queries[0]
    assert engines[16].search(q, K).ids == engines[4096].search(q, K).ids
