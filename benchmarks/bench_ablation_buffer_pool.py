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
from repro.common.metrics import paired, pairs_detail
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


@pytest.fixture(scope="module")
def engines(sift):
    return {pool: _engine(sift, pool) for pool in (16, 4096)}


def test_shape_tiny_pool_thrashes(engines, sift):
    queries = sift.queries[:N_QUERIES]
    for gen in engines.values():  # one warm pass each
        _seconds(gen, queries)
    pairs = paired(
        lambda: _seconds(engines[16], queries), lambda: _seconds(engines[4096], queries), PAIRS
    )
    message = (
        f"16-page pool should be slower: median of {PAIRS} pairs {pairs.median():.2f}x "
        f"({pairs_detail(pairs.ratios())})"
    )
    print(message)
    # Evictions + re-reads cost real time: slow > fast in the median pair.
    assert pairs.median() > 1.0, message
    # And the statistics show why:
    assert engines[16].db.buffer_stats.evictions > 0
    assert engines[4096].db.buffer_stats.hit_ratio > engines[16].db.buffer_stats.hit_ratio


def test_shape_results_identical_regardless_of_pool(engines, sift):
    q = sift.queries[0]
    assert engines[16].search(q, K).ids == engines[4096].search(q, K).ids
