"""Beyond the paper's measurements: the Sec. IX-C recipe, built & measured.

The paper's conclusion is that a generalized vector database following
Steps #1-#5 can match a specialized one.  ``repro.bridged`` implements
that recipe behind the same SQL surface; this bench measures the
remaining gap and asserts it is a small fraction of faithful PASE's.
"""

import time

import pytest

from repro.bench import SMOKE
from repro.core.study import GeneralizedVectorDB, SpecializedVectorDB

IVF_PARAMS = dict(SMOKE.params["ivf_flat"])
K, NPROBE, N_QUERIES = SMOKE.search.k, SMOKE.search.nprobe, SMOKE.search.n_queries


def _generalized(sift, am_name):
    gen = GeneralizedVectorDB()
    gen.load(sift.base)
    opts = ", ".join(f"{k} = {v}" for k, v in IVF_PARAMS.items())
    gen.db.execute(
        f"CREATE INDEX {gen.index_name} ON {gen.table_name} USING {am_name} (vec) WITH ({opts})"
    )
    gen.am = gen.db.catalog.find_index(gen.index_name).am
    gen.db.execute(f"SET pase.nprobe = {NPROBE}")
    return gen


@pytest.fixture(scope="module")
def engines(sift):
    spec = SpecializedVectorDB()
    spec.load(sift.base)
    spec.create_index("ivf_flat", **IVF_PARAMS)
    return {
        "pase": _generalized(sift, "pase_ivfflat"),
        "bridged": _generalized(sift, "bridged_ivfflat"),
        "faiss": spec,
    }


def _mean_latency(engine, queries):
    start = time.perf_counter()
    for q in queries:
        engine.search(q, K, nprobe=NPROBE)
    return (time.perf_counter() - start) / len(queries)


def test_bridged_search(benchmark, engines, sift):
    gen = engines["bridged"]

    def run():
        for q in sift.queries[:N_QUERIES]:
            gen.search(q, K, nprobe=NPROBE)

    benchmark(run)


def test_bridged_build(benchmark, sift):
    benchmark.pedantic(lambda: _generalized(sift, "bridged_ivfflat"), rounds=1, iterations=1)


def test_bridged_shape_gap_mostly_closed(engines, sift):
    """The headline: bridged lands far closer to Faiss than PASE does."""
    queries = sift.queries[:N_QUERIES]
    pase = _mean_latency(engines["pase"], queries)
    bridged = _mean_latency(engines["bridged"], queries)
    faiss = _mean_latency(engines["faiss"], queries)
    assert bridged < pase / 2  # most of the gap gone
    assert bridged / faiss < (pase / faiss) / 2


def test_bridged_shape_same_results_as_faiss_clusters_allow(engines, sift):
    """Full probing makes all three engines exact and identical."""
    gen = engines["bridged"]
    gen.db.execute("SET pase.nprobe = 1000")
    truth = sift.ground_truth(K)
    for qi in range(3):
        ids = gen.search(sift.queries[qi], K).ids
        assert ids == truth[qi].tolist()
    gen.db.execute(f"SET pase.nprobe = {NPROBE}")
