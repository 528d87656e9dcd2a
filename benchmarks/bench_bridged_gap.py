"""Beyond the paper's measurements: the Sec. IX-C recipe, built & measured.

The paper's conclusion is that a generalized vector database following
Steps #1-#5 can match a specialized one.  ``repro.bridged`` implements
that recipe behind the same SQL surface; this bench measures bridged
search against faithful PASE's on one IVF_FLAT index and asserts that
most of the time is gone.
"""

import time

import pytest

from repro.bench import SMOKE
from repro.common.metrics import paired, pairs_detail
from repro.core.study import GeneralizedVectorDB

IVF_PARAMS = dict(SMOKE.params["ivf_flat"])
K, NPROBE, N_QUERIES = SMOKE.search.k, SMOKE.search.nprobe, SMOKE.search.n_queries
#: Bridged/PASE timing pairs behind the gap gate.
PAIRS = 7


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
    return {am: _generalized(sift, f"{am}_ivfflat") for am in ("pase", "bridged")}


def _seconds(engine, queries) -> float:
    start = time.perf_counter()
    for q in queries:
        engine.search(q, K, nprobe=NPROBE)
    return time.perf_counter() - start


def test_bridged_shape_gap_mostly_closed(engines, sift):
    """The headline: bridged search takes under half of PASE's time on
    the same index parameters, so most of the gap to Faiss is gone."""
    queries = sift.queries[:N_QUERIES]
    pairs = paired(
        lambda: _seconds(engines["bridged"], queries), lambda: _seconds(engines["pase"], queries),
        PAIRS,
    )
    message = f"bridged/PASE: median {pairs.median():.2f}x ({pairs_detail(pairs.ratios())})"
    print(message)
    assert pairs.median() < 0.5, message


def test_bridged_shape_same_results_as_faiss_clusters_allow(engines, sift):
    """Full probing makes all three engines exact and identical."""
    gen = engines["bridged"]
    gen.db.execute("SET pase.nprobe = 1000")
    truth = sift.ground_truth(K)
    for qi in range(3):
        ids = gen.search(sift.queries[qi], K).ids
        assert ids == truth[qi].tolist()
    gen.db.execute(f"SET pase.nprobe = {NPROBE}")
