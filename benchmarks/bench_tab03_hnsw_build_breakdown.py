"""Table III: time breakdown of HNSW building on SIFT.

Paper shape: SearchNbToAdd dominates both systems (~70-76%), with
PASE's absolute time several times Faiss's.
"""

import statistics

import pytest

from conftest import HNSW_PARAMS, alternating_hnsw_builds
from repro.common.graph import SEC_SEARCH_NB_TO_ADD
from repro.common.profiling import Profiler
from repro.core.study import GeneralizedVectorDB


@pytest.fixture(scope="module")
def pairs(sift_hnsw):
    """Engine name -> build profiler, per alternating PASE/Faiss pair."""
    return [
        {name: profiler for name, (__, profiler) in pair.items()}
        for pair in alternating_hnsw_builds(sift_hnsw, profiled=True)
    ]


def test_tab3_profiled_build(benchmark, sift_hnsw):
    def build():
        prof = Profiler()
        gen = GeneralizedVectorDB(profiler=prof)
        gen.load(sift_hnsw.base)
        gen.create_index("hnsw", **HNSW_PARAMS)
        return prof

    benchmark.pedantic(build, rounds=1, iterations=1)


def test_tab3_searchnbtoadd_dominates_both(pairs):
    for pair in pairs:
        for name, prof in pair.items():
            rows = {r.name: r.fraction for r in prof.breakdown()}
            assert max(rows, key=rows.get) == SEC_SEARCH_NB_TO_ADD, f"{name}: {rows}"


def test_tab3_pase_absolute_time_larger(pairs):
    """The median PASE/Faiss SearchNbToAdd time ratio of the pairs."""
    ratios = [
        pair["PASE"].inclusive_seconds(SEC_SEARCH_NB_TO_ADD)
        / pair["Faiss"].inclusive_seconds(SEC_SEARCH_NB_TO_ADD)
        for pair in pairs
    ]
    ratio = statistics.median(ratios)
    assert ratio > 1.5, (
        f"median PASE/Faiss {SEC_SEARCH_NB_TO_ADD} time {ratio:.2f}x, "
        f"pairs {', '.join(f'{r:.2f}' for r in ratios)}"
    )
