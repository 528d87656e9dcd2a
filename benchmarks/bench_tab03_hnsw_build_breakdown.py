"""Table III: time breakdown of HNSW building on SIFT.

Paper shape: SearchNbToAdd dominates both systems (~70-76%), with
PASE's absolute time several times Faiss's.
"""

import pytest

from conftest import HNSW_PARAMS
from repro.common.graph import SEC_SEARCH_NB_TO_ADD
from repro.common.profiling import Profiler
from repro.core.study import ComparativeStudy, GeneralizedVectorDB, SpecializedVectorDB


@pytest.fixture(scope="module")
def profiles(sift_hnsw):
    profs = {"PASE": Profiler(), "Faiss": Profiler()}
    study = ComparativeStudy(
        sift_hnsw,
        "hnsw",
        dict(HNSW_PARAMS),
        generalized=GeneralizedVectorDB(profiler=profs["PASE"]),
        specialized=SpecializedVectorDB(profiler=profs["Faiss"]),
    )
    study.compare_build()
    return profs


def test_tab3_profiled_build(benchmark, sift_hnsw):
    def build():
        prof = Profiler()
        gen = GeneralizedVectorDB(profiler=prof)
        gen.load(sift_hnsw.base)
        gen.create_index("hnsw", **HNSW_PARAMS)
        return prof

    benchmark.pedantic(build, rounds=1, iterations=1)


def test_tab3_searchnbtoadd_dominates_both(profiles):
    for prof in profiles.values():
        rows = {r.name: r.fraction for r in prof.breakdown()}
        assert max(rows, key=rows.get) == SEC_SEARCH_NB_TO_ADD


def test_tab3_pase_absolute_time_larger(profiles):
    pase = profiles["PASE"].inclusive_seconds(SEC_SEARCH_NB_TO_ADD)
    faiss = profiles["Faiss"].inclusive_seconds(SEC_SEARCH_NB_TO_ADD)
    assert pase > faiss * 1.5
