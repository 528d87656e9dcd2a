"""Fig. 8: time breakdown inside SearchNbToAdd.

Paper shape: the absolute fvec_L2sqr time is similar in both systems
(114s vs 107s in the paper), while PASE adds large Tuple Access /
HVTGet / pasepfirst overheads on top.
"""

import pytest

from conftest import HNSW_PARAMS
from repro.common.graph import (
    SEC_DISTANCE,
    SEC_NEIGHBOR_FETCH,
    SEC_SEARCH_NB_TO_ADD,
    SEC_TUPLE_ACCESS,
    SEC_VISITED,
)
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
    return {
        name: {r.name: r.seconds for r in prof.breakdown(within=SEC_SEARCH_NB_TO_ADD)}
        for name, prof in profs.items()
    }


def test_fig8_distance_time_similar_absolute(profiles):
    pase_dist = profiles["PASE"].get(SEC_DISTANCE, 0.0)
    faiss_dist = profiles["Faiss"].get(SEC_DISTANCE, 0.0)
    ratio = pase_dist / faiss_dist
    assert 0.4 < ratio < 2.5, f"PASE/Faiss {SEC_DISTANCE} time {ratio:.2f}x"


def test_fig8_pase_indirection_dominates(profiles):
    """Tuple Access + pasepfirst + HVTGet dwarf distance time in PASE."""
    pase = profiles["PASE"]
    indirection = (
        pase.get(SEC_TUPLE_ACCESS, 0.0)
        + pase.get(SEC_NEIGHBOR_FETCH, 0.0)
        + pase.get(SEC_VISITED, 0.0)
    )
    ratio = indirection / pase.get(SEC_DISTANCE, 0.0)
    assert ratio > 2.0, f"PASE indirection / {SEC_DISTANCE} time {ratio:.2f}x"


def test_fig8_faiss_indirection_small(profiles):
    faiss = profiles["Faiss"]
    ratio = faiss.get(SEC_NEIGHBOR_FETCH, 0.0) / faiss.get(SEC_DISTANCE, 1e9)
    assert ratio < 1.5, f"Faiss {SEC_NEIGHBOR_FETCH} / {SEC_DISTANCE} time {ratio:.2f}x"
