"""Fig. 7: HNSW construction time, PASE vs Faiss (RC#2).

Paper shape: PASE 1.6x-8.7x slower; the cause is buffer-manager
page indirection, not distance arithmetic.
"""

import statistics

from conftest import HNSW_PARAMS, alternating_hnsw_builds
from repro.core.study import GeneralizedVectorDB, SpecializedVectorDB


def test_fig7_pase_build(benchmark, sift_hnsw):
    def build():
        gen = GeneralizedVectorDB()
        gen.load(sift_hnsw.base)
        return gen.create_index("hnsw", **HNSW_PARAMS)

    benchmark.pedantic(build, rounds=1, iterations=1)


def test_fig7_faiss_build(benchmark, sift_hnsw):
    def build():
        spec = SpecializedVectorDB()
        spec.load(sift_hnsw.base)
        return spec.create_index("hnsw", **HNSW_PARAMS)

    benchmark.pedantic(build, rounds=1, iterations=1)


def test_fig7_shape(sift_hnsw):
    """The median PASE/Faiss build-time ratio of alternating build pairs."""
    gaps = [
        pair["PASE"][0].total_seconds / pair["Faiss"][0].total_seconds
        for pair in alternating_hnsw_builds(sift_hnsw)
    ]
    gap = statistics.median(gaps)
    assert 1.3 < gap < 30.0, (  # paper: 1.6x-8.7x
        f"median build gap {gap:.2f}x, pairs {', '.join(f'{g:.2f}' for g in gaps)}"
    )
