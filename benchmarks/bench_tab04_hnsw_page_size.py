"""Table IV: PASE HNSW size at 8KB vs 4KB pages.

Paper shape: halving the page size roughly halves the index.
"""

import pytest

from conftest import HNSW_PARAMS
from repro.core.study import GeneralizedVectorDB


@pytest.fixture(scope="module")
def sizes(sift_hnsw):
    out = {}
    for page_size in (8192, 4096):
        gen = GeneralizedVectorDB(page_size=page_size)
        gen.load(sift_hnsw.base)
        gen.create_index("hnsw", **HNSW_PARAMS)
        out[page_size] = gen.index_size().allocated_bytes
    return out


def test_tab4_build_4kb(benchmark, sift_hnsw):
    def build():
        gen = GeneralizedVectorDB(page_size=4096)
        gen.load(sift_hnsw.base)
        gen.create_index("hnsw", **HNSW_PARAMS)
        return gen.index_size()

    benchmark.pedantic(build, rounds=1, iterations=1)


def test_tab4_shape_half_page_half_size(sizes):
    ratio = sizes[8192] / sizes[4096]
    assert 1.4 < ratio < 2.2, f"8 KB / 4 KB index size {ratio:.2f}x"  # paper: 1.41x-1.87x
