"""Tests for the comparative study framework (the paper's apparatus)."""

import numpy as np
import pytest

from repro.common.datasets import tiny_dataset
from repro.common.profiling import Profiler
from repro.core.study import (
    ComparativeStudy,
    GeneralizedVectorDB,
    SpecializedVectorDB,
    make_specialized_index,
)


@pytest.fixture(scope="module")
def flat_study(medium_dataset):
    study = ComparativeStudy(
        medium_dataset,
        "ivf_flat",
        {"clusters": 20, "sample_ratio": 0.3, "seed": 6},
    )
    study.compare_build()
    return study


class TestGeneralizedWrapper:
    def test_load_and_search(self, small_dataset):
        gen = GeneralizedVectorDB(buffer_pool_pages=512)
        gen.load(small_dataset.base)
        gen.create_index("ivf_flat", clusters=8, sample_ratio=0.5, seed=1)
        result = gen.search(small_dataset.queries[0], 5, nprobe=8)
        assert result.ids == small_dataset.ground_truth(5)[0].tolist()
        assert result.tuples_accessed > 0

    def test_pool_smaller_than_the_table(self):
        """A 16-frame pool holds a fraction of a 1 000 x 128 table: the
        load must leave its filled pages evictable, and the index built
        and searched through that pool must answer like a roomy one."""
        data = tiny_dataset(n=1000, dim=128, n_queries=3, seed=303)
        engines = {}
        for pages in (16, 4096):
            gen = GeneralizedVectorDB(buffer_pool_pages=pages)
            gen.load(data.base)
            gen.create_index("ivf_flat", clusters=24, sample_ratio=0.25, seed=42)
            engines[pages] = gen
        assert engines[16].db.buffer_stats.evictions > 0
        for q in data.queries:
            ids = engines[16].search(q, 10, nprobe=8).ids
            assert ids == engines[4096].search(q, 10, nprobe=8).ids

    def test_search_before_index_rejected(self, small_dataset):
        gen = GeneralizedVectorDB(buffer_pool_pages=512)
        gen.load(small_dataset.base)
        with pytest.raises(RuntimeError):
            gen.search(small_dataset.queries[0], 1)

    def test_rebuild_replaces_index(self, small_dataset):
        gen = GeneralizedVectorDB(buffer_pool_pages=512)
        gen.load(small_dataset.base)
        gen.create_index("ivf_flat", clusters=4, sample_ratio=0.5, seed=1)
        gen.create_index("ivf_flat", clusters=8, sample_ratio=0.5, seed=1)
        assert gen.db.catalog.find_index(gen.index_name) is not None

    def test_centroid_extraction(self, small_dataset):
        gen = GeneralizedVectorDB(buffer_pool_pages=512)
        gen.load(small_dataset.base)
        gen.create_index("ivf_flat", clusters=6, sample_ratio=0.5, seed=1)
        cents = gen.pase_centroids()
        assert cents.shape == (6, small_dataset.dim)

    def test_unknown_index_type(self, small_dataset):
        gen = GeneralizedVectorDB(buffer_pool_pages=512)
        gen.load(small_dataset.base)
        with pytest.raises(ValueError):
            gen.create_index("rtree")

    def test_unknown_param_rejected(self, small_dataset):
        gen = GeneralizedVectorDB(buffer_pool_pages=512)
        gen.load(small_dataset.base)
        with pytest.raises(ValueError):
            gen.create_index("ivf_flat", clusterz=4)


class TestSpecializedWrapper:
    def test_same_interface(self, small_dataset):
        spec = SpecializedVectorDB()
        spec.load(small_dataset.base)
        spec.create_index("ivf_flat", clusters=8, sample_ratio=0.5, seed=1)
        result = spec.search(small_dataset.queries[0], 5, nprobe=8)
        assert result.ids == small_dataset.ground_truth(5)[0].tolist()

    def test_factory_all_types(self, small_dataset):
        for index_type in ("ivf_flat", "ivf_pq", "hnsw"):
            index = make_specialized_index(
                index_type,
                small_dataset.dim,
                {"clusters": 4, "m": 4, "c_pq": 16, "bnn": 4, "sample_ratio": 0.9},
            )
            assert index.dim == small_dataset.dim

    def test_hnsw_ignores_nprobe(self, small_dataset):
        spec = SpecializedVectorDB()
        spec.load(small_dataset.base[:200])
        spec.create_index("hnsw", bnn=4, efb=12, seed=1)
        result = spec.search(small_dataset.queries[0], 3, nprobe=10, efs=30)
        assert len(result.neighbors) == 3


class TestComparativeStudy:
    def test_build_comparison(self, flat_study):
        cmp = flat_study.compare_build()
        assert cmp.generalized.total_seconds > 0
        assert cmp.specialized.total_seconds > 0
        assert cmp.gap > 0
        assert cmp.generalized.vectors_added == flat_study.dataset.n

    def test_size_comparison(self, flat_study):
        cmp = flat_study.compare_size()
        # IVF_FLAT sizes are nearly identical (the paper's Fig. 11).
        assert 0.8 < cmp.gap < 2.0

    def test_search_comparison_with_recall(self, flat_study):
        cmp = flat_study.compare_search(k=10, nprobe=20, n_queries=5, recall=True)
        assert cmp.generalized_recall == pytest.approx(cmp.specialized_recall, abs=0.35)
        assert cmp.generalized_recall == 1.0  # all buckets probed
        assert cmp.gap > 1.0  # PASE is slower

    def test_transplant_makes_buckets_identical(self, medium_dataset):
        study = ComparativeStudy(
            medium_dataset, "ivf_flat", {"clusters": 12, "sample_ratio": 0.3, "seed": 6}
        )
        study.compare_build()
        study.transplant_centroids()
        spec_index = study.specialized.index
        pase_cents = study.generalized.pase_centroids()
        np.testing.assert_allclose(spec_index.centroids, pase_cents, rtol=1e-6)
        # With identical centroids and full probing, results must match.
        q = medium_dataset.queries[0]
        gen_ids = study.generalized.search(q, 10, nprobe=12).ids
        spec_ids = study.specialized.search(q, 10, nprobe=12).ids
        assert gen_ids == spec_ids

    def test_transplant_requires_ivf_flat(self, medium_dataset):
        study = ComparativeStudy(medium_dataset, "hnsw", {"bnn": 4, "efb": 12})
        with pytest.raises(ValueError):
            study.transplant_centroids()

    def test_profilers_attached(self, small_dataset):
        gen_prof, spec_prof = Profiler(), Profiler()
        study = ComparativeStudy(
            small_dataset,
            "ivf_flat",
            {"clusters": 6, "sample_ratio": 0.5, "seed": 1},
            generalized=GeneralizedVectorDB(profiler=gen_prof, buffer_pool_pages=512),
            specialized=SpecializedVectorDB(profiler=spec_prof),
        )
        study.compare_search(k=5, nprobe=6, n_queries=3)
        assert gen_prof.inclusive_seconds("fvec_L2sqr") > 0
        assert spec_prof.inclusive_seconds("fvec_L2sqr") > 0

    def test_invalid_index_type(self, small_dataset):
        with pytest.raises(ValueError):
            ComparativeStudy(small_dataset, "annoy")
