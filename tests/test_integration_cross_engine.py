"""Cross-engine integration tests: the study's validity conditions.

The paper's methodology requires that both engines run the *same
algorithm with the same parameters* so measured differences are pure
implementation cost.  These tests pin that equivalence down.
"""

import numpy as np
import pytest

from repro.common.metrics import mean_recall_at_k
from repro.core.study import ComparativeStudy, GeneralizedVectorDB, SpecializedVectorDB
from repro.pase.ivf_core import _key_tid
from repro.specialized import HNSWIndex, IVFFlatIndex


class TestIVFEquivalence:
    @pytest.fixture(scope="class")
    def pair(self, medium_dataset):
        gen = GeneralizedVectorDB(buffer_pool_pages=2048)
        gen.load(medium_dataset.base)
        gen.create_index("ivf_flat", clusters=16, sample_ratio=0.4, seed=9)
        spec = IVFFlatIndex(medium_dataset.dim, n_clusters=16)
        spec.set_centroids(gen.pase_centroids())
        spec.add(medium_dataset.base)
        return gen, spec

    def test_identical_results_with_shared_centroids(self, pair, medium_dataset):
        gen, spec = pair
        for q in medium_dataset.queries[:6]:
            gen_result = gen.search(q, 10, nprobe=8)
            spec_result = spec.search(q, 10, nprobe=8)
            assert gen_result.ids == spec_result.ids
            np.testing.assert_allclose(
                gen_result.distances, spec_result.distances, rtol=1e-3, atol=1e-3
            )

    def test_same_bucket_contents(self, pair, medium_dataset):
        gen, spec = pair
        # Rebuild the PASE bucket map from the index pages and compare
        # against the specialized engine's buckets.
        table = gen.db.catalog.table(gen.table_name)
        pase_buckets = {}
        for cent_id, head, __ in gen.am._iter_centroids():
            members = set()
            for keys, __ in gen.am._chain_pages(head):
                for key in keys:
                    members.add(table.heap.fetch_column(_key_tid(key), 0))
            pase_buckets[cent_id] = members
        for b in range(16):
            assert pase_buckets[b] == set(spec.bucket_members(b).tolist())


class TestHNSWEquivalence:
    def test_identical_graphs_and_results(self, medium_dataset):
        gen = GeneralizedVectorDB(buffer_pool_pages=4096)
        gen.load(medium_dataset.base[:700])
        gen.create_index("hnsw", bnn=8, efb=24, seed=12)
        spec = HNSWIndex(medium_dataset.dim, bnn=8, efb=24, seed=12)
        spec.add(medium_dataset.base[:700])
        # Same RNG seed + same insertion order = identical graphs, so
        # searches agree exactly.
        for q in medium_dataset.queries[:5]:
            gen_ids = gen.search(q, 10, efs=60).ids
            spec_ids = spec.search(q, 10, efs=60).ids
            assert gen_ids == spec_ids


class TestStudyEndToEnd:
    def test_full_pipeline_all_index_types(self, small_dataset):
        params = {
            "ivf_flat": {"clusters": 8, "sample_ratio": 0.5, "seed": 2},
            "ivf_pq": {"clusters": 8, "m": 4, "c_pq": 16, "sample_ratio": 0.9, "seed": 2},
            "hnsw": {"bnn": 6, "efb": 16, "seed": 2},
        }
        for index_type, p in params.items():
            study = ComparativeStudy(small_dataset, index_type, p)
            build = study.compare_build()
            assert build.gap > 0
            size = study.compare_size()
            assert size.generalized.allocated_bytes > 0
            search = study.compare_search(
                k=5,
                nprobe=8 if index_type != "hnsw" else None,
                efs=40 if index_type == "hnsw" else None,
                n_queries=4,
                recall=True,
            )
            assert search.generalized.count == 4
            # Both engines achieve comparable recall at these settings.
            assert abs(search.generalized_recall - search.specialized_recall) < 0.5

    def test_paper_headline_direction(self, medium_dataset):
        """The qualitative headline: PASE slower to build and search,
        HNSW index much bigger, IVF_FLAT sizes comparable."""
        flat = ComparativeStudy(
            medium_dataset, "ivf_flat", {"clusters": 20, "sample_ratio": 0.3, "seed": 1}
        )
        assert flat.compare_build().gap > 1.0
        assert 0.8 < flat.compare_size().gap < 2.5
        assert flat.compare_search(k=10, nprobe=10, n_queries=5).gap > 1.0

        hnsw = ComparativeStudy(
            medium_dataset, "hnsw", {"bnn": 8, "efb": 20, "seed": 1}
        )
        assert hnsw.compare_build().gap > 1.0
        assert hnsw.compare_size().gap > 2.0  # RC#4

    def test_sql_and_study_agree(self, small_dataset, vec_lit):
        """The SQL surface and the study wrapper return the same hits."""
        gen = GeneralizedVectorDB(buffer_pool_pages=512)
        gen.load(small_dataset.base)
        gen.create_index("ivf_flat", clusters=8, sample_ratio=0.5, seed=2)
        gen.db.execute("SET pase.nprobe = 8")
        q = small_dataset.queries[0]
        api_ids = gen.search(q, 5, nprobe=8).ids
        rows = gen.db.query(
            f"SELECT id FROM vectors ORDER BY vec <-> '{vec_lit(q)}'::PASE LIMIT 5"
        )
        assert [r[0] for r in rows] == api_ids
